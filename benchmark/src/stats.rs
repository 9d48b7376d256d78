//! Order statistics over timing samples.

/// Reported value, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The samples' median, unless [`Summary::with_value`] replaced it.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is one exact observation, not a sample of timings.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The same quartiles and count around another reported value (a mean
    /// or a ratio of totals).
    pub fn with_value(self, value: f64) -> Self {
        Self { value, ..self }
    }

    /// Distance between the quartiles as a share of the value: how far the
    /// value may be off. Zero for a value outside its samples' quartiles (a
    /// minimum), about which they say nothing.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 || self.value < self.q1 || self.value > self.q3 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the driver's method),
/// so a spread printed here reads the same as the driver's.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len < 2 {
        return [sorted[0]; 3];
    }
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let pos = (i + 1) * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Summarise samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let [q1, value, q3] = quartiles(&s);
    Some(Summary {
        value,
        q1,
        q3,
        n: s.len(),
    })
}

/// Arithmetic mean of the samples; `None` when there are none.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Median of the samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.value)
}

/// The `p`-th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it — a tail read off fewer is one slow sample, not a
/// percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_sample_and_none() {
        assert!(summarize(&[]).is_none());
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), Some(5.0));
        assert_eq!(mean(&[1.0, 9.0, 5.0, 1.0]), Some(4.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(s.with_value(5.0), Summary { value: 5.0, ..s });
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
        assert_eq!(s.with_value(1.5).spread(), 2.0 / 1.5);
        // The quartiles of the samples do not bracket their minimum.
        assert_eq!(s.with_value(0.5).spread(), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&xs[..199], 95.0), None);
        assert_eq!(percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
