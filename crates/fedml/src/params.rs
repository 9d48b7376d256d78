//! Flat parameter vectors.
//!
//! Over-the-air aggregation operates on the *flattened* model parameter vector
//! `w ∈ ℝ^q` (the paper's `w_t^i`): workers scale it by their transmit power
//! and the channel superposes the analog waveforms. [`FlatParams`] is that
//! representation — a plain `Vec<f64>` with the handful of vector-space
//! operations the mechanism and the wireless substrate need (axpy, scaling,
//! norms, weighted averaging).

use serde::{Deserialize, Serialize};

/// A flattened model parameter vector.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlatParams(pub Vec<f64>);

impl FlatParams {
    /// A zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Self(vec![0.0; dim])
    }

    /// Dimension `q` of the parameter vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Borrow the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrow the underlying slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Squared L2 norm `‖w‖²` (used by the model-bound `W_t²` of Assumption 4
    /// and the transmit-energy model of Eq. (7)).
    pub fn norm_sq(&self) -> f64 {
        self.0.iter().map(|v| v * v).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &FlatParams) {
        assert_eq!(self.dim(), other.dim(), "FlatParams dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.0 {
            *v *= alpha;
        }
    }

    /// Squared L2 distance to another vector.
    pub fn dist_sq(&self, other: &FlatParams) -> f64 {
        assert_eq!(self.dim(), other.dim(), "FlatParams dimension mismatch");
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Convex / affine combination `Σ_i weights_i · params_i`.
    ///
    /// This is the error-free aggregation of Eq. (8); the AirComp substrate
    /// reproduces it approximately through the noisy channel. Panics if the
    /// inputs are empty or have mismatched dimensions.
    pub fn weighted_sum(items: &[(f64, &FlatParams)]) -> FlatParams {
        assert!(!items.is_empty(), "weighted_sum of an empty set");
        let dim = items[0].1.dim();
        let mut out = FlatParams::zeros(dim);
        for (w, p) in items {
            assert_eq!(p.dim(), dim, "FlatParams dimension mismatch");
            out.axpy(*w, p);
        }
        out
    }
}

impl From<Vec<f64>> for FlatParams {
    fn from(v: Vec<f64>) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_zero_norm() {
        let p = FlatParams::zeros(10);
        assert_eq!(p.dim(), 10);
        assert_eq!(p.norm_sq(), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = FlatParams(vec![1.0, 2.0]);
        let b = FlatParams(vec![3.0, -1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.0, vec![7.0, 0.0]);
        a.scale(0.5);
        assert_eq!(a.0, vec![3.5, 0.0]);
    }

    #[test]
    fn weighted_sum_recovers_average() {
        let a = FlatParams(vec![2.0, 0.0]);
        let b = FlatParams(vec![0.0, 2.0]);
        let avg = FlatParams::weighted_sum(&[(0.5, &a), (0.5, &b)]);
        assert_eq!(avg.0, vec![1.0, 1.0]);
    }

    #[test]
    fn dist_sq_is_symmetric_and_zero_on_self() {
        let a = FlatParams(vec![1.0, 2.0, 3.0]);
        let b = FlatParams(vec![0.0, 2.0, 5.0]);
        assert_eq!(a.dist_sq(&a), 0.0);
        assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
        assert_eq!(a.dist_sq(&b), 1.0 + 0.0 + 4.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn axpy_rejects_mismatched_dims() {
        let mut a = FlatParams::zeros(2);
        let b = FlatParams::zeros(3);
        a.axpy(1.0, &b);
    }
}
