//! Training-trace recording.
//!
//! Every mechanism simulator emits a [`TrainingTrace`]: a time series of
//! (virtual time, round, loss, accuracy) points plus cumulative aggregation
//! energy. The experiment harness turns traces into the loss/accuracy-vs-time
//! curves of Figs. 3–6, the time-to-accuracy numbers of Figs. 8/10 and the
//! energy-to-accuracy numbers of Fig. 9.

use serde::{Deserialize, Serialize};

/// One evaluation point of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Virtual wall-clock time (seconds since training started).
    pub time: f64,
    /// Global aggregation round index (1-based, 0 = initial model).
    pub round: usize,
    /// Global-model loss on the evaluation set.
    pub loss: f64,
    /// Global-model accuracy on the evaluation set.
    pub accuracy: f64,
    /// Cumulative aggregation energy spent so far (Joules).
    pub energy: f64,
}

/// What went wrong in one round of a faulty run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEventKind {
    /// Every member of the group was dropped, deadlined or in outage: the
    /// round was skipped without a global update (no zero-division, no new
    /// model version).
    GroupSkipped,
}

/// One fault-degradation event of a run (recorded only when fault injection
/// is active; fault-free traces carry an empty log).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time of the event.
    pub time: f64,
    /// Global round index the event occurred in.
    pub round: usize,
    /// Group index (0 for single-group mechanisms).
    pub group: usize,
    /// What happened.
    pub kind: FaultEventKind,
}

/// Robustness bookkeeping of one run under fault injection: the degradation
/// events plus the participation counters behind the robustness metrics
/// (participation rate, rounds survived). [`Default`] is the empty log —
/// what every fault-free run carries, at zero cost.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// Degradation events, in time order.
    pub events: Vec<FaultEvent>,
    /// Rounds the engine attempted (scheduled a group for).
    pub rounds_attempted: usize,
    /// Rounds that actually produced a global update.
    pub rounds_aggregated: usize,
    /// Total members that participated in an aggregation, summed over
    /// attempted rounds.
    pub participants_total: usize,
    /// Total scheduled members (full group size), summed over attempted
    /// rounds.
    pub members_total: usize,
}

impl FaultLog {
    /// True when nothing was logged (the fault-free case).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.rounds_attempted == 0
    }

    /// Record one attempted round: how many of the group's `members`
    /// actually made it into the aggregation.
    pub fn record_round(&mut self, participants: usize, members: usize) {
        telemetry::metrics::ENGINE_PARTICIPANTS.add(participants as u64);
        telemetry::metrics::ENGINE_PARTICIPANTS_FILTERED
            .add(members.saturating_sub(participants) as u64);
        self.rounds_attempted += 1;
        if participants > 0 {
            self.rounds_aggregated += 1;
        }
        self.participants_total += participants;
        self.members_total += members;
    }

    /// Record a degradation event.
    pub fn record_event(&mut self, event: FaultEvent) {
        match event.kind {
            FaultEventKind::GroupSkipped => telemetry::metrics::ENGINE_GROUP_SKIPS.add(1),
        }
        self.events.push(event);
    }

    /// Fraction of scheduled member slots that participated (1.0 for a
    /// fault-free run, which logs nothing).
    pub fn participation_rate(&self) -> f64 {
        if self.members_total == 0 {
            1.0
        } else {
            self.participants_total as f64 / self.members_total as f64
        }
    }

    /// Rounds that produced a global update ("rounds survived").
    pub fn rounds_survived(&self) -> usize {
        self.rounds_aggregated
    }
}

/// The complete record of one training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingTrace {
    /// Mechanism label (e.g. `"Air-FedGA"`).
    pub mechanism: String,
    /// Workload label (e.g. `"CNN on MNIST-like"`).
    pub workload: String,
    /// Fault/robustness bookkeeping (empty unless fault injection is on;
    /// deliberately not part of [`TrainingTrace::to_csv`], whose byte layout
    /// the `scenario` crate's `cli_contract` replays pin).
    pub faults: FaultLog,
    points: Vec<TracePoint>,
}

impl TrainingTrace {
    /// Create an empty trace with the given labels.
    pub fn new(mechanism: &str, workload: &str) -> Self {
        Self {
            mechanism: mechanism.to_string(),
            workload: workload.to_string(),
            faults: FaultLog::default(),
            points: Vec::new(),
        }
    }

    /// Append an evaluation point. Times must be non-decreasing.
    pub fn record(&mut self, point: TracePoint) {
        assert!(
            point.time.is_finite() && point.loss.is_finite(),
            "trace points must be finite"
        );
        if let Some(last) = self.points.last() {
            assert!(
                point.time + 1e-9 >= last.time,
                "trace times must be non-decreasing ({} then {})",
                last.time,
                point.time
            );
        }
        self.points.push(point);
    }

    /// All recorded points in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded point, if any.
    pub(crate) fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Final accuracy of the run (0 if the trace is empty).
    pub fn final_accuracy(&self) -> f64 {
        self.last().map(|p| p.accuracy).unwrap_or(0.0)
    }

    /// Final loss of the run (+inf if the trace is empty).
    pub fn final_loss(&self) -> f64 {
        self.last().map(|p| p.loss).unwrap_or(f64::INFINITY)
    }

    /// Total virtual training time of the run.
    pub fn total_time(&self) -> f64 {
        self.last().map(|p| p.time).unwrap_or(0.0)
    }

    /// Total aggregation energy of the run.
    pub fn total_energy(&self) -> f64 {
        self.last().map(|p| p.energy).unwrap_or(0.0)
    }

    /// Number of global rounds completed.
    pub fn total_rounds(&self) -> usize {
        self.last().map(|p| p.round).unwrap_or(0)
    }

    /// First virtual time at which the *stable* accuracy reaches `target`:
    /// the paper reports "attains a stable X% accuracy", so we return the
    /// earliest time after which accuracy never drops below the target again.
    /// Returns `None` if the run never stabilises above the target.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        let mut candidate: Option<f64> = None;
        for p in &self.points {
            if p.accuracy >= target {
                if candidate.is_none() {
                    candidate = Some(p.time);
                }
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Energy spent up to the first time the stable accuracy reaches
    /// `target` (used by Fig. 9). Returns `None` if never reached.
    pub fn energy_to_accuracy(&self, target: f64) -> Option<f64> {
        let t = self.time_to_accuracy(target)?;
        self.points.iter().find(|p| p.time >= t).map(|p| p.energy)
    }

    /// Average time between consecutive global rounds.
    pub fn average_round_time(&self) -> f64 {
        let rounds = self.total_rounds();
        if rounds == 0 {
            0.0
        } else {
            self.total_time() / rounds as f64
        }
    }

    /// Render the trace as CSV (`time,round,loss,accuracy,energy`), suitable
    /// for plotting the paper's figures with any external tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,round,loss,accuracy,energy\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.4},{},{:.6},{:.6},{:.4}\n",
                p.time, p.round, p.loss, p.accuracy, p.energy
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(time: f64, round: usize, loss: f64, acc: f64, energy: f64) -> TracePoint {
        TracePoint {
            time,
            round,
            loss,
            accuracy: acc,
            energy,
        }
    }

    #[test]
    fn records_and_summarises() {
        let mut t = TrainingTrace::new("Air-FedGA", "LR on MNIST-like");
        t.record(pt(1.0, 1, 2.0, 0.2, 10.0));
        t.record(pt(2.0, 2, 1.5, 0.5, 20.0));
        t.record(pt(3.0, 3, 1.0, 0.8, 30.0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.final_accuracy(), 0.8);
        assert_eq!(t.final_loss(), 1.0);
        assert_eq!(t.total_time(), 3.0);
        assert_eq!(t.total_energy(), 30.0);
        assert_eq!(t.total_rounds(), 3);
        assert_eq!(t.average_round_time(), 1.0);
    }

    #[test]
    fn time_to_accuracy_requires_stability() {
        let mut t = TrainingTrace::new("x", "y");
        t.record(pt(1.0, 1, 1.0, 0.85, 0.0)); // spike above target...
        t.record(pt(2.0, 2, 1.0, 0.70, 0.0)); // ...then drops below
        t.record(pt(3.0, 3, 1.0, 0.82, 0.0));
        t.record(pt(4.0, 4, 1.0, 0.90, 0.0));
        assert_eq!(t.time_to_accuracy(0.8), Some(3.0));
        assert_eq!(t.time_to_accuracy(0.95), None);
    }

    #[test]
    fn energy_to_accuracy_reads_matching_point() {
        let mut t = TrainingTrace::new("x", "y");
        t.record(pt(1.0, 1, 1.0, 0.5, 5.0));
        t.record(pt(2.0, 2, 1.0, 0.9, 12.0));
        assert_eq!(t.energy_to_accuracy(0.8), Some(12.0));
        assert_eq!(t.energy_to_accuracy(0.99), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = TrainingTrace::new("x", "y");
        t.record(pt(1.0, 1, 1.0, 0.5, 0.0));
        let csv = t.to_csv();
        assert!(csv.starts_with("time,round,loss,accuracy,energy\n"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut t = TrainingTrace::new("x", "y");
        t.record(pt(2.0, 1, 1.0, 0.5, 0.0));
        t.record(pt(1.0, 2, 1.0, 0.5, 0.0));
    }

    #[test]
    fn empty_trace_defaults() {
        let t = TrainingTrace::new("x", "y");
        assert!(t.is_empty());
        assert_eq!(t.final_accuracy(), 0.0);
        assert!(t.final_loss().is_infinite());
        assert_eq!(t.time_to_accuracy(0.1), None);
        assert!(t.faults.is_empty());
        assert_eq!(t.faults.participation_rate(), 1.0);
        assert_eq!(t.faults.rounds_survived(), 0);
    }

    #[test]
    fn fault_log_counts_participation_and_skips() {
        let mut log = FaultLog::default();
        log.record_round(4, 5); // one member missed the deadline
        log.record_round(0, 5); // whole group down -> skipped
        log.record_event(FaultEvent {
            time: 10.0,
            round: 2,
            group: 1,
            kind: FaultEventKind::GroupSkipped,
        });
        log.record_round(5, 5);
        assert_eq!(log.rounds_attempted, 3);
        assert_eq!(log.rounds_survived(), 2);
        assert_eq!(log.participation_rate(), 9.0 / 15.0);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].kind, FaultEventKind::GroupSkipped);
        assert!(!log.is_empty());
    }
}
