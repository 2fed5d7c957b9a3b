//! Communication accounting for the simulated federation.

use serde::{Deserialize, Serialize};

/// Bytes moved between server and clients within one task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskTraffic {
    /// The task index this slice covers.
    pub task: usize,
    /// Server -> client bytes during this task.
    pub down_bytes: u64,
    /// Client -> server bytes during this task.
    pub up_bytes: u64,
    /// Communication rounds executed during this task.
    pub rounds: u64,
    /// Client updates received during this task.
    pub client_updates: u64,
}

/// Bytes moved between server and clients over a run.
///
/// Totals are always maintained; when the driver calls
/// `TrafficStats::start_task` at task boundaries, a per-task breakdown
/// accumulates in [`TrafficStats::per_task`] whose slices sum exactly to the
/// run totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Server -> client bytes (model broadcasts + global prompts).
    pub down_bytes: u64,
    /// Client -> server bytes (model updates + prompt uploads).
    pub up_bytes: u64,
    /// Total communication rounds executed.
    pub rounds: u64,
    /// Total client updates received.
    pub client_updates: u64,
    /// Per-task breakdown, in task order; empty if `start_task` was never
    /// called (e.g. ad-hoc accounting outside the driver).
    pub per_task: Vec<TaskTraffic>,
}

impl TrafficStats {
    /// Opens a new per-task accounting slice; subsequent records accrue to it.
    pub(crate) fn start_task(&mut self, task: usize) {
        self.per_task.push(TaskTraffic {
            task,
            ..TaskTraffic::default()
        });
    }

    /// Records one client's participation in a round. Both arguments are
    /// measured encoded-frame sizes (header + payload): `up_bytes` covers the
    /// client's dense (`ClientModelUpdate`) or compressed
    /// (`CompressedModelUpdate`) update frame plus any merge frame, `down_bytes`
    /// the `ModelBroadcast` frame plus any strategy broadcast frame.
    pub(crate) fn record_client(&mut self, up_bytes: u64, down_bytes: u64) {
        self.down_bytes += down_bytes;
        self.up_bytes += up_bytes;
        self.client_updates += 1;
        if let Some(t) = self.per_task.last_mut() {
            t.down_bytes += down_bytes;
            t.up_bytes += up_bytes;
            t.client_updates += 1;
        }
    }

    /// Records the completion of one round.
    pub(crate) fn record_round(&mut self) {
        self.rounds += 1;
        if let Some(t) = self.per_task.last_mut() {
            t.rounds += 1;
        }
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.down_bytes + self.up_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_adds_up() {
        let mut t = TrafficStats::default();
        t.record_client(110, 105);
        t.record_client(100, 100);
        t.record_round();
        assert_eq!(t.down_bytes, 205);
        assert_eq!(t.up_bytes, 210);
        assert_eq!(t.total_bytes(), 415);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.client_updates, 2);
        assert!(t.per_task.is_empty(), "no task slices without start_task");
    }

    #[test]
    fn per_task_slices_sum_to_run_totals() {
        let mut t = TrafficStats::default();
        t.start_task(0);
        t.record_client(110, 105);
        t.record_round();
        t.start_task(1);
        t.record_client(100, 100);
        t.record_client(107, 103);
        t.record_round();
        t.record_round();

        assert_eq!(t.per_task.len(), 2);
        assert_eq!(t.per_task[0].task, 0);
        assert_eq!(t.per_task[1].task, 1);
        assert_eq!(t.per_task[0].rounds, 1);
        assert_eq!(t.per_task[1].rounds, 2);

        let down: u64 = t.per_task.iter().map(|s| s.down_bytes).sum();
        let up: u64 = t.per_task.iter().map(|s| s.up_bytes).sum();
        let rounds: u64 = t.per_task.iter().map(|s| s.rounds).sum();
        let updates: u64 = t.per_task.iter().map(|s| s.client_updates).sum();
        assert_eq!(down, t.down_bytes);
        assert_eq!(up, t.up_bytes);
        assert_eq!(rounds, t.rounds);
        assert_eq!(updates, t.client_updates);
    }

    #[test]
    fn records_before_first_task_only_hit_totals() {
        let mut t = TrafficStats::default();
        t.record_client(10, 10);
        t.start_task(0);
        t.record_client(10, 10);
        assert_eq!(t.client_updates, 2);
        assert_eq!(t.per_task[0].client_updates, 1);
    }
}
