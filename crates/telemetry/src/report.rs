//! Round-structured profiling reports: the serde types the federated runner
//! emits once per round and aggregates onto its run result.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Scratch-arena accounting for one stretch of work (a client session, an
/// eval sweep, or a whole round). All byte figures count `f32` payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Bytes newly allocated because the arena pool had no reusable buffer.
    pub reserved_bytes: u64,
    /// Number of fresh allocations behind `reserved_bytes`.
    pub reserved_count: u64,
    /// Bytes served from the pool without allocating.
    pub reused_bytes: u64,
    /// Number of pool hits behind `reused_bytes`.
    pub reused_count: u64,
    /// High-water mark of bytes parked in arena pools.
    pub peak_pool_bytes: u64,
}

impl ArenaStats {
    /// Folds another window into this one: sums flows, takes the max peak.
    pub fn merge(&mut self, other: &ArenaStats) {
        self.reserved_bytes += other.reserved_bytes;
        self.reserved_count += other.reserved_count;
        self.reused_bytes += other.reused_bytes;
        self.reused_count += other.reused_count;
        self.peak_pool_bytes = self.peak_pool_bytes.max(other.peak_pool_bytes);
    }

    /// Fraction of buffer requests served from the pool, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reserved_count + self.reused_count;
        if total == 0 {
            0.0
        } else {
            self.reused_count as f64 / total as f64
        }
    }
}

/// One worker slot's accounting for a single pool dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Chrome-trace track number (1-based; 0 is the driver).
    pub track: u32,
    /// Nanoseconds spent inside recorded work items.
    pub busy_ns: u64,
    /// `wall − busy`: nanoseconds the slot existed but ran nothing.
    pub idle_ns: u64,
    /// Work items this slot executed.
    pub items: u64,
    /// Items beyond the slot's static fair share `ceil(total/workers)` —
    /// load imbalance this worker absorbed from slower peers under the
    /// shared-counter scheduler.
    pub steals: u64,
}

/// Accounting for one scoped-pool dispatch (client fan-out or eval sweep).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Wall nanoseconds from first spawn to last join.
    pub wall_ns: u64,
    /// Per-slot accounting, in slot order.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Total work items across all slots.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }
}

/// One client session's time on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStat {
    /// Client id within the federation.
    pub client_id: u64,
    /// Track (worker slot + 1) the session ran on.
    pub track: u32,
    /// Wall nanoseconds of the session body.
    pub duration_ns: u64,
}

/// Wall nanoseconds per phase of one federated round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNanos {
    /// Encoding and (simulated) sending of the global payloads.
    pub broadcast: u64,
    /// Parallel client-session fan-out, spawn to join.
    pub train: u64,
    /// Upload decode + strategy aggregation (e.g. FedAvg).
    pub aggregate: u64,
    /// Ordered merge of per-client artifacts into the global state.
    pub merge: u64,
    /// Domain-incremental evaluation (0 for non-boundary rounds).
    pub eval: u64,
}

/// Everything the runner measured about one federated round.
///
/// Emitted once per round and collected into `RunResult::rounds`. Wall
/// times, pool stats, and arena stats vary run-to-run (and with thread
/// count); the *semantic* fields — ids, counts, wire bytes, accuracies —
/// are deterministic for a fixed seed at any thread count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// 0-based task (domain) index.
    pub task: u64,
    /// 0-based round index within the task.
    pub round: u64,
    /// Wall nanoseconds for the whole round.
    pub wall_ns: u64,
    /// Per-phase wall breakdown.
    pub phases: PhaseNanos,
    /// Per-client session times, in client-id order.
    pub sessions: Vec<SessionStat>,
    /// Worker accounting for the client fan-out (absent when telemetry is
    /// disabled).
    pub train_pool: Option<PoolStats>,
    /// Worker accounting for the eval sweep (absent off task boundaries or
    /// when telemetry is disabled).
    pub eval_pool: Option<PoolStats>,
    /// Bytes moved this round, keyed by wire message kind (the same names
    /// as the `wire.<kind>_bytes` counters, without prefix/suffix).
    pub wire_bytes: BTreeMap<String, u64>,
    /// Clients that completed a session this round.
    pub clients_trained: u64,
    /// Clients dropped by the participation schedule this round.
    pub clients_dropped: u64,
    /// Networked runs: sessions whose results missed the round deadline
    /// (stragglers and dead peers). Always 0 on the in-process paths.
    /// `#[serde(default)]` keeps pre-networking reports deserializable.
    #[serde(default)]
    pub clients_late: u64,
    /// Sessions removed by sampled participation (`net.sample_fraction`)
    /// this round. Always 0 when sampling is disabled.
    /// `#[serde(default)]` keeps pre-sampling reports deserializable.
    #[serde(default)]
    pub clients_sampled_out: u64,
    /// Updates that arrived but were refused before aggregation: wrong
    /// parameter count, a weight that is not finite and positive (or that
    /// would overflow the round's total), or a non-finite value. No bytes
    /// are accounted for them.
    /// `#[serde(default)]` keeps earlier reports deserializable.
    #[serde(default)]
    pub clients_rejected: u64,
    /// Per-domain accuracies when this round closed a task, else `None`.
    pub eval_domain_acc: Option<Vec<f32>>,
    /// What this round's client updates would have cost as plain dense
    /// frames — the denominator of the compression ratio. Equals
    /// [`RoundReport::uplink_encoded_bytes`] when compression is off.
    /// `#[serde(default)]` keeps pre-compression reports deserializable.
    #[serde(default)]
    pub uplink_raw_bytes: u64,
    /// Encoded bytes the round's client update frames actually occupied on
    /// the wire (also counted per kind in [`RoundReport::wire_bytes`]).
    /// `#[serde(default)]` keeps pre-compression reports deserializable.
    #[serde(default)]
    pub uplink_encoded_bytes: u64,
    /// Scratch-arena accounting summed over the round's sessions and eval.
    pub scratch: ArenaStats,
}

impl RoundReport {
    /// Total bytes moved this round across all wire message kinds.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_stats_merge_sums_flows_and_maxes_peak() {
        let mut a = ArenaStats {
            reserved_bytes: 100,
            reserved_count: 2,
            reused_bytes: 300,
            reused_count: 6,
            peak_pool_bytes: 400,
        };
        let b = ArenaStats {
            reserved_bytes: 50,
            reserved_count: 1,
            reused_bytes: 100,
            reused_count: 2,
            peak_pool_bytes: 900,
        };
        a.merge(&b);
        assert_eq!(a.reserved_bytes, 150);
        assert_eq!(a.reused_count, 8);
        assert_eq!(a.peak_pool_bytes, 900);
        assert!((a.reuse_ratio() - 8.0 / 11.0).abs() < 1e-12);
        assert_eq!(ArenaStats::default().reuse_ratio(), 0.0);
    }

    #[test]
    fn pool_stats_total_items_sums_every_worker() {
        let pool = PoolStats {
            wall_ns: 100,
            workers: vec![
                WorkerStats {
                    track: 1,
                    busy_ns: 100,
                    idle_ns: 0,
                    items: 4,
                    steals: 1,
                },
                WorkerStats {
                    track: 2,
                    busy_ns: 50,
                    idle_ns: 50,
                    items: 2,
                    steals: 0,
                },
            ],
        };
        assert_eq!(pool.total_items(), 6);
        assert_eq!(PoolStats::default().total_items(), 0);
    }

    #[test]
    fn round_report_roundtrips_through_json() {
        let mut report = RoundReport {
            task: 1,
            round: 2,
            wall_ns: 5_000,
            phases: PhaseNanos {
                broadcast: 100,
                train: 3_000,
                aggregate: 500,
                merge: 400,
                eval: 1_000,
            },
            sessions: vec![SessionStat {
                client_id: 3,
                track: 1,
                duration_ns: 2_800,
            }],
            train_pool: Some(PoolStats::default()),
            eval_pool: None,
            wire_bytes: BTreeMap::new(),
            clients_trained: 1,
            clients_dropped: 0,
            clients_late: 0,
            clients_sampled_out: 1,
            clients_rejected: 0,
            eval_domain_acc: Some(vec![0.5, 0.25]),
            uplink_raw_bytes: 128,
            uplink_encoded_bytes: 32,
            scratch: ArenaStats::default(),
        };
        report.wire_bytes.insert("model_broadcast".into(), 64);
        report.wire_bytes.insert("client_update".into(), 32);
        assert_eq!(report.total_wire_bytes(), 96);
        let json = serde_json::to_string(&report).expect("serialize");
        let back: RoundReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
