//! Per-worker timelines: allocation-light interval recording for the
//! runner's scoped thread pools.
//!
//! A [`Timeline`] is created once per pool dispatch ([`crate::Telemetry::timeline`]).
//! Each worker records `(label, start, end)` tick pairs into its own
//! [`Lane`] — a preallocated buffer with no locking and no per-event
//! allocation. Persistent pools keep one [`Lane::detached`] per slot alive
//! across dispatches and revive it with [`Timeline::rearm`] (clear events,
//! keep capacity); one-shot callers mint fresh lanes with
//! [`Timeline::lane`]. [`Timeline::merge`] then — on the driver thread, off
//! the hot path — computes per-worker busy/idle/steal accounting over the
//! lanes that actually ran items and streams every slice as a
//! [`crate::TraceEvent::TimelineSpan`].
//!
//! On a disabled collector every lane method is a branch on a bool: no clock
//! reads, no buffer, no events.

use std::time::Instant;

use crate::report::{PoolStats, WorkerStats};
use crate::Telemetry;

/// Upfront capacity of each lane's event buffer. Lanes grow past this only
/// on unusually long rounds (hundreds of items per worker), keeping the
/// steady-state hot path reallocation-free.
const LANE_CAPACITY: usize = 64;

/// One recorded interval on a worker's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneEvent {
    /// Static label of the work kind, e.g. `"client"` or `"eval"`.
    pub kind: &'static str,
    /// Optional item id rendered after the kind (`client:7`); `None` renders
    /// the bare kind.
    pub id: Option<u64>,
    /// Nanoseconds from the collector epoch to the interval start.
    pub start_ns: u64,
    /// Nanoseconds from the collector epoch to the interval end.
    pub end_ns: u64,
}

/// A single worker's event buffer. Move it into the worker thread, call
/// [`Lane::tick`]/[`Lane::record`] around each work item, and return it via
/// the thread's join result for [`Timeline::merge`].
#[derive(Debug)]
pub struct Lane {
    enabled: bool,
    epoch: Option<Instant>,
    /// Track number this lane renders to: 0 is the driver, `1..=N` workers.
    track: u32,
    events: Vec<LaneEvent>,
}

impl Lane {
    /// A dormant lane: disabled, no epoch, no buffer. Persistent pools
    /// preallocate one per worker slot and bring it to life with
    /// [`Timeline::rearm`] at each dispatch, so the event buffer is
    /// allocated once and reused across rounds.
    pub fn detached() -> Self {
        Self {
            enabled: false,
            epoch: None,
            track: 0,
            events: Vec::new(),
        }
    }

    /// Current tick (nanoseconds since the collector epoch), or 0 when the
    /// lane is disabled. Pair with [`Lane::record`] around a work item.
    #[inline]
    pub fn tick(&self) -> u64 {
        match self.epoch {
            Some(epoch) if self.enabled => {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            _ => 0,
        }
    }

    /// Records one completed interval that started at `start_ns` (a prior
    /// [`Lane::tick`]) and ends now. No-op when disabled — the end tick is
    /// never even read.
    #[inline]
    pub fn record(&mut self, kind: &'static str, id: Option<u64>, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.tick();
        self.events.push(LaneEvent {
            kind,
            id,
            start_ns,
            end_ns,
        });
    }
}

/// Factory for one pool dispatch's worker lanes, plus the merge step that
/// turns returned lanes into [`PoolStats`] and streamed trace slices.
#[derive(Debug)]
pub struct Timeline {
    telemetry: Telemetry,
    enabled: bool,
    epoch: Option<Instant>,
}

impl Timeline {
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        let epoch = telemetry.epoch();
        Self {
            telemetry: telemetry.clone(),
            enabled: epoch.is_some(),
            epoch,
        }
    }

    /// A fresh lane for worker slot `slot` (0-based). Rendered as track
    /// `slot + 1`; track 0 is reserved for the driver thread's phase
    /// envelopes.
    pub fn lane(&self, slot: usize) -> Lane {
        Lane {
            enabled: self.enabled,
            epoch: self.epoch,
            track: u32::try_from(slot + 1).unwrap_or(u32::MAX),
            events: if self.enabled {
                Vec::with_capacity(LANE_CAPACITY)
            } else {
                Vec::new()
            },
        }
    }

    /// Re-arms a (possibly reused) lane for worker slot `slot` under this
    /// timeline: adopts this dispatch's enablement, epoch, and track, and
    /// clears prior events while keeping the buffer's capacity. This is the
    /// persistent-pool counterpart of [`Timeline::lane`] — same semantics,
    /// zero steady-state allocation.
    pub fn rearm(&self, lane: &mut Lane, slot: usize) {
        lane.enabled = self.enabled;
        lane.epoch = self.epoch;
        lane.track = u32::try_from(slot + 1).unwrap_or(u32::MAX);
        lane.events.clear();
        if self.enabled && lane.events.capacity() < LANE_CAPACITY {
            lane.events.reserve(LANE_CAPACITY - lane.events.capacity());
        }
    }

    /// Current tick on the shared clock (0 when disabled) — use for the
    /// pool's wall-clock envelope around dispatch and merge.
    pub fn tick(&self) -> u64 {
        match self.epoch {
            Some(epoch) => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }

    /// Folds the returned worker lanes into per-worker accounting and
    /// streams every recorded slice as a [`crate::TraceEvent::TimelineSpan`].
    ///
    /// `wall_ns` is the pool's dispatch wall time (`tick()` delta around the
    /// dispatch/completion barrier). Lanes are borrowed, not consumed, so a
    /// persistent pool's lanes survive the merge and are reused next round.
    ///
    /// Workers that never won a single item off the shared counter are
    /// dropped entirely: their all-idle tracks are scheduling noise, not
    /// real workers (the old threads=4 table on a 2-core box reported two
    /// phantom 0%-busy tracks). Per *participating* worker: `busy` is the
    /// sum of recorded interval durations, `idle` is `wall − busy`, and
    /// `steals` counts items executed beyond the fair share
    /// `ceil(total_items / participating_workers)` — with the runner's
    /// shared-counter scheduling, that is exactly the load imbalance a
    /// worker absorbed from slower peers. Returns `None` when the timeline
    /// is disabled.
    pub fn merge(&self, lanes: &[&Lane], wall_ns: u64) -> Option<PoolStats> {
        if !self.enabled {
            return None;
        }
        let live: Vec<&Lane> = lanes
            .iter()
            .copied()
            .filter(|lane| !lane.events.is_empty())
            .collect();
        let workers = live.len();
        let total_items: usize = live.iter().map(|lane| lane.events.len()).sum();
        let fair_share = if workers == 0 {
            0
        } else {
            total_items.div_ceil(workers)
        };
        let mut per_worker = Vec::with_capacity(workers);
        let mut name = String::new();
        for lane in &live {
            let mut busy_ns = 0u64;
            for event in &lane.events {
                let dur_ns = event.end_ns.saturating_sub(event.start_ns);
                busy_ns += dur_ns;
                name.clear();
                name.push_str(event.kind);
                if let Some(id) = event.id {
                    name.push(':');
                    name.push_str(itoa(id).as_str());
                }
                self.telemetry
                    .timeline_span(lane.track, &name, event.start_ns, dur_ns);
            }
            let items = lane.events.len() as u64;
            per_worker.push(WorkerStats {
                track: lane.track,
                busy_ns,
                idle_ns: wall_ns.saturating_sub(busy_ns),
                items,
                steals: items.saturating_sub(fair_share as u64),
            });
        }
        Some(PoolStats {
            wall_ns,
            workers: per_worker,
        })
    }
}

/// Minimal integer formatting into a stack buffer — avoids `format!`
/// allocation in the merge loop (which can run thousands of times per
/// round for eval chunks).
fn itoa(mut v: u64) -> ItoaBuf {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    ItoaBuf { buf, start: i }
}

struct ItoaBuf {
    buf: [u8; 20],
    start: usize,
}

impl ItoaBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("digits are ascii")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_records_nothing() {
        let t = Telemetry::disabled();
        let timeline = t.timeline();
        let mut lane = timeline.lane(0);
        let start = lane.tick();
        assert_eq!(start, 0);
        lane.record("client", Some(3), start);
        assert!(lane.events.is_empty());
        assert_eq!(
            lane.events.capacity(),
            0,
            "disabled lanes must not allocate"
        );
        assert!(timeline.merge(&[&lane], 0).is_none());
    }

    #[test]
    fn rearm_revives_a_detached_lane_and_keeps_capacity() {
        let t = Telemetry::collecting();
        let timeline = t.timeline();
        let mut lane = Lane::detached();
        assert_eq!(lane.tick(), 0, "detached lanes are dormant");
        timeline.rearm(&mut lane, 2);
        assert_eq!(lane.track, 3);
        assert!(lane.events.capacity() >= LANE_CAPACITY);
        let s = lane.tick();
        lane.record("eval", Some(1), s);
        assert_eq!(lane.events.len(), 1);
        let cap = lane.events.capacity();
        timeline.rearm(&mut lane, 0);
        assert!(lane.events.is_empty(), "rearm clears prior events");
        assert_eq!(lane.track, 1);
        assert_eq!(lane.events.capacity(), cap, "rearm keeps the buffer");
    }

    #[test]
    fn merge_drops_workers_that_never_ran_an_item() {
        let t = Telemetry::collecting();
        let timeline = t.timeline();
        // Three slots, but only two ever win items: the idle slot must not
        // appear in the stats, and fair share is computed over the live pair
        // (4 items / 2 workers = 2 each → one steal for the 3-item worker).
        let mut a = timeline.lane(0);
        let mut b = timeline.lane(1);
        let idle = timeline.lane(2);
        for i in 0..3 {
            let s = a.tick();
            a.record("eval", Some(i), s);
        }
        let s = b.tick();
        b.record("eval", Some(9), s);
        let stats = timeline.merge(&[&a, &b, &idle], 1_000).expect("enabled");
        assert_eq!(stats.workers.len(), 2, "idle slot reported as a worker");
        assert!(stats.workers.iter().all(|w| w.items > 0));
        assert_eq!(stats.workers[0].steals, 1);
        assert_eq!(stats.workers[1].steals, 0);
    }

    #[test]
    fn lanes_record_intervals_and_merge_computes_busy_idle() {
        let t = Telemetry::collecting();
        let timeline = t.timeline();
        let mut lane = timeline.lane(0);
        let start = lane.tick();
        std::thread::sleep(std::time::Duration::from_millis(1));
        lane.record("client", Some(7), start);
        assert_eq!(lane.events.len(), 1);
        let busy = lane.events[0].end_ns - lane.events[0].start_ns;
        assert!(busy >= 1_000_000, "recorded at least the sleep: {busy}");
        let wall = busy + 500;
        let stats = timeline.merge(&[&lane], wall).expect("enabled");
        assert_eq!(stats.workers.len(), 1);
        let w = &stats.workers[0];
        assert_eq!(w.track, 1);
        assert_eq!(w.items, 1);
        assert_eq!(w.busy_ns, busy);
        assert_eq!(w.idle_ns, 500);
        assert_eq!(w.steals, 0);
        // The merged slice reached the aggregates under its kind.
        assert_eq!(t.summary().spans["client"].count, 1);
    }

    #[test]
    fn steals_count_items_beyond_fair_share() {
        let t = Telemetry::collecting();
        let timeline = t.timeline();
        // Two workers, 6 items split 5/1: fair share is 3, so worker 0
        // absorbed 2 items of imbalance.
        let mut a = timeline.lane(0);
        let mut b = timeline.lane(1);
        for i in 0..5 {
            let s = a.tick();
            a.record("eval", Some(i), s);
        }
        let s = b.tick();
        b.record("eval", Some(9), s);
        let stats = timeline.merge(&[&a, &b], 1_000).expect("enabled");
        assert_eq!(stats.workers[0].steals, 2);
        assert_eq!(stats.workers[1].steals, 0);
        assert_eq!(stats.total_items(), 6);
    }

    #[test]
    fn lane_tracks_are_one_based() {
        let t = Telemetry::collecting();
        let timeline = t.timeline();
        assert_eq!(timeline.lane(0).track, 1);
        assert_eq!(timeline.lane(3).track, 4);
    }

    #[test]
    fn itoa_formats_decimal() {
        assert_eq!(itoa(0).as_str(), "0");
        assert_eq!(itoa(42).as_str(), "42");
        assert_eq!(itoa(u64::MAX).as_str(), "18446744073709551615");
    }
}
