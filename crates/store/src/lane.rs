//! Per-node virtual I/O lanes: critical-path time for batch fan-out.
//!
//! The global [`SimClock`] is a single counter, so a batched fetch
//! spread across 12 nodes charges 12 seeks *serially* — pessimistic
//! beyond the paper, because real hardware overlaps independent
//! devices. This module models each node as a **lane**: a virtual
//! timeline tracking that node's next-free instant. A dispatch charges
//! each node's framed transfer to its own lane starting at the
//! dispatch instant, the operation completes at the `max` of lane
//! completions, and the global clock advances **once** to that
//! critical path instead of accumulating the sum.
//!
//! Lane math is order-independent by construction: charges on the same
//! lane within one dispatch add (addition commutes), completions
//! across lanes merge with `max` (max commutes), and the global
//! frontier moves through a single [`SimClock::advance_to`] at
//! [`LaneDispatch::finish`]. Interleaving `charge`'s add with
//! `advance_to`'s max on the global counter does *not* commute — which
//! is why diverted workers never touch the frontier directly (see
//! [`SimClock::divert`]) and why the merge-order proptests in this
//! module exist.
//!
//! Lanes are a **pricing model**, not an execution model: the legs of
//! a dispatch run one after another on the caller's thread with their
//! charges diverted, and only the arithmetic above overlaps them.
//! (Real threads per dispatch were measured and cost wall-clock
//! throughput on every workload that used them, for no virtual-time
//! difference.) [`DispatchPolicy`] selects between the classic
//! sequential model (every charge lands on the global counter in call
//! order — the default wherever golden vectors and chaos digests are
//! pinned) and parallel lanes. Callers never drive lanes by hand: the
//! only entry point is `Cluster::dispatch_lanes`, enforced by the
//! `seam_scan` test in `aeon-core`.

use crate::clock::{SimClock, SimDuration, SimTime};
use crate::node::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a cluster prices the per-node legs of a fan-out. Execution is
/// the same under both: one leg after another on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Every charge lands on the global clock in call order. Virtual
    /// time for a fan-out is the **sum** of per-node costs. The
    /// default: pinned golden vectors and chaos digests were recorded
    /// against it.
    #[default]
    Sequential,
    /// Each leg charges its own node's lane; the fan-out completes at
    /// the **critical path** (max of lane completions). Payloads, typed
    /// failures, and per-shard attempt schedules are byte-identical to
    /// sequential — only virtual timing differs.
    Parallel {
        /// Selects nothing: it once sized a per-dispatch thread pool,
        /// which was deleted. The field stays only because the repo
        /// benchmark (`bench/src/workload.rs`) constructs the variant
        /// with it; its removal is owed to the next benchmark PR.
        workers: usize,
    },
}

impl DispatchPolicy {
    /// Parallel lane pricing.
    #[must_use]
    pub fn parallel() -> Self {
        DispatchPolicy::Parallel { workers: 1 }
    }

    /// Reads the `AEON_FORCE_DISPATCH` override (`sequential` or
    /// `parallel`), used by CI to run the equivalence suite under
    /// forced parallel dispatch without touching call sites.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var("AEON_FORCE_DISPATCH").ok()?.as_str() {
            "sequential" => Some(DispatchPolicy::Sequential),
            "parallel" => Some(DispatchPolicy::parallel()),
            _ => None,
        }
    }
}

/// Per-node lane frontiers over a shared [`SimClock`].
///
/// Cheap to clone: clones share both the lane map and the timeline, so
/// a cluster and its clones price lanes consistently. A lane's
/// recorded frontier may lag the global clock (the lane has been idle);
/// dispatch starts each leg at `max(lane frontier, dispatch instant)`.
#[derive(Debug, Clone)]
pub struct LaneClock {
    clock: SimClock,
    lanes: Arc<Mutex<HashMap<NodeId, u64>>>,
}

impl LaneClock {
    /// Lanes over `clock`'s timeline, all initially free.
    #[must_use]
    pub fn new(clock: SimClock) -> Self {
        LaneClock {
            clock,
            lanes: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The shared global clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The instant `node`'s lane is next free: its recorded frontier,
    /// or the global reading if the lane has been idle since.
    #[must_use]
    pub fn next_free(&self, node: NodeId) -> SimTime {
        let recorded = self.lanes.lock().get(&node).copied().unwrap_or(0);
        SimTime::from_nanos(recorded).max(self.clock.now())
    }

    /// Opens a dispatch anchored at the current global instant. All
    /// legs charged through the returned handle start no earlier than
    /// this anchor; [`LaneDispatch::finish`] advances the global clock
    /// to the critical path across the charged lanes.
    #[must_use]
    pub fn begin(&self) -> LaneDispatch<'_> {
        let t0 = self.clock.now();
        LaneDispatch {
            lanes: self,
            t0,
            peak: AtomicU64::new(t0.as_nanos()),
        }
    }
}

/// One batched operation's view of the lanes: an anchor instant plus
/// the running critical path. Charges may arrive from any thread in
/// any order; the final frontier is the same for a fixed multiset of
/// `(node, cost)` charges (pinned by the merge-order proptest below).
#[derive(Debug)]
pub struct LaneDispatch<'a> {
    lanes: &'a LaneClock,
    t0: SimTime,
    peak: AtomicU64,
}

impl LaneDispatch<'_> {
    /// The dispatch anchor: the global instant this batch started.
    #[must_use]
    pub fn t0(&self) -> SimTime {
        self.t0
    }

    /// Charges `cost` to `node`'s lane. The leg starts at the later of
    /// the lane's frontier and the dispatch anchor, and the lane's
    /// frontier moves to its completion. Returns the completion
    /// instant.
    pub fn charge(&self, node: NodeId, cost: SimDuration) -> SimTime {
        let done = {
            let mut lanes = self.lanes.lanes.lock();
            let frontier = lanes.entry(node).or_insert(0);
            let start = (*frontier).max(self.t0.as_nanos());
            let done = start.saturating_add(cost.as_nanos());
            *frontier = done;
            done
        };
        self.peak.fetch_max(done, Ordering::SeqCst);
        SimTime::from_nanos(done)
    }

    /// The critical path so far: the latest lane completion, or the
    /// anchor if nothing has been charged.
    #[must_use]
    pub fn critical_path(&self) -> SimTime {
        SimTime::from_nanos(self.peak.load(Ordering::SeqCst))
    }

    /// Closes the dispatch: advances the global clock **once** to the
    /// critical path and returns it. This is the only point where lane
    /// time reaches the global frontier, which keeps the add/max
    /// interleaving hazard out of worker threads entirely.
    pub fn finish(self) -> SimTime {
        let peak = self.critical_path();
        self.lanes.clock.advance_to(peak);
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn lanes_overlap_to_the_critical_path() {
        let clock = SimClock::new();
        let lanes = LaneClock::new(clock.clone());
        let d = lanes.begin();
        d.charge(n(0), SimDuration::from_millis(30));
        d.charge(n(1), SimDuration::from_millis(50));
        d.charge(n(2), SimDuration::from_millis(20));
        let done = d.finish();
        assert_eq!(done.as_millis(), 50, "max of lanes, not the 100ms sum");
        assert_eq!(clock.now().as_millis(), 50);
    }

    #[test]
    fn same_lane_charges_queue_within_a_dispatch() {
        let clock = SimClock::new();
        let lanes = LaneClock::new(clock.clone());
        let d = lanes.begin();
        d.charge(n(7), SimDuration::from_millis(10));
        let done = d.charge(n(7), SimDuration::from_millis(5));
        assert_eq!(done.as_millis(), 15, "one device serializes its legs");
        assert_eq!(d.finish().as_millis(), 15);
    }

    #[test]
    fn busy_lane_delays_the_next_dispatch() {
        let clock = SimClock::new();
        let lanes = LaneClock::new(clock.clone());
        let d1 = lanes.begin();
        d1.charge(n(0), SimDuration::from_millis(100));
        d1.charge(n(1), SimDuration::from_millis(10));
        d1.finish();
        // Frontier is 100ms; node 0's lane is exactly at the frontier,
        // node 1's lane has been idle since 10ms.
        assert_eq!(lanes.next_free(n(0)).as_millis(), 100);
        assert_eq!(
            lanes.next_free(n(1)).as_millis(),
            100,
            "idle lane is free now"
        );
        let d2 = lanes.begin();
        let done = d2.charge(n(1), SimDuration::from_millis(5));
        assert_eq!(
            done.as_millis(),
            105,
            "new dispatch anchors at the frontier"
        );
        d2.finish();
    }

    #[test]
    fn empty_dispatch_leaves_the_clock_alone() {
        let clock = SimClock::new();
        clock.charge(SimDuration::from_millis(42));
        let lanes = LaneClock::new(clock.clone());
        let d = lanes.begin();
        assert_eq!(d.finish().as_millis(), 42);
        assert_eq!(clock.now().as_millis(), 42);
    }

    #[test]
    fn dispatch_from_many_threads_is_schedule_independent() {
        // A fixed set of lane completions yields one global frontier
        // regardless of which thread charges which lane when: same-lane
        // costs add, cross-lane completions max. Run the same charge
        // set through racing threads repeatedly and against the
        // single-thread reference.
        let legs: Vec<(NodeId, u64)> =
            [(0, 30), (1, 50), (2, 20), (0, 5), (3, 49), (1, 1), (2, 35)]
                .map(|(id, ms)| (n(id), ms))
                .to_vec();
        let reference = {
            let lanes = LaneClock::new(SimClock::new());
            let d = lanes.begin();
            for &(node, ms) in &legs {
                d.charge(node, SimDuration::from_millis(ms));
            }
            d.finish()
        };
        for _ in 0..16 {
            let clock = SimClock::new();
            let lanes = LaneClock::new(clock.clone());
            let d = lanes.begin();
            std::thread::scope(|scope| {
                for &(node, ms) in &legs {
                    let (clock, d) = (&clock, &d);
                    scope.spawn(move || {
                        let ((), cost) = clock.divert(|| {
                            clock.charge(SimDuration::from_millis(ms));
                        });
                        d.charge(node, cost);
                    });
                }
            });
            assert_eq!(d.finish(), reference);
            assert_eq!(clock.now(), reference);
        }
    }

    proptest! {
        /// Extends the clock's `charges_commute` pin to lanes: any
        /// permutation of a fixed `(lane, cost)` multiset merges to
        /// the same critical path, and the frontier equals the max
        /// over lanes of summed per-lane costs.
        #[test]
        fn lane_merge_order_is_irrelevant(
            raw in proptest::collection::vec((0u32..6, 0u64..1_000_000), 1..24),
            rotation in 0usize..24,
        ) {
            let legs: Vec<(NodeId, u64)> =
                raw.into_iter().map(|(id, ns)| (n(id), ns)).collect();
            let run = |order: &[(NodeId, u64)]| {
                let lanes = LaneClock::new(SimClock::new());
                let d = lanes.begin();
                for &(node, ns) in order {
                    d.charge(node, SimDuration::from_nanos(ns));
                }
                d.finish()
            };
            let forward = run(&legs);
            let mut reversed = legs.clone();
            reversed.reverse();
            let mut rotated = legs.clone();
            rotated.rotate_left(rotation % legs.len());
            prop_assert_eq!(run(&reversed), forward);
            prop_assert_eq!(run(&rotated), forward);
            // Closed form: max over lanes of the lane's summed costs.
            let mut per_lane: HashMap<NodeId, u64> = HashMap::new();
            for &(node, ns) in &legs {
                *per_lane.entry(node).or_insert(0) += ns;
            }
            let expect = per_lane.values().copied().max().unwrap_or(0);
            prop_assert_eq!(forward.as_nanos(), expect);
        }
    }
}
