//! Geo-dispersed clusters with anti-affinity placement.
//!
//! A [`Cluster`] is the raw shard store: placement, node lookup, lane
//! dispatch, accounting. It is policy-blind — it never sees
//! plaintext, codecs, or manifests. Retrying shard transfers are not
//! here: in `aeon-core` every access to a cluster is funneled through
//! the `PlanExecutor`, whose one fan-out frames transfers per node and
//! runs them through [`Cluster::dispatch_lanes`].

use crate::clock::{SimClock, SimDuration};
use crate::node::{MemoryNode, NodeError, NodeId, ShardKey, StorageNode};
use std::sync::Arc;

/// How a cluster prices the per-node legs of a fan-out. Execution is
/// the same under both: one leg after another on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Every charge lands on the global clock in call order. Virtual
    /// time for a fan-out is the **sum** of per-node costs, which is
    /// pessimistic beyond the paper: real nodes are independent
    /// devices. The default: pinned golden vectors and chaos digests
    /// were recorded against it.
    #[default]
    Sequential,
    /// Each node is a **lane**: its legs queue on it, lanes overlap,
    /// and the fan-out completes at the **critical path** (the slowest
    /// lane). Payloads, typed failures, and per-shard attempt schedules
    /// are byte-identical to sequential — only virtual timing differs.
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

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Not enough distinct nodes/sites to satisfy placement.
    InsufficientNodes {
        /// Nodes needed.
        needed: usize,
        /// Nodes available.
        available: usize,
    },
    /// All replicas of a shard are unavailable.
    ShardUnavailable {
        /// The affected shard index.
        shard: u32,
    },
    /// An underlying node error that was not recoverable.
    Node(NodeError),
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::InsufficientNodes { needed, available } => {
                write!(f, "need {needed} nodes, only {available} available")
            }
            ClusterError::ShardUnavailable { shard } => write!(f, "shard {shard} unavailable"),
            ClusterError::Node(e) => write!(f, "node error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<NodeError> for ClusterError {
    fn from(e: NodeError) -> Self {
        ClusterError::Node(e)
    }
}

/// Outcome of one shard's fan-out leg in a retried read or write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAttempt {
    /// Shard index within the object.
    pub shard: u32,
    /// The node the shard lives on.
    pub node: NodeId,
    /// Attempts actually made against the node. Backoff time between
    /// attempts is charged to the cluster's [`SimClock`], not tallied
    /// here.
    pub attempts: u32,
    /// The final error, if the shard stayed unavailable.
    pub error: Option<NodeError>,
}

/// Per-shard transfer accounting — one record per placement entry.
/// Reads and writes share the shape, because both are per-shard
/// fan-outs with bounded retry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransferReport {
    /// One record per placement entry, in shard order.
    pub attempts: Vec<ShardAttempt>,
}

impl TransferReport {
    /// Attempts made against `node` across all shards.
    pub fn attempts_for(&self, node: NodeId) -> u32 {
        self.attempts
            .iter()
            .filter(|a| a.node == node)
            .map(|a| a.attempts)
            .sum()
    }

    /// Total attempts across the fan-out.
    pub fn total_attempts(&self) -> u32 {
        self.attempts.iter().map(|a| a.attempts).sum()
    }

    /// Shards that ended in an error.
    pub fn failed_shards(&self) -> Vec<u32> {
        self.attempts
            .iter()
            .filter(|a| a.error.is_some())
            .map(|a| a.shard)
            .collect()
    }
}

/// A set of storage nodes across sites, with spread placement: an
/// object's shards land on distinct nodes, round-robin across sites so
/// that no site holds two shards of the same object when enough sites
/// exist.
///
/// # Examples
///
/// ```
/// use aeon_store::Cluster;
///
/// let cluster = Cluster::in_memory(&["us", "eu", "ap"], 2); // 6 nodes
/// let placement = cluster.place("obj-1", 5).unwrap();
/// assert_eq!(placement.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Arc<dyn StorageNode>>,
    clock: SimClock,
    dispatch: DispatchPolicy,
}

impl Cluster {
    /// Creates a cluster from existing nodes, with a fresh virtual
    /// clock. When the nodes are time-charging decorators
    /// ([`crate::throughput::ThroughputNode`], [`crate::faults::FaultyNode`]),
    /// install their shared clock with [`Cluster::with_clock`] so retry
    /// backoff lands on the same timeline.
    ///
    /// Dispatch defaults to [`DispatchPolicy::Sequential`] unless the
    /// `AEON_FORCE_DISPATCH` environment override is set (the CI hook
    /// that reruns the equivalence suite under parallel lanes).
    pub fn new(nodes: Vec<Arc<dyn StorageNode>>) -> Self {
        Cluster {
            nodes,
            clock: SimClock::new(),
            dispatch: DispatchPolicy::from_env().unwrap_or_default(),
        }
    }

    /// Creates an all-in-memory cluster with `per_site` nodes at each
    /// named site.
    pub fn in_memory(sites: &[&str], per_site: usize) -> Self {
        let mut nodes: Vec<Arc<dyn StorageNode>> = Vec::new();
        let mut id = 0u32;
        for &site in sites {
            for _ in 0..per_site {
                nodes.push(Arc::new(MemoryNode::new(id, site)));
                id += 1;
            }
        }
        Cluster::new(nodes)
    }

    /// Replaces the cluster's clock with a shared handle (builder
    /// style). Cloning the cluster keeps sharing this timeline.
    #[must_use]
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = clock;
        self
    }

    /// Selects how the per-node legs of a fan-out are priced (builder
    /// style). Sequential is the default; see [`DispatchPolicy`] for
    /// the trade.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The virtual clock that retry backoff (and any time-charging node
    /// decorators built with the same handle) advance.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Runs one closure per entry of `lane_nodes`, in order, on the
    /// caller's thread, and returns the results. This is the **only**
    /// lane-dispatch seam, and the policy decides how the legs are
    /// *priced*, not how they execute: under
    /// [`DispatchPolicy::Sequential`] every charge lands on the global
    /// clock in call order (the sum). Under [`DispatchPolicy::Parallel`]
    /// each leg runs in a capture frame on the clock, so everything it
    /// charges or jumps (decorator seeks, framed bytes, fault latency,
    /// an offline-window wait) is its cost alone; the cost is added to
    /// its node's lane, and the clock advances once, to the slowest
    /// lane. That is the max over nodes of each node's summed leg costs,
    /// whatever order the legs ran in.
    ///
    /// Every lane opens at the dispatch instant: the previous dispatch
    /// left the clock at its slowest lane, so no lane is still busy.
    ///
    /// Each closure should touch only its own node (the grouping
    /// invariant of the executor's fan-out), or the lane a charge is
    /// priced on is not the device that did the work.
    pub fn dispatch_lanes<T>(&self, lane_nodes: &[NodeId], op: impl Fn(usize) -> T) -> Vec<T> {
        match self.dispatch {
            DispatchPolicy::Sequential => (0..lane_nodes.len()).map(op).collect(),
            DispatchPolicy::Parallel { .. } => {
                let t0 = self.clock.now();
                let mut lanes: Vec<(NodeId, SimDuration)> = Vec::with_capacity(lane_nodes.len());
                let out = lane_nodes
                    .iter()
                    .enumerate()
                    .map(|(i, &node)| {
                        let (out, cost) = self.clock.divert(|| op(i));
                        match lanes.iter_mut().find(|(n, _)| *n == node) {
                            Some((_, busy)) => *busy += cost,
                            None => lanes.push((node, cost)),
                        }
                        out
                    })
                    .collect();
                let slowest = lanes.into_iter().map(|(_, busy)| busy).max();
                self.clock.advance_to(t0 + slowest.unwrap_or_default());
                out
            }
        }
    }

    /// The cluster's nodes.
    pub fn nodes(&self) -> &[Arc<dyn StorageNode>] {
        &self.nodes
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&Arc<dyn StorageNode>> {
        self.nodes.iter().find(|n| n.id() == id)
    }

    /// Chooses `count` distinct nodes for an object's shards: sites are
    /// visited round-robin, nodes within a site in order. Deterministic
    /// for a given object name (stable placement).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientNodes`] if `count` exceeds the
    /// node population.
    pub fn place(&self, object: &str, count: usize) -> Result<Vec<NodeId>, ClusterError> {
        if count > self.nodes.len() {
            return Err(ClusterError::InsufficientNodes {
                needed: count,
                available: self.nodes.len(),
            });
        }
        // Group nodes by site, preserving order.
        let mut by_site: Vec<(&str, Vec<&Arc<dyn StorageNode>>)> = Vec::new();
        for node in &self.nodes {
            match by_site.iter_mut().find(|(s, _)| *s == node.site()) {
                Some((_, v)) => v.push(node),
                None => by_site.push((node.site(), vec![node])),
            }
        }
        // Start site chosen by a stable hash of the object name so load
        // spreads across sites between objects.
        let start = stable_hash(object) as usize % by_site.len();
        let mut picked = Vec::with_capacity(count);
        let mut depth = 0usize;
        while picked.len() < count {
            let mut progressed = false;
            for s in 0..by_site.len() {
                let (_, nodes) = &by_site[(start + s) % by_site.len()];
                if let Some(node) = nodes.get(depth) {
                    picked.push(node.id());
                    progressed = true;
                    if picked.len() == count {
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
            depth += 1;
        }
        Ok(picked)
    }

    /// Stores an object's shards on a placement.
    ///
    /// # Errors
    ///
    /// Propagates the first node error.
    pub fn put_shards(
        &self,
        object: &str,
        placement: &[NodeId],
        shards: &[Vec<u8>],
    ) -> Result<(), ClusterError> {
        assert_eq!(placement.len(), shards.len(), "placement/shard mismatch");
        for (i, (node_id, shard)) in placement.iter().zip(shards).enumerate() {
            let node = self.node(*node_id).ok_or(ClusterError::InsufficientNodes {
                needed: placement.len(),
                available: self.nodes.len(),
            })?;
            node.put(&ShardKey::new(object, i as u32), shard)?;
        }
        Ok(())
    }

    /// Fetches an object's shards; unavailable shards come back as `None`
    /// rather than failing the whole read (erasure decoding handles
    /// gaps).
    pub fn get_shards(&self, object: &str, placement: &[NodeId]) -> Vec<Option<Vec<u8>>> {
        placement
            .iter()
            .enumerate()
            .map(|(i, node_id)| {
                self.node(*node_id)
                    .and_then(|n| n.get(&ShardKey::new(object, i as u32)).ok())
            })
            .collect()
    }

    /// Total bytes stored across the cluster.
    pub fn total_stored_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.stored_bytes()).sum()
    }

    /// Distinct sites represented in the cluster.
    pub fn sites(&self) -> Vec<String> {
        let mut sites: Vec<String> = Vec::new();
        for n in &self.nodes {
            if !sites.iter().any(|s| s == n.site()) {
                sites.push(n.site().to_string());
            }
        }
        sites
    }
}

fn stable_hash(s: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{EpochSchedule, SimTime};
    use crate::faults::{FaultPlan, FaultyNode};
    use crate::throughput::{throughput_in_memory_cluster, ThroughputNode, ThroughputProfile};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cluster_with_handles() -> (Cluster, Vec<MemoryNode>) {
        let handles: Vec<MemoryNode> = (0..6)
            .map(|i| MemoryNode::new(i, ["us", "eu", "ap"][(i % 3) as usize]))
            .collect();
        let nodes: Vec<Arc<dyn StorageNode>> = handles
            .iter()
            .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
            .collect();
        (Cluster::new(nodes), handles)
    }

    #[test]
    fn placement_is_distinct_and_spread() {
        let cluster = Cluster::in_memory(&["us", "eu", "ap"], 2);
        let placement = cluster.place("obj", 3).unwrap();
        let set: std::collections::HashSet<_> = placement.iter().collect();
        assert_eq!(set.len(), 3, "distinct nodes");
        // First three picks must land on three distinct sites.
        let sites: std::collections::HashSet<&str> = placement
            .iter()
            .map(|id| cluster.node(*id).unwrap().site())
            .collect();
        assert_eq!(sites.len(), 3);
    }

    #[test]
    fn placement_deterministic_per_object() {
        let cluster = Cluster::in_memory(&["a", "b"], 3);
        assert_eq!(
            cluster.place("same", 4).unwrap(),
            cluster.place("same", 4).unwrap()
        );
    }

    #[test]
    fn placement_insufficient_nodes() {
        let cluster = Cluster::in_memory(&["solo"], 2);
        assert!(matches!(
            cluster.place("o", 3),
            Err(ClusterError::InsufficientNodes {
                needed: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn put_get_roundtrip_with_loss() {
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 4).unwrap();
        let shards: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        // All present.
        let got = cluster.get_shards("obj", &placement);
        assert!(got.iter().all(|s| s.is_some()));
        // Take one node offline: its shard reads as None.
        let victim = placement[1];
        handles
            .iter()
            .find(|h| h.id() == victim)
            .unwrap()
            .set_offline(true);
        let got = cluster.get_shards("obj", &placement);
        assert!(got[1].is_none());
        assert_eq!(got.iter().flatten().count(), 3);
    }

    #[test]
    fn accounting() {
        let cluster = Cluster::in_memory(&["x", "y"], 1);
        let placement = cluster.place("o", 2).unwrap();
        cluster
            .put_shards("o", &placement, &[vec![0; 100], vec![0; 50]])
            .unwrap();
        assert_eq!(cluster.total_stored_bytes(), 150);
        assert_eq!(cluster.sites(), vec!["x".to_string(), "y".to_string()]);
    }

    /// The pinned lane-charge contract: n balanced per-node legs under
    /// parallel dispatch cost the critical path (1/n of the sequential
    /// sum), with the same results in the same order.
    #[test]
    fn parallel_dispatch_costs_the_critical_path_not_the_sum() {
        let n = 6;
        let profile = ThroughputProfile::new(SimDuration::from_secs(30), 1e9, 1e9);
        let sites: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let site_refs: Vec<&str> = sites.iter().map(|s| s.as_str()).collect();
        let run = |dispatch: DispatchPolicy| {
            let (cluster, _) = throughput_in_memory_cluster(&site_refs, 1, &profile);
            let cluster = cluster.with_dispatch(dispatch);
            let placement = cluster.place("obj", n).unwrap();
            let out = cluster.dispatch_lanes(&placement, |i| {
                let node = cluster.node(placement[i]).unwrap();
                node.put(&ShardKey::new("obj", i as u32), &[i as u8; 512])
                    .map(|()| i)
            });
            assert_eq!(out, (0..n).map(Ok).collect::<Vec<_>>());
            cluster.clock().now()
        };
        let seq = run(DispatchPolicy::Sequential);
        let par = run(DispatchPolicy::Parallel { workers: 4 });
        let ratio = seq.as_secs_f64() / par.as_secs_f64();
        assert!(
            (ratio - n as f64).abs() < 0.01,
            "speedup {ratio:.3}, want ~{n}"
        );
    }

    /// No seek, one byte per virtual millisecond: a leg that puts `ms`
    /// bytes costs exactly `ms` on its node's lane.
    fn ms_profile() -> ThroughputProfile {
        ThroughputProfile::new(SimDuration::ZERO, 1e3, 1e3)
    }

    /// A parallel cluster of `n` single-node sites, node ids `0..n`.
    fn lane_cluster(n: usize) -> Cluster {
        let sites: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let sites: Vec<&str> = sites.iter().map(String::as_str).collect();
        let (cluster, _) = throughput_in_memory_cluster(&sites, 1, &ms_profile());
        cluster.with_dispatch(DispatchPolicy::parallel())
    }

    /// One dispatch whose leg `i` puts `legs[i].1` bytes on node
    /// `legs[i].0`; returns the clock after it.
    fn dispatch(cluster: &Cluster, legs: &[(u32, usize)]) -> SimTime {
        let nodes: Vec<NodeId> = legs.iter().map(|&(id, _)| NodeId(id)).collect();
        cluster.dispatch_lanes(&nodes, |i| {
            let node = cluster.node(nodes[i]).unwrap();
            node.put(&ShardKey::new("o", i as u32), &vec![0; legs[i].1])
                .unwrap();
        });
        cluster.clock().now()
    }

    #[test]
    fn lanes_overlap_to_the_critical_path() {
        let cluster = lane_cluster(3);
        let done = dispatch(&cluster, &[(0, 30), (1, 50), (2, 20)]);
        assert_eq!(done.as_millis(), 50, "max of lanes, not the 100 ms sum");
    }

    #[test]
    fn same_node_legs_queue() {
        let cluster = lane_cluster(2);
        let done = dispatch(&cluster, &[(1, 10), (0, 3), (1, 5)]);
        assert_eq!(done.as_millis(), 15, "one device serializes its legs");
    }

    #[test]
    fn busy_lane_delays_the_next_dispatch() {
        let cluster = lane_cluster(2);
        assert_eq!(dispatch(&cluster, &[(0, 100), (1, 10)]).as_millis(), 100);
        // Node 1 idled from 10 ms, but the dispatch could not finish
        // before node 0 did, so the next one opens at 100 ms.
        assert_eq!(
            dispatch(&cluster, &[(1, 5)]).as_millis(),
            105,
            "new dispatch anchors at the frontier"
        );
    }

    #[test]
    fn empty_dispatch_leaves_the_clock_alone() {
        let cluster = lane_cluster(1);
        cluster.clock().charge(SimDuration::from_millis(42));
        assert_eq!(dispatch(&cluster, &[]).as_millis(), 42);
    }

    proptest! {
        /// Extends the clock's `charges_commute` pin to lanes: any
        /// permutation of a fixed multiset of legs lands on the same
        /// clock, and that clock is the closed form, the max over nodes
        /// of each node's summed leg costs.
        #[test]
        fn lane_merge_order_is_irrelevant(
            legs in proptest::collection::vec((0u32..6, 0usize..1_000), 1..24),
            rotation in 0usize..24,
        ) {
            let run = |order: &[(u32, usize)]| dispatch(&lane_cluster(6), order);
            let forward = run(&legs);
            let mut reversed = legs.clone();
            reversed.reverse();
            let mut rotated = legs.clone();
            rotated.rotate_left(rotation % legs.len());
            prop_assert_eq!(run(&reversed), forward);
            prop_assert_eq!(run(&rotated), forward);
            let mut per_node = [SimDuration::ZERO; 6];
            for &(id, bytes) in &legs {
                per_node[id as usize] += ms_profile().write_charge(bytes);
            }
            let closed_form = per_node.into_iter().max().unwrap();
            prop_assert_eq!(forward, SimTime::ZERO + closed_form);
        }
    }

    /// A leg that waits out its node's offline window (a `FaultyNode`
    /// epoch jump) charges the wait to that node's lane only: the other
    /// leg still reads its own lane-local time.
    #[test]
    fn an_offline_wait_stays_on_its_own_lane() {
        let clock = SimClock::new();
        let epochs = EpochSchedule::default();
        let flaky = Arc::new(FaultyNode::with_clock(
            Arc::new(MemoryNode::new(0, "a")),
            FaultPlan::new(1).with_offline_window(0, 2),
            clock.clone(),
            epochs,
        ));
        let steady = ThroughputNode::new(
            Arc::new(MemoryNode::new(1, "b")),
            ms_profile(),
            clock.clone(),
        );
        let nodes: Vec<Arc<dyn StorageNode>> = vec![flaky.clone(), Arc::new(steady)];
        let cluster = Cluster::new(nodes)
            .with_clock(clock.clone())
            .with_dispatch(DispatchPolicy::parallel());
        let key = ShardKey::new("o", 0);
        let seen = cluster.dispatch_lanes(&[NodeId(0), NodeId(1)], |i| {
            let node = &cluster.nodes()[i];
            if node.put(&key, &[0; 30]).is_err() {
                flaky.set_epoch(2);
                node.put(&key, &[0; 30]).unwrap();
            }
            clock.now()
        });
        let thirty_ms = SimTime::ZERO + SimDuration::from_millis(30);
        assert_eq!(seen, [epochs.start_of(2), thirty_ms]);
        assert_eq!(clock.now(), epochs.start_of(2), "max of lanes, not the sum");
    }

    /// A panicking leg closes its capture frame on the way out: once the
    /// panic is caught, charges land on the clock again and the next
    /// dispatch prices its lanes as usual.
    #[test]
    fn a_panicking_leg_leaves_the_clock_charging() {
        let cluster = lane_cluster(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            cluster.dispatch_lanes(&[NodeId(0), NodeId(1)], |i| {
                let node = &cluster.nodes()[i];
                node.put(&ShardKey::new("o", 0), &[0; 40]).unwrap();
                if i == 1 {
                    panic!("leg 1 fails");
                }
            })
        }));
        assert!(caught.is_err());
        let clock = cluster.clock();
        assert_eq!(clock.now(), SimTime::ZERO, "nothing landed");
        clock.charge(SimDuration::from_millis(7));
        assert_eq!(clock.now().as_millis(), 7);
        assert_eq!(dispatch(&cluster, &[(0, 3), (1, 5)]).as_millis(), 12);
    }
}
