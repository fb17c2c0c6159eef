//! Seeded, deterministic fault injection for storage nodes.
//!
//! Long-term reliability claims are worthless unless they are validated
//! against *injected* latent faults (Baker et al.; PASIS): real archival
//! media produce transient I/O errors, silent bit rot, torn writes, and
//! long scheduled offline windows, and the read/repair machinery above
//! them must degrade inside the redundancy budget instead of aborting.
//! [`FaultyNode`] decorates any [`StorageNode`] with a [`FaultPlan`] of
//! such faults, fully reproducible from a `u64` seed.
//!
//! # Determinism contract
//!
//! Every fault decision is a **pure function of
//! `(seed, operation kind, shard key, nth access of that pair)`** — the
//! per-decision randomness is a ChaCha DRBG seeded from the SHA-256 of
//! exactly those inputs. Interleaving operations on *different* keys,
//! changing thread scheduling, or reordering unrelated traffic does not
//! change which faults a given operation sequence experiences; two runs
//! that issue the same per-key operation sequences observe identical
//! faults and identical [`FaultEvent`] logs. Offline windows are keyed
//! to epochs of the shared virtual clock (via the single
//! [`EpochSchedule`] conversion) and use no randomness at all.
//!
//! Latency is *virtual*: the decorator charges the milliseconds a real
//! device would have stalled to its [`SimClock`] (see
//! [`FaultyNode::clock`]) without sleeping, so chaos campaigns over
//! thousands of epochs run in test time. The clock charges time and
//! never touches shard bytes, so fault decisions — and therefore event
//! logs and golden vectors — are independent of it.

use crate::clock::{EpochSchedule, SimClock, SimDuration};
use crate::node::{NodeError, NodeId, ShardKey, StorageNode};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The taxonomy of injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation failed with a transient I/O error; a later attempt
    /// on the same key draws fresh randomness and may succeed.
    TransientIo,
    /// A stored bit flipped (latent sector corruption). The flip is
    /// persisted back to the inner node: every subsequent read sees the
    /// corrupted bytes until a repair rewrites the shard.
    BitFlip {
        /// Which bit of the blob was flipped.
        bit: u64,
    },
    /// A write was torn: only a prefix of the data reached the medium
    /// and the operation reported failure.
    TornWrite {
        /// Bytes that actually landed.
        kept: usize,
    },
    /// The operation stalled for simulated `ms` milliseconds before
    /// proceeding normally.
    Latency {
        /// Simulated stall in milliseconds.
        ms: u64,
    },
    /// The node was inside a scheduled offline window.
    Offline,
}

/// Which node operation an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A shard read.
    Get,
    /// A shard write.
    Put,
    /// A shard delete.
    Delete,
}

impl OpKind {
    fn tag(self) -> u8 {
        match self {
            OpKind::Get => 0x01,
            OpKind::Put => 0x02,
            OpKind::Delete => 0x03,
        }
    }
}

/// One injected fault, in injection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Monotonic per-node sequence number.
    pub seq: u64,
    /// Epoch clock value when the fault fired.
    pub epoch: u64,
    /// The operation that was faulted.
    pub op: OpKind,
    /// The shard key the operation targeted.
    pub key: ShardKey,
    /// What was injected.
    pub fault: FaultKind,
}

/// A seeded recipe of faults to inject.
///
/// Rates are per-operation probabilities in `[0, 1]`. The default plan
/// (any seed, all rates zero, no windows) injects nothing, so a
/// [`FaultyNode`] with it is a transparent wrapper.
///
/// # Examples
///
/// ```
/// use aeon_store::faults::FaultPlan;
///
/// let plan = FaultPlan::new(0x5EED)
///     .with_transient_io_rate(0.1)
///     .with_bit_flip_rate(0.01)
///     .with_offline_window(10, 20);
/// assert!(plan.offline_at(15) && !plan.offline_at(20));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability that any operation fails with a transient I/O error.
    pub transient_io_rate: f64,
    /// Probability that a successful read flips (and persists) one bit.
    pub bit_flip_rate: f64,
    /// Probability that a write is torn: a prefix lands, the op errors.
    pub torn_write_rate: f64,
    /// Mean simulated per-operation latency; each op draws uniformly
    /// from `[0, 2 * mean]` milliseconds. `0` disables latency.
    pub mean_latency_ms: u64,
    /// Half-open `[start, end)` epoch windows during which the node is
    /// offline (every operation fails with [`NodeError::Offline`]).
    pub offline_windows: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// A benign plan: nothing is injected until rates are raised.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_io_rate: 0.0,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            mean_latency_ms: 0,
            offline_windows: Vec::new(),
        }
    }

    /// Sets the transient I/O failure rate.
    pub fn with_transient_io_rate(mut self, rate: f64) -> Self {
        self.transient_io_rate = rate;
        self
    }

    /// Sets the persistent bit-flip rate on reads.
    pub fn with_bit_flip_rate(mut self, rate: f64) -> Self {
        self.bit_flip_rate = rate;
        self
    }

    /// Sets the torn-write rate.
    pub fn with_torn_write_rate(mut self, rate: f64) -> Self {
        self.torn_write_rate = rate;
        self
    }

    /// Sets the mean simulated per-operation latency.
    pub fn with_mean_latency_ms(mut self, ms: u64) -> Self {
        self.mean_latency_ms = ms;
        self
    }

    /// Adds a scheduled offline window over epochs `[start, end)`.
    pub fn with_offline_window(mut self, start: u64, end: u64) -> Self {
        self.offline_windows.push((start, end));
        self
    }

    /// Whether the plan schedules the node offline at `epoch`.
    pub fn offline_at(&self, epoch: u64) -> bool {
        self.offline_windows
            .iter()
            .any(|&(s, e)| epoch >= s && epoch < e)
    }

    /// Derives an independent per-node plan: same rates and windows,
    /// seed mixed with the node id so sibling nodes fault independently
    /// while the whole cluster stays reproducible from one seed.
    pub fn for_node(&self, node: NodeId) -> FaultPlan {
        let mut plan = self.clone();
        plan.seed = splitmix(self.seed ^ ((node.0 as u64) << 32 | 0xFA_u64));
        plan
    }

    /// The determinism contract's per-decision DRBG: the SHA-256 of
    /// `(seed, operation kind, shard key, nth access)` seeds a private
    /// ChaCha stream. [`FaultyNode`] draws every fault decision from
    /// this, and any other fault model should too, so the workspace has
    /// exactly one fault-decision construction.
    pub fn decision_rng(&self, op: OpKind, key: &ShardKey, access: u64) -> ChaChaDrbg {
        let mut h = Sha256::new();
        h.update(&self.seed.to_le_bytes());
        h.update(&[op.tag()]);
        h.update(&(key.object.len() as u64).to_le_bytes());
        h.update(key.object.as_bytes());
        h.update(&key.shard.to_le_bytes());
        h.update(&access.to_le_bytes());
        ChaChaDrbg::from_seed(h.finalize())
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct FaultState {
    seq: u64,
    /// nth-access counters per (operation tag, key) — the determinism
    /// contract's third input.
    access: HashMap<(u8, ShardKey), u64>,
    events: Vec<FaultEvent>,
}

/// A decorator injecting a [`FaultPlan`]'s faults into any inner
/// [`StorageNode`].
///
/// # Examples
///
/// ```
/// use aeon_store::faults::{FaultPlan, FaultyNode};
/// use aeon_store::node::{MemoryNode, ShardKey, StorageNode};
/// use std::sync::Arc;
///
/// let inner = Arc::new(MemoryNode::new(0, "us"));
/// let node = FaultyNode::new(inner, FaultPlan::new(42)); // benign plan
/// let key = ShardKey::new("obj", 0);
/// node.put(&key, b"bytes")?;
/// assert_eq!(node.get(&key)?, b"bytes");
/// assert!(node.events().is_empty());
/// # Ok::<(), aeon_store::node::NodeError>(())
/// ```
pub struct FaultyNode {
    inner: Arc<dyn StorageNode>,
    plan: FaultPlan,
    clock: SimClock,
    epochs: EpochSchedule,
    state: Mutex<FaultState>,
}

impl fmt::Debug for FaultyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyNode")
            .field("inner", &self.inner.id())
            .field("plan", &self.plan)
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl FaultyNode {
    /// Wraps `inner` with `plan` on a private virtual clock (default
    /// epoch schedule). Use [`FaultyNode::with_clock`] to share a
    /// timeline across a cluster.
    pub fn new(inner: Arc<dyn StorageNode>, plan: FaultPlan) -> Self {
        FaultyNode::with_clock(inner, plan, SimClock::new(), EpochSchedule::default())
    }

    /// Wraps `inner` with `plan`, charging latency to the shared
    /// `clock` and deriving offline-window epochs from it through
    /// `epochs`.
    pub fn with_clock(
        inner: Arc<dyn StorageNode>,
        plan: FaultPlan,
        clock: SimClock,
        epochs: EpochSchedule,
    ) -> Self {
        FaultyNode {
            inner,
            plan,
            clock,
            epochs,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The virtual clock this node charges latency to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The `Epoch ↔ SimTime` conversion in effect.
    pub fn epoch_schedule(&self) -> &EpochSchedule {
        &self.epochs
    }

    /// The current epoch, derived from the virtual clock (no separate
    /// epoch counter exists).
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch_of(self.clock.now())
    }

    /// Advances the clock to the start of `epoch` (offline windows are
    /// keyed to clock epochs). The clock is monotone: moving to an
    /// epoch that already started is a no-op.
    pub fn set_epoch(&self, epoch: u64) {
        self.clock.advance_to(self.epochs.start_of(epoch));
    }

    /// Advances the clock to the start of the next epoch.
    pub fn advance_epoch(&self) {
        self.set_epoch(self.epoch() + 1);
    }

    /// Whether the node is inside a scheduled offline window right now.
    pub fn is_offline_now(&self) -> bool {
        self.plan.offline_at(self.epoch())
    }

    /// The injected-fault log, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state.lock().events.clone()
    }

    /// Common preamble: bump the access counter, apply offline windows
    /// and latency, and roll for a transient failure. Returns the op's
    /// DRBG for any further decisions on success.
    fn begin(&self, op: OpKind, key: &ShardKey) -> Result<ChaChaDrbg, NodeError> {
        let access = {
            let mut st = self.state.lock();
            *st.access
                .entry((op.tag(), key.clone()))
                .and_modify(|c| *c += 1)
                .or_insert(0)
        };
        if self.plan.offline_at(self.epoch()) {
            self.record(op, key, FaultKind::Offline);
            return Err(NodeError::Offline);
        }
        let mut rng = self.plan.decision_rng(op, key, access);
        if self.plan.mean_latency_ms > 0 {
            let ms = rng.gen_range(2 * self.plan.mean_latency_ms + 1);
            if ms > 0 {
                // The stall is charged as virtual time, never slept.
                self.clock.charge(SimDuration::from_millis(ms));
                self.record(op, key, FaultKind::Latency { ms });
            }
        }
        if roll(&mut rng) < self.plan.transient_io_rate {
            self.record(op, key, FaultKind::TransientIo);
            return Err(NodeError::Io("injected transient fault".into()));
        }
        Ok(rng)
    }

    fn record(&self, op: OpKind, key: &ShardKey, fault: FaultKind) {
        let epoch = self.epoch();
        let mut st = self.state.lock();
        let seq = st.seq;
        st.seq += 1;
        st.events.push(FaultEvent {
            seq,
            epoch,
            op,
            key: key.clone(),
            fault,
        });
    }
}

/// Uniform draw in `[0, 1)` with 53 bits of precision.
fn roll<R: CryptoRng + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl StorageNode for FaultyNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn site(&self) -> &str {
        self.inner.site()
    }

    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        let mut rng = self.begin(OpKind::Put, key)?;
        if roll(&mut rng) < self.plan.torn_write_rate && !data.is_empty() {
            let kept = rng.gen_range(data.len() as u64) as usize;
            // The prefix lands on the medium; the caller sees a failure
            // and must retry (a fresh put overwrites the torn blob).
            let _ = self.inner.put(key, &data[..kept]);
            self.record(OpKind::Put, key, FaultKind::TornWrite { kept });
            return Err(NodeError::Io("injected torn write".into()));
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        let mut rng = self.begin(OpKind::Get, key)?;
        let data = self.inner.get(key)?;
        if roll(&mut rng) < self.plan.bit_flip_rate && !data.is_empty() {
            let bit = rng.gen_range(data.len() as u64 * 8);
            let mut flipped = data;
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            // Latent corruption is persistent: write the rot back so
            // every later read sees it until a repair rewrites the shard.
            let _ = self.inner.put(key, &flipped);
            self.record(OpKind::Get, key, FaultKind::BitFlip { bit });
            return Ok(flipped);
        }
        Ok(data)
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        self.begin(OpKind::Delete, key)?;
        self.inner.delete(key)
    }

    fn keys(&self) -> Vec<ShardKey> {
        self.inner.keys()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

/// Builds an in-memory cluster whose nodes are all wrapped in
/// [`FaultyNode`]s with per-node plans derived from `plan` (see
/// [`FaultPlan::for_node`]), all sharing one virtual clock — which is
/// also installed as the cluster's clock, so injected latency and retry
/// backoff land on the same timeline. Returns the cluster plus handles
/// for epoch control and event-log inspection.
pub fn faulty_in_memory_cluster(
    sites: &[&str],
    per_site: usize,
    plan: &FaultPlan,
) -> (crate::cluster::Cluster, Vec<Arc<FaultyNode>>) {
    let clock = SimClock::new();
    let epochs = EpochSchedule::default();
    let mut handles = Vec::new();
    let mut nodes: Vec<Arc<dyn StorageNode>> = Vec::new();
    let mut id = 0u32;
    for &site in sites {
        for _ in 0..per_site {
            let inner = Arc::new(crate::node::MemoryNode::new(id, site));
            let node = Arc::new(FaultyNode::with_clock(
                inner,
                plan.for_node(NodeId(id)),
                clock.clone(),
                epochs,
            ));
            handles.push(node.clone());
            nodes.push(node);
            id += 1;
        }
    }
    (
        crate::cluster::Cluster::new(nodes).with_clock(clock),
        handles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MemoryNode;

    fn wrapped(plan: FaultPlan) -> (Arc<MemoryNode>, FaultyNode) {
        let inner = Arc::new(MemoryNode::new(0, "site"));
        let node = FaultyNode::new(inner.clone(), plan);
        (inner, node)
    }

    #[test]
    fn benign_plan_is_transparent() {
        let (_, node) = wrapped(FaultPlan::new(1));
        let key = ShardKey::new("o", 0);
        node.put(&key, b"data").unwrap();
        assert_eq!(node.get(&key).unwrap(), b"data");
        node.delete(&key).unwrap();
        assert!(node.events().is_empty());
        assert_eq!(node.clock().now(), crate::clock::SimTime::ZERO);
    }

    #[test]
    fn same_seed_same_event_log() {
        let run = || {
            let (_, node) = wrapped(
                FaultPlan::new(77)
                    .with_transient_io_rate(0.5)
                    .with_bit_flip_rate(0.3)
                    .with_torn_write_rate(0.4)
                    .with_mean_latency_ms(5),
            );
            let mut outcomes = Vec::new();
            for i in 0..20u32 {
                let key = ShardKey::new("obj", i % 4);
                outcomes.push(node.put(&key, &[i as u8; 16]).is_ok());
                outcomes.push(node.get(&key).is_ok());
            }
            (outcomes, node.events())
        };
        let (out_a, ev_a) = run();
        let (out_b, ev_b) = run();
        assert_eq!(out_a, out_b);
        assert_eq!(ev_a, ev_b);
        assert!(!ev_a.is_empty(), "rates this high must fire");
    }

    #[test]
    fn decisions_are_per_key_not_global() {
        // Interleaving unrelated traffic must not change which faults a
        // key's own operation sequence sees.
        let plan = FaultPlan::new(123)
            .with_transient_io_rate(0.5)
            .with_bit_flip_rate(0.2);
        let probe = |with_noise: bool| {
            let (_, node) = wrapped(plan.clone());
            let key = ShardKey::new("probe", 0);
            let mut results = Vec::new();
            for i in 0..10u8 {
                if with_noise {
                    let noise_key = ShardKey::new("noise", i as u32);
                    let _ = node.put(&noise_key, &[i; 4]);
                    let _ = node.get(&noise_key);
                }
                results.push(node.put(&key, &[i; 8]).is_ok());
                results.push(node.get(&key).is_ok());
            }
            results
        };
        assert_eq!(probe(false), probe(true));
    }

    #[test]
    fn transient_faults_heal_on_retry() {
        // Rate 0.5: over 8 accesses of the same key some succeed.
        let (_, node) = wrapped(FaultPlan::new(9).with_transient_io_rate(0.5));
        let key = ShardKey::new("k", 0);
        let mut ok = 0;
        for i in 0..8 {
            if node.put(&key, &[i; 4]).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0 && ok < 8, "got {ok}/8 successes at rate 0.5");
    }

    #[test]
    fn bit_flips_are_persistent_and_logged() {
        let (inner, node) = wrapped(FaultPlan::new(31).with_bit_flip_rate(1.0));
        let key = ShardKey::new("rot", 0);
        node.put(&key, &[0u8; 32]).unwrap();
        let first = node.get(&key).unwrap();
        assert_ne!(first, vec![0u8; 32], "bit must have flipped");
        // The rot landed on the inner medium.
        assert_eq!(inner.get(&key).unwrap(), first);
        let events = node.events();
        assert!(matches!(
            events[0],
            FaultEvent {
                fault: FaultKind::BitFlip { .. },
                op: OpKind::Get,
                ..
            }
        ));
    }

    #[test]
    fn torn_writes_leave_prefix_and_error() {
        let (inner, node) = wrapped(FaultPlan::new(8).with_torn_write_rate(1.0));
        let key = ShardKey::new("torn", 0);
        let data = vec![0xAB; 64];
        assert!(matches!(node.put(&key, &data), Err(NodeError::Io(_))));
        let landed = inner.get(&key).unwrap_or_default();
        assert!(landed.len() < data.len());
        assert_eq!(&landed[..], &data[..landed.len()], "prefix of the data");
        assert!(matches!(
            node.events()[0].fault,
            FaultKind::TornWrite { .. }
        ));
    }

    #[test]
    fn offline_windows_follow_the_epoch_clock() {
        let (_, node) = wrapped(FaultPlan::new(2).with_offline_window(3, 6));
        let key = ShardKey::new("w", 0);
        node.put(&key, b"x").unwrap();
        node.set_epoch(3);
        assert!(node.is_offline_now());
        assert_eq!(node.get(&key).unwrap_err(), NodeError::Offline);
        assert_eq!(node.put(&key, b"y").unwrap_err(), NodeError::Offline);
        node.set_epoch(6);
        assert!(!node.is_offline_now());
        assert_eq!(node.get(&key).unwrap(), b"x", "window did not clobber");
    }

    #[test]
    fn latency_is_charged_to_the_clock_not_slept() {
        let (_, node) = wrapped(FaultPlan::new(4).with_mean_latency_ms(10));
        let key = ShardKey::new("slow", 0);
        let start = std::time::Instant::now();
        for i in 0..50u8 {
            node.put(&key, &[i]).unwrap();
        }
        let virtual_ms = node.clock().now().as_millis();
        assert!(virtual_ms > 0, "stalls advanced the virtual clock");
        assert!(
            start.elapsed().as_millis() < (virtual_ms as u128).max(100),
            "latency must be virtual, not slept"
        );
        // Every charged stall also shows up in the event log.
        let logged: u64 = node
            .events()
            .iter()
            .filter_map(|e| match e.fault {
                FaultKind::Latency { ms } => Some(ms),
                _ => None,
            })
            .sum();
        assert_eq!(logged, virtual_ms);
    }

    #[test]
    fn epoch_is_derived_from_the_clock() {
        let (_, node) = wrapped(FaultPlan::new(11));
        assert_eq!(node.epoch(), 0);
        node.set_epoch(5);
        assert_eq!(node.epoch(), 5);
        assert_eq!(
            node.clock().now(),
            node.epoch_schedule().start_of(5),
            "set_epoch jumps the clock to the epoch boundary"
        );
        node.advance_epoch();
        assert_eq!(node.epoch(), 6);
        node.set_epoch(2);
        assert_eq!(node.epoch(), 6, "the clock never rewinds");
    }

    #[test]
    fn per_node_plans_differ_but_derive_deterministically() {
        let base = FaultPlan::new(55).with_transient_io_rate(0.5);
        let a = base.for_node(NodeId(0));
        let b = base.for_node(NodeId(1));
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, base.for_node(NodeId(0)));
        assert_eq!(a.transient_io_rate, base.transient_io_rate);
    }

    #[test]
    fn faulty_cluster_wires_epoch_handles() {
        let plan = FaultPlan::new(6).with_offline_window(1, 2);
        let (cluster, handles) = faulty_in_memory_cluster(&["us", "eu"], 2, &plan);
        assert_eq!(cluster.nodes().len(), 4);
        assert_eq!(handles.len(), 4);
        for h in &handles {
            h.set_epoch(1);
            assert!(h.is_offline_now());
        }
        let seeds: std::collections::HashSet<u64> = handles.iter().map(|h| h.plan().seed).collect();
        assert_eq!(seeds.len(), 4, "per-node seeds are distinct");
    }
}
