//! The plan executor: the one place node I/O happens.
//!
//! Every shard that moves between the archive and its cluster moves
//! through [`PlanExecutor`]. The executor owns no policy knowledge —
//! plans arrive with their bytes already decided — and the plan layer
//! owns no cluster handle, so the codebase has exactly one seam where
//! retries, digest filtering, rollback, and read accounting live.
//! Invariant: no other module in this crate calls `Cluster` or
//! `StorageNode` get/put directly.
//!
//! There is one I/O path. Every read and write — one object or many —
//! is a list of *legs* run through the same fan-out: legs are grouped
//! by node in first-occurrence order, each node serves **one** framed
//! `get_blobs`/`put_blobs` for its group through
//! `Cluster::dispatch_lanes`, and each leg whose first attempt failed
//! retryably then spends the rest of its retry budget individually
//! through the borrowed `get`/`put`, drawing jitter from its own
//! object's rng. A single-object operation is a batch of one; how the
//! per-node frames are *priced* (summed, or overlapped on lanes) is the
//! cluster's `DispatchPolicy`, never the caller's choice of entry point.
//!
//! Beside the one read, [`PlanExecutor::read_many`], sits one write,
//! `write_units`: the ingest flush, repair and the write-back of
//! refresh, re-wrap and re-encode each hand it units, and a unit's
//! `WriteMode` says what a leg that stays failed does to it. A fresh
//! unit short of its read threshold is rolled back; an in-place unit
//! (repair) aborts at its first failed leg and takes back the later legs
//! that landed; an overwrite keeps what landed.
//!
//! Shard bytes cross the seam as [`Blob`]s: a write hands each shard
//! over by value and a read gets back the node's shared buffer, so a
//! node that keeps blobs (`MemoryNode`) stores and serves them without
//! a copy.

use crate::archive::{ArchiveError, ObjectId};
use crate::plan::{tree_digests, ReadPlan, WritePlan};
use crate::policy::PolicyError;
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use aeon_store::cluster::{ClusterError, ShardAttempt, TransferReport};
use aeon_store::node::{Blob, NodeError, NodeId, ShardKey, StorageNode};
use aeon_store::retry::{run_with_retry, RetryPolicy};
use aeon_store::Cluster;
use std::{mem, slice};

/// Snapshot of an object's shards after a retrying fetch: the raw
/// material for reads, verification, and repair. A verifying plan's
/// slots are checked — by digest, or by byte equality for a repair's
/// re-read; a decode plan's ([`ReadPlan::verify`] off) come back as
/// fetched, unhashed.
#[derive(Debug)]
pub struct ShardsSnapshot {
    /// Shard slots in placement order. Slots that erred out past the
    /// retry budget are `None`. After a check, so are slots whose bytes
    /// failed it and slots past the plan's `need`-th valid one.
    pub shards: Vec<Option<Blob>>,
    /// The slots a decode consumes: the first `valid` present ones. After
    /// a check, these are every present slot, each clean (at most the
    /// plan's `need`); unchecked, the first `need` present slots.
    pub valid: usize,
    /// Shards discarded because their bytes failed the check,
    /// among those examined before `need` were valid.
    pub corrupt: usize,
    /// Per-shard read-attempt accounting from the cluster.
    pub report: TransferReport,
}

impl ShardsSnapshot {
    /// The stored bytes the snapshot holds: every present slot's length.
    pub(crate) fn bytes(&self) -> u64 {
        self.shards.iter().flatten().map(|s| s.len() as u64).sum()
    }
}

/// What a shard-set write achieved.
#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Shards that landed durably within the retry budget.
    pub written: usize,
    /// Per-shard write-attempt accounting from the cluster (the same
    /// [`TransferReport`] shape reads use — both directions are
    /// per-shard fan-outs with bounded retry).
    pub report: TransferReport,
}

/// One shard's leg of a fan-out: whose retry stream pays for it, the
/// node it lives on, its key, and what it carries to the node (nothing
/// for a read, its bytes for a write).
struct Leg<'a, T> {
    /// Index of the leg's object in the operation (and of its rng).
    owner: usize,
    node: NodeId,
    object: &'a str,
    shard: u32,
    data: T,
}

impl<T> Leg<'_, T> {
    fn key(&self) -> ShardKey {
        ShardKey::new(self.object, self.shard)
    }
}

/// A write leg's bytes, so a fan-out's legs digest where they lie.
impl AsRef<[u8]> for Leg<'_, Blob> {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// A transfer direction: what a leg carries, how a node serves one
/// frame of legs, and how it serves one leg again on retry. The fan-out
/// is written once over this; [`Get`] and [`Put`] are its two
/// instantiations.
trait Direction {
    type In;
    type Out;
    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a, Self::In>>,
    ) -> Vec<Result<Self::Out, NodeError>>
    where
        Self::In: 'l;
    fn one(node: &dyn StorageNode, leg: &Leg<'_, Self::In>) -> Result<Self::Out, NodeError>;
}

struct Get;

impl Direction for Get {
    type In = ();
    type Out = Blob;

    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a, ()>>,
    ) -> Vec<Result<Blob, NodeError>> {
        let keys: Vec<ShardKey> = legs.map(Leg::key).collect();
        node.get_blobs(&keys)
    }

    fn one(node: &dyn StorageNode, leg: &Leg<'_, ()>) -> Result<Blob, NodeError> {
        node.get(&leg.key()).map(Blob::from)
    }
}

struct Put;

impl Direction for Put {
    type In = Blob;
    type Out = ();

    /// Hands the node a share of each leg's blob: the leg keeps its own
    /// for a retry, and once the fan-out ends it goes back to the caller.
    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a, Blob>>,
    ) -> Vec<Result<(), NodeError>> {
        let entries: Vec<(ShardKey, Blob)> =
            legs.map(|leg| (leg.key(), leg.data.clone())).collect();
        node.put_blobs(entries)
    }

    fn one(node: &dyn StorageNode, leg: &Leg<'_, Blob>) -> Result<(), NodeError> {
        node.put(&leg.key(), &leg.data)
    }
}

/// What a unit's write does about a leg that stays failed past the
/// retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteMode {
    /// A fresh unit (ingest): with fewer than `required` shards landed it
    /// could never be read back, so it is rolled back (`roll_back`) and
    /// is `Err`.
    Fresh { required: usize },
    /// Rebuilt slots of a stored unit (repair). A slot beyond the
    /// placement or on a node outside the cluster is
    /// [`PolicyError::Malformed`] before any node is touched. The first
    /// leg that stays failed, in write order, aborts the unit: later legs
    /// are not settled, and those whose first attempt landed are deleted.
    InPlace,
    /// A whole shard set over a stored unit (refresh, re-wrap,
    /// re-encode): what landed stays, and a shard that missed the budget
    /// is left stale for the new digests to filter. Never `Err`.
    Overwrite,
}

/// One unit to write: the object its shards are keyed by, its
/// placement, its mode, and its slots as `(slot, blob)`. A fresh or
/// overwritten unit carries one blob per placement slot, in slot order.
/// The nodes get a share of each blob; the caller keeps its own.
pub(crate) type UnitWrite<'a> = (&'a str, &'a [NodeId], WriteMode, Vec<(usize, Blob)>);

/// What [`PlanExecutor::write_units`] did with one unit: whether its
/// write stands, what landed, and the shard digest of each slot's blob
/// in the unit's slot order (none for a malformed unit).
#[derive(Debug)]
pub(crate) struct Written {
    pub(crate) result: Result<(), ArchiveError>,
    pub(crate) outcome: WriteOutcome,
    pub(crate) digests: Vec<[u8; 32]>,
}

/// Copies borrowed shards into blobs: what the borrowed write entry
/// points cost, once, before they join the one by-value path.
fn copied(shards: &[Vec<u8>]) -> Vec<Blob> {
    shards.iter().map(|s| Blob::from(s.as_slice())).collect()
}

/// A leg's state after its first attempt: attempts made so far (zero
/// when its node is not in the cluster) and the latest result.
type Attempted<T> = (u32, Result<T, NodeError>);

/// Applies plans against a cluster under a bounded retry policy.
///
/// Borrowed fresh from the archive for each operation; carries no
/// state of its own beyond the cluster handle and the retry budget.
#[derive(Debug)]
pub struct PlanExecutor<'a> {
    cluster: &'a Cluster,
    retry: &'a RetryPolicy,
}

impl<'a> PlanExecutor<'a> {
    /// Creates an executor over `cluster` with the given retry budget.
    pub fn new(cluster: &'a Cluster, retry: &'a RetryPolicy) -> Self {
        PlanExecutor { cluster, retry }
    }

    /// Chooses node placement for `shards` shards of an object
    /// (deterministic in the object id; no node I/O).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when the cluster has too few nodes.
    pub fn place(&self, object: &str, shards: usize) -> Result<Vec<NodeId>, ClusterError> {
        self.cluster.place(object, shards)
    }

    /// First half of the fan-out: groups `legs` by node in
    /// first-occurrence order (each node is in exactly one group, so
    /// frames dispatched together never touch the same node) and ships
    /// one frame per node through the cluster's lanes. Returns each
    /// leg's first attempt, in leg order, every one `Some` for the
    /// settle loop to take.
    fn first_attempts<D: Direction>(
        &self,
        legs: &[Leg<'_, D::In>],
    ) -> Vec<Option<Attempted<D::Out>>> {
        let nodes = legs.len().min(self.cluster.nodes().len());
        let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::with_capacity(nodes);
        for (i, leg) in legs.iter().enumerate() {
            match groups.iter_mut().find(|(id, _)| *id == leg.node) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((leg.node, vec![i])),
            }
        }
        let lane_nodes: Vec<NodeId> = groups.iter().map(|(id, _)| *id).collect();
        let frames = self.cluster.dispatch_lanes(&lane_nodes, |g| {
            let (node_id, idxs) = &groups[g];
            let node = self.cluster.node(*node_id)?;
            Some(D::frame(node.as_ref(), idxs.iter().map(|&i| &legs[i])))
        });
        let mut first: Vec<Option<Attempted<D::Out>>> = legs.iter().map(|_| None).collect();
        for ((_, idxs), frame) in groups.iter().zip(frames) {
            match frame {
                Some(results) => {
                    for (&i, result) in idxs.iter().zip(results) {
                        first[i] = Some((1, result));
                    }
                }
                None => {
                    for &i in idxs {
                        let unknown = NodeError::Io("placement references unknown node".into());
                        first[i] = Some((0, Err(unknown)));
                    }
                }
            }
        }
        first
    }

    /// Second half of the fan-out, for one leg: a first attempt that
    /// failed retryably spends the remaining retry budget individually,
    /// so every key sees at most `retry.max_attempts` attempts in total
    /// whatever it was framed with.
    fn settle<D: Direction, R: CryptoRng>(
        &self,
        leg: &Leg<'_, D::In>,
        (tries, outcome): Attempted<D::Out>,
        rng: &mut R,
    ) -> Attempted<D::Out> {
        match outcome {
            Err(e) if tries > 0 && RetryPolicy::is_retryable(&e) && self.retry.max_attempts > 1 => {
                let rest = self
                    .retry
                    .clone()
                    .with_attempts(self.retry.max_attempts - 1);
                let node = self
                    .cluster
                    .node(leg.node)
                    .expect("first attempt reached it");
                let (result, stats) = run_with_retry(&rest, self.cluster.clock(), rng, || {
                    D::one(node.as_ref(), leg)
                });
                (tries + stats.attempts, result)
            }
            outcome => (tries, outcome),
        }
    }

    /// The whole fan-out for the objects of one operation: first
    /// attempts framed per node across all of them, then every leg
    /// settled in submission order from its owner's rng. Returns, per
    /// owner, the shard slots (`None` where the leg stayed failed) and
    /// the per-shard attempt accounting.
    fn transfer<D: Direction, R: CryptoRng>(
        &self,
        legs: &[Leg<'_, D::In>],
        rngs: &mut [R],
    ) -> Vec<(Vec<Option<D::Out>>, TransferReport)> {
        let mut out: Vec<(Vec<Option<D::Out>>, TransferReport)> = rngs
            .iter()
            .map(|_| (Vec::new(), TransferReport::default()))
            .collect();
        for (leg, first) in legs
            .iter()
            .zip(self.first_attempts::<D>(legs).into_iter().flatten())
        {
            let (attempts, result) = self.settle::<D, R>(leg, first, &mut rngs[leg.owner]);
            let (slot, error) = match result {
                Ok(v) => (Some(v), None),
                Err(e) => (None, Some(e)),
            };
            let (slots, report) = &mut out[leg.owner];
            slots.push(slot);
            report.attempts.push(ShardAttempt {
                shard: leg.shard,
                node: leg.node,
                attempts,
                error,
            });
        }
        out
    }

    /// Executes a read plan: the one-plan case of [`Self::read_many`].
    pub fn read<R: CryptoRng>(&self, plan: &ReadPlan, rng: &mut R) -> ShardsSnapshot {
        self.read_many(slice::from_ref(plan), slice::from_mut(rng))
            .pop()
            .expect("one snapshot per plan")
    }

    /// Executes read plans in one cross-object fan-in: every shard's
    /// first attempt is grouped by source node and shipped as one
    /// framed batch request per node (one seek per node per flush on
    /// media-priced clusters, however many objects the flush spans);
    /// keys that fail retryably then spend the remaining retry budget
    /// individually, drawing jitter from that object's own rng. Every
    /// slot of every plan is fetched. A decode plan's slots come back
    /// unhashed. A verifying plan's slots are checked in order until its
    /// `need` are valid: shards failing the digest check are discarded,
    /// and slots past the `need`-th valid one come back `None` unhashed
    /// (see [`ReadPlan::need`]). The first `need` present slots of every
    /// verifying plan — all a plan hashes unless one of them fails — are
    /// digested in one `tree_digests` batch.
    ///
    /// # Panics
    ///
    /// Panics if `plans` and `rngs` disagree in length.
    pub fn read_many<R: CryptoRng>(
        &self,
        plans: &[ReadPlan],
        rngs: &mut [R],
    ) -> Vec<ShardsSnapshot> {
        let mut snaps: Vec<ShardsSnapshot> = plans
            .iter()
            .zip(self.fetch(plans, rngs))
            .map(|(plan, (shards, report))| ShardsSnapshot {
                valid: shards.iter().flatten().count().min(plan.need),
                corrupt: 0,
                shards,
                report,
            })
            .collect();
        verify_where(plans, &mut snaps, |i| plans[i].verify);
        snaps
    }

    /// Re-reads a plan whose bytes the caller holds, `expected[s]` for
    /// slot `s`: [`Self::read`]'s fetch, `need` and accounting, but each
    /// slot is checked by byte equality instead of by digest, and a slot
    /// past `expected` is corrupt. Holding the bytes the plan's digests
    /// record, it accepts what [`Self::read`] does and hashes nothing.
    ///
    /// A slot the node answers with the very blob held (a node that
    /// keeps blobs serves the one the repair wrote or fetched) is equal
    /// without comparing a byte.
    pub(crate) fn reread<R: CryptoRng>(
        &self,
        plan: &ReadPlan,
        expected: &[Blob],
        rng: &mut R,
    ) -> ShardsSnapshot {
        let (shards, report) = self
            .fetch(slice::from_ref(plan), slice::from_mut(rng))
            .pop()
            .expect("one fetch per plan");
        check_slots(plan, shards, report, |s, bytes| {
            let held = expected.get(s);
            held.is_some_and(|held| Blob::ptr_eq(held, bytes) || held[..] == bytes[..])
        })
    }

    /// The fetch behind every read: one leg per placement slot of every
    /// plan through the one fan-out, unchecked. Returns, per plan, its
    /// slots and attempt accounting.
    fn fetch<R: CryptoRng>(
        &self,
        plans: &[ReadPlan],
        rngs: &mut [R],
    ) -> Vec<(Vec<Option<Blob>>, TransferReport)> {
        assert_eq!(plans.len(), rngs.len(), "plan/rng mismatch");
        let legs: Vec<Leg<'_, ()>> = plans
            .iter()
            .enumerate()
            .flat_map(|(owner, plan)| {
                plan.placement.iter().enumerate().map(move |(s, node)| Leg {
                    owner,
                    node: *node,
                    object: plan.object.as_str(),
                    shard: s as u32,
                    data: (),
                })
            })
            .collect();
        self.transfer::<Get, R>(&legs, rngs)
    }

    /// Writes a shard set from borrowed shards: copies them once into
    /// blobs, then `write_units`'s overwrite of one unit.
    ///
    /// # Panics
    ///
    /// Panics if `placement` and `shards` disagree in length.
    pub fn write_shards<R: CryptoRng>(
        &self,
        object: &str,
        placement: &[NodeId],
        shards: &[Vec<u8>],
        rng: &mut R,
    ) -> WriteOutcome {
        let slots = copied(shards).into_iter().enumerate().collect();
        let unit = (object, placement, WriteMode::Overwrite, slots);
        let mut written = self.write_units(slice::from_ref(&unit), slice::from_mut(rng));
        written.pop().expect("one result per unit").outcome
    }

    /// Executes a write plan for a fresh object (ingest): the one-plan
    /// case of [`Self::commit_many`].
    ///
    /// # Errors
    ///
    /// Returns the outcome as `Err` when the write was rolled back.
    pub fn commit_write<R: CryptoRng>(
        &self,
        plan: &WritePlan,
        placement: &[NodeId],
        rng: &mut R,
    ) -> Result<WriteOutcome, WriteOutcome> {
        let placements = [placement.to_vec()];
        let mut outcomes =
            self.commit_many(slice::from_ref(plan), &placements, slice::from_mut(rng));
        outcomes.pop().expect("one outcome per plan")
    }

    /// Commits borrowed write plans: copies each plan's shards once into
    /// blobs, then `write_units` with each plan a fresh unit. A
    /// unit that was rolled back comes back as `Err`.
    ///
    /// # Panics
    ///
    /// Panics if `plans`, `placements`, and `rngs` disagree in length
    /// or a placement disagrees with its plan's shard count.
    pub fn commit_many<R: CryptoRng>(
        &self,
        plans: &[WritePlan],
        placements: &[Vec<NodeId>],
        rngs: &mut [R],
    ) -> Vec<Result<WriteOutcome, WriteOutcome>> {
        assert_eq!(plans.len(), placements.len(), "plan/placement mismatch");
        let units: Vec<UnitWrite<'_>> = (plans.iter().zip(placements))
            .map(|(plan, placement)| {
                let (required, shards) = (plan.required, copied(&plan.shards));
                let slots = shards.into_iter().enumerate().collect();
                let mode = WriteMode::Fresh { required };
                (plan.object.as_str(), placement.as_slice(), mode, slots)
            })
            .collect();
        let written = self.write_units(&units, rngs).into_iter();
        written
            .map(|w| match w.result {
                Ok(()) => Ok(w.outcome),
                Err(_) => Err(w.outcome),
            })
            .collect()
    }

    /// Executes a borrowed repair plan's writes: copies each rebuilt
    /// shard once into a blob, then `write_units`'s in-place
    /// write of one unit. Returns each rewritten slot with its digest.
    ///
    /// # Errors
    ///
    /// As an in-place write of `write_units`: a typed malformed
    /// plan, or a put past the budget.
    pub fn apply_repair<R: CryptoRng>(
        &self,
        object: &str,
        placement: &[NodeId],
        writes: &[(usize, Vec<u8>)],
        rng: &mut R,
    ) -> Result<Vec<(usize, [u8; 32])>, ArchiveError> {
        let slots = writes.iter().map(|(m, data)| (*m, Blob::from(&data[..])));
        let unit = (object, placement, WriteMode::InPlace, slots.collect());
        let mut written = self.write_units(slice::from_ref(&unit), slice::from_mut(rng));
        let written = written.pop().expect("one result per unit");
        written.result?;
        Ok(writes.iter().map(|w| w.0).zip(written.digests).collect())
    }

    /// The one write: every slot of every unit is a leg of one fan-out —
    /// first attempts framed per node across all units, then one settle
    /// loop in submission order, each leg drawing from its unit's rng —
    /// and every blob of the call is digested in one `tree_digests`
    /// batch. Each unit's [`WriteMode`] decides what a leg that stays
    /// failed does to it.
    ///
    /// # Panics
    ///
    /// If `units` and `rngs` disagree in length, or a fresh or overwrite
    /// unit does not carry one blob per placement slot.
    pub(crate) fn write_units<R: CryptoRng>(
        &self,
        units: &[UnitWrite<'_>],
        rngs: &mut [R],
    ) -> Vec<Written> {
        assert_eq!(units.len(), rngs.len(), "unit/rng mismatch");
        let malformed = |why: &str| Err(ArchiveError::Policy(PolicyError::Malformed(why.into())));
        let mut written = Vec::with_capacity(units.len());
        let mut legs = Vec::with_capacity(units.iter().map(|u| u.3.len()).sum());
        for (owner, &(object, placement, mode, ref slots)) in units.iter().enumerate() {
            let result = match mode {
                WriteMode::InPlace => slots.iter().try_for_each(|&(m, _)| match placement.get(m) {
                    None => malformed("repair write beyond placement"),
                    Some(&id) if self.cluster.node(id).is_none() => {
                        malformed("placement references unknown node")
                    }
                    Some(_) => Ok(()),
                }),
                _ => {
                    assert_eq!(slots.len(), placement.len(), "placement/shard mismatch");
                    Ok(())
                }
            };
            let slots = if result.is_ok() { &slots[..] } else { &[] };
            legs.extend(slots.iter().map(|(m, data)| Leg {
                owner,
                node: placement[*m],
                object,
                shard: *m as u32,
                data: data.clone(),
            }));
            written.push(Written {
                result,
                outcome: WriteOutcome::default(),
                digests: Vec::new(),
            });
        }
        let mut digests = tree_digests(&legs).into_iter();
        let mut first = self.first_attempts::<Put>(&legs);
        for (p, leg) in legs.iter().enumerate() {
            let Some(attempted) = first[p].take() else {
                continue; // its in-place unit aborted
            };
            let (owner, rng) = (leg.owner, &mut rngs[leg.owner]);
            let (attempts, result) = self.settle::<Put, R>(leg, attempted, rng);
            let unit = &mut written[owner];
            unit.outcome.written += usize::from(result.is_ok());
            let (shard, node, error) = (leg.shard, leg.node, result.err());
            let attempt = ShardAttempt {
                shard,
                node,
                attempts,
                error: error.clone(),
            };
            unit.outcome.report.attempts.push(attempt);
            if let (Some(e), WriteMode::InPlace) = (error, units[owner].2) {
                for (later, landed) in legs[p + 1..].iter().zip(&mut first[p + 1..]) {
                    if later.owner == owner && matches!(landed.take(), Some((_, Ok(())))) {
                        self.delete_surely(later.node, &later.key(), rng);
                    }
                }
                unit.result = Err(ArchiveError::Cluster(ClusterError::Node(e)));
            }
        }
        drop(first); // before the digest lists: it would raise a flush's peak
        for ((&(object, placement, mode, _), w), rng) in units.iter().zip(&mut written).zip(rngs) {
            let available = w.outcome.written;
            if let WriteMode::Fresh { required } = mode {
                if available < required {
                    self.roll_back(object, placement, rng);
                    let id = ObjectId::from_raw(object.into());
                    w.result = Err(ArchiveError::degraded(id, available, required));
                }
            }
        }
        for unit in legs.chunk_by(|a, b| a.owner == b.owner) {
            written[unit[0].owner].digests = digests.by_ref().take(unit.len()).collect();
        }
        written
    }

    /// Deletes an object's shards (delete, a block's last release, the
    /// old placement of a re-encode): the rollback's sticky per-slot
    /// delete, with jitter from a stream keyed by the object, so a
    /// transient fault does not leave an orphan shard behind.
    pub fn delete(&self, object: &str, placement: &[NodeId]) {
        let mut rng = ChaChaDrbg::from_seed(Sha256::digest(object.as_bytes()));
        self.roll_back(object, placement, &mut rng);
    }

    /// Takes back a shard set that landed: every slot is deleted, each
    /// delete retrying far past the normal budget. A rollback that sticks
    /// is what keeps a failed operation's stored bytes independent of how
    /// its writes were framed or batched. [`Self::delete`] is the same
    /// body.
    pub(crate) fn roll_back<R: CryptoRng>(&self, object: &str, placement: &[NodeId], rng: &mut R) {
        for (s, &node) in placement.iter().enumerate() {
            self.delete_surely(node, &ShardKey::new(object, s as u32), rng);
        }
    }

    /// One sticky rollback delete (see [`Self::roll_back`]).
    fn delete_surely<R: CryptoRng>(&self, node: NodeId, key: &ShardKey, rng: &mut R) {
        let sticky = RetryPolicy::default()
            .with_attempts(16)
            .with_budget_ms(u64::MAX);
        if let Some(node) = self.cluster.node(node) {
            let _ = run_with_retry(&sticky, self.cluster.clock(), rng, || node.delete(key));
        }
    }
}

/// Checks by shard digest, in place, each unchecked snapshot `pick`
/// selects (by index), as a verifying read of its plan would have from
/// the same fetch: [`digest_filter`] over every plan's slots, the first
/// `need` present slots of all picked plans digested in one
/// `tree_digests` batch (so every segment of every such slot
/// shares the sixteen SHA-256 lanes). No node is touched.
pub(crate) fn verify_where(
    plans: &[ReadPlan],
    snaps: &mut [ShardsSnapshot],
    pick: impl Fn(usize) -> bool,
) {
    let picked = || (0..plans.len()).filter(|&i| pick(i));
    let firsts: Vec<&[u8]> = picked()
        .flat_map(|i| first_present(&plans[i], &snaps[i].shards))
        .collect();
    let mut digests = tree_digests(&firsts).into_iter();
    for i in picked() {
        let snap = &mut snaps[i];
        let (shards, report) = (mem::take(&mut snap.shards), mem::take(&mut snap.report));
        *snap = digest_filter(&plans[i], shards, report, &mut digests);
    }
}

/// The first `plan.need` present slots of a fetch, in slot order: the
/// slots [`digest_filter`] is sure to examine, whatever they hold.
fn first_present<'s>(
    plan: &ReadPlan,
    shards: &'s [Option<Blob>],
) -> impl Iterator<Item = &'s [u8]> {
    shards
        .iter()
        .flatten()
        .take(plan.need)
        .map(|blob| &blob[..])
}

/// Verifies fetched shards in slot order against the plan's digests:
/// [`check_slots`] with the digest check. A slot whose bytes fail — or
/// that the plan records no digest for — is discarded and counted
/// corrupt.
///
/// `batched` yields the digests of this plan's [`first_present`] slots,
/// in order, computed ahead for the whole read; a slot examined past
/// them (one of them failed) is hashed here.
fn digest_filter(
    plan: &ReadPlan,
    shards: Vec<Option<Blob>>,
    report: TransferReport,
    batched: &mut impl Iterator<Item = [u8; 32]>,
) -> ShardsSnapshot {
    let mut examined = 0usize;
    check_slots(plan, shards, report, |s, bytes| {
        // Every present slot so far was examined, so this is a first
        // `need` one exactly while fewer than `need` were.
        let digest = if examined < plan.need {
            batched.next().expect("one batched digest per first slot")
        } else {
            tree_digests(&[bytes])[0]
        };
        examined += 1;
        plan.shard_digests.get(s) == Some(&digest)
    })
}

/// Checks fetched shards in slot order with `accept` and folds the
/// result into a [`ShardsSnapshot`]. A slot `accept` refuses is
/// discarded and counted corrupt. Once `plan.need` slots are valid,
/// every later slot is dropped unexamined and uncounted: when fewer
/// than `need` are valid, every present slot was examined, so `valid`
/// and `corrupt` are what a full scrub would report.
fn check_slots(
    plan: &ReadPlan,
    mut shards: Vec<Option<Blob>>,
    report: TransferReport,
    mut accept: impl FnMut(usize, &Blob) -> bool,
) -> ShardsSnapshot {
    let (mut valid, mut corrupt) = (0usize, 0usize);
    for (s, slot) in shards.iter_mut().enumerate() {
        let Some(bytes) = slot else { continue };
        if valid >= plan.need {
            *slot = None;
        } else if accept(s, bytes) {
            valid += 1;
        } else {
            corrupt += 1;
            *slot = None;
        }
    }
    ShardsSnapshot {
        shards,
        valid,
        corrupt,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_store::faults::{FaultPlan, FaultyNode};
    use aeon_store::node::MemoryNode;
    use std::sync::Arc;

    /// Six nodes, each with its own clock and an offline window over
    /// epoch 1: `set_epoch(1)` takes one down.
    fn cluster_with_handles() -> (Cluster, Vec<Arc<FaultyNode>>) {
        let handles: Vec<Arc<FaultyNode>> = (0..6)
            .map(|i| {
                let inner = Arc::new(MemoryNode::new(i, ["us", "eu", "ap"][(i % 3) as usize]));
                Arc::new(FaultyNode::new(
                    inner,
                    FaultPlan::new(0).with_offline_window(1, 2),
                ))
            })
            .collect();
        let nodes: Vec<Arc<dyn StorageNode>> = handles
            .iter()
            .map(|h| Arc::clone(h) as Arc<dyn StorageNode>)
            .collect();
        (Cluster::new(nodes), handles)
    }

    fn handle(handles: &[Arc<FaultyNode>], id: NodeId) -> &FaultyNode {
        handles.iter().find(|h| h.id() == id).unwrap()
    }

    fn read_plan(placement: &[NodeId], shards: &[Vec<u8>]) -> ReadPlan {
        ReadPlan {
            object: crate::archive::ObjectId::from_raw("obj".into()),
            placement: placement.to_vec(),
            shard_digests: tree_digests(shards),
            need: placement.len(),
            verify: true,
        }
    }

    #[test]
    fn read_bounds_attempts_on_dead_nodes() {
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 4).unwrap();
        let shards: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        let dead = placement[2];
        handle(&handles, dead).set_epoch(1);
        let retry = RetryPolicy::default().with_attempts(3);
        let mut rng = ChaChaDrbg::from_u64_seed(1);
        let snap =
            PlanExecutor::new(&cluster, &retry).read(&read_plan(&placement, &shards), &mut rng);
        assert_eq!(snap.valid, 3);
        assert!(snap.shards[2].is_none());
        assert_eq!(
            snap.report.attempts_for(dead),
            3,
            "dead node retried to cap"
        );
        for id in placement.iter().filter(|&&id| id != dead) {
            assert_eq!(snap.report.attempts_for(*id), 1, "healthy nodes hit once");
        }
        assert_eq!(snap.report.failed_shards(), vec![2]);
        assert!(
            cluster.clock().now().as_millis() > 0,
            "retry backoff was charged to the cluster clock"
        );
    }

    #[test]
    fn write_tolerates_partial_failure() {
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 3).unwrap();
        handle(&handles, placement[0]).set_epoch(1);
        let shards: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4]).collect();
        let retry = RetryPolicy::default().with_attempts(2);
        let mut rng = ChaChaDrbg::from_u64_seed(2);
        let outcome =
            PlanExecutor::new(&cluster, &retry).write_shards("obj", &placement, &shards, &mut rng);
        assert_eq!(outcome.written, 2, "fan-out continued past the dead node");
        assert_eq!(outcome.report.failed_shards(), vec![0]);
        assert_eq!(outcome.report.attempts_for(placement[0]), 2);
    }

    /// Four shards on two nodes (nodes repeat in the placement): each
    /// node serves one frame covering its shards, and results and
    /// reports come back in shard order despite the grouping.
    #[test]
    fn fan_out_groups_by_node_and_answers_in_shard_order() {
        let cluster = Cluster::in_memory(&["x"], 2);
        let ids: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id()).collect();
        let placement = vec![ids[0], ids[1], ids[0], ids[1]];
        let shards: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let retry = RetryPolicy::none();
        let executor = PlanExecutor::new(&cluster, &retry);
        let mut rng = ChaChaDrbg::from_u64_seed(3);
        let outcome = executor.write_shards("obj", &placement, &shards, &mut rng);
        assert_eq!(outcome.written, 4);
        let snap = executor.read(&read_plan(&placement, &shards), &mut rng);
        let expect: Vec<Option<Blob>> = copied(&shards).into_iter().map(Some).collect();
        assert_eq!(snap.shards, expect);
        for report in [&outcome.report, &snap.report] {
            assert!(report.failed_shards().is_empty());
            let order: Vec<u32> = report.attempts.iter().map(|a| a.shard).collect();
            assert_eq!(order, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn missing_shard_is_not_retried() {
        let (cluster, _handles) = cluster_with_handles();
        let placement = cluster.place("obj", 3).unwrap();
        let shards: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        let gone = cluster.node(placement[2]).unwrap();
        gone.delete(&ShardKey::new("obj", 2)).unwrap();
        let retry = RetryPolicy::default().with_attempts(5);
        let mut rng = ChaChaDrbg::from_u64_seed(9);
        let snap =
            PlanExecutor::new(&cluster, &retry).read(&read_plan(&placement, &shards), &mut rng);
        assert!(snap.shards[2].is_none());
        assert_eq!(snap.report.attempts[2].attempts, 1, "NotFound is permanent");
        assert_eq!(snap.report.attempts[2].error, Some(NodeError::NotFound));
    }

    /// Regression: a slot past the end of the plan's digest list used to
    /// be counted valid and reach the decoder unverified. With no digest
    /// to check it against it is corrupt, like a slot whose bytes fail.
    #[test]
    fn a_slot_with_no_recorded_digest_is_corrupt() {
        let (cluster, _handles) = cluster_with_handles();
        let placement = cluster.place("obj", 3).unwrap();
        let shards: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        let plan = read_plan(&placement, &shards[..2]);
        let retry = RetryPolicy::none();
        let mut rng = ChaChaDrbg::from_u64_seed(5);
        let snap = PlanExecutor::new(&cluster, &retry).read(&plan, &mut rng);
        assert_eq!((snap.valid, snap.corrupt), (2, 1));
        assert_eq!(
            snap.shards[..2],
            [Some(vec![0; 8].into()), Some(vec![1; 8].into())]
        );
        assert!(snap.shards[2].is_none());
    }

    /// Runs [`digest_filter`] over five 8-byte blobs with `need` set,
    /// after `edit` has damaged the fetched copies.
    fn filtered(need: usize, edit: impl FnOnce(&mut [Option<Vec<u8>>])) -> ShardsSnapshot {
        let blobs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
        let plan = ReadPlan {
            need,
            ..read_plan(&[NodeId(0); 5], &blobs)
        };
        let mut fetched: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
        edit(&mut fetched);
        let fetched: Vec<Option<Blob>> = fetched.into_iter().map(|s| s.map(Blob::from)).collect();
        let firsts: Vec<&[u8]> = first_present(&plan, &fetched).collect();
        let mut batched = tree_digests(&firsts).into_iter();
        digest_filter(&plan, fetched, TransferReport::default(), &mut batched)
    }

    fn present(snap: &ShardsSnapshot) -> Vec<usize> {
        (0..snap.shards.len())
            .filter(|&s| snap.shards[s].is_some())
            .collect()
    }

    #[test]
    fn digest_filter_stops_at_need() {
        let snap = filtered(3, |_| {});
        assert_eq!((snap.valid, snap.corrupt), (3, 0));
        assert_eq!(present(&snap), vec![0, 1, 2], "the first need valid slots");
        assert_eq!(snap.shards[2], Some(vec![2; 8].into()));
    }

    #[test]
    fn digest_filter_counts_corruption_only_where_it_looked() {
        // Slot 1 is examined and fails; slot 4 lies past the third valid
        // slot, so it is dropped without being hashed or counted.
        let snap = filtered(3, |f| {
            f[1].as_mut().unwrap()[0] ^= 1;
            f[4].as_mut().unwrap().pop();
        });
        assert_eq!((snap.valid, snap.corrupt), (3, 1));
        assert_eq!(present(&snap), vec![0, 2, 3]);
    }

    #[test]
    fn digest_filter_with_need_at_least_n_is_a_full_scrub() {
        for need in [5, 6, usize::MAX] {
            let snap = filtered(need, |f| {
                f[1].as_mut().unwrap()[0] ^= 1;
                f[4].as_mut().unwrap().pop();
            });
            assert_eq!((snap.valid, snap.corrupt), (3, 2), "need {need}");
            assert_eq!(present(&snap), vec![0, 2, 3]);
        }
    }

    #[test]
    fn digest_filter_verifies_every_slot_when_need_exceeds_the_present() {
        // Two slots missing, one corrupt: two valid of the three needed,
        // so every present slot was examined and counted.
        let snap = filtered(3, |f| {
            f[0] = None;
            f[2] = None;
            f[3].as_mut().unwrap()[7] ^= 0x80;
        });
        assert_eq!((snap.valid, snap.corrupt), (2, 1));
        assert_eq!(present(&snap), vec![1, 4]);
    }

    /// Stores `shards`, then damages slot `s` as `damage[s]` says: 1
    /// deletes it, 2 flips its first byte, 3 drops its last byte, and
    /// anything else leaves it as stored.
    fn store_damaged(
        cluster: &Cluster,
        object: &str,
        placement: &[NodeId],
        shards: &[Vec<u8>],
        damage: &[u8],
    ) {
        cluster.put_shards(object, placement, shards).unwrap();
        for (s, node) in placement.iter().enumerate() {
            let node = cluster.node(*node).unwrap();
            let key = ShardKey::new(object, s as u32);
            let mut bytes = shards[s].clone();
            match damage[s] {
                1 => node.delete(&key).unwrap(),
                2 if !bytes.is_empty() => {
                    bytes[0] ^= 1;
                    node.put(&key, &bytes).unwrap();
                }
                3 => {
                    bytes.pop();
                    node.put(&key, &bytes).unwrap();
                }
                _ => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Many plans read together — their first `need` slots hashed in
        /// one batch, wide enough for the sixteen-lane path — answer
        /// exactly what reading each plan alone does, whatever is missing,
        /// corrupt or truncated and wherever `need` sits.
        #[test]
        fn batched_reads_equal_one_plan_reads(
            objects in proptest::collection::vec(
                (1usize..=6, 1usize..=7, proptest::collection::vec(0u8..4, 6..7), 0usize..300),
                1..12,
            ),
        ) {
            let (cluster, _handles) = cluster_with_handles();
            let retry = RetryPolicy::none();
            let executor = PlanExecutor::new(&cluster, &retry);
            let mut plans = Vec::new();
            for (i, (n, need, damage, len)) in objects.iter().enumerate() {
                let object = format!("obj-{i}");
                let placement = cluster.place(&object, *n).unwrap();
                let shards: Vec<Vec<u8>> =
                    (0..*n).map(|s| vec![(i * 7 + s) as u8; len + 61 * s]).collect();
                store_damaged(&cluster, &object, &placement, &shards, damage);
                plans.push(ReadPlan {
                    object: crate::archive::ObjectId::from_raw(object),
                    need: *need,
                    ..read_plan(&placement, &shards)
                });
            }
            let rngs = || -> Vec<ChaChaDrbg> {
                (0..plans.len() as u64).map(ChaChaDrbg::from_u64_seed).collect()
            };
            let batched = executor.read_many(&plans, &mut rngs());
            for ((plan, mut rng), together) in plans.iter().zip(rngs()).zip(&batched) {
                let alone = executor.read(plan, &mut rng);
                proptest::prop_assert_eq!(&together.shards, &alone.shards);
                proptest::prop_assert_eq!(
                    (together.valid, together.corrupt),
                    (alone.valid, alone.corrupt)
                );
            }
        }

        /// Holding the bytes the plan's digests record, a byte-checked
        /// re-read answers exactly what the digest-checked read does,
        /// whatever is missing, corrupt or truncated and wherever `need`
        /// sits.
        #[test]
        fn reread_of_the_recorded_bytes_answers_like_read(
            need in 1usize..=7,
            damage in proptest::collection::vec(0u8..4, 6..7),
            len in 0usize..300,
        ) {
            let (cluster, _handles) = cluster_with_handles();
            let placement = cluster.place("obj", 6).unwrap();
            let shards: Vec<Vec<u8>> = (0..6).map(|s| vec![s as u8; len + 61 * s]).collect();
            store_damaged(&cluster, "obj", &placement, &shards, &damage);
            let plan = ReadPlan { need, ..read_plan(&placement, &shards) };
            let held = copied(&shards);
            let retry = RetryPolicy::none();
            let executor = PlanExecutor::new(&cluster, &retry);
            let mut rng = ChaChaDrbg::from_u64_seed(7);
            let by_bytes = executor.reread(&plan, &held, &mut rng);
            let by_digest = executor.read(&plan, &mut rng);
            proptest::prop_assert_eq!(&by_bytes.shards, &by_digest.shards);
            proptest::prop_assert_eq!(
                (by_bytes.valid, by_bytes.corrupt),
                (by_digest.valid, by_digest.corrupt)
            );
        }
    }

    /// The byte check accepts a slot exactly when it equals the held
    /// bytes: a slot holding other bytes, or one past the held list, is
    /// corrupt, and `need` stops it where it stops the digest check.
    #[test]
    fn reread_accepts_only_the_held_bytes() {
        let (cluster, _handles) = cluster_with_handles();
        let placement = cluster.place("obj", 4).unwrap();
        let shards: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        let mut held = copied(&shards);
        held[1] = Blob::from(vec![9u8; 8]);
        let retry = RetryPolicy::none();
        let executor = PlanExecutor::new(&cluster, &retry);
        let mut rng = ChaChaDrbg::from_u64_seed(6);
        let plan = read_plan(&placement, &shards);
        let snap = executor.reread(&plan, &held[..3], &mut rng);
        assert_eq!((snap.valid, snap.corrupt), (2, 2));
        assert_eq!(present(&snap), vec![0, 2]);
        let snap = executor.reread(&ReadPlan { need: 1, ..plan }, &held, &mut rng);
        assert_eq!((snap.valid, snap.corrupt), (1, 0));
        assert_eq!(present(&snap), vec![0]);
    }

    /// Regression: a repair write naming a slot beyond the placement
    /// used to index the placement unchecked and panic. It is a typed
    /// error, decided before any node is touched.
    #[test]
    fn repair_write_beyond_placement_is_a_typed_error() {
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 3).unwrap();
        let retry = RetryPolicy::default();
        let writes = vec![(1, vec![1u8; 4]), (3, vec![3u8; 4])];
        let mut rng = ChaChaDrbg::from_u64_seed(4);
        let result =
            PlanExecutor::new(&cluster, &retry).apply_repair("obj", &placement, &writes, &mut rng);
        match result {
            Err(ArchiveError::Policy(PolicyError::Malformed(why))) => {
                assert_eq!(why, "repair write beyond placement");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert!(
            handles.iter().all(|h| h.keys().is_empty()),
            "no node touched"
        );
    }

    /// An in-place write settles its legs in write order and stops at the
    /// first that stays failed: the leg before it keeps its shard, the
    /// failed one spent its whole budget, and a later leg whose first
    /// attempt landed is taken back.
    #[test]
    fn an_in_place_write_aborts_at_its_first_failed_leg() {
        use aeon_store::faults::OpKind;
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 5).unwrap();
        assert!(placement[1] != placement[3] && placement[3] != placement[4]);
        handle(&handles, placement[3]).set_epoch(1);
        let retry = RetryPolicy::default().with_attempts(3);
        let writes: Vec<(usize, Vec<u8>)> = [1, 3, 4].map(|s| (s, vec![s as u8; 8])).into();
        let mut rng = ChaChaDrbg::from_u64_seed(8);
        let result =
            PlanExecutor::new(&cluster, &retry).apply_repair("obj", &placement, &writes, &mut rng);
        assert!(
            matches!(result, Err(ArchiveError::Cluster(_))),
            "{result:?}"
        );
        let stored = |s: u32| handle(&handles, placement[s as usize]).keys();
        assert_eq!(
            stored(1),
            [ShardKey::new("obj", 1)],
            "the leg before it stays"
        );
        assert!(stored(4).is_empty(), "the landed leg after it is deleted");
        let puts = |s: usize| {
            let events = handle(&handles, placement[s]).events();
            events.iter().filter(|e| e.op == OpKind::Put).count()
        };
        assert_eq!(puts(3), 3, "the failed leg spent its whole budget");
    }

    /// A fresh write rolls back exactly the units that landed short: a
    /// unit beside it in the same call keeps every shard.
    #[test]
    fn a_fresh_write_rolls_back_only_the_short_unit() {
        let (cluster, handles) = cluster_with_handles();
        let ids: Vec<NodeId> = handles.iter().map(|h| h.id()).collect();
        handles[0].set_epoch(1);
        let plan = |object: &str| WritePlan {
            object: crate::archive::ObjectId::from_raw(object.into()),
            policy: crate::PolicyKind::Replication { copies: 3 },
            shards: vec![vec![7u8; 8]; 3],
            shard_digests: Vec::new(),
            meta: crate::policy::EncodingMeta::plain(0),
            required: 3,
        };
        let placements = [ids[..3].to_vec(), ids[3..].to_vec()];
        let retry = RetryPolicy::default().with_attempts(2);
        let mut rngs = [1, 2].map(ChaChaDrbg::from_u64_seed);
        let results = PlanExecutor::new(&cluster, &retry).commit_many(
            &[plan("short"), plan("whole")],
            &placements,
            &mut rngs,
        );
        assert!(matches!(&results[0], Err(o) if o.written == 2));
        assert!(matches!(&results[1], Ok(o) if o.written == 3));
        for (s, h) in handles.iter().enumerate() {
            let keys = h.keys();
            let expect = if s < 3 {
                vec![]
            } else {
                vec![ShardKey::new("whole", s as u32 - 3)]
            };
            assert_eq!(keys, expect, "node {s}");
        }
    }
}
