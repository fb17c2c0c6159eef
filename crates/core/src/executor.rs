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
//! `get_batch`/`put_batch` for its group through
//! `Cluster::dispatch_lanes`, and each leg whose first attempt failed
//! retryably then spends the rest of its retry budget individually,
//! drawing jitter from its own object's rng. A single-object operation
//! is a batch of one; how the per-node frames are *priced* (summed, or
//! overlapped on lanes) is the cluster's `DispatchPolicy`, never the
//! caller's choice of entry point.

use crate::archive::ArchiveError;
use crate::plan::{ReadPlan, WritePlan};
use crate::policy::PolicyError;
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use aeon_store::cluster::{ClusterError, ShardAttempt, TransferReport};
use aeon_store::node::{NodeError, NodeId, ShardKey, StorageNode};
use aeon_store::retry::{run_with_retry, RetryPolicy};
use aeon_store::Cluster;
use std::slice;

/// Snapshot of an object's shards after a retrying, digest-checked
/// fetch: the raw material for degraded reads, verification, and
/// repair.
#[derive(Debug)]
pub struct ShardsSnapshot {
    /// Shard slots in placement order. Slots that erred out past the
    /// retry budget, whose bytes failed the per-shard digest check, or
    /// that lie past the plan's `need`-th valid slot are `None`.
    pub shards: Vec<Option<Vec<u8>>>,
    /// Shards present and digest-clean (at most the plan's `need`).
    pub valid: usize,
    /// Shards discarded because their bytes failed the digest check,
    /// among those examined before `need` were valid.
    pub corrupt: usize,
    /// Per-shard read-attempt accounting from the cluster.
    pub report: TransferReport,
}

/// What a shard-set write achieved.
#[derive(Debug)]
pub struct WriteOutcome {
    /// Shards that landed durably within the retry budget.
    pub written: usize,
    /// Per-shard write-attempt accounting from the cluster (the same
    /// [`TransferReport`] shape reads use — both directions are
    /// per-shard fan-outs with bounded retry).
    pub report: TransferReport,
}

/// One shard's leg of a fan-out: whose retry stream pays for it, the
/// node it lives on, its key, and (for writes) its bytes.
struct Leg<'a> {
    /// Index of the leg's object in the operation (and of its rng).
    owner: usize,
    node: NodeId,
    object: &'a str,
    shard: u32,
    data: &'a [u8],
}

impl Leg<'_> {
    fn key(&self) -> ShardKey {
        ShardKey::new(self.object, self.shard)
    }
}

/// A transfer direction: how a node serves one frame of legs, and how
/// it serves one leg again on retry. The fan-out is written once over
/// this; [`Get`] and [`Put`] are its two instantiations.
trait Direction {
    type Out;
    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a>>,
    ) -> Vec<Result<Self::Out, NodeError>>;
    fn one(node: &dyn StorageNode, leg: &Leg<'_>) -> Result<Self::Out, NodeError>;
}

struct Get;

impl Direction for Get {
    type Out = Vec<u8>;

    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a>>,
    ) -> Vec<Result<Vec<u8>, NodeError>> {
        let keys: Vec<ShardKey> = legs.map(Leg::key).collect();
        node.get_batch(&keys)
    }

    fn one(node: &dyn StorageNode, leg: &Leg<'_>) -> Result<Vec<u8>, NodeError> {
        node.get(&leg.key())
    }
}

struct Put;

impl Direction for Put {
    type Out = ();

    fn frame<'l, 'a: 'l>(
        node: &dyn StorageNode,
        legs: impl Iterator<Item = &'l Leg<'a>>,
    ) -> Vec<Result<(), NodeError>> {
        let entries: Vec<(ShardKey, &[u8])> = legs.map(|leg| (leg.key(), leg.data)).collect();
        node.put_batch(&entries)
    }

    fn one(node: &dyn StorageNode, leg: &Leg<'_>) -> Result<(), NodeError> {
        node.put(&leg.key(), leg.data)
    }
}

/// One object's shard set to write: object id, placement, and one blob
/// per placement slot.
type ShardSet<'a> = (&'a str, &'a [NodeId], &'a [Vec<u8>]);

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
    /// leg's first attempt, in leg order.
    fn first_attempts<D: Direction>(&self, legs: &[Leg<'_>]) -> Vec<Attempted<D::Out>> {
        let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
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
            .into_iter()
            .map(|f| f.expect("one result per framed leg"))
            .collect()
    }

    /// Second half of the fan-out, for one leg: a first attempt that
    /// failed retryably spends the remaining retry budget individually,
    /// so every key sees at most `retry.max_attempts` attempts in total
    /// whatever it was framed with.
    fn settle<D: Direction, R: CryptoRng>(
        &self,
        leg: &Leg<'_>,
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
        legs: &[Leg<'_>],
        rngs: &mut [R],
    ) -> Vec<(Vec<Option<D::Out>>, TransferReport)> {
        let mut out: Vec<(Vec<Option<D::Out>>, TransferReport)> = rngs
            .iter()
            .map(|_| (Vec::new(), TransferReport::default()))
            .collect();
        for (leg, first) in legs.iter().zip(self.first_attempts::<D>(legs)) {
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
    /// slot is fetched; each plan's slots are then verified in order
    /// until its `need` are valid, shards failing the digest check are
    /// discarded, and slots past the `need`-th valid one come back
    /// `None` unhashed (see [`ReadPlan::need`]). The first `need`
    /// present slots of every plan — all a plan hashes unless one of
    /// them fails — are hashed in one [`Sha256::digest_many`] batch.
    ///
    /// # Panics
    ///
    /// Panics if `plans` and `rngs` disagree in length.
    pub fn read_many<R: CryptoRng>(
        &self,
        plans: &[ReadPlan],
        rngs: &mut [R],
    ) -> Vec<ShardsSnapshot> {
        assert_eq!(plans.len(), rngs.len(), "plan/rng mismatch");
        let legs: Vec<Leg<'_>> = plans
            .iter()
            .enumerate()
            .flat_map(|(owner, plan)| {
                plan.placement.iter().enumerate().map(move |(s, node)| Leg {
                    owner,
                    node: *node,
                    object: plan.object.as_str(),
                    shard: s as u32,
                    data: &[],
                })
            })
            .collect();
        let fetched = self.transfer::<Get, R>(&legs, rngs);
        let firsts: Vec<&[u8]> = plans
            .iter()
            .zip(&fetched)
            .flat_map(|(plan, (shards, _))| first_present(plan, shards))
            .collect();
        let mut digests = Sha256::digest_many(&firsts).into_iter();
        plans
            .iter()
            .zip(fetched)
            .map(|(plan, (shards, report))| digest_filter(plan, shards, report, &mut digests))
            .collect()
    }

    /// Writes a shard set in place (refresh, re-encode, re-wrap):
    /// shards that miss the retry budget are left stale for the
    /// caller's digests to filter on read. No rollback.
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
        self.write_many(&[(object, placement, shards)], slice::from_mut(rng))
            .pop()
            .expect("one outcome per shard set")
    }

    /// Writes many objects' shard sets in one cross-object flush, one
    /// framed batch per target node. No rollback.
    fn write_many<R: CryptoRng>(&self, sets: &[ShardSet<'_>], rngs: &mut [R]) -> Vec<WriteOutcome> {
        let mut legs: Vec<Leg<'_>> = Vec::new();
        for (owner, &(object, placement, shards)) in sets.iter().enumerate() {
            assert_eq!(placement.len(), shards.len(), "placement/shard mismatch");
            legs.extend(
                placement
                    .iter()
                    .zip(shards)
                    .enumerate()
                    .map(|(s, (node, data))| Leg {
                        owner,
                        node: *node,
                        object,
                        shard: s as u32,
                        data,
                    }),
            );
        }
        self.transfer::<Put, R>(&legs, rngs)
            .into_iter()
            .map(|(slots, report)| WriteOutcome {
                written: slots.iter().flatten().count(),
                report,
            })
            .collect()
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
        self.commit_many(
            slice::from_ref(plan),
            &[placement.to_vec()],
            slice::from_mut(rng),
        )
        .pop()
        .expect("one outcome per plan")
    }

    /// Commits write plans for fresh objects in one cross-object flush:
    /// every shard's first attempt is grouped by target node and
    /// shipped as one framed batch per node; entries that fail
    /// retryably then spend the remaining retry budget individually,
    /// drawing jitter from that object's own rng. Rollback is per
    /// object: if fewer than a plan's required shards land durably the
    /// object could never be read back, so every slot of it is deleted
    /// with sticky retries, as `roll_back` does (a torn write leaves a
    /// prefix even on a slot reported failed), and its outcome reported
    /// as `Err`.
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
        assert_eq!(plans.len(), rngs.len(), "plan/rng mismatch");
        let sets: Vec<ShardSet<'_>> = plans
            .iter()
            .zip(placements)
            .map(|(plan, placement)| {
                (
                    plan.object.as_str(),
                    placement.as_slice(),
                    plan.shards.as_slice(),
                )
            })
            .collect();
        let outcomes = self.write_many(&sets, rngs);
        outcomes
            .into_iter()
            .zip(sets.iter().zip(plans))
            .zip(rngs)
            .map(|((outcome, ((object, placement, _), plan)), rng)| {
                if outcome.written < plan.required {
                    self.roll_back(object, placement, rng);
                    Err(outcome)
                } else {
                    Ok(outcome)
                }
            })
            .collect()
    }

    /// Executes a repair plan's writes: every rebuilt shard's first
    /// attempt ships in one framed batch to its node, then entries are
    /// settled **in write order** — a first-attempt failure spends the
    /// remaining retry budget individually, and the first entry that
    /// stays failed aborts the repair. Writes the frames landed *beyond*
    /// the aborting entry are rolled back (deleted), so a failed repair
    /// never leaves rebuilt bytes whose digests the manifest does not
    /// record. Returns the digest of each rewritten shard for the
    /// caller's manifest.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::Malformed`] — before any node is touched —
    /// when a write names a slot beyond the placement or a node outside
    /// the cluster, and [`ArchiveError::Cluster`] when a put misses the
    /// retry budget: repair must not silently leave a hole it claimed
    /// to fill.
    pub fn apply_repair<R: CryptoRng>(
        &self,
        object: &str,
        placement: &[NodeId],
        writes: &[(usize, Vec<u8>)],
        rng: &mut R,
    ) -> Result<Vec<(usize, [u8; 32])>, ArchiveError> {
        let malformed = |why: &str| ArchiveError::Policy(PolicyError::Malformed(why.into()));
        let mut legs: Vec<Leg<'_>> = Vec::with_capacity(writes.len());
        for (m, data) in writes {
            let node = *placement
                .get(*m)
                .ok_or_else(|| malformed("repair write beyond placement"))?;
            if self.cluster.node(node).is_none() {
                return Err(malformed("placement references unknown node"));
            }
            legs.push(Leg {
                owner: 0,
                node,
                object,
                shard: *m as u32,
                data,
            });
        }
        let mut first = self.first_attempts::<Put>(&legs).into_iter();
        let mut digests = Vec::with_capacity(writes.len());
        for (p, leg) in legs.iter().enumerate() {
            let attempted = first.next().expect("one first attempt per leg");
            if let (_, Err(e)) = self.settle::<Put, R>(leg, attempted, rng) {
                for (later, (_, landed)) in legs[p + 1..].iter().zip(first) {
                    if landed.is_ok() {
                        self.delete_surely(later.node, &later.key(), rng);
                    }
                }
                return Err(ArchiveError::Cluster(ClusterError::Node(e)));
            }
            digests.push((leg.shard as usize, Sha256::digest(leg.data)));
        }
        Ok(digests)
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

/// The first `plan.need` present slots of a fetch, in slot order: the
/// slots [`digest_filter`] is sure to examine, whatever they hold.
fn first_present<'s>(
    plan: &ReadPlan,
    shards: &'s [Option<Vec<u8>>],
) -> impl Iterator<Item = &'s [u8]> {
    shards.iter().flatten().take(plan.need).map(Vec::as_slice)
}

/// Verifies fetched shards in slot order against the plan's digests and
/// folds the result into a [`ShardsSnapshot`]. A slot whose bytes fail
/// — or that the plan records no digest for — is discarded and counted
/// corrupt. Once `plan.need` slots are valid, every later slot is
/// dropped unhashed and uncounted: when fewer than `need` are valid,
/// every present slot was examined, so `valid` and `corrupt` are what a
/// full scrub would report.
///
/// `batched` yields the digests of this plan's [`first_present`] slots,
/// in order, computed ahead for the whole read; a slot examined past
/// them (one of them failed) is hashed here.
fn digest_filter(
    plan: &ReadPlan,
    mut shards: Vec<Option<Vec<u8>>>,
    report: TransferReport,
    batched: &mut impl Iterator<Item = [u8; 32]>,
) -> ShardsSnapshot {
    let (mut valid, mut corrupt) = (0usize, 0usize);
    for (s, slot) in shards.iter_mut().enumerate() {
        let Some(bytes) = slot else { continue };
        if valid >= plan.need {
            *slot = None;
            continue;
        }
        // Every present slot so far was examined, so this is a first
        // `need` one exactly while fewer than `need` were.
        let digest = if valid + corrupt < plan.need {
            batched.next().expect("one batched digest per first slot")
        } else {
            Sha256::digest(bytes)
        };
        if plan.shard_digests.get(s) == Some(&digest) {
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
    use aeon_store::node::MemoryNode;
    use std::sync::Arc;

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

    fn handle(handles: &[MemoryNode], id: NodeId) -> &MemoryNode {
        handles.iter().find(|h| h.id() == id).unwrap()
    }

    fn read_plan(placement: &[NodeId], shards: &[Vec<u8>]) -> ReadPlan {
        ReadPlan {
            object: crate::archive::ObjectId::from_raw("obj".into()),
            placement: placement.to_vec(),
            shard_digests: shards.iter().map(|s| Sha256::digest(s)).collect(),
            need: placement.len(),
        }
    }

    #[test]
    fn read_bounds_attempts_on_dead_nodes() {
        let (cluster, handles) = cluster_with_handles();
        let placement = cluster.place("obj", 4).unwrap();
        let shards: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        cluster.put_shards("obj", &placement, &shards).unwrap();
        let dead = placement[2];
        handle(&handles, dead).set_offline(true);
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
        handle(&handles, placement[0]).set_offline(true);
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
        let expect: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
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
        assert_eq!(snap.shards[..2], [Some(vec![0; 8]), Some(vec![1; 8])]);
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
        let firsts: Vec<&[u8]> = first_present(&plan, &fetched).collect();
        let mut batched = Sha256::digest_many(&firsts).into_iter();
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
        assert_eq!(snap.shards[2], Some(vec![2; 8]));
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
                cluster.put_shards(&object, &placement, &shards).unwrap();
                for (s, node) in placement.iter().enumerate() {
                    let node = cluster.node(*node).unwrap();
                    let key = ShardKey::new(&object, s as u32);
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
}
