//! Dispatch equivalence: the shard I/O path exists once, so the only
//! axes left to pin are how its per-node frames are *priced* and how
//! many objects share one flush.
//!
//! * **Dispatch** — for every one of the nine policies,
//!   `DispatchPolicy::Parallel` must return byte-identical payloads,
//!   manifests, typed failures, per-key attempt schedules, and stored
//!   bytes to `DispatchPolicy::Sequential` under deterministic
//!   transient fault injection. Lanes may change *when* the virtual
//!   clock is charged — never what any read returns or any node stores.
//! * **Batch size** — a single-object operation is a batch of one:
//!   `retrieve(id)` is `retrieve_many(&[id])[0]` and
//!   `commit_write(plan)` is `commit_many(&[plan])[0]`, in bytes, report
//!   and clock charge; and a flush of N objects stores and returns what
//!   N flushes of one do, dedup on or off.
//!
//! Fault decisions in `FaultyNode` are pure in `(seed, op kind, shard
//! key, nth access)`, and the batch calls default to a per-key loop, so
//! a key's fault stream does not depend on what it was framed with. The
//! fault suites avoid offline windows and throughput decorators, whose
//! epoch/clock coupling is inherently order-sensitive.

use aeon_cas::ChunkerParams;
use aeon_core::dedup::DedupConfig;
use aeon_core::keys::KeyStore;
use aeon_core::plan::plan_write;
use aeon_core::{
    Archive, ArchiveConfig, ArchiveError, IntegrityMode, ObjectId, PipelineConfig, PlanExecutor,
    PolicyKind, RetryPolicy,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};
use aeon_integrity::timestamp::SigBreakSchedule;
use aeon_store::clock::SimDuration;
use aeon_store::faults::{FaultPlan, FaultyNode};
use aeon_store::node::{MemoryNode, NodeId, ShardKey, StorageNode};
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
use aeon_store::{Cluster, DispatchPolicy};
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

const SEQUENTIAL: DispatchPolicy = DispatchPolicy::Sequential;
const PARALLEL: DispatchPolicy = DispatchPolicy::Parallel { workers: 1 };

/// One representative of each of the nine policy families.
fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Replication { copies: 4 },
        PolicyKind::ErasureCoded { data: 3, parity: 2 },
        PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 3,
            parity: 2,
        },
        PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 2,
            parity: 2,
        },
        PolicyKind::AontRs { data: 3, parity: 2 },
        PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        },
        PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 6,
        },
        PolicyKind::LeakageResilientShamir {
            threshold: 2,
            shares: 4,
            source_len: 32,
        },
        PolicyKind::Entropic { data: 2, parity: 2 },
    ]
}

/// One memory node per shard; with `fault_seed`, every node injects
/// deterministic transient I/O errors.
fn cluster(policy: &PolicyKind, fault_seed: Option<u64>) -> (Cluster, Vec<MemoryNode>) {
    let handles: Vec<MemoryNode> = (0..policy.shard_count().max(1) as u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let nodes: Vec<Arc<dyn StorageNode>> = handles
        .iter()
        .map(|h| {
            let node = Arc::new(h.clone()) as Arc<dyn StorageNode>;
            match fault_seed {
                Some(seed) => {
                    let plan = FaultPlan::new(seed).with_transient_io_rate(0.3);
                    Arc::new(FaultyNode::new(node, plan.for_node(h.id())))
                }
                None => node,
            }
        })
        .collect();
    (Cluster::new(nodes), handles)
}

/// With `dedup`, chunks are small enough that a few KiB of payload
/// spans several blocks.
fn config(policy: &PolicyKind, dispatch: DispatchPolicy, dedup: bool) -> ArchiveConfig {
    let config = ArchiveConfig::new(policy.clone())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_retry(RetryPolicy::default().with_attempts(3))
        .with_dispatch(dispatch);
    if !dedup {
        return config;
    }
    let chunker = ChunkerParams {
        min_size: 512,
        target_size: 2048,
        max_size: 8192,
        seed: 42,
    };
    config
        .with_pipeline(PipelineConfig::serial())
        .with_dedup(DedupConfig { chunker, fanout: 4 })
}

fn archive(
    policy: &PolicyKind,
    fault_seed: Option<u64>,
    dispatch: DispatchPolicy,
    dedup: bool,
) -> (Archive, Vec<MemoryNode>) {
    let (cluster, handles) = cluster(policy, fault_seed);
    let archive = Archive::with_cluster(config(policy, dispatch, dedup), cluster).unwrap();
    (archive, handles)
}

/// Every stored `(node, key, bytes)` triple, in a canonical order.
fn cluster_contents(handles: &[MemoryNode]) -> Vec<(NodeId, String, u32, Vec<u8>)> {
    let mut contents = Vec::new();
    for h in handles {
        for key in h.keys() {
            let bytes = h.get(&key).expect("listed key reads");
            contents.push((h.id(), key.object.clone(), key.shard, bytes));
        }
    }
    contents.sort();
    contents
}

fn payloads(seed: u8, count: usize) -> Vec<(Vec<u8>, &'static str)> {
    (0..count)
        .map(|i| {
            let bytes = (0..64 + i * 17)
                .map(|j| seed.wrapping_mul(31).wrapping_add((i * 251 + j) as u8))
                .collect();
            (bytes, ["a", "b", "c", "d"][i])
        })
        .collect()
}

/// [`payloads`], or with `dedup` ~6 KiB versions: a shared 4 KiB prefix
/// then a tail of each one's own, several blocks apiece.
fn items(seed: u8, count: usize, dedup: bool) -> Vec<(Vec<u8>, &'static str)> {
    if !dedup {
        return payloads(seed, count);
    }
    let mut bytes = vec![0u8; 4096 + 2048 * count];
    ChaChaDrbg::from_u64_seed(seed.into()).fill_bytes(&mut bytes);
    let (prefix, tails) = bytes.split_at(4096);
    let version = |i: usize| [prefix, &tails[2048 * i..][..2048]].concat();
    (0..count)
        .map(|i| (version(i), ["a", "b", "c", "d"][i]))
        .collect()
}

fn named<'a>(items: &'a [(Vec<u8>, &'a str)]) -> Vec<(&'a [u8], &'a str)> {
    items.iter().map(|(p, n)| (p.as_slice(), *n)).collect()
}

/// Deletes shards of `id` down to the policy's read threshold,
/// starting at slot `rot`.
fn degrade(archive: &Archive, handles: &[MemoryNode], id: &ObjectId, rot: u64) {
    let manifest = archive.manifest(id).unwrap();
    let n = manifest.placement.len();
    for j in 0..n - manifest.policy.read_threshold() {
        let idx = (rot as usize + j) % n;
        handles
            .iter()
            .find(|h| h.id() == manifest.placement[idx])
            .unwrap()
            .delete(&ShardKey::new(id.as_str(), idx as u32))
            .unwrap();
    }
}

/// An operation's outcome as comparable text: the chosen projection of
/// a success, or the typed failure.
fn outcome<T, U: Debug>(result: &Result<T, ArchiveError>, project: impl Fn(&T) -> U) -> String {
    format!("{:?}", result.as_ref().map(project))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Ingest under faults: ids (or the typed failure), manifests and
    /// stored bytes are the same under both dispatches.
    #[test]
    fn dispatch_is_invisible_to_ingest(fault_seed in any::<u64>(), count in 1usize..4) {
        for policy in policies() {
            let items = payloads(fault_seed as u8, count);
            let run = |dispatch| {
                let (mut archive, handles) = archive(&policy, Some(fault_seed), dispatch, false);
                let result = archive.ingest_many(&named(&items));
                let manifests: Vec<_> = archive
                    .manifests()
                    .map(|m| (m.id, m.digest, m.shard_digests, m.placement))
                    .collect();
                (outcome(&result, Vec::clone), manifests, cluster_contents(&handles))
            };
            prop_assert_eq!(run(SEQUENTIAL), run(PARALLEL), "policy {:?}", policy);
        }
    }

    /// Degraded retrieval under faults, one object and many: payload
    /// bytes, per-key attempt schedules and typed failures are the same
    /// under both dispatches.
    #[test]
    fn dispatch_is_invisible_to_retrieve(
        fault_seed in any::<u64>(),
        rot in any::<u64>(),
        count in 2usize..4,
    ) {
        for policy in policies() {
            let items = payloads(fault_seed as u8, count);
            let run = |dispatch| {
                let (mut archive, handles) = archive(&policy, Some(fault_seed), dispatch, false);
                let ids: Vec<ObjectId> = named(&items)
                    .iter()
                    .map(|(p, n)| archive.ingest(p, n).unwrap())
                    .collect();
                degrade(&archive, &handles, &ids[0], rot);
                let one = archive.retrieve_with_report(&ids[0]);
                let many: Vec<String> = archive
                    .retrieve_many(&ids)
                    .iter()
                    .map(|r| outcome(r, Vec::clone))
                    .collect();
                (outcome(&one, |(p, r)| (p.clone(), r.attempts.clone())), many)
            };
            prop_assert_eq!(run(SEQUENTIAL), run(PARALLEL), "policy {:?}", policy);
        }
    }

    /// Repair under faults: the typed outcome, the bytes moved and the
    /// stored bytes afterwards are the same under both dispatches.
    #[test]
    fn dispatch_is_invisible_to_repair(fault_seed in any::<u64>(), rot in any::<u64>()) {
        for policy in policies() {
            let run = |dispatch| {
                let (mut archive, handles) = archive(&policy, Some(fault_seed), dispatch, false);
                let id = archive.ingest(b"equivalence under fire, in lanes", "eq").unwrap();
                degrade(&archive, &handles, &id, rot);
                let result = archive.repair_object(&id);
                let report = outcome(&result, |r| {
                    (r.missing_before, r.missing_after, r.method.clone(), r.bytes_read, r.bytes_written)
                });
                (report, cluster_contents(&handles))
            };
            prop_assert_eq!(run(SEQUENTIAL), run(PARALLEL), "policy {:?}", policy);
        }
    }

    /// The dedup Merkle level walk (fault-free): payloads whose leaf
    /// lists carry duplicate block hashes reassemble byte-identically,
    /// alone and through `retrieve_many`, under both dispatches.
    #[test]
    fn dispatch_is_invisible_to_dedup_retrieve(seed in any::<u8>()) {
        // ~20 KiB with a repeating period well under the chunker max:
        // several blocks, some duplicated.
        let repeated: Vec<u8> = (0..20_000u32)
            .map(|i| seed.wrapping_add((i % 1024) as u8))
            .collect();
        let varied: Vec<u8> = (0..9_000u32)
            .map(|i| seed.wrapping_mul(17).wrapping_add((i % 4093) as u8))
            .collect();
        for policy in policies() {
            let run = |dispatch| {
                let mut archive = archive(&policy, None, dispatch, true).0;
                let ids = [
                    archive.ingest(&repeated, "rep").unwrap(),
                    archive.ingest(&varied, "var").unwrap(),
                ];
                let one = archive.retrieve_with_report(&ids[0]).unwrap();
                let many: Vec<Vec<u8>> =
                    archive.retrieve_many(&ids).into_iter().map(Result::unwrap).collect();
                (ids, one.0, one.1.attempts, many)
            };
            let (seq, par) = (run(SEQUENTIAL), run(PARALLEL));
            prop_assert_eq!(&seq.1, &repeated, "policy {:?}", policy);
            prop_assert_eq!(&seq.3, &vec![repeated.clone(), varied.clone()], "policy {:?}", policy);
            prop_assert_eq!(seq, par, "policy {:?}", policy);
        }
    }

    /// Batch size is invisible under faults: one flush of N objects
    /// mints, stores and returns what N flushes of one do — `ingest`
    /// against `ingest_many`, `retrieve` against `retrieve_many` — dedup
    /// on or off. A dedup flush writes a block new to several of its
    /// objects once, as the one-by-one run writes it for the first.
    #[test]
    fn batch_size_is_invisible(
        fault_seed in any::<u64>(),
        count in 1usize..4,
        dedup in any::<bool>(),
    ) {
        for policy in policies() {
            let items = items(fault_seed as u8, count, dedup);
            let (mut one, one_handles) = archive(&policy, Some(fault_seed), SEQUENTIAL, dedup);
            let (mut many, many_handles) = archive(&policy, Some(fault_seed), SEQUENTIAL, dedup);
            let one_ids: Result<Vec<ObjectId>, _> =
                named(&items).iter().map(|(p, n)| one.ingest(p, n)).collect();
            let many_ids = many.ingest_many(&named(&items));
            prop_assert_eq!(
                outcome(&one_ids, Vec::clone), outcome(&many_ids, Vec::clone),
                "policy {:?}", policy
            );
            prop_assert_eq!(
                cluster_contents(&one_handles), cluster_contents(&many_handles),
                "policy {:?}: stored bytes", policy
            );
            let Ok(ids) = one_ids else { continue };
            let singly: Vec<String> =
                ids.iter().map(|id| outcome(&one.retrieve(id), Vec::clone)).collect();
            let together: Vec<String> =
                many.retrieve_many(&ids).iter().map(|r| outcome(r, Vec::clone)).collect();
            prop_assert_eq!(singly, together, "policy {:?}", policy);
        }
    }
}

/// Batch size stays invisible with timestamp chains on (fault-free): a
/// flush anchors after its writes and signs once where N single ingests
/// sign N times, yet ids, manifests, stored bytes and ledger agree for
/// all nine policies, dedup on or off, as long as no authority-key
/// rotation falls inside the sequence. The evidence differs by design —
/// per flush, not per object — and verifies either way.
#[test]
fn batch_size_is_invisible_under_hash_chains() {
    let chained = |policy: &PolicyKind, dedup: bool| {
        let (cluster, handles) = cluster(policy, None);
        let config = config(policy, SEQUENTIAL, dedup).with_integrity(IntegrityMode::HashChain);
        (Archive::with_cluster(config, cluster).unwrap(), handles)
    };
    for (policy, dedup) in policies()
        .into_iter()
        .flat_map(|p| [(p.clone(), false), (p, true)])
    {
        let items = items(7, 4, dedup);
        let run = |batched: bool| {
            let (mut archive, handles) = chained(&policy, dedup);
            let ids: Vec<ObjectId> = if batched {
                archive.ingest_many(&named(&items)).unwrap()
            } else {
                named(&items)
                    .iter()
                    .map(|(p, n)| archive.ingest(p, n).unwrap())
                    .collect()
            };
            for id in &ids {
                let health = archive.verify(id, &SigBreakSchedule::new()).unwrap();
                assert_eq!(health.chain_valid, Some(true), "policy {policy:?}");
            }
            let manifests: Vec<_> = archive
                .manifests()
                .map(|m| (m.id, m.digest, m.shard_digests, m.placement))
                .collect();
            let ledger: Vec<[u8; 32]> = archive.ledger().iter().map(|e| e.hash).collect();
            (ids, manifests, cluster_contents(&handles), ledger)
        };
        assert_eq!(run(false), run(true), "policy {policy:?}, dedup {dedup}");
    }

    // One dedup flush spends one authority signature, read off the key's
    // exhaustion: the key signs 64 times before the archive rotates it,
    // and a chain signed under it dies when its scheme breaks. After 63
    // single ingests, the flushed chains dying and the next single's
    // surviving means the flush took the first key's last signature.
    let mut archive = chained(&EC_4_2, true).0;
    for i in 0..63 {
        archive
            .ingest(format!("single {i}").as_bytes(), "s")
            .unwrap();
    }
    let flushed = archive.ingest_many(&named(&items(7, 4, true))).unwrap();
    let after = archive.ingest(b"after the flush", "s").unwrap();
    let mut broken = SigBreakSchedule::new();
    broken.set_break("wots-v1", archive.year() + 1);
    archive.advance_year(archive.year() + 1);
    let survives = |id: &ObjectId| archive.verify(id, &broken).unwrap().chain_valid == Some(true);
    assert!(!flushed.iter().any(survives), "signed under the first key");
    assert!(survives(&after), "the flush signed once");
}

#[test]
fn retrieve_many_isolates_unknown_objects() {
    let policy = PolicyKind::ErasureCoded { data: 2, parity: 2 };
    let (mut archive, _handles) = archive(&policy, None, SEQUENTIAL, false);
    let id = archive.ingest(b"present", "p").unwrap();
    // An id minted by a different archive is unknown to this one.
    let (mut other, _other_handles) = self::archive(&policy, None, SEQUENTIAL, false);
    let ghost = other.ingest(b"elsewhere", "ghost").unwrap();
    let results = archive.retrieve_many(&[ghost.clone(), id.clone()]);
    assert!(matches!(results[0], Err(ArchiveError::UnknownObject(_))));
    assert_eq!(results[1].as_ref().unwrap(), b"present");
}

const SEEK: SimDuration = SimDuration::from_secs(30);
const EC_4_2: PolicyKind = PolicyKind::ErasureCoded { data: 4, parity: 2 };

/// A six-node cluster where positioning dominates (30 s seek, 1 GB/s):
/// elapsed virtual time, rounded, counts seeks.
fn seek_priced_cluster(dispatch: DispatchPolicy) -> Cluster {
    let profile = ThroughputProfile::new(SEEK, 1e9, 1e9);
    let sites = ["s0", "s1", "s2", "s3", "s4", "s5"];
    throughput_in_memory_cluster(&sites, 1, &profile)
        .0
        .with_dispatch(dispatch)
}

/// Seeks the cluster clock advanced by while `op` ran.
fn seeks<T>(cluster: &Cluster, op: impl FnOnce() -> T) -> (T, u64) {
    let start = cluster.clock().now();
    let out = op();
    let elapsed = cluster.clock().now() - start;
    let count = (elapsed.as_secs_f64() / SEEK.as_secs_f64()).round() as u64;
    (out, count)
}

/// Single-object operations honour the dispatch policy: on six
/// seek-priced nodes a six-shard fan-out costs six seeks summed and one
/// seek on lanes. That holds for a dedup ingest of many blocks too: every
/// block's shards share the flush's one frame per node. Deletes are not
/// lane-dispatched: one seek per shard under either policy.
#[test]
fn single_object_ops_cost_the_critical_path_under_parallel() {
    // (dedup ingest, retrieve, repair = read + 1 write + verify read,
    // reencode = read + 6 deletes + write)
    for (dispatch, expect) in [(SEQUENTIAL, [6, 6, 13, 18]), (PARALLEL, [1, 1, 3, 8])] {
        let cluster = seek_priced_cluster(dispatch);
        let config = config(&EC_4_2, dispatch, true);
        let mut dedup = Archive::with_cluster(config, cluster.clone()).unwrap();
        let document = &items(3, 3, true)[2].0;
        let (id, ingest) = seeks(&cluster, || dedup.ingest(document, "doc").unwrap());
        let blocks = dedup.manifest(&id).unwrap().blocks.unwrap().blocks;
        assert!(blocks.len() > 2, "{} blocks", blocks.len());
        assert_eq!(&dedup.retrieve(&id).unwrap(), document);

        let cluster = seek_priced_cluster(dispatch);
        let config = ArchiveConfig::new(EC_4_2).with_integrity(IntegrityMode::DigestOnly);
        let mut archive = Archive::with_cluster(config, cluster.clone()).unwrap();
        let payload = vec![7u8; 4096];
        let id = archive.ingest(&payload, "obj").unwrap();

        let (got, retrieve) = seeks(&cluster, || archive.retrieve(&id).unwrap());
        assert_eq!(got, payload);

        let lost = archive.manifest(&id).unwrap().placement[2];
        let node = cluster.node(lost).unwrap();
        node.delete(&ShardKey::new(id.as_str(), 2)).unwrap();
        let (report, repair) = seeks(&cluster, || archive.repair_object(&id).unwrap());
        assert_eq!((report.missing_before, report.missing_after), (1, 0));

        let target = PolicyKind::ErasureCoded { data: 3, parity: 3 };
        let (_, reencode) = seeks(&cluster, || archive.reencode_object(&id, target).unwrap());
        assert_eq!(archive.retrieve(&id).unwrap(), payload);

        assert_eq!([ingest, retrieve, repair, reencode], expect, "{dispatch:?}");
    }
}

/// A single-object operation is a batch of one, at the archive and at
/// the executor: same bytes, same report, same clock charge, under
/// either dispatch.
#[test]
fn a_single_object_op_is_a_batch_of_one() {
    for dispatch in [SEQUENTIAL, PARALLEL] {
        // Archive: retrieve(id) ≡ retrieve_many(&[id])[0].
        let cluster = seek_priced_cluster(dispatch);
        let config = ArchiveConfig::new(EC_4_2).with_integrity(IntegrityMode::DigestOnly);
        let mut archive = Archive::with_cluster(config, cluster.clone()).unwrap();
        let id = archive.ingest(&[9u8; 3000], "obj").unwrap();
        let clock = cluster.clock();
        let t0 = clock.now();
        let one = archive.retrieve(&id).unwrap();
        let t1 = clock.now();
        let many = archive.retrieve_many(std::slice::from_ref(&id));
        let t2 = clock.now();
        let (reported, report) = archive.retrieve_with_report(&id).unwrap();
        assert_eq!(many.len(), 1);
        assert_eq!(&one, many[0].as_ref().unwrap());
        assert_eq!(one, reported);
        assert_eq!(report.total_attempts(), 6);
        assert_eq!(t1 - t0, t2 - t1, "{dispatch:?}: clock charge");
        assert_eq!(t1 - t0, clock.now() - t2, "{dispatch:?}: clock charge");

        // Executor: commit_write(plan) ≡ commit_many(&[plan])[0].
        let keys = KeyStore::new([0x42; 32]);
        let object = archive.manifest(&id).unwrap().id;
        let plan = plan_write(
            &EC_4_2,
            &keys,
            &mut ChaChaDrbg::from_u64_seed(1),
            &object,
            &[5u8; 2000],
            &PipelineConfig::serial(),
        )
        .unwrap();
        let commit = |batch: bool| {
            let cluster = seek_priced_cluster(dispatch);
            let retry = RetryPolicy::default();
            let executor = PlanExecutor::new(&cluster, &retry);
            let placement = executor.place(object.as_str(), plan.shards.len()).unwrap();
            let mut rng = ChaChaDrbg::from_u64_seed(2);
            let outcome = if batch {
                let placements = [placement.clone()];
                let mut outcomes = executor.commit_many(
                    std::slice::from_ref(&plan),
                    &placements,
                    std::slice::from_mut(&mut rng),
                );
                assert_eq!(outcomes.len(), 1);
                outcomes.pop().unwrap()
            } else {
                executor.commit_write(&plan, &placement, &mut rng)
            }
            .expect("fault-free commit lands");
            let charged = cluster.clock().now();
            let stored = cluster.get_shards(object.as_str(), &placement);
            (outcome.written, outcome.report, stored, charged)
        };
        assert_eq!(commit(false), commit(true), "{dispatch:?}");
    }
}
