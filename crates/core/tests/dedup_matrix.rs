//! The corruption matrix, extended to dedup mode. A dedup'd object has
//! no shard set of its own — it references shared, convergently
//! encoded blocks — so the matrix changes shape: a corrupted *shared*
//! block must surface as a typed integrity failure in **every** object
//! referencing it, a within-budget repair of one object must heal the
//! shared block for all of them, and the convergent encoding must make
//! two objects sharing a block share its stored shards byte-for-byte.
//! A read with a row goes to its leaves, so damage confined to the tree
//! fails only the scrub and the read by root.

use aeon_cas::{build_tree, BlockHash, ChunkerParams};
use aeon_core::dedup::{BlockKind, DedupConfig};
use aeon_core::pipeline::decode_object;
use aeon_core::{
    block_object_id, Archive, ArchiveConfig, ArchiveError, IntegrityMode, PipelineConfig,
    PolicyKind,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};
use aeon_integrity::timestamp::SigBreakSchedule;
use aeon_store::node::{MemoryNode, NodeError, NodeId, ShardKey, StorageNode};
use aeon_store::{Cluster, SimClock, SimDuration, ThroughputNode, ThroughputProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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

/// Small chunks so a few KiB of payload spans several blocks.
fn small_dedup() -> DedupConfig {
    DedupConfig {
        chunker: ChunkerParams {
            min_size: 512,
            target_size: 2048,
            max_size: 8192,
            seed: 42,
        },
        fanout: 4,
    }
}

fn dedup_archive(policy: &PolicyKind, workers: usize) -> (Archive, Vec<MemoryNode>) {
    let n = policy.shard_count().max(1);
    let handles: Vec<MemoryNode> = (0..n as u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
            .collect(),
    );
    (dedup_archive_over(policy, workers, cluster), handles)
}

/// [`dedup_archive`] whose nodes charge a seek and a transfer time to the
/// cluster's virtual clock.
fn timed_dedup_archive(policy: &PolicyKind) -> (Archive, Vec<MemoryNode>) {
    let n = policy.shard_count().max(1);
    let handles: Vec<MemoryNode> = (0..n as u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let clock = SimClock::new();
    let profile = ThroughputProfile::new(SimDuration::from_millis(4), 50e6, 20e6);
    let nodes = handles.iter().map(|h| {
        let inner = Arc::new(h.clone()) as Arc<dyn StorageNode>;
        Arc::new(ThroughputNode::new(inner, profile, clock.clone())) as Arc<dyn StorageNode>
    });
    let cluster = Cluster::new(nodes.collect()).with_clock(clock);
    (dedup_archive_over(policy, 1, cluster), handles)
}

fn dedup_archive_over(policy: &PolicyKind, workers: usize, cluster: Cluster) -> Archive {
    let config = ArchiveConfig::new(policy.clone())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_pipeline(PipelineConfig::serial().with_workers(workers))
        .with_dedup(small_dedup());
    Archive::with_cluster(config, cluster).unwrap()
}

fn node_of(handles: &[MemoryNode], id: NodeId) -> &MemoryNode {
    handles.iter().find(|h| h.id() == id).expect("node exists")
}

/// Incompressible payload (every policy accepts it, including Entropic).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// A data block referenced by both objects (panics if none is shared).
fn shared_data_block(
    archive: &Archive,
    a: &aeon_core::ObjectId,
    b: &aeon_core::ObjectId,
) -> aeon_cas::BlockHash {
    let ba = archive.manifest(a).unwrap().blocks.unwrap().blocks;
    let bb = archive.manifest(b).unwrap().blocks.unwrap().blocks;
    *ba.iter()
        .find(|h| bb.contains(h))
        .expect("objects share a block")
}

/// Deletes shard `idx` of block `hash`.
fn lose_block_shard(
    archive: &Archive,
    handles: &[MemoryNode],
    hash: &aeon_cas::BlockHash,
    idx: usize,
) {
    let rec = archive.block_record(hash).expect("block exists");
    let ctx = block_object_id(hash);
    node_of(handles, rec.record.placement[idx])
        .delete(&ShardKey::new(&ctx, idx as u32))
        .unwrap();
}

/// Flips one bit of shard `idx` of block `hash` (silent bit-rot).
fn flip_block_shard(
    archive: &Archive,
    handles: &[MemoryNode],
    hash: &aeon_cas::BlockHash,
    idx: usize,
    bit: u64,
) {
    let rec = archive.block_record(hash).expect("block exists");
    let ctx = block_object_id(hash);
    let node = node_of(handles, rec.record.placement[idx]);
    let key = ShardKey::new(&ctx, idx as u32);
    let mut bytes = node.get(&key).unwrap();
    let target = (bit % (bytes.len() as u64 * 8)) as usize;
    bytes[target / 8] ^= 1 << (target % 8);
    node.put(&key, &bytes).unwrap();
}

/// Two versions of one document: v2 is v1 with a tail appended, so the
/// two objects share their prefix blocks.
fn ingest_versions(
    archive: &mut Archive,
    seed: u64,
) -> (aeon_core::ObjectId, aeon_core::ObjectId, Vec<u8>, Vec<u8>) {
    let v1 = payload(seed, 12 << 10);
    let mut v2 = v1.clone();
    v2.extend_from_slice(&payload(seed ^ 0xffff, 2 << 10));
    let id1 = archive.ingest(&v1, "v1").unwrap();
    let id2 = archive.ingest(&v2, "v2").unwrap();
    (id1, id2, v1, v2)
}

proptest! {
    // 2 cases x 9 policies keeps the matrix affordable; the seeds vary
    // payload content, loss rotation, and flip position.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Losses within the per-block budget: both objects still read back
    /// bit-identically, for every policy.
    #[test]
    fn dedup_losses_within_budget_roundtrip(seed in any::<u64>(), rot in any::<u64>()) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = dedup_archive(&policy, 1);
            let (id1, id2, v1, v2) = ingest_versions(&mut archive, seed);
            let shared = shared_data_block(&archive, &id1, &id2);
            for j in 0..(n - k) {
                lose_block_shard(&archive, &handles, &shared, (rot as usize + j) % n);
            }
            prop_assert_eq!(&archive.retrieve(&id1).unwrap(), &v1, "policy {:?}", &policy);
            prop_assert_eq!(&archive.retrieve(&id2).unwrap(), &v2, "policy {:?}", &policy);
        }
    }

    /// A shared block corrupted beyond budget fails typed in EVERY
    /// referencing object — each error names the object being read, so
    /// callers can tell which of their reads is poisoned.
    #[test]
    fn corrupt_shared_block_fails_every_referencing_object(seed in any::<u64>(), bit in any::<u64>()) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = dedup_archive(&policy, 1);
            let (id1, id2, _, _) = ingest_versions(&mut archive, seed);
            let shared = shared_data_block(&archive, &id1, &id2);
            for j in 0..(n - k + 1) {
                flip_block_shard(&archive, &handles, &shared, j, bit.wrapping_add(j as u64));
            }
            for id in [&id1, &id2] {
                match archive.retrieve(id) {
                    Err(ArchiveError::IntegrityViolation(bad)) => prop_assert_eq!(&bad, id),
                    other => prop_assert!(false, "policy {:?}: expected typed integrity failure for {:?}, got {:?}", &policy, id, other),
                }
            }
        }
    }

    /// Losses beyond budget (no corruption in evidence) fail as a typed
    /// degradation naming the referencing object.
    #[test]
    fn dedup_losses_beyond_budget_fail_typed(seed in any::<u64>()) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = dedup_archive(&policy, 1);
            let (id1, id2, _, _) = ingest_versions(&mut archive, seed);
            let shared = shared_data_block(&archive, &id1, &id2);
            for j in 0..(n - k + 1) {
                lose_block_shard(&archive, &handles, &shared, j);
            }
            for id in [&id1, &id2] {
                match archive.retrieve(id) {
                    Err(ArchiveError::DegradedBeyondBudget { id: bad, .. }) => prop_assert_eq!(&bad, id),
                    other => prop_assert!(false, "policy {:?}: expected degradation for {:?}, got {:?}", &policy, id, other),
                }
            }
        }
    }

    /// Within-budget damage to a shared block: repairing ONE object
    /// heals the block once, and every referencing object reads clean
    /// afterwards.
    #[test]
    fn one_repair_heals_all_referencing_objects(seed in any::<u64>()) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = dedup_archive(&policy, 1);
            let (id1, id2, v1, v2) = ingest_versions(&mut archive, seed);
            let shared = shared_data_block(&archive, &id1, &id2);
            for j in 0..(n - k) {
                lose_block_shard(&archive, &handles, &shared, j);
            }
            let report = archive.repair_object(&id1).unwrap();
            prop_assert!(report.missing_before >= n - k, "policy {:?}", &policy);
            prop_assert_eq!(report.missing_after, 0, "policy {:?}", &policy);
            prop_assert_eq!(&archive.retrieve(&id1).unwrap(), &v1);
            prop_assert_eq!(&archive.retrieve(&id2).unwrap(), &v2);
            // The heal was shared: repairing the second object now
            // finds nothing to do.
            let again = archive.repair_object(&id2).unwrap();
            prop_assert_eq!(again.missing_before, 0, "policy {:?}", &policy);
        }
    }
}

/// Convergent-encoding regression: block encode contexts derive from
/// the block's content hash, not from `"{id}#chunk{j}"` positions, so
/// two objects sharing a block share its stored shards. The second
/// ingest of identical content must add zero stored bytes and zero new
/// blocks.
#[test]
fn identical_blocks_share_stored_shards() {
    for policy in policies() {
        let (mut archive, _) = dedup_archive(&policy, 1);
        let data = payload(7, 12 << 10);
        let id1 = archive.ingest(&data, "first").unwrap();
        let blocks_before = archive.blocks().count();
        let stored_before = archive.cluster().total_stored_bytes();
        let id2 = archive.ingest(&data, "second").unwrap();
        assert_eq!(
            archive.blocks().count(),
            blocks_before,
            "policy {policy:?}: identical payload minted new blocks"
        );
        assert_eq!(
            archive.cluster().total_stored_bytes(),
            stored_before,
            "policy {policy:?}: identical payload stored new shard bytes"
        );
        assert_ne!(id1, id2, "objects stay distinct even when content dedups");
        assert_eq!(archive.retrieve(&id1).unwrap(), data);
        assert_eq!(archive.retrieve(&id2).unwrap(), data);
    }
}

/// Re-encode through the matrix: every policy migrates to an erasure
/// code and back with both versions byte-exact, and a block shared by
/// the two versions is read and rewritten once — the second object's
/// step moves only what the first left behind, so the two steps together
/// read exactly the bytes that were stored and write exactly the bytes
/// that are.
#[test]
fn reencode_roundtrips_and_moves_shared_blocks_once() {
    for policy in policies() {
        let erasure = PolicyKind::ErasureCoded {
            data: 2,
            parity: policy.shard_count() - 2,
        };
        let (mut archive, _) = dedup_archive(&policy, 1);
        let (id1, id2, v1, v2) = ingest_versions(&mut archive, 29);
        for to in [&erasure, &policy] {
            let stored_before = archive.cluster().total_stored_bytes();
            let first = archive.reencode_object(&id1, to.clone()).unwrap();
            let second = archive.reencode_object(&id2, to.clone()).unwrap();
            assert!(second.bytes_read > 0, "policy {policy:?}: v2's tail moved");
            assert_eq!(
                first.bytes_read + second.bytes_read,
                stored_before,
                "policy {policy:?} -> {to:?}: a shared block was re-read"
            );
            assert_eq!(
                first.bytes_written + second.bytes_written,
                archive.cluster().total_stored_bytes(),
                "policy {policy:?} -> {to:?}: a shared block was rewritten"
            );
            assert!(archive.blocks().all(|(_, rec)| rec.record.policy == *to));
            assert_eq!(archive.retrieve(&id1).unwrap(), v1, "policy {policy:?}");
            assert_eq!(archive.retrieve(&id2).unwrap(), v2, "policy {policy:?}");
        }
    }
}

/// Worker-count independence: per-block encode seeds are derived from
/// block hashes before the pool fans out, so 1 worker and 4 workers
/// produce byte-identical block shards, placements, and Merkle roots.
#[test]
fn dedup_encoding_is_worker_count_independent() {
    for policy in policies() {
        let (mut serial, _) = dedup_archive(&policy, 1);
        let (mut pooled, _) = dedup_archive(&policy, 4);
        let data = payload(11, 20 << 10);
        let id_s = serial.ingest(&data, "doc").unwrap();
        let id_p = pooled.ingest(&data, "doc").unwrap();
        assert_eq!(id_s, id_p);
        let ms = serial.manifest(&id_s).unwrap().blocks.clone().unwrap();
        let mp = pooled.manifest(&id_p).unwrap().blocks.clone().unwrap();
        assert_eq!(
            ms.root, mp.root,
            "policy {policy:?}: roots diverged across worker counts"
        );
        assert_eq!(ms.blocks, mp.blocks);
        for hash in &ms.blocks {
            let rs = serial.block_record(hash).unwrap();
            let rp = pooled.block_record(hash).unwrap();
            assert_eq!(
                rs.record.shard_digests, rp.record.shard_digests,
                "policy {policy:?}: block {hash} shards differ across worker counts"
            );
            assert_eq!(rs.record.placement, rp.record.placement);
        }
        assert_eq!(serial.retrieve(&id_s).unwrap(), data);
        assert_eq!(pooled.retrieve(&id_p).unwrap(), data);
    }
}

/// Refcount hygiene under the matrix: deleting one version releases
/// only its references; the surviving version still reads, and deleting
/// it drains the block map to empty.
#[test]
fn delete_releases_shared_blocks_exactly_once() {
    for policy in policies() {
        let (mut archive, _) = dedup_archive(&policy, 1);
        let (id1, id2, v1, _) = ingest_versions(&mut archive, 23);
        archive.delete(&id2).unwrap();
        assert_eq!(archive.retrieve(&id1).unwrap(), v1, "policy {policy:?}");
        archive.delete(&id1).unwrap();
        assert_eq!(
            archive.blocks().count(),
            0,
            "policy {policy:?}: orphan blocks after deleting every object"
        );
    }
}

/// Damage to one tree block beyond its budget: every object still reads
/// back, because a read with a row goes straight to the leaves the row
/// lists; the scrub finds the block below its read threshold, and a
/// read by root — which must walk the tree — fails typed.
#[test]
fn tree_damage_fails_the_scrub_and_the_root_walk_not_the_read() {
    for policy in policies() {
        let n = policy.shard_count();
        let k = policy.read_threshold();
        let (mut archive, handles) = dedup_archive(&policy, 1);
        let (id1, id2, v1, v2) = ingest_versions(&mut archive, 11);
        let root = archive.manifest(&id1).unwrap().blocks.unwrap().root;
        assert_eq!(archive.block_record(&root).unwrap().kind, BlockKind::Tree);
        for j in 0..(n - k + 1) {
            lose_block_shard(&archive, &handles, &root, j);
        }
        assert_eq!(archive.retrieve(&id1).unwrap(), v1, "{policy:?}");
        assert_eq!(archive.retrieve(&id2).unwrap(), v2, "{policy:?}");
        let health = archive.verify(&id1, &SigBreakSchedule::new()).unwrap();
        assert!(!health.intact, "{policy:?}");
        assert!(health.shards_available < k, "{policy:?}: {health:?}");
        match archive.read_object_by_root(&root) {
            Err(ArchiveError::DegradedBeyondBudget { .. }) => {}
            other => panic!("{policy:?}: expected a typed degradation, got {other:?}"),
        }
    }
}

/// The families whose decode authenticates nothing: a flipped byte in
/// one of the first `k` shards decodes, to other bytes.
fn unsealed_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Replication { copies: 4 },
        PolicyKind::ErasureCoded { data: 3, parity: 2 },
        PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        },
    ]
}

/// One `retrieve_with_report`: the payload, the shard accounting and
/// the virtual time the read took.
fn timed_read(
    archive: &Archive,
    id: &aeon_core::ObjectId,
) -> (Vec<u8>, aeon_store::cluster::TransferReport, u64) {
    let start = archive.cluster().clock().now();
    let (payload, report) = archive.retrieve_with_report(id).unwrap();
    let took = archive.cluster().clock().now() - start;
    (payload, report, took.as_nanos())
}

/// A shared block whose first shard holds a flipped byte decodes
/// without error, to bytes that are not the block. Each referencing
/// object's read misses its payload root, finds the block by its
/// address, drops the rotten shard and decodes from the spares it has
/// already fetched: the payload comes back with the shard accounting
/// and the virtual time of a healthy read — no node is asked again —
/// and the shard stays rotten for a scrub to find.
#[test]
fn a_shared_block_that_decodes_to_other_bytes_reads_back_through_the_spares() {
    for policy in unsealed_policies() {
        let (mut archive, handles) = timed_dedup_archive(&policy);
        let (id1, id2, v1, v2) = ingest_versions(&mut archive, 21);
        let shared = shared_data_block(&archive, &id1, &id2);
        let healthy = [timed_read(&archive, &id1), timed_read(&archive, &id2)];
        let len = archive.block_record(&shared).unwrap().record.logical_len;
        flip_block_shard(&archive, &handles, &shared, 0, len as u64 * 4);
        // The first `k` shards, as a decode read takes them, decode to
        // bytes that are not the block.
        let rec = &archive.block_record(&shared).unwrap().record;
        let first_k: Vec<Option<Vec<u8>>> = (rec.placement.iter().enumerate())
            .map(|(s, node)| {
                let key = ShardKey::new(rec.id.as_str(), s as u32);
                (s < policy.read_threshold()).then(|| node_of(&handles, *node).get(&key).unwrap())
            })
            .collect();
        // The unsealed families derive no key from the store.
        let keys = aeon_core::keys::KeyStore::new([0; 32]);
        let ctx = rec.id.as_str();
        let decoded = decode_object(&rec.policy, &keys, ctx, &first_k, &rec.meta, 1).unwrap();
        assert_ne!(BlockHash::of(&decoded), shared, "{policy:?}");
        for ((id, want), healthy) in [(&id1, &v1), (&id2, &v2)].into_iter().zip(&healthy) {
            let read = timed_read(&archive, id);
            assert_eq!(&read.0, want, "{policy:?}");
            assert_eq!(read.1, healthy.1, "{policy:?}: the shard accounting");
            assert!(read.2 > 0, "{policy:?}: a read takes virtual time");
            assert_eq!(read.2, healthy.2, "{policy:?}: the virtual time");
            assert_eq!(
                archive
                    .retrieve_many(std::slice::from_ref(id))
                    .pop()
                    .unwrap()
                    .unwrap(),
                *want
            );
        }
        let health = archive.verify(&id1, &SigBreakSchedule::new()).unwrap();
        assert!(health.intact, "{policy:?}: {health:?}");
        assert_eq!(
            health.shards_available,
            policy.shard_count() - 1,
            "{policy:?}: the rotten shard stays for the scrub"
        );
    }
}

/// Damage beyond the budget of a shared block, in the three unsealed
/// families and a sealed one: every read of every referencing object —
/// alone, with its report, and in one `retrieve_many` — fails
/// `IntegrityViolation` naming that object.
#[test]
fn a_shared_block_past_its_budget_fails_every_owner_typed() {
    let mut families = unsealed_policies();
    families.push(PolicyKind::Encrypted {
        suite: SuiteId::ChaCha20Poly1305,
        data: 3,
        parity: 2,
    });
    for policy in families {
        let (n, k) = (policy.shard_count(), policy.read_threshold());
        let (mut archive, handles) = dedup_archive(&policy, 1);
        let (id1, id2, _, _) = ingest_versions(&mut archive, 22);
        let shared = shared_data_block(&archive, &id1, &id2);
        let len = archive.block_record(&shared).unwrap().record.logical_len as u64;
        for j in 0..(n - k + 1) {
            flip_block_shard(&archive, &handles, &shared, j, len * 4 + j as u64);
        }
        let ids = [id1, id2];
        let many = archive.retrieve_many(&ids);
        for (id, many) in ids.iter().zip(many) {
            let typed = |r: Result<Vec<u8>, ArchiveError>| match r {
                Err(ArchiveError::IntegrityViolation(bad)) => bad == *id,
                _ => false,
            };
            assert!(typed(archive.retrieve(id)), "{policy:?}");
            assert!(
                typed(archive.retrieve_with_report(id).map(|(p, _)| p)),
                "{policy:?}"
            );
            assert!(typed(many), "{policy:?}");
        }
    }
}

/// A memory node that counts the reads of each key.
#[derive(Debug)]
struct CountingNode {
    inner: MemoryNode,
    gets: Mutex<BTreeMap<ShardKey, usize>>,
}

impl StorageNode for CountingNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn site(&self) -> &str {
        self.inner.site()
    }
    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        self.inner.put(key, data)
    }
    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        *self.gets.lock().unwrap().entry(key.clone()).or_default() += 1;
        self.inner.get(key)
    }
    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        self.inner.delete(key)
    }
    fn keys(&self) -> Vec<ShardKey> {
        self.inner.keys()
    }
    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

/// Each dedup read fetches a stored shard at most once: `verify` fetches
/// every shard of every block the object references, tree nodes
/// included, exactly once; `retrieve` fetches each shard of the distinct
/// leaves once and no tree block's; `retrieve_many` fetches no tree
/// block's either.
#[test]
fn dedup_reads_fetch_each_stored_shard_once() {
    let policy = PolicyKind::ErasureCoded { data: 3, parity: 2 };
    let nodes: Vec<Arc<CountingNode>> = (0..5)
        .map(|i| {
            Arc::new(CountingNode {
                inner: MemoryNode::new(i, format!("site-{i}")),
                gets: Mutex::default(),
            })
        })
        .collect();
    let cluster = Cluster::new(
        (nodes.iter())
            .map(|node| Arc::clone(node) as Arc<dyn StorageNode>)
            .collect(),
    );
    let config = ArchiveConfig::new(policy)
        .with_integrity(IntegrityMode::DigestOnly)
        .with_dedup(small_dedup());
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let (id1, id2, _, _) = ingest_versions(&mut archive, 5);
    // Every node's per-key read counts since the last call, merged.
    let take_gets = || {
        let mut all = BTreeMap::new();
        for node in &nodes {
            all.append(&mut node.gets.lock().unwrap());
        }
        all
    };
    // Each shard of `hashes`' blocks, read once.
    let once = |hashes: &[BlockHash]| {
        let mut keys = BTreeMap::new();
        for hash in hashes {
            let slots = archive.block_record(hash).unwrap().record.placement.len();
            for s in 0..slots as u32 {
                keys.insert(ShardKey::new(block_object_id(hash), s), 1);
            }
        }
        keys
    };
    let leaves = archive.manifest(&id1).unwrap().blocks.unwrap().blocks;
    let tree = build_tree(&leaves, small_dedup().fanout).nodes;
    assert!(tree.len() > 1, "a tree of more than its root");
    take_gets();

    archive.verify(&id1, &SigBreakSchedule::new()).unwrap();
    let mut every_block = leaves.clone();
    every_block.extend(tree.iter().map(|(hash, _)| *hash));
    assert_eq!(take_gets(), once(&every_block), "verify");

    archive.retrieve(&id1).unwrap();
    assert_eq!(take_gets(), once(&leaves), "retrieve");

    for read in archive.retrieve_many(&[id1, id2]) {
        read.unwrap();
    }
    let tree_blocks: Vec<BlockHash> = (archive.blocks())
        .filter(|(_, block)| block.kind == BlockKind::Tree)
        .map(|(hash, _)| *hash)
        .collect();
    let tree_reads = once(&tree_blocks);
    let read = take_gets();
    assert!(!read.is_empty());
    assert!(
        read.keys().all(|key| !tree_reads.contains_key(key)),
        "retrieve_many read a tree block"
    );
}
