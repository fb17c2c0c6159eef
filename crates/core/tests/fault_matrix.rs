//! The corruption matrix: for every one of the nine policies, any
//! combination of up to `n - k` lost or bit-flipped shards must
//! round-trip bit-identically, and `n - k + 1` losses must fail with a
//! typed error — never a panic, never silently wrong bytes. Rot is
//! written into the node, so it stays until a repair rewrites the shard:
//! one repair heals up to `n - k` flips, and a partial repair leaves
//! every record as it was.

use aeon_cas::ChunkerParams;
use aeon_core::codec::RepairMethod;
use aeon_core::dedup::DedupConfig;
use aeon_core::{
    Archive, ArchiveConfig, ArchiveError, IntegrityMode, ObjectId, PipelineConfig, PolicyError,
    PolicyKind,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};
use aeon_integrity::timestamp::SigBreakSchedule;
use aeon_store::node::{MemoryNode, NodeId, ShardKey, StorageNode};
use aeon_store::Cluster;
use proptest::prelude::*;
use std::sync::Arc;

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

fn archive_for(policy: &PolicyKind) -> (Archive, Vec<MemoryNode>) {
    archive_with(ArchiveConfig::new(policy.clone()))
}

/// An archive under `config` (digest-only integrity) over one fresh
/// node per shard, so every stored unit has one shard on each node.
fn archive_with(config: ArchiveConfig) -> (Archive, Vec<MemoryNode>) {
    let n = config.policy.shard_count().max(1);
    let handles: Vec<MemoryNode> = (0..n as u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
            .collect(),
    );
    let config = config.with_integrity(IntegrityMode::DigestOnly);
    (Archive::with_cluster(config, cluster).unwrap(), handles)
}

fn node_of(handles: &[MemoryNode], id: NodeId) -> &MemoryNode {
    handles.iter().find(|h| h.id() == id).expect("node exists")
}

/// Deletes the shard at placement slot `idx`.
fn lose_shard(archive: &Archive, handles: &[MemoryNode], id: &ObjectId, idx: usize) {
    let placement = &archive.manifest(id).unwrap().placement;
    node_of(handles, placement[idx])
        .delete(&ShardKey::new(id.as_str(), idx as u32))
        .unwrap();
}

/// Flips one bit of the shard at placement slot `idx` on its node,
/// behind the archive's back (silent bit-rot: it stays until a repair
/// rewrites the shard).
fn flip_shard(archive: &Archive, handles: &[MemoryNode], id: &ObjectId, idx: usize, bit: u64) {
    let placement = &archive.manifest(id).unwrap().placement;
    let node = node_of(handles, placement[idx]);
    let key = ShardKey::new(id.as_str(), idx as u32);
    let mut bytes = node.get(&key).unwrap();
    let target = (bit % (bytes.len() as u64 * 8)) as usize;
    bytes[target / 8] ^= 1 << (target % 8);
    node.put(&key, &bytes).unwrap();
}

proptest! {
    // 4 cases x 9 policies x 4 scenarios is plenty; the runner seeds
    // from the test name, so every run draws the same cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Up to `n - k` shards deleted: the payload still reads back
    /// bit-identically, for every policy.
    #[test]
    fn losses_within_budget_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        rot in any::<u64>(),
    ) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = archive_for(&policy);
            let id = archive.ingest(&payload, "matrix").unwrap();
            for j in 0..(n - k) {
                lose_shard(&archive, &handles, &id, (rot as usize + j) % n);
            }
            let got = archive.retrieve(&id).unwrap();
            prop_assert_eq!(&got, &payload, "policy {:?}", policy);
        }
    }

    /// Up to `n - k` shards bit-flipped: the digest filter discards the
    /// rotted shards and the decode proceeds from the clean remainder.
    #[test]
    fn bit_flips_within_budget_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        rot in any::<u64>(),
        bit in any::<u64>(),
    ) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = archive_for(&policy);
            let id = archive.ingest(&payload, "matrix").unwrap();
            for j in 0..(n - k) {
                flip_shard(&archive, &handles, &id, (rot as usize + j) % n, bit.wrapping_add(j as u64));
            }
            let got = archive.retrieve(&id).unwrap();
            prop_assert_eq!(&got, &payload, "policy {:?}", policy);
        }
    }

    /// Up to `n - k` shards bit-flipped on their nodes, then one repair:
    /// the rot stays on the medium until the repair rewrites it, after
    /// which `verify` finds every shard readable and the payload reads
    /// back.
    #[test]
    fn bit_flips_within_budget_are_healed_by_repair(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        rot in any::<u64>(),
        bit in any::<u64>(),
    ) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = archive_for(&policy);
            let id = archive.ingest(&payload, "matrix").unwrap();
            for j in 0..(n - k) {
                flip_shard(&archive, &handles, &id, (rot as usize + j) % n, bit.wrapping_add(j as u64));
            }
            let before = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
            prop_assert_eq!(before.shards_available, k, "policy {:?}", policy);
            let report = archive.repair_object(&id).unwrap();
            prop_assert_eq!(report.missing_before, n - k, "policy {:?}", policy);
            prop_assert_eq!(report.missing_after, 0, "policy {:?}", policy);
            let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
            prop_assert_eq!(health.shards_available, n, "policy {:?}", policy);
            prop_assert!(health.intact, "policy {:?}", policy);
            prop_assert_eq!(&archive.retrieve(&id).unwrap(), &payload, "policy {:?}", policy);
        }
    }

    /// `n - k + 1` shards deleted: a typed DegradedBeyondBudget error
    /// carrying the exact deficit — not a panic, not garbage bytes.
    #[test]
    fn losses_beyond_budget_fail_typed(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        rot in any::<u64>(),
    ) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = archive_for(&policy);
            let id = archive.ingest(&payload, "matrix").unwrap();
            for j in 0..(n - k + 1) {
                lose_shard(&archive, &handles, &id, (rot as usize + j) % n);
            }
            match archive.retrieve(&id) {
                Err(ArchiveError::DegradedBeyondBudget { available, required, .. }) => {
                    prop_assert_eq!(available, k - 1, "policy {:?}", policy);
                    prop_assert_eq!(required, k, "policy {:?}", policy);
                }
                other => prop_assert!(false, "policy {:?}: expected DegradedBeyondBudget, got {:?}", policy, other.map(|_| "Ok(payload)")),
            }
        }
    }

    /// `n - k + 1` shards bit-flipped: with corruption in evidence the
    /// failure is an IntegrityViolation — still typed, still no panic.
    /// A read checks only the payload it decodes, so where every flip
    /// lands in bytes no decoder consumes (LRSS's spare seed bits) it
    /// returns exactly the ingested payload, and never other bytes; the
    /// scrub still counts fewer than `k` clean shards.
    #[test]
    fn bit_flips_beyond_budget_fail_typed(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        rot in any::<u64>(),
        bit in any::<u64>(),
    ) {
        for policy in policies() {
            let n = policy.shard_count();
            let k = policy.read_threshold();
            let (mut archive, handles) = archive_for(&policy);
            let id = archive.ingest(&payload, "matrix").unwrap();
            for j in 0..(n - k + 1) {
                flip_shard(&archive, &handles, &id, (rot as usize + j) % n, bit.wrapping_add(j as u64));
            }
            match archive.retrieve(&id) {
                Err(ArchiveError::IntegrityViolation(_)) => {}
                Ok(read) => prop_assert_eq!(&read, &payload, "policy {:?}", policy),
                other => prop_assert!(false, "policy {:?}: {:?}", policy, other.map(|_| "Ok")),
            }
            let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
            prop_assert!(health.shards_available < k, "policy {:?}", policy);
        }
    }
}

/// Maintenance below the read threshold is as typed and as truthful as
/// a read: with `data - 1` of a Reed–Solomon-dispersed object's shards
/// left, repair (and, for a cascade, re-wrap) names the scarcity —
/// `TooFewShards { available, required }`, the counterpart of the
/// Shamir path's `Share(TooFewShares)` — rather than calling merely
/// scarce data "malformed" with the counts buried in a string.
#[test]
fn maintenance_below_threshold_fails_typed() {
    let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(97) ^ 0x5a).collect();
    let dispersed = policies().into_iter().filter(|p| {
        matches!(
            p.info().family,
            "erasure" | "encrypted" | "cascade" | "aont-rs" | "entropic"
        )
    });
    let mut families = 0;
    for policy in dispersed {
        families += 1;
        let (n, k) = (policy.shard_count(), policy.read_threshold());
        let (mut archive, handles) = archive_for(&policy);
        let id = archive.ingest(&payload, "scarce").unwrap();
        for idx in 0..(n - k + 1) {
            lose_shard(&archive, &handles, &id, idx);
        }
        let scarce = PolicyError::TooFewShards {
            available: k - 1,
            required: k,
        };
        match archive.repair_object(&id) {
            Err(ArchiveError::Policy(e)) => assert_eq!(e, scarce, "repair, {policy:?}"),
            other => panic!("repair, {policy:?}: expected a policy error, got {other:?}"),
        }
        if matches!(policy, PolicyKind::Cascade { .. }) {
            match archive.add_cascade_layer(&id, SuiteId::ChaCha20Poly1305) {
                Err(ArchiveError::Policy(e)) => assert_eq!(e, scarce, "re-wrap"),
                other => panic!("re-wrap: expected a policy error, got {other:?}"),
            }
        }
    }
    assert_eq!(families, 5);
}

/// Every record behind `id`, as `Debug` text: its manifest and every
/// dedup block's row.
fn records(archive: &Archive, id: &ObjectId) -> String {
    let blocks: Vec<String> = (archive.blocks())
        .map(|(hash, block)| format!("{hash:?} {block:?}"))
        .collect();
    format!("{:?}\n{}", archive.manifest(id).unwrap(), blocks.join("\n"))
}

/// A partial repair rebuilds exactly the bytes the record already
/// hashes, so it leaves every record as it was: for every policy whose
/// repair is partial, with the payload stored whole, as framed chunks
/// and as dedup blocks, a wiped node (one shard of every unit) is
/// rebuilt and the records are `Debug`-equal before and after.
#[test]
fn partial_repair_leaves_every_record_as_it_was() {
    let mut payload = vec![0u8; 3000];
    ChaChaDrbg::from_u64_seed(40).fill_bytes(&mut payload);
    let dedup = DedupConfig {
        chunker: ChunkerParams {
            min_size: 256,
            target_size: 1024,
            max_size: 4096,
            seed: 7,
        },
        fanout: 4,
    };
    let mut partial = 0;
    for policy in policies() {
        let whole = ArchiveConfig::new(policy.clone());
        let layouts = [
            ("whole", whole.clone()),
            (
                "chunked",
                (whole.clone()).with_pipeline(PipelineConfig::serial().with_chunk_size(1024)),
            ),
            ("dedup", whole.with_dedup(dedup.clone())),
        ];
        for (layout, config) in layouts {
            let (mut archive, handles) = archive_with(config);
            let id = archive.ingest(&payload, "records").unwrap();
            let before = records(&archive, &id);
            for key in handles[0].keys() {
                handles[0].delete(&key).unwrap();
            }
            let report = archive.repair_object(&id).unwrap();
            assert!(report.missing_before > 0, "{policy:?} {layout}");
            assert_eq!(report.missing_after, 0, "{policy:?} {layout}");
            assert_eq!(archive.retrieve(&id).unwrap(), payload);
            if report.method == RepairMethod::FullReencode {
                continue;
            }
            partial += 1;
            assert_eq!(records(&archive, &id), before, "{policy:?} {layout}");
        }
    }
    // Packed Shamir and LRSS fall back to a full re-encode.
    assert_eq!(partial, 7 * 3);
}
