//! End-to-end archive behaviour for objects large enough to traverse
//! the chunked pipeline: ingest/retrieve, partial repair, proactive
//! refresh, cascade re-wrap, and re-encode campaigns — all with a small
//! chunk size so multi-chunk paths are exercised cheaply.

use aeon_core::pipeline::PipelineConfig;
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, PolicyKind, RepairMethod};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};
use aeon_store::node::{MemoryNode, ShardKey, StorageNode};
use aeon_store::Cluster;
use std::sync::Arc;

fn chunked_config(policy: PolicyKind) -> ArchiveConfig {
    ArchiveConfig::new(policy)
        .with_integrity(IntegrityMode::DigestOnly)
        .with_pipeline(
            PipelineConfig::serial()
                .with_chunk_size(512)
                .with_workers(3),
        )
}

fn archive_with_handles(policy: PolicyKind, n: usize) -> (Archive, Vec<MemoryNode>) {
    let handles: Vec<MemoryNode> = (0..n as u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
            .collect(),
    );
    let archive = Archive::with_cluster(chunked_config(policy), cluster).unwrap();
    (archive, handles)
}

fn delete_shard(handles: &[MemoryNode], archive: &Archive, id: &aeon_core::ObjectId, shard: usize) {
    let manifest = archive.manifest(id).unwrap();
    let node_id = manifest.placement[shard];
    let node = handles.iter().find(|h| h.id() == node_id).unwrap();
    node.delete(&ShardKey::new(id.as_str(), shard as u32))
        .unwrap();
}

fn big_payload(len: usize) -> Vec<u8> {
    let mut rng = ChaChaDrbg::from_u64_seed(0xBEEF);
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    p
}

#[test]
fn chunked_ingest_retrieve_across_policies() {
    let payload = big_payload(4_000);
    let policies = vec![
        PolicyKind::Replication { copies: 3 },
        PolicyKind::Encrypted {
            suite: SuiteId::ChaCha20Poly1305,
            data: 3,
            parity: 2,
        },
        PolicyKind::Shamir {
            threshold: 2,
            shares: 4,
        },
        PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 6,
        },
        PolicyKind::Entropic { data: 3, parity: 2 },
    ];
    for policy in policies {
        let mut archive = Archive::in_memory(chunked_config(policy.clone())).unwrap();
        let id = archive.ingest(&payload, "big").unwrap();
        let manifest = archive.manifest(&id).unwrap();
        let chunked = manifest.meta.chunked.as_ref().expect("object spans chunks");
        assert_eq!(chunked.chunk_count(), 8, "{policy:?}");
        assert_eq!(archive.retrieve(&id).unwrap(), payload, "{policy:?}");
    }
}

#[test]
fn chunked_erasure_partial_repair() {
    let payload = big_payload(3_000);
    let (mut archive, handles) =
        archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
    let id = archive.ingest(&payload, "r").unwrap();
    assert!(archive.manifest(&id).unwrap().meta.chunked.is_some());
    delete_shard(&handles, &archive, &id, 1);
    delete_shard(&handles, &archive, &id, 4);
    let report = archive.repair_object(&id).unwrap();
    assert_eq!(report.missing_before, 2);
    assert_eq!(report.missing_after, 0);
    assert_eq!(report.method, RepairMethod::PartialErasure);
    assert_eq!(archive.retrieve(&id).unwrap(), payload);
}

#[test]
fn chunked_shamir_partial_repair_restores_identical_shard() {
    let payload = big_payload(2_500);
    let (mut archive, handles) = archive_with_handles(
        PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        },
        5,
    );
    let id = archive.ingest(&payload, "r").unwrap();
    let manifest = archive.manifest(&id).unwrap();
    assert!(manifest.meta.chunked.is_some());
    let before = archive
        .cluster()
        .get_shards(id.as_str(), &manifest.placement);
    delete_shard(&handles, &archive, &id, 2);
    let report = archive.repair_object(&id).unwrap();
    assert_eq!(report.method, RepairMethod::PartialShamir);
    assert_eq!(report.missing_after, 0);
    let manifest = archive.manifest(&id).unwrap();
    let after = archive
        .cluster()
        .get_shards(id.as_str(), &manifest.placement);
    // Framing prefixes are interpolation-invariant, so the rebuilt framed
    // shard is bit-identical to the lost one.
    assert_eq!(before[2], after[2]);
    assert_eq!(archive.retrieve(&id).unwrap(), payload);
}

#[test]
fn chunked_proactive_refresh_rerandomizes_and_preserves() {
    let payload = big_payload(2_000);
    let mut archive = Archive::in_memory(chunked_config(PolicyKind::Shamir {
        threshold: 3,
        shares: 5,
    }))
    .unwrap();
    let id = archive.ingest(&payload, "refresh").unwrap();
    let manifest = archive.manifest(&id).unwrap().clone();
    let before = archive
        .cluster()
        .get_shards(id.as_str(), &manifest.placement);
    let cost = archive.refresh_object(&id).unwrap();
    assert!(cost.messages > 0);
    let after = archive
        .cluster()
        .get_shards(id.as_str(), &manifest.placement);
    assert_ne!(before, after, "shares must be re-randomized");
    assert_eq!(archive.retrieve(&id).unwrap(), payload);
    assert_eq!(archive.manifest(&id).unwrap().refresh_epochs, 1);
}

#[test]
fn chunked_cascade_rewrap_keeps_object_readable() {
    let payload = big_payload(2_200);
    let mut archive = Archive::in_memory(chunked_config(PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac],
        data: 3,
        parity: 2,
    }))
    .unwrap();
    let id = archive.ingest(&payload, "wrap").unwrap();
    assert!(archive.manifest(&id).unwrap().meta.chunked.is_some());
    archive
        .add_cascade_layer(&id, SuiteId::ChaCha20Poly1305)
        .unwrap();
    let PolicyKind::Cascade { suites, .. } = archive.manifest(&id).unwrap().policy.clone() else {
        panic!("policy must remain Cascade");
    };
    assert_eq!(
        suites,
        vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305]
    );
    assert_eq!(archive.retrieve(&id).unwrap(), payload);
}

#[test]
fn chunked_reencode_campaign() {
    let payload = big_payload(3_000);
    let mut archive = Archive::in_memory(chunked_config(PolicyKind::ErasureCoded {
        data: 3,
        parity: 2,
    }))
    .unwrap();
    let id = archive.ingest(&payload, "migrate").unwrap();
    let moved = archive
        .reencode_object(
            &id,
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 3,
                parity: 2,
            },
        )
        .unwrap();
    assert!(moved.bytes_read > 0 && moved.bytes_written > 0);
    assert!(archive.manifest(&id).unwrap().meta.chunked.is_some());
    assert_eq!(archive.retrieve(&id).unwrap(), payload);
}

#[test]
fn chunked_verify_reports_intact() {
    let payload = big_payload(1_800);
    let mut archive = Archive::in_memory(chunked_config(PolicyKind::Shamir {
        threshold: 2,
        shares: 3,
    }))
    .unwrap();
    let id = archive.ingest(&payload, "v").unwrap();
    let schedule = aeon_integrity::timestamp::SigBreakSchedule::default();
    let health = archive.verify(&id, &schedule).unwrap();
    assert!(health.intact);
    assert_eq!(health.shards_available, 3);
}
