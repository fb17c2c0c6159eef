//! Integration: full archive lifecycle across crates (core + store +
//! secretshare + crypto + integrity).

use aeon::core::{Archive, ArchiveConfig, ArchiveError, IntegrityMode, PolicyKind};
use aeon::crypto::SuiteId;
use aeon::integrity::timestamp::SigBreakSchedule;
use aeon::store::node::{FileNode, MemoryNode, StorageNode};
use aeon::store::{Cluster, FaultPlan, FaultyNode};
use std::sync::Arc;

fn all_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Replication { copies: 3 },
        PolicyKind::ErasureCoded { data: 4, parity: 2 },
        PolicyKind::Encrypted {
            suite: SuiteId::ChaCha20Poly1305,
            data: 4,
            parity: 2,
        },
        PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 4,
            parity: 2,
        },
        PolicyKind::AontRs { data: 4, parity: 2 },
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
            threshold: 3,
            shares: 5,
            source_len: 32,
        },
    ]
}

#[test]
fn lifecycle_under_every_policy() {
    for policy in all_policies() {
        let mut archive = Archive::in_memory(ArchiveConfig::new(policy.clone())).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 37) as u8).collect();
        let id = archive.ingest(&payload, "lifecycle").unwrap();
        assert_eq!(archive.retrieve(&id).unwrap(), payload, "{policy:?}");
        let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert!(health.intact, "{policy:?}");
        archive.delete(&id).unwrap();
        assert!(matches!(
            archive.retrieve(&id),
            Err(ArchiveError::UnknownObject(_))
        ));
    }
}

#[test]
fn survives_maximum_node_failures() {
    // Five nodes we can fail: each has its own clock and an offline
    // window over epoch 1, so `set_epoch(1)` takes it down and
    // `set_epoch(2)` brings it back.
    let handles: Vec<Arc<FaultyNode>> = (0..5)
        .map(|i| {
            let inner = Arc::new(MemoryNode::new(i, format!("site-{i}")));
            Arc::new(FaultyNode::new(
                inner,
                FaultPlan::new(0).with_offline_window(1, 2),
            ))
        })
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::clone(h) as Arc<dyn StorageNode>)
            .collect(),
    );
    let mut archive = Archive::with_cluster(
        ArchiveConfig::new(PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        }),
        cluster,
    )
    .unwrap();
    let id = archive
        .ingest(b"survives two site failures", "doc")
        .unwrap();

    // Fail two arbitrary sites.
    handles[1].set_epoch(1);
    handles[4].set_epoch(1);
    assert_eq!(
        archive.retrieve(&id).unwrap(),
        b"survives two site failures"
    );

    // A third failure crosses the threshold.
    handles[0].set_epoch(1);
    assert!(archive.retrieve(&id).is_err());

    // Recovery: bring one back.
    handles[1].set_epoch(2);
    assert_eq!(
        archive.retrieve(&id).unwrap(),
        b"survives two site failures"
    );
}

#[test]
fn file_backed_archive_persists() {
    let dir = std::env::temp_dir().join(format!("aeon-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nodes: Vec<Arc<dyn StorageNode>> = (0..4)
        .map(|i| {
            Arc::new(
                FileNode::create(i, format!("site-{i}"), dir.join(format!("node-{i}"))).unwrap(),
            ) as Arc<dyn StorageNode>
        })
        .collect();
    let cluster = Cluster::new(nodes);
    let mut archive = Archive::with_cluster(
        ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 })
            .with_integrity(IntegrityMode::DigestOnly),
        cluster,
    )
    .unwrap();
    let id = archive.ingest(b"on disk", "persisted").unwrap();
    assert_eq!(archive.retrieve(&id).unwrap(), b"on disk");
    // The bytes really are on disk.
    let mut on_disk = 0u64;
    for i in 0..4 {
        let node_dir = dir.join(format!("node-{i}"));
        for entry in std::fs::read_dir(&node_dir).unwrap().flatten() {
            on_disk += entry.metadata().unwrap().len();
        }
    }
    assert!(on_disk > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_policies_in_one_archive() {
    let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
        threshold: 3,
        shares: 5,
    }))
    .unwrap();
    let id_default = archive.ingest(b"shared", "a").unwrap();
    let id_enc = archive
        .ingest_with_policy(
            b"encrypted",
            "b",
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 3,
                parity: 2,
            },
        )
        .unwrap();
    let id_aont = archive
        .ingest_with_policy(b"dispersed", "c", PolicyKind::AontRs { data: 3, parity: 2 })
        .unwrap();
    assert_eq!(archive.retrieve(&id_default).unwrap(), b"shared");
    assert_eq!(archive.retrieve(&id_enc).unwrap(), b"encrypted");
    assert_eq!(archive.retrieve(&id_aont).unwrap(), b"dispersed");
    assert_eq!(archive.stats().objects, 3);
}

#[test]
fn reencode_campaign_preserves_everything() {
    let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 4,
        parity: 2,
    }))
    .unwrap();
    let mut originals = Vec::new();
    for i in 0..8 {
        let payload = format!("object number {i}").into_bytes();
        let id = archive.ingest(&payload, &format!("obj-{i}")).unwrap();
        originals.push((id, payload));
    }
    // AES is falling: migrate everything to a cascade.
    let campaign = archive
        .reencode_all(PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 4,
            parity: 2,
        })
        .unwrap();
    assert_eq!(campaign.objects_done, 8);
    for (id, payload) in &originals {
        assert_eq!(&archive.retrieve(id).unwrap(), payload);
    }
}

#[test]
fn key_rotation_mid_life() {
    let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Encrypted {
        suite: SuiteId::ChaCha20Poly1305,
        data: 2,
        parity: 1,
    }))
    .unwrap();
    let id_old = archive.ingest(b"under master v0", "old").unwrap();
    archive.rotate_master_key([0x77; 32]);
    let id_new = archive.ingest(b"under master v1", "new").unwrap();
    // Both readable: manifests pin their key version.
    assert_eq!(archive.retrieve(&id_old).unwrap(), b"under master v0");
    assert_eq!(archive.retrieve(&id_new).unwrap(), b"under master v1");
}
