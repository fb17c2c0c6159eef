//! The archive catalog as a block: `commit_catalog` serializes every
//! manifest row into a payload that is itself dedup'd into the block
//! store, so ONE root hash recovers the entire archive — names, logical
//! lengths, payload digests, and per-object Merkle roots — and every
//! object below it. Plus the maintenance dispatches dedup mode reroutes:
//! re-encode campaigns that skip already-migrated shared blocks,
//! proactive refresh over block shares, re-wrap that deepens a shared
//! block once, and shard transfer shipping an object as its blocks; and
//! the fleet scan, repair campaign and durability race over dedup
//! storage.

use aeon_cas::ChunkerParams;
use aeon_core::dedup::DedupConfig;
use aeon_core::{
    Archive, ArchiveConfig, ArchiveError, Campaign, CampaignOp, FleetSimConfig, IntegrityMode,
    PolicyKind, RepairQueueOrder,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};

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

fn dedup_archive(policy: PolicyKind) -> Archive {
    let config = ArchiveConfig::new(policy)
        .with_integrity(IntegrityMode::DigestOnly)
        .with_dedup(small_dedup());
    Archive::in_memory(config).unwrap()
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn catalog_recovers_the_whole_archive_from_one_root() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    let docs: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| (format!("doc-{i}"), payload(100 + i, (6 + i as usize) << 10)))
        .collect();
    for (name, data) in &docs {
        archive.ingest(data, name).unwrap();
    }
    let catalog_root = archive.commit_catalog().unwrap();

    // From the catalog root alone: every object's name, length, digest,
    // and root — and from each root, the payload itself.
    let entries = archive.catalog_entries(&catalog_root).unwrap();
    assert_eq!(entries.len(), docs.len());
    for (name, data) in &docs {
        let entry = entries
            .iter()
            .find(|e| &e.name == name)
            .unwrap_or_else(|| panic!("catalog lost object {name}"));
        assert_eq!(entry.logical_len, data.len() as u64);
        let recovered = archive.read_object_by_root(&entry.root).unwrap();
        assert_eq!(&recovered, data, "object {name} lost through the catalog");
    }
}

/// Every node's keys and the virtual clock: what a refused commit must
/// leave as it found it.
fn node_state(archive: &Archive) -> (Vec<Vec<String>>, u64) {
    let keys = archive
        .cluster()
        .nodes()
        .iter()
        .map(|n| {
            let mut keys: Vec<String> = n.keys().iter().map(|k| format!("{k:?}")).collect();
            keys.sort();
            keys
        })
        .collect();
    let clock = archive.cluster().clock().now();
    (
        keys,
        clock.since(aeon_store::clock::SimTime::ZERO).as_nanos(),
    )
}

/// A row frames its id and name behind `u16` lengths. A name too long
/// for its field is refused with a typed error before any node is
/// touched, so `commit_catalog` never hands back a root that
/// `catalog_entries` cannot read; a name at the field's limit round-trips.
#[test]
fn a_row_too_long_for_its_length_field_is_refused_before_any_write() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    archive.ingest(&payload(81, 4 << 10), "short").unwrap();
    let long = archive
        .ingest(&payload(82, 4 << 10), &"n".repeat(70_000))
        .unwrap();
    let before = node_state(&archive);
    let blocks = archive.blocks().count();
    match archive.commit_catalog() {
        Err(ArchiveError::UnsupportedOperation(why)) => assert!(why.contains("65 535"), "{why}"),
        other => panic!("a 70 000-byte name committed: {other:?}"),
    }
    assert_eq!(
        node_state(&archive),
        before,
        "the refused commit touched a node"
    );
    assert_eq!(archive.blocks().count(), blocks);

    archive.delete(&long).unwrap();
    let widest = "w".repeat(usize::from(u16::MAX));
    archive.ingest(&payload(83, 4 << 10), &widest).unwrap();
    let root = archive.commit_catalog().unwrap();
    let mut names: Vec<String> = archive
        .catalog_entries(&root)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    assert_eq!(names, ["short".to_string(), widest]);
}

#[test]
fn catalog_requires_dedup_mode() {
    let mut classic = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Replication { copies: 3 })
            .with_integrity(IntegrityMode::DigestOnly),
    )
    .unwrap();
    classic.ingest(b"plain object", "doc").unwrap();
    assert!(matches!(
        classic.commit_catalog(),
        Err(ArchiveError::UnsupportedOperation(_))
    ));
}

#[test]
fn reencode_campaign_skips_already_migrated_shared_blocks() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    let base = payload(7, 12 << 10);
    let mut v2 = base.clone();
    v2.extend_from_slice(&payload(8, 2 << 10));
    let id1 = archive.ingest(&base, "v1").unwrap();
    let id2 = archive.ingest(&v2, "v2").unwrap();

    let new_policy = PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 3,
        parity: 2,
    };
    let first = archive.reencode_object(&id1, new_policy.clone()).unwrap();
    assert!(first.bytes_read > 0, "first migration reads its blocks");
    // Every block of v1 is now under the new policy; migrating v2 only
    // touches its unshared tail blocks — the dedup campaign saving.
    let second = archive.reencode_object(&id2, new_policy.clone()).unwrap();
    assert!(
        second.bytes_read < first.bytes_read,
        "shared blocks re-read during second migration: {} vs {}",
        second.bytes_read,
        first.bytes_read
    );
    assert_eq!(archive.retrieve(&id1).unwrap(), base);
    assert_eq!(archive.retrieve(&id2).unwrap(), v2);
    for (hash, rec) in archive.blocks() {
        assert_eq!(
            rec.record.policy, new_policy,
            "block {hash} left behind by the campaign"
        );
    }
    // Third pass: nothing left to migrate at all.
    let third = archive.reencode_object(&id2, new_policy).unwrap();
    assert_eq!(
        third.bytes_read, 0,
        "fully migrated object still read blocks"
    );
}

#[test]
fn refresh_rerandomizes_dedup_shamir_blocks_in_place() {
    let mut archive = dedup_archive(PolicyKind::Shamir {
        threshold: 3,
        shares: 5,
    });
    let data = payload(21, 10 << 10);
    let id = archive.ingest(&data, "doc").unwrap();
    let before: Vec<Vec<[u8; 32]>> = archive
        .manifest(&id)
        .unwrap()
        .blocks
        .as_ref()
        .unwrap()
        .blocks
        .iter()
        .map(|h| {
            archive
                .block_record(h)
                .unwrap()
                .record
                .shard_digests
                .clone()
        })
        .collect();
    let cost = archive.refresh_object(&id).unwrap();
    assert!(cost.messages > 0, "refresh reported no protocol traffic");
    assert_eq!(archive.manifest(&id).unwrap().refresh_epochs, 1);
    let after: Vec<Vec<[u8; 32]>> = archive
        .manifest(&id)
        .unwrap()
        .blocks
        .as_ref()
        .unwrap()
        .blocks
        .iter()
        .map(|h| {
            archive
                .block_record(h)
                .unwrap()
                .record
                .shard_digests
                .clone()
        })
        .collect();
    assert_ne!(before, after, "refresh left block shares unchanged");
    assert_eq!(archive.retrieve(&id).unwrap(), data);
}

/// Proactive refresh is a Shamir protocol: on any other recorded
/// policy it is a typed error that leaves the epoch counter alone, for
/// dedup objects exactly as for classic ones.
#[test]
fn refresh_of_a_non_shamir_dedup_object_is_a_typed_error() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    let id = archive.ingest(&payload(25, 6 << 10), "doc").unwrap();
    assert!(matches!(
        archive.refresh_object(&id),
        Err(ArchiveError::UnsupportedOperation(
            "proactive refresh requires the Shamir policy"
        ))
    ));
    assert_eq!(archive.manifest(&id).unwrap().refresh_epochs, 0);
}

/// A half-finished campaign leaves a Shamir object referencing blocks
/// already moved off Shamir: refresh re-randomizes the blocks still on
/// it and skips the rest.
#[test]
fn refresh_skips_blocks_a_campaign_moved_off_shamir() {
    let mut archive = dedup_archive(PolicyKind::Shamir {
        threshold: 3,
        shares: 5,
    });
    let v1 = payload(27, 12 << 10);
    let mut v2 = v1.clone();
    v2.extend_from_slice(&payload(28, 2 << 10));
    let id1 = archive.ingest(&v1, "v1").unwrap();
    let id2 = archive.ingest(&v2, "v2").unwrap();
    let moved = PolicyKind::ErasureCoded { data: 3, parity: 2 };
    archive.reencode_object(&id1, moved.clone()).unwrap();

    let digests = |archive: &Archive| -> Vec<(bool, Vec<[u8; 32]>)> {
        let leaves = archive.manifest(&id2).unwrap().blocks.unwrap().blocks;
        leaves
            .iter()
            .map(|h| {
                let rec = archive.block_record(h).unwrap();
                (rec.record.policy == moved, rec.record.shard_digests.clone())
            })
            .collect()
    };
    let before = digests(&archive);
    assert!(before.iter().any(|(moved, _)| *moved));
    assert!(before.iter().any(|(moved, _)| !*moved));
    archive.refresh_object(&id2).unwrap();
    assert_eq!(archive.manifest(&id2).unwrap().refresh_epochs, 1);
    for ((moved, old), (_, new)) in before.iter().zip(digests(&archive)) {
        assert_eq!(
            *moved,
            *old == new,
            "moved blocks skipped, Shamir refreshed"
        );
    }
    assert_eq!(archive.retrieve(&id1).unwrap(), v1);
    assert_eq!(archive.retrieve(&id2).unwrap(), v2);
}

/// The cascade depth of every resident block.
fn block_depths(archive: &Archive) -> Vec<usize> {
    archive
        .blocks()
        .map(|(_, rec)| match &rec.record.policy {
            PolicyKind::Cascade { suites, .. } => suites.len(),
            other => panic!("block left the Cascade family: {other:?}"),
        })
        .collect()
}

/// Emergency re-wrap runs per block, and a block shared by two objects
/// gains exactly one layer however many of its referencers are
/// re-wrapped.
#[test]
fn rewrap_wraps_shared_blocks_once() {
    let mut archive = dedup_archive(PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac],
        data: 2,
        parity: 2,
    });
    let v1 = payload(31, 12 << 10);
    let mut v2 = v1.clone();
    v2.extend_from_slice(&payload(32, 2 << 10));
    let a = archive.ingest(&v1, "v1").unwrap();
    let b = archive.ingest(&v2, "v2").unwrap();

    archive
        .add_cascade_layer(&a, SuiteId::ChaCha20Poly1305)
        .unwrap();
    assert_eq!(archive.retrieve(&a).unwrap(), v1);
    assert_eq!(archive.retrieve(&b).unwrap(), v2);
    let depths = block_depths(&archive);
    assert!(depths.contains(&1) && depths.contains(&2), "{depths:?}");

    archive
        .add_cascade_layer(&b, SuiteId::ChaCha20Poly1305)
        .unwrap();
    assert_eq!(archive.retrieve(&a).unwrap(), v1);
    assert_eq!(archive.retrieve(&b).unwrap(), v2);
    assert!(block_depths(&archive).iter().all(|&d| d == 2));
    for id in [&a, &b] {
        match archive.manifest(id).unwrap().policy {
            PolicyKind::Cascade { suites, .. } => assert_eq!(suites.len(), 2),
            other => panic!("unexpected policy {other:?}"),
        }
    }

    // Deepened blocks are still recognized by content.
    let stored = archive.cluster().total_stored_bytes();
    let c = archive.ingest(&v2, "v2-again").unwrap();
    assert_eq!(archive.cluster().total_stored_bytes(), stored);
    assert_eq!(archive.retrieve(&c).unwrap(), v2);
}

/// A dedup object has no shard set of its own: a shipment carries the
/// stored shard set of every block it references — leaves in first-seen
/// payload order, then the Merkle nodes over them — over either channel.
#[test]
fn a_dedup_object_ships_as_the_shard_sets_of_its_blocks() {
    use aeon_channel::{qkd::QkdLink, transport::Link};
    use aeon_core::{dedup::block_object_id, transfer};

    let mut archive = dedup_archive(PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac],
        data: 2,
        parity: 2,
    });
    // The same bytes twice over, so some leaf is referenced twice and
    // ships once.
    let mut data = payload(31, 6 << 10);
    data.extend_from_within(..);
    let id = archive.ingest(&data, "doc").unwrap();

    let leaves = archive.manifest(&id).unwrap().blocks.unwrap().blocks;
    let nodes = aeon_cas::build_tree(&leaves, small_dedup().fanout).nodes;
    let mut referenced = Vec::new();
    for hash in leaves.iter().chain(nodes.iter().map(|(hash, _)| hash)) {
        if !referenced.contains(hash) {
            referenced.push(*hash);
        }
    }
    assert!(referenced.len() > 2 && referenced.len() < leaves.len() + nodes.len());
    let stored: Vec<Vec<u8>> = referenced
        .iter()
        .flat_map(|hash| {
            let block = archive.block_record(hash).expect("referenced block exists");
            let set = archive
                .cluster()
                .get_shards(&block_object_id(hash), &block.record.placement);
            set.into_iter().map(|blob| blob.expect("shard stored"))
        })
        .collect();
    assert_eq!(stored.len(), 4 * referenced.len());

    let (received, report) =
        transfer::ship_computational(&archive, &id, &mut Link::new(1.0, 1_000_000.0), 9).unwrap();
    assert_eq!(received, stored);
    assert_eq!(report.shards, stored.len());

    let mut qkd = QkdLink::metro_reference();
    let (received, report) =
        transfer::ship_its(&archive, &id, &mut qkd, &mut Link::wan(), 10).unwrap();
    assert_eq!(received, stored);
    assert_eq!(report.shards, stored.len());
}

#[test]
fn verify_reports_dedup_block_health() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    let id = archive.ingest(&payload(41, 8 << 10), "doc").unwrap();
    let schedule = aeon_integrity::timestamp::SigBreakSchedule::default();
    let health = archive.verify(&id, &schedule).unwrap();
    assert!(health.intact);
    assert_eq!(health.shards_required, 3);
    assert!(health.shards_available >= 3);
}

/// The fleet scan sees dedup storage: a wiped node degrades every
/// block it held, the object is ticketed on its weakest block, and the
/// repair campaign heals it — no I/O spent on the scan itself.
#[test]
fn fleet_scan_and_repair_campaign_cover_dedup_objects() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    let data = payload(61, 10 << 10);
    let id = archive.ingest(&data, "doc").unwrap();
    let node = &archive.cluster().nodes()[0];
    for key in node.keys() {
        node.delete(&key).unwrap();
    }

    let census = |archive: &Archive| {
        let scan = archive.scan_fleet();
        (
            scan.objects,
            scan.healthy,
            scan.tickets.len(),
            scan.lost.len(),
        )
    };
    assert_eq!(census(&archive), (1, 0, 1, 0));
    let ticket = archive.scan_fleet().tickets.remove(0);
    assert_eq!(ticket.id, id);
    assert_eq!((ticket.surviving, ticket.required, ticket.total), (4, 3, 5));

    let mut campaign = Campaign::new(
        &archive,
        CampaignOp::Repair(RepairQueueOrder::Priority),
        0.0,
    );
    assert!(!campaign.is_done());
    assert!(campaign.run(&mut archive, u64::MAX).unwrap().all_ok());
    assert!(campaign.is_done());
    assert_eq!(census(&archive), (1, 1, 0, 0));
    assert_eq!(archive.retrieve(&id).unwrap(), data);
}

/// The durability race tracks dedup objects, so it can record their
/// loss.
#[test]
fn fleet_sim_tracks_dedup_objects() {
    let mut archive = dedup_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 });
    for i in 0..3 {
        archive
            .ingest(&payload(70 + i, 6 << 10), &format!("doc-{i}"))
            .unwrap();
    }
    let cfg = FleetSimConfig {
        epochs: 3,
        node_wipe_prob: 0.0,
        shard_loss_prob: 0.05,
        ..FleetSimConfig::new(5)
    };
    let report = archive.run_fleet_sim(&cfg);
    assert_eq!(report.objects, 3);
    assert!(report.repaired > 0, "latent losses were found and repaired");
    assert_eq!(report.objects_lost, 0);
}

/// Non-dedup archives are bit-for-bit unaffected by this PR: the same
/// seed and payload produce the same manifests whether or not the dedup
/// module is compiled in — `blocks` is simply `None`.
#[test]
fn classic_mode_manifests_carry_no_block_refs() {
    let mut classic = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
            .with_integrity(IntegrityMode::DigestOnly),
    )
    .unwrap();
    let id = classic.ingest(&payload(51, 4 << 10), "doc").unwrap();
    assert!(classic.manifest(&id).unwrap().blocks.is_none());
    assert!(classic.dedup_stats().is_none());
}
