//! Fleet campaign results must be a function of the archive's *state*,
//! never of how the metadata layer is organized: the order manifests
//! entered the catalog must not leak into scans, repair sweeps, or
//! clock readings. (Shard-count independence is pinned in `catalog.rs`.)

use aeon_core::{Archive, ArchiveConfig, IntegrityMode, ObjectId, PolicyKind};
use aeon_store::node::{MemoryNode, ShardKey, StorageNode};
use aeon_store::Cluster;
use std::sync::Arc;

fn archive() -> (Archive, Vec<MemoryNode>) {
    let handles: Vec<MemoryNode> = (0..6u32)
        .map(|i| MemoryNode::new(i, format!("site-{i}")))
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
            .collect(),
    );
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly);
    (Archive::with_cluster(config, cluster).unwrap(), handles)
}

fn populate(archive: &mut Archive) -> Vec<ObjectId> {
    (0..8)
        .map(|i| {
            archive
                .ingest(&vec![i as u8 + 1; 96 + i * 13], &format!("obj-{i}"))
                .unwrap()
        })
        .collect()
}

fn damage(archive: &Archive, handles: &[MemoryNode], ids: &[ObjectId]) {
    // Deterministic damage: one shard off even objects, two off the
    // third object.
    for (i, id) in ids.iter().enumerate() {
        let slots: &[usize] = match i {
            3 => &[0, 2],
            _ if i % 2 == 0 => &[1],
            _ => &[],
        };
        let placement = archive.manifest(id).unwrap().placement;
        for &slot in slots {
            handles
                .iter()
                .find(|h| h.id() == placement[slot])
                .unwrap()
                .delete(&ShardKey::new(id.as_str(), slot as u32))
                .unwrap();
        }
    }
}

/// Everything a fleet campaign can observe, flattened for comparison.
fn observe(archive: &mut Archive) -> (Vec<String>, Vec<[u8; 32]>, String, u64) {
    let scan = archive.scan_fleet();
    let scan_lines: Vec<String> = scan
        .tickets
        .iter()
        .map(|t| {
            format!(
                "{} {}/{}/{}",
                t.id.as_str(),
                t.surviving,
                t.required,
                t.total
            )
        })
        .chain(scan.lost.iter().map(|id| format!("lost {}", id.as_str())))
        .collect();
    let digests: Vec<[u8; 32]> = archive.manifests().map(|m| m.digest).collect();
    let outcome = archive.repair_all().report();
    let repair_line = format!(
        "repaired {} failed {} healthy {} bytes {} written {}",
        outcome.repaired,
        outcome.failed,
        outcome.healthy,
        outcome.bytes_moved(),
        outcome.bytes_written,
    );
    let clock_nanos = archive
        .cluster()
        .clock()
        .now()
        .since(aeon_store::clock::SimTime::ZERO)
        .as_days_f64()
        .to_bits();
    (scan_lines, digests, repair_line, clock_nanos)
}

/// Rebuilds the catalog with its manifests inserted in reverse order.
fn reinsert_reversed(archive: &Archive) {
    let mut manifests: Vec<_> = archive.manifests().collect();
    manifests.reverse();
    for m in &manifests {
        archive.catalog().remove(&m.id);
    }
    assert_eq!(archive.catalog().len(), 0);
    for m in manifests {
        let id = m.id.clone();
        archive.catalog().insert(id, m);
    }
}

#[test]
fn fleet_results_independent_of_insertion_order() {
    // Two identical worlds with identical damage; one catalog is torn
    // down and rebuilt in reverse insertion order before observation.
    let build = |reversed: bool| {
        let (mut archive, handles) = archive();
        let ids = populate(&mut archive);
        damage(&archive, &handles, &ids);
        if reversed {
            reinsert_reversed(&archive);
        }
        observe(&mut archive)
    };
    let forward = build(false);
    let reversed = build(true);
    assert_eq!(
        forward, reversed,
        "scan, digests, repair sweep, and clock reading must not depend \
         on catalog insertion order"
    );
    assert!(!forward.0.is_empty(), "the damage was visible to the scan");
}
