//! Chaos scenario: a seeded 100-epoch campaign over a cluster of
//! [`FaultyNode`]s — ingest, degraded reads, and repair interleaved
//! with transient I/O errors, bit flips, torn writes, latency, and a
//! scheduled outage — asserting zero data loss within the redundancy
//! budget and bit-for-bit reproducibility from the seed.
//!
//! The seed comes from `AEON_CHAOS_SEED` (default 1); CI pins three.

use aeon_core::{Archive, ArchiveConfig, IntegrityMode, ObjectId, PolicyKind, RetryPolicy};
use aeon_store::faults::{faulty_in_memory_cluster, FaultEvent, FaultPlan, FaultyNode};
use aeon_store::node::{MemoryNode, StorageNode};
use aeon_store::Cluster;
use std::sync::Arc;

fn chaos_seed() -> u64 {
    std::env::var("AEON_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

const EPOCHS: u64 = 100;

/// Everything a campaign run produces, for determinism comparison.
#[derive(Debug, PartialEq)]
struct CampaignLog {
    /// Per-node injected-fault logs.
    events: Vec<Vec<FaultEvent>>,
    /// Reads that failed mid-campaign (e.g. during the outage window).
    failed_reads: u32,
    /// Ingests the fault load rejected outright.
    failed_ingests: u32,
    /// Per-object repair failures summed over mid-campaign sweeps.
    repair_failures: u32,
    /// Object count at the end.
    objects: usize,
}

/// Runs the 100-epoch campaign and asserts the data-loss invariant:
/// after the final repair sweep every surviving object reads back
/// bit-identically.
fn run_campaign(seed: u64) -> CampaignLog {
    // Rates are calibrated to stay (overwhelmingly) within the (5, 3)
    // budget between repair sweeps: ~15 shard reads per object per
    // cycle at 0.2% flip each makes a triple-rot-in-one-cycle overrun
    // a < 1e-3 per-campaign event, so any seed is expected to pass.
    let plan = FaultPlan::new(seed)
        .with_transient_io_rate(0.05)
        .with_bit_flip_rate(0.002)
        .with_torn_write_rate(0.04)
        .with_mean_latency_ms(2)
        .with_offline_window(40, 43);
    let (cluster, handles) = faulty_in_memory_cluster(&["s0", "s1", "s2", "s3", "s4"], 1, &plan);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly);
    let mut archive = Archive::with_cluster(config, cluster).unwrap();

    let mut objects: Vec<(ObjectId, Vec<u8>)> = Vec::new();
    let mut log = CampaignLog {
        events: Vec::new(),
        failed_reads: 0,
        failed_ingests: 0,
        repair_failures: 0,
        objects: 0,
    };
    for epoch in 0..EPOCHS {
        for h in &handles {
            h.set_epoch(epoch);
        }
        match epoch % 5 {
            0 => {
                // Ingest a fresh object (fails outright during the outage).
                let payload: Vec<u8> = (0..128u32)
                    .map(|i| (i as u8) ^ (epoch as u8).wrapping_mul(37))
                    .collect();
                match archive.ingest(&payload, &format!("obj-{epoch}")) {
                    Ok(id) => objects.push((id, payload)),
                    Err(_) => log.failed_ingests += 1,
                }
            }
            2 if !objects.is_empty() => {
                // Degraded read of a rotating victim. Within the budget a
                // read either returns the exact payload or a typed error
                // (outage window) — never wrong bytes.
                let (id, data) = &objects[(epoch as usize / 5) % objects.len()];
                match archive.retrieve(id) {
                    Ok(got) => assert_eq!(&got, data, "seed {seed}: wrong bytes at {epoch}"),
                    Err(_) => log.failed_reads += 1,
                }
            }
            4 => {
                // Repair sweep; per-object failures don't stop it.
                let outcome = archive.repair_all();
                log.repair_failures += outcome.report().failed as u32;
            }
            _ => {}
        }
    }

    // Outage over: a final sweep must leave the fleet fully healthy.
    for h in &handles {
        h.set_epoch(EPOCHS);
    }
    let outcome = archive.repair_all();
    assert!(
        outcome.report().all_ok(),
        "seed {seed}: final repair sweep left objects broken: {:?}",
        outcome.failures()
    );
    for (id, data) in &objects {
        assert_eq!(
            &archive.retrieve(id).unwrap(),
            data,
            "seed {seed}: data loss on {id} within the redundancy budget"
        );
    }

    log.events = handles.iter().map(|h| h.events()).collect();
    log.objects = objects.len();
    log
}

#[test]
fn chaos_campaign_zero_data_loss() {
    let log = run_campaign(chaos_seed());
    assert!(log.objects > 0, "fault load prevented every ingest");
    assert!(
        log.events.iter().any(|e| !e.is_empty()),
        "chaos plan injected nothing — the campaign tested nothing"
    );
}

/// Digest of a campaign log, for cross-refactor pinning: any change to
/// the sequence of node operations (and therefore injected faults)
/// shifts this value.
fn log_digest(log: &CampaignLog) -> String {
    let rendered = format!(
        "{:?}|{}|{}|{}|{}",
        log.events, log.failed_reads, log.failed_ingests, log.repair_failures, log.objects
    );
    aeon_crypto::Sha256::digest(rendered.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Pinned seed-1 campaign log digest, first recorded before the
/// Codec/Plan/Executor refactor (commit 3b865ea) to prove it left the
/// exact sequence of cluster I/O — and so the injected fault stream —
/// unchanged. Re-pinned once since, for an intended change: a commit
/// that falls short now deletes its slots with sticky retries, so the
/// one ingest that fails in the outage window retries each offline
/// node's delete 16 times instead of trying it once (15 more `Offline`
/// events per node; every outcome count is unchanged).
/// Regenerate (only for an intended I/O-sequence change) with:
/// `cargo test -p aeon-core --test chaos -- --ignored --nocapture`
const PINNED_SEED1_LOG_DIGEST: &str =
    "4b4fbdb3440e2f0c4417485b3d8af93b26d57c8619f5aadb45ade2c0064c04f5";

#[test]
#[ignore = "generator: prints the seed-1 campaign log digest"]
fn chaos_log_digest_generate() {
    println!("seed-1 log digest: {}", log_digest(&run_campaign(1)));
}

#[test]
fn chaos_campaign_event_log_matches_pinned_digest() {
    assert_eq!(
        log_digest(&run_campaign(1)),
        PINNED_SEED1_LOG_DIGEST,
        "seed-1 campaign event log drifted across a refactor"
    );
}

#[test]
fn chaos_campaign_replays_identically() {
    let seed = chaos_seed();
    let first = run_campaign(seed);
    let second = run_campaign(seed);
    assert_eq!(
        first, second,
        "seed {seed}: identical seeds must replay identical campaigns"
    );
    let other = run_campaign(seed ^ 0x5EED_CAFE);
    assert_ne!(
        first.events, other.events,
        "distinct seeds should inject distinct fault sequences"
    );
}

/// The acceptance criterion from the fault-model contract: with
/// injected failures on exactly `n - k` nodes, a read succeeds, each
/// dead node is retried no more than the policy's attempt cap, and
/// healthy nodes are hit exactly once.
#[test]
fn degraded_read_bounds_attempts_on_dead_nodes() {
    // Each node has its own clock and an offline window over epoch 1.
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
    let retry = RetryPolicy::default().with_attempts(3);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly)
        .with_retry(retry.clone());
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let payload = b"exactly n-k nodes down".to_vec();
    let id = archive.ingest(&payload, "acceptance").unwrap();

    // Take down exactly n - k = 2 of the nodes holding shards.
    let placement = archive.manifest(&id).unwrap().placement.clone();
    let dead: Vec<_> = placement.iter().take(2).copied().collect();
    for d in &dead {
        handles.iter().find(|h| h.id() == *d).unwrap().set_epoch(1);
    }

    let (got, report) = archive.retrieve_with_report(&id).unwrap();
    assert_eq!(got, payload);
    for d in &dead {
        assert_eq!(
            report.attempts_for(*d),
            retry.max_attempts,
            "dead node retried past the policy cap"
        );
    }
    for alive in placement.iter().filter(|n| !dead.contains(n)) {
        assert_eq!(
            report.attempts_for(*alive),
            1,
            "healthy node hit more than once"
        );
    }
    assert_eq!(report.failed_shards().len(), 2);
    assert!(
        archive.cluster().clock().now().as_millis() > 0,
        "backoff was charged to the cluster clock"
    );
}

/// Offline windows end: a cluster-wide outage mid-campaign heals
/// without operator action once the epoch clock leaves the window.
#[test]
fn outage_window_heals_by_epoch_clock() {
    let plan = FaultPlan::new(9).with_offline_window(5, 8);
    let (cluster, handles) = faulty_in_memory_cluster(&["a", "b", "c"], 1, &plan);
    let config = ArchiveConfig::new(PolicyKind::Replication { copies: 3 })
        .with_integrity(IntegrityMode::DigestOnly)
        .with_retry(RetryPolicy::none());
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let id = archive.ingest(b"through the outage", "w").unwrap();

    let set_all = |epoch: u64, hs: &[Arc<FaultyNode>]| {
        for h in hs {
            h.set_epoch(epoch);
        }
    };
    set_all(5, &handles);
    assert!(
        archive.retrieve(&id).is_err(),
        "all nodes are in the window"
    );
    set_all(8, &handles);
    assert_eq!(archive.retrieve(&id).unwrap(), b"through the outage");
}
