//! Virtual-time invariants through the full archive data path.
//!
//! The SimClock contract: virtual elapsed time is a deterministic
//! function of the charged operations alone — the same workload charges
//! the same virtual time regardless of pipeline worker count, thread
//! scheduling, or how many times it is replayed. These tests drive the
//! real ingest/re-encode path over throughput-charged clusters and
//! compare clock readings.

use aeon_core::{
    Archive, ArchiveConfig, Campaign, CampaignOp, IntegrityMode, PipelineConfig, PolicyKind,
    RetryPolicy, SimTime,
};
use aeon_crypto::SuiteId;
use aeon_store::faults::{faulty_in_memory_cluster, FaultPlan};
use aeon_store::media::ArchiveSite;
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

/// Runs a fixed ingest + re-encode workload with the given worker count
/// and returns the final clock reading.
fn clocked_workload(workers: usize) -> SimTime {
    let profile = ThroughputProfile::from_site_aggregate(&ArchiveSite::hpss());
    let (cluster, clock) =
        throughput_in_memory_cluster(&["s0", "s1", "s2", "s3", "s4", "s5"], 1, &profile);
    let config = ArchiveConfig::new(PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 4,
        parity: 2,
    })
    .with_integrity(IntegrityMode::DigestOnly)
    .with_pipeline(PipelineConfig {
        chunk_size: 16 * 1024,
        workers,
    });
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    for i in 0..4u64 {
        let payload = aeon_bench_payload(48 * 1024, i);
        archive
            .ingest(&payload, &format!("obj-{i}"))
            .expect("ingest");
    }
    let op = CampaignOp::Reencode(PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
        data: 4,
        parity: 2,
    });
    Campaign::new(&archive, op, 0.5)
        .run(&mut archive, u64::MAX)
        .expect("campaign");
    clock.now()
}

/// Deterministic high-entropy payload (local copy; the core crate does
/// not depend on the bench crate).
fn aeon_bench_payload(len: usize, seed: u64) -> Vec<u8> {
    use aeon_crypto::{ChaChaDrbg, CryptoRng};
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

#[test]
fn virtual_elapsed_is_independent_of_worker_count() {
    let serial = clocked_workload(1);
    let parallel = clocked_workload(4);
    assert!(serial > SimTime::ZERO, "throughput charges must accrue");
    assert_eq!(
        serial, parallel,
        "virtual time is charged per byte moved, not per thread"
    );
}

#[test]
fn virtual_elapsed_replays_identically() {
    assert_eq!(clocked_workload(2), clocked_workload(2));
}

#[test]
fn fault_latency_and_backoff_charge_the_cluster_clock() {
    // Transient I/O faults + injected latency: the archive retries and
    // stalls, and every millisecond lands on the shared cluster clock —
    // nothing sleeps, nothing keeps a parallel ms ledger.
    let plan = FaultPlan::new(7)
        .with_transient_io_rate(0.3)
        .with_mean_latency_ms(3);
    let (cluster, handles) = faulty_in_memory_cluster(&["a", "b", "c", "d", "e"], 1, &plan);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly)
        .with_retry(RetryPolicy::default().with_attempts(4));
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let id = archive.ingest(b"charged, never slept", "lat").unwrap();
    assert_eq!(archive.retrieve(&id).unwrap(), b"charged, never slept");
    let clock_ms = archive.cluster().clock().now().as_millis();
    assert!(clock_ms > 0, "latency/backoff must be charged to the clock");
    // The node handles share the cluster clock: same timeline.
    for h in &handles {
        assert!(h.clock().same_clock(archive.cluster().clock()));
    }
}
