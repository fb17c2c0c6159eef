//! Determinism suite: one `(workload, seed, config)` triple names one
//! run, byte for byte.
//!
//! The engine's whole value as a measurement instrument rests on
//! replayability — a latency distribution only supports a claim about
//! `reserved_fraction` if re-running the experiment cannot produce a
//! different distribution. These tests pin that property directly:
//! identical seeds give byte-identical reports (histograms compared
//! with `==`, plus the chained event digest), different seeds diverge,
//! and the pipeline worker count — the one real-concurrency knob on the
//! data path — changes nothing.

use aeon_core::{Archive, ArchiveConfig, ObjectId, PipelineConfig, PolicyKind};
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use aeon_serve::{
    serve, ArrivalProcess, CampaignOp, EngineConfig, RepairQueueOrder, ServeError, ServeReport,
    TenantSpec, WorkloadSpec,
};
use aeon_store::clock::SimDuration;
use aeon_store::node::ShardKey;
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
use proptest::prelude::*;

/// A small archive on a throughput-charged cluster: 4 nodes across two
/// sites, disk-class seeks scaled down so runs stay quick.
fn build_archive(workers: usize, objects: usize) -> (Archive, Vec<ObjectId>) {
    let policy = PolicyKind::ErasureCoded { data: 2, parity: 1 };
    build_archive_with(policy, workers, objects)
}

/// The same archive under another policy.
fn build_archive_with(
    policy: PolicyKind,
    workers: usize,
    objects: usize,
) -> (Archive, Vec<ObjectId>) {
    let profile = ThroughputProfile::new(SimDuration::from_secs_f64(0.002), 400e6, 300e6);
    let (cluster, _clock) = throughput_in_memory_cluster(&["east", "west"], 2, &profile);
    let config = ArchiveConfig::new(policy).with_pipeline(PipelineConfig {
        chunk_size: 8 * 1024,
        workers,
    });
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    let mut rng = ChaChaDrbg::from_u64_seed(0xA07);
    let catalog = (0..objects)
        .map(|i| {
            let mut payload = vec![0u8; 4096];
            rng.fill_bytes(&mut payload);
            archive
                .ingest(&payload, &format!("obj-{i}"))
                .expect("ingest")
        })
        .collect();
    (archive, catalog)
}

fn spec(seed: u64, total: usize) -> WorkloadSpec {
    WorkloadSpec::new(
        vec![
            TenantSpec::new("gold", 3.0).with_read_fraction(0.85),
            TenantSpec::new("bronze", 1.0)
                .with_read_fraction(0.6)
                .with_quota(40.0, 8.0),
        ],
        ArrivalProcess::Open {
            requests_per_sec: 50.0,
        },
    )
    .with_total_requests(total)
    .with_write_bytes(4096)
    .with_seed(seed)
}

fn reencode_to_two_parity() -> CampaignOp {
    CampaignOp::Reencode(PolicyKind::ErasureCoded { data: 2, parity: 2 })
}

fn run(workers: usize, seed: u64, config: &EngineConfig) -> ServeReport {
    let (mut archive, catalog) = build_archive(workers, 16);
    serve(&mut archive, &catalog, &spec(seed, 80), config).expect("serve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ byte-identical report: same event digest, same
    /// latency and queue-wait histograms, same counters — independent
    /// of the pipeline worker count.
    #[test]
    fn identical_seeds_replay_across_worker_counts(seed in 0u64..500, workers in 2usize..5) {
        let config = EngineConfig::default();
        let serial = run(1, seed, &config);
        let threaded = run(workers, seed, &config);
        prop_assert_eq!(&serial, &threaded);
        prop_assert!(serial.tenants.iter().any(|t| !t.latency.is_empty()));
    }

    /// Different seeds produce different event streams (the digest is
    /// actually sensitive to the schedule, not a constant).
    #[test]
    fn different_seeds_diverge(seed in 0u64..500) {
        let config = EngineConfig::default();
        let a = run(1, seed, &config);
        let b = run(1, seed + 1, &config);
        prop_assert_ne!(a.event_digest, b.event_digest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Determinism survives background-campaign interleaving: the
    /// hardest case, because the campaign and the workload contend for
    /// the same clock.
    #[test]
    fn campaign_runs_replay_identically(seed in 0u64..200, workers in 2usize..4) {
        let config = EngineConfig {
            background: Some((reencode_to_two_parity(), 0.5)),
            ..EngineConfig::default()
        };
        let serial = run(1, seed, &config);
        let threaded = run(workers, seed, &config);
        prop_assert_eq!(&serial, &threaded);
        let progress = serial.campaign.expect("campaign configured");
        prop_assert_eq!(progress.objects_done, progress.objects_total);
        prop_assert!(progress.bytes_written > 0);
    }
}

/// A campaign stretches the foreground tail: p99 under a 0.25
/// reservation must not beat the baseline run of the same workload,
/// and the campaign must actually finish.
#[test]
fn campaign_interference_shows_up_in_the_tail() {
    let baseline = run(1, 42, &EngineConfig::default());
    let contended = run(
        1,
        42,
        &EngineConfig {
            background: Some((reencode_to_two_parity(), 0.25)),
            ..EngineConfig::default()
        },
    );
    let (_, base_p99, _) = baseline.merged_latency().percentiles();
    let (_, cont_p99, _) = contended.merged_latency().percentiles();
    assert!(
        cont_p99 >= base_p99,
        "campaign contention cannot improve the tail: {:?} < {:?}",
        cont_p99,
        base_p99
    );
    let progress = contended.campaign.expect("campaign configured");
    assert_eq!(progress.objects_done, progress.objects_total);
}

/// A background repair sweep heals every degraded object in the gaps
/// the foreground load leaves open, replays byte-identically across
/// worker counts, and reports its progress through the same campaign
/// channel as re-encoding.
#[test]
fn background_repair_heals_fleet_behind_live_traffic() {
    let damaged = 4;
    let build = |workers: usize| {
        let (archive, catalog) = build_archive(workers, 12);
        // Knock one shard off every third object: margin-0 tickets.
        for id in catalog.iter().step_by(3) {
            let placement = archive.manifest(id).unwrap().placement;
            let node = archive.cluster().node(placement[1]).unwrap();
            node.delete(&ShardKey::new(id.as_str(), 1)).unwrap();
        }
        (archive, catalog)
    };
    let config = EngineConfig {
        background: Some((CampaignOp::Repair(RepairQueueOrder::Priority), 0.4)),
        ..EngineConfig::default()
    };
    let run_one = |workers: usize| {
        let (mut archive, catalog) = build(workers);
        assert_eq!(archive.scan_fleet().tickets.len(), damaged);
        let report = serve(&mut archive, &catalog, &spec(21, 80), &config).expect("serve");
        let scan = archive.scan_fleet();
        (report, scan.tickets.len(), scan.lost.len())
    };
    let (serial, tickets, lost) = run_one(1);
    let (threaded, ..) = run_one(3);
    assert_eq!(serial, threaded, "repair interleaving must replay");
    assert_eq!((tickets, lost), (0, 0), "every degraded object healed");
    let progress = serial.campaign.expect("repair configured");
    assert_eq!(progress.objects_done, damaged);
    assert_eq!(progress.objects_total, damaged);
    assert!(progress.bytes_written > 0);
    assert!(
        serial.tenants.iter().any(|t| t.completed > 0),
        "foreground traffic ran alongside the sweep"
    );
}

/// A repair ticket that turns out unrepairable — the scan counts
/// *present* keys, the repair counts *valid* ones — is counted in the
/// campaign report and does not end the serving run.
#[test]
fn unrepairable_ticket_is_counted_and_serving_goes_on() {
    let config = EngineConfig {
        background: Some((CampaignOp::Repair(RepairQueueOrder::Priority), 0.4)),
        ..EngineConfig::default()
    };
    let run_one = |workers: usize| {
        let policy = PolicyKind::ErasureCoded { data: 2, parity: 2 };
        let (mut archive, catalog) = build_archive_with(policy, workers, 12);
        let node_of = |id: &ObjectId, shard: usize| {
            let placement = archive.manifest(id).unwrap().placement;
            archive.cluster().node(placement[shard]).unwrap()
        };
        // Three plainly degraded objects, and the least popular one
        // rotted beyond repair behind a margin-1 ticket: one shard gone
        // (all the scan sees), two of the three present ones garbage.
        let doomed = &catalog[11];
        for id in catalog.iter().step_by(4).chain([doomed]) {
            node_of(id, 0)
                .delete(&ShardKey::new(id.as_str(), 0))
                .unwrap();
        }
        for shard in [1, 2] {
            node_of(doomed, shard)
                .put(&ShardKey::new(doomed.as_str(), shard as u32), b"garbage")
                .unwrap();
        }
        let tickets = |archive: &Archive| {
            let scan = archive.scan_fleet();
            assert!(scan.lost.is_empty());
            scan.tickets
        };
        let before = tickets(&archive);
        assert_eq!(before.len(), 4);
        assert!(before.iter().all(|t| t.margin() == 1));

        let report = serve(&mut archive, &catalog, &spec(33, 80), &config).expect("serve");
        let after = tickets(&archive);
        assert_eq!(after.len(), 1, "the three repairable objects healed");
        assert_eq!(&after[0].id, doomed);
        report
    };
    let serial = run_one(1);
    assert_eq!(serial, run_one(3), "a failed step must replay too");
    let campaign = serial.campaign.expect("repair configured");
    assert_eq!(campaign.failed, 1);
    assert_eq!(campaign.repaired, 3);
    assert_eq!(campaign.objects_done, campaign.objects_total);
    assert!(serial.tenants.iter().any(|t| t.completed > 0));
}

/// The one background field takes every campaign op, so a proactive
/// refresh epoch runs behind traffic too: every share re-randomized
/// once, and reads on either side of an object's refresh still succeed.
#[test]
fn background_refresh_runs_behind_live_traffic() {
    let policy = PolicyKind::Shamir {
        threshold: 2,
        shares: 4,
    };
    let (mut archive, catalog) = build_archive_with(policy, 1, 12);
    let config = EngineConfig {
        background: Some((CampaignOp::Refresh, 0.3)),
        ..EngineConfig::default()
    };
    let report = serve(&mut archive, &catalog, &spec(5, 80), &config).expect("serve");
    let campaign = report.campaign.expect("refresh configured");
    assert_eq!((campaign.objects_done, campaign.failed), (12, 0));
    for id in &catalog {
        assert_eq!(archive.manifest(id).unwrap().refresh_epochs, 1);
    }
    assert!(report.tenants.iter().all(|t| t.failed == 0));
    assert!(report.tenants.iter().any(|t| t.completed > 0));
}

/// A reserved fraction the campaign constructor would panic on is an
/// invalid spec, not a panic.
#[test]
fn out_of_range_reserved_fraction_is_an_invalid_spec() {
    let (mut archive, catalog) = build_archive(1, 4);
    for reserved in [1.0, 0.999999, f64::NAN] {
        let config = EngineConfig {
            background: Some((reencode_to_two_parity(), reserved)),
            ..EngineConfig::default()
        };
        let err = serve(&mut archive, &catalog, &spec(1, 10), &config).unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidSpec(why) if why.contains("reserved fraction")),
            "r = {reserved}: {err}"
        );
    }
}

/// Closed-loop mode replays too, and issues exactly the requested
/// number of arrivals.
#[test]
fn closed_loop_replays_and_conserves_requests() {
    let make_spec = || {
        WorkloadSpec::new(
            vec![TenantSpec::new("solo", 1.0)],
            ArrivalProcess::Closed {
                clients_per_tenant: 4,
                think: SimDuration::from_secs_f64(0.05),
            },
        )
        .with_total_requests(60)
        .with_write_bytes(2048)
        .with_seed(9)
    };
    let config = EngineConfig::default();
    let (mut a1, c1) = build_archive(1, 8);
    let (mut a2, c2) = build_archive(3, 8);
    let r1 = serve(&mut a1, &c1, &make_spec(), &config).expect("serve");
    let r2 = serve(&mut a2, &c2, &make_spec(), &config).expect("serve");
    assert_eq!(r1, r2);
    let offered: u64 = r1.tenants.iter().map(|t| t.offered).sum();
    assert_eq!(offered, 60);
    let done: u64 = r1
        .tenants
        .iter()
        .map(|t| t.completed + t.failed + t.rejected)
        .sum();
    assert_eq!(done, 60);
}

/// Quotas bind: a throttled tenant sees rejections while an unthrottled
/// one does not, and rejected requests never reach the archive.
#[test]
fn token_bucket_rejections_are_counted() {
    let (mut archive, catalog) = build_archive(1, 8);
    let tight = WorkloadSpec::new(
        vec![
            TenantSpec::new("free", 1.0),
            TenantSpec::new("capped", 1.0).with_quota(2.0, 2.0),
        ],
        ArrivalProcess::Open {
            requests_per_sec: 200.0,
        },
    )
    .with_total_requests(120)
    .with_seed(77);
    let report = serve(&mut archive, &catalog, &tight, &EngineConfig::default()).expect("serve");
    let free = &report.tenants[0];
    let capped = &report.tenants[1];
    assert_eq!(free.rejected, 0, "unlimited quota never rejects");
    assert!(
        capped.rejected > 0,
        "2 req/s quota under ~100 req/s offered"
    );
    assert_eq!(capped.offered, capped.admitted + capped.rejected);
    assert_eq!(capped.admitted, capped.completed + capped.failed);
}

/// The hot cache absorbs the Zipf head: repeated runs over a skewed
/// read stream must report hits, and hits must not undercount bytes.
#[test]
fn hot_cache_reports_hits_under_skew() {
    let (mut archive, catalog) = build_archive(1, 8);
    let skewed = WorkloadSpec::new(
        vec![TenantSpec::new("reader", 1.0).with_read_fraction(1.0)],
        ArrivalProcess::Open {
            requests_per_sec: 40.0,
        },
    )
    .with_total_requests(100)
    .with_zipf_exponent(1.4)
    .with_seed(5);
    let report = serve(&mut archive, &catalog, &skewed, &EngineConfig::default()).expect("serve");
    assert!(report.cache.payload_hits > 0, "skewed reads must hit");
    assert!(report.cache.manifest_hits > 0);
    let reader = &report.tenants[0];
    assert_eq!(reader.bytes_read, reader.completed * 4096);
}
