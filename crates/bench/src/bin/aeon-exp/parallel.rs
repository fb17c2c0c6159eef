//! E-parallel — sequential vs parallel lane dispatch on the virtual
//! clock.
//!
//! Batched fan-in (E-retrieve) made each node pay its positioning cost
//! once per batch; dispatch still visited nodes one after another, so a
//! batch over `n` nodes cost the *sum* of the per-node transfers.
//! Parallel lane dispatch overlaps them: every node's framed transfer
//! is charged to that node's own lane starting at the dispatch instant,
//! and the batch completes at the *max* of the lane completions — the
//! critical path. On a balanced fan-out across `n` equally-provisioned
//! nodes the win approaches `n×`, and it is largest where positioning
//! dominates: a tape library with 30 s seeks pays one seek per batch
//! instead of `n`.
//!
//! The experiment sweeps lane count × device profile × dispatch policy
//! over a `retrieve_many` fan-out, asserting payload equality between
//! dispatches in every cell and `≥ 0.8·n` speedup on the tape profile.
//! A second stage repairs an identically-degraded fleet through a
//! repair `Campaign` under both dispatches and reports the
//! campaign-time reduction. Results land in `BENCH_parallel.json`.

use aeon_bench::{f2, lcg_payload, CliArgs, DeviceProfile, Json, Table, DEVICE_PROFILES};
use aeon_core::{
    Archive, ArchiveConfig, Campaign, CampaignOp, DispatchPolicy, IntegrityMode, ObjectId,
    PolicyKind, RepairQueueOrder,
};
use aeon_store::clock::{SimClock, SimDuration};
use aeon_store::node::ShardKey;
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

const SWEEP_SEED: u64 = 0x1A7E5;

/// Builds an archive whose transfers fan out across exactly `lanes`
/// nodes: RS(`lanes − 1`, 1) over `lanes` single-node sites, one shard
/// per site, so every shard of the batch rides its own equally-loaded
/// lane — the balanced fan-out where parallel dispatch approaches an
/// `n×` win.
fn build_fanout(
    lanes: usize,
    profile: &DeviceProfile,
    dispatch: DispatchPolicy,
    count: usize,
    size: usize,
) -> (Archive, SimClock, Vec<ObjectId>) {
    let site_names: Vec<String> = (0..lanes).map(|i| format!("s{i}")).collect();
    let site_refs: Vec<&str> = site_names.iter().map(String::as_str).collect();
    let (cluster, clock) = throughput_in_memory_cluster(&site_refs, 1, &profile.throughput());
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded {
        data: lanes - 1,
        parity: 1,
    })
    .with_integrity(IntegrityMode::DigestOnly)
    .with_dispatch(dispatch);
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    let ids = (0..count)
        .map(|i| {
            archive
                .ingest(&lcg_payload(SWEEP_SEED, i, size), &format!("obj-{i:03}"))
                .expect("ingest")
        })
        .collect();
    (archive, clock, ids)
}

/// Times one `retrieve_many` over the whole corpus, returning virtual
/// seconds and the payload bytes for cross-dispatch equality checks.
fn time_retrieve(archive: &Archive, clock: &SimClock, ids: &[ObjectId]) -> (f64, Vec<Vec<u8>>) {
    let t0 = clock.now();
    let bytes: Vec<Vec<u8>> = archive
        .retrieve_many(ids)
        .into_iter()
        .map(|r| r.expect("retrieve"))
        .collect();
    (clock.now().since(t0).as_secs_f64(), bytes)
}

/// Builds a degraded fleet under the given dispatch policy: RS(4, 2)
/// over six cold-HDD sites, every object missing two shards (exactly at
/// its read threshold, so each repair reads four shards and writes two
/// back). Deletions follow the manifest placement, so both twins
/// degrade identically.
fn build_degraded_fleet(dispatch: DispatchPolicy, objects: usize) -> (Archive, SimClock) {
    let sites = ["s0", "s1", "s2", "s3", "s4", "s5"];
    let tp = ThroughputProfile::new(SimDuration::from_millis(40), 20e6, 20e6);
    let (cluster, clock) = throughput_in_memory_cluster(&sites, 1, &tp);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 4, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly)
        .with_dispatch(dispatch);
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    let ids: Vec<ObjectId> = (0..objects)
        .map(|i| {
            archive
                .ingest(
                    &lcg_payload(SWEEP_SEED, i, 96 * 1024),
                    &format!("fleet-{i:03}"),
                )
                .expect("ingest")
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let placement = archive.manifest(id).expect("manifest").placement.clone();
        for j in 0..2 {
            let idx = (i + j) % placement.len();
            archive
                .cluster()
                .node(placement[idx])
                .expect("placed node")
                .delete(&ShardKey::new(id.as_str(), idx as u32))
                .expect("stage loss");
        }
    }
    (archive, clock)
}

/// Drains a full repair campaign and returns the virtual seconds its
/// background steps occupied the devices.
fn run_campaign(dispatch: DispatchPolicy, objects: usize) -> f64 {
    let (mut archive, _clock) = build_degraded_fleet(dispatch, objects);
    let mut campaign = Campaign::new(
        &archive,
        CampaignOp::Repair(RepairQueueOrder::Priority),
        0.2,
    );
    let report = campaign
        .run(&mut archive, u64::MAX)
        .expect("repair campaign");
    assert!(report.all_ok(), "repair failed: {:?}", campaign.failures());
    report.background_time.as_secs_f64()
}

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let (lane_counts, batch, object_size, fleet_objects): (&[usize], usize, usize, usize) = if quick
    {
        (&[4, 8], 4, 64 * 1024, 8)
    } else {
        (&[4, 8, 12], 8, 256 * 1024, 16)
    };

    let mut table = Table::new(
        "batch fan-out: sequential dispatch (sum of lanes) vs parallel lanes (critical path)",
        &[
            "profile",
            "lanes",
            "seq(s)",
            "parallel(s)",
            "speedup",
            "ideal",
        ],
    );
    let mut entries: Vec<Json> = Vec::new();

    for profile in DEVICE_PROFILES {
        for &lanes in lane_counts {
            let (seq_archive, seq_clock, seq_ids) = build_fanout(
                lanes,
                &profile,
                DispatchPolicy::Sequential,
                batch,
                object_size,
            );
            let (seq_s, seq_bytes) = time_retrieve(&seq_archive, &seq_clock, &seq_ids);

            let (par_archive, par_clock, par_ids) = build_fanout(
                lanes,
                &profile,
                DispatchPolicy::parallel(),
                batch,
                object_size,
            );
            let (par_s, par_bytes) = time_retrieve(&par_archive, &par_clock, &par_ids);

            assert_eq!(
                seq_bytes, par_bytes,
                "{} lanes={lanes}: payloads must be dispatch-independent",
                profile.name
            );

            let speedup = seq_s / par_s;
            if profile.seek >= SimDuration::from_secs(30) {
                assert!(
                    speedup >= 0.8 * lanes as f64,
                    "{}: parallel speedup {speedup:.2}x below 0.8·n for n={lanes} lanes",
                    profile.name
                );
            }
            table.row(&[
                profile.name.to_string(),
                lanes.to_string(),
                f2(seq_s),
                f2(par_s),
                format!("{speedup:.2}x"),
                format!("{lanes}.00x"),
            ]);
            entries.push(Json::Obj(vec![
                ("profile".into(), Json::Str(profile.name.into())),
                (
                    "seek_ms".into(),
                    Json::Num(profile.seek.as_secs_f64() * 1e3),
                ),
                ("lanes".into(), Json::Num(lanes as f64)),
                ("batch".into(), Json::Num(batch as f64)),
                ("object_bytes".into(), Json::Num(object_size as f64)),
                ("sequential_s".into(), Json::Num(seq_s)),
                ("parallel_s".into(), Json::Num(par_s)),
                ("speedup".into(), Json::Num(speedup)),
            ]));
        }
    }
    table.print();

    // Campaign stage: the same degraded fleet repaired under both
    // dispatch policies. Each repair reads four shards from
    // four distinct nodes; parallel lanes overlap those reads, so the
    // campaign's background time shrinks toward the critical path.
    let campaign_seq = run_campaign(DispatchPolicy::Sequential, fleet_objects);
    let campaign_par = run_campaign(DispatchPolicy::parallel(), fleet_objects);
    let reduction = 1.0 - campaign_par / campaign_seq;
    assert!(
        campaign_par < campaign_seq,
        "parallel dispatch must shorten the repair campaign \
         (sequential {campaign_seq:.2}s, parallel {campaign_par:.2}s)"
    );
    println!(
        "repair campaign over {fleet_objects} degraded objects: sequential {}s, \
         parallel {}s ({:.1}% shorter)",
        f2(campaign_seq),
        f2(campaign_par),
        reduction * 100.0
    );

    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("parallel".into())),
        ("seed".into(), Json::Num(SWEEP_SEED as f64)),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        ("runs".into(), Json::Arr(entries)),
        (
            "campaign".into(),
            Json::Obj(vec![
                ("objects".into(), Json::Num(fleet_objects as f64)),
                ("sequential_s".into(), Json::Num(campaign_seq)),
                ("parallel_s".into(), Json::Num(campaign_par)),
                ("reduction".into(), Json::Num(reduction)),
            ]),
        ),
    ]);
    artifact.write_artifact("BENCH_parallel.json", "results written to");
}
