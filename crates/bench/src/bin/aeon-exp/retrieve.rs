//! E-retrieve — per-object loop vs one cross-object read fan-in on the
//! virtual clock.
//!
//! Placement spreads every shard of one object across distinct nodes,
//! so a single-object read pays one positioning cost per node either
//! way. The batched win comes from *fan-in across objects*:
//! `retrieve_many` groups every shard the whole batch needs from a
//! given node into one framed `get_batch` request, paying that node's
//! seek once per batch instead of once per object. This experiment
//! sweeps batch sizes x policies x device profiles and times a loop of
//! `retrieve` calls (each a flush of one) against one `retrieve_many`
//! call on the simulated clock. The win scales with batch size and with how
//! seek-dominated the medium is: an archival disk barely notices, a
//! tape library with multi-second positioning lives or dies by it.
//!
//! The run asserts batched retrieval is strictly faster than
//! sequential on at least one profile. Results land in
//! `BENCH_retrieve.json`.

use aeon_bench::{f2, lcg_payload, CliArgs, DeviceProfile, Json, Table, DEVICE_PROFILES};
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, ObjectId, PolicyKind};
use aeon_store::throughput::throughput_in_memory_cluster;

const SWEEP_SEED: u64 = 0x5EEB;

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("rep-4", PolicyKind::Replication { copies: 4 }),
        ("rs-3+2", PolicyKind::ErasureCoded { data: 3, parity: 2 }),
        (
            "shamir-3/5",
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
        ),
    ]
}

/// Builds an archive over one throughput-charged node per shard slot
/// and ingests `count` objects of `size` bytes; returns the archive,
/// its clock, and the object ids.
fn build(
    policy: &PolicyKind,
    profile: &DeviceProfile,
    count: usize,
    size: usize,
) -> (Archive, aeon_store::clock::SimClock, Vec<ObjectId>) {
    let sites = policy.shard_count().max(1);
    let site_names: Vec<String> = (0..sites).map(|i| format!("s{i}")).collect();
    let site_refs: Vec<&str> = site_names.iter().map(String::as_str).collect();
    let (cluster, clock) = throughput_in_memory_cluster(&site_refs, 1, &profile.throughput());
    let config = ArchiveConfig::new(policy.clone()).with_integrity(IntegrityMode::DigestOnly);
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

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let (batch_sizes, object_size): (&[usize], usize) = if quick {
        (&[8], 64 * 1024)
    } else {
        (&[4, 16], 256 * 1024)
    };

    let mut table = Table::new(
        "retrieve latency: sequential per-object loop vs one batched fan-in (virtual clock)",
        &[
            "profile",
            "policy",
            "batch",
            "seq(s)",
            "batched(s)",
            "speedup",
        ],
    );
    let mut entries: Vec<Json> = Vec::new();
    let mut batched_wins_by_profile: Vec<(String, usize, usize)> = Vec::new();

    for profile in DEVICE_PROFILES {
        let mut wins = 0usize;
        let mut cells = 0usize;
        for (policy_name, policy) in policies() {
            for &batch in batch_sizes {
                // Fresh twin archives so each timing starts from an
                // identical fleet state and placement.
                let (seq_archive, seq_clock, seq_ids) =
                    build(&policy, &profile, batch, object_size);
                let t0 = seq_clock.now();
                let seq_bytes: Vec<Vec<u8>> = seq_ids
                    .iter()
                    .map(|id| seq_archive.retrieve(id).expect("sequential retrieve"))
                    .collect();
                let seq_time = seq_clock.now().since(t0);

                let (bat_archive, bat_clock, bat_ids) =
                    build(&policy, &profile, batch, object_size);
                let t0 = bat_clock.now();
                let bat_bytes: Vec<Vec<u8>> = bat_archive
                    .retrieve_many(&bat_ids)
                    .into_iter()
                    .map(|r| r.expect("batched retrieve"))
                    .collect();
                let bat_time = bat_clock.now().since(t0);

                assert_eq!(seq_bytes, bat_bytes, "payload bytes must be identical");

                let seq_s = seq_time.as_secs_f64();
                let bat_s = bat_time.as_secs_f64();
                cells += 1;
                if bat_s < seq_s {
                    wins += 1;
                }
                table.row(&[
                    profile.name.to_string(),
                    policy_name.to_string(),
                    batch.to_string(),
                    f2(seq_s),
                    f2(bat_s),
                    format!("{:.2}x", seq_s / bat_s),
                ]);
                entries.push(Json::Obj(vec![
                    ("profile".into(), Json::Str(profile.name.into())),
                    (
                        "seek_ms".into(),
                        Json::Num(profile.seek.as_secs_f64() * 1e3),
                    ),
                    ("policy".into(), Json::Str(policy_name.into())),
                    ("batch".into(), Json::Num(batch as f64)),
                    ("object_bytes".into(), Json::Num(object_size as f64)),
                    ("sequential_s".into(), Json::Num(seq_s)),
                    ("batched_s".into(), Json::Num(bat_s)),
                    ("speedup".into(), Json::Num(seq_s / bat_s)),
                ]));
            }
        }
        batched_wins_by_profile.push((profile.name.to_string(), wins, cells));
    }

    table.print();
    let best = batched_wins_by_profile
        .iter()
        .max_by_key(|(_, wins, _)| *wins)
        .expect("at least one profile");
    assert!(
        best.1 >= 1,
        "batched retrieval must beat sequential in virtual time on at least \
         one throughput profile"
    );
    for (name, wins, cells) in &batched_wins_by_profile {
        println!("{name}: batched faster in {wins}/{cells} configurations");
    }

    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("retrieve".into())),
        ("seed".into(), Json::Num(SWEEP_SEED as f64)),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        ("object_bytes".into(), Json::Num(object_size as f64)),
        ("runs".into(), Json::Arr(entries)),
    ]);
    artifact.write_artifact("BENCH_retrieve.json", "results written to");
}
