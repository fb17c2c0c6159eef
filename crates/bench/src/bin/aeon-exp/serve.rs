//! E10 — serving under maintenance: the §3.2 reservation arithmetic as
//! foreground latency distributions.
//!
//! The paper prices a re-encryption campaign at `1/(1−r)` of its
//! read-only duration once a fraction `r` of bandwidth is reserved for
//! foreground traffic — but never asks what the foreground traffic
//! *experiences*. This experiment measures exactly that: a seeded
//! three-tenant workload runs against a throughput-charged archive,
//! first alone (baseline, run twice to pin determinism), then
//! concurrently with a full re-encryption campaign under several
//! `reserved_fraction` settings, and finally across an offered-load
//! sweep to locate the saturation knee. Per-tenant p50/p99/p999 land in
//! `BENCH_serve.json`.
//!
//! Run with `--quick` for the CI-sized version.

use aeon_bench::{f2, CliArgs, Json, Table};
use aeon_core::{Archive, ArchiveConfig, ObjectId, PipelineConfig, PolicyKind};
use aeon_crypto::SuiteId;
use aeon_serve::{
    serve, ArrivalProcess, CampaignOp, EngineConfig, ServeReport, TenantSpec, WorkloadSpec,
};
use aeon_store::clock::SimDuration;
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

struct Scale {
    objects: usize,
    object_bytes: usize,
    requests: usize,
    requests_per_sec: f64,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                objects: 32,
                object_bytes: 8 * 1024,
                requests: 300,
                requests_per_sec: 50.0,
            }
        } else {
            Scale {
                objects: 128,
                object_bytes: 32 * 1024,
                requests: 1500,
                requests_per_sec: 50.0,
            }
        }
    }
}

/// Disk-class cluster: 4 nodes over two sites, 5 ms positioning,
/// 200/150 MB/s streaming — slow enough that queueing is visible at
/// tens of requests per second.
fn build_archive(scale: &Scale) -> (Archive, Vec<ObjectId>) {
    let profile = ThroughputProfile::new(SimDuration::from_secs_f64(0.005), 200e6, 150e6);
    let (cluster, _clock) = throughput_in_memory_cluster(&["east", "west"], 2, &profile);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 1 }).with_pipeline(
        PipelineConfig {
            chunk_size: 16 * 1024,
            workers: 1,
        },
    );
    let mut archive = Archive::with_cluster(config, cluster).expect("cluster archive");
    let catalog = (0..scale.objects)
        .map(|i| {
            let payload = aeon_bench::reference_payload(scale.object_bytes, i as u64);
            archive
                .ingest(&payload, &format!("serve-{i}"))
                .expect("ingest")
        })
        .collect();
    (archive, catalog)
}

/// Gold/silver/bronze: weights 5/3/2, read-heavy to mixed, bronze on a
/// tight quota so admission control is exercised, not just configured.
fn workload(scale: &Scale, load_multiplier: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        vec![
            TenantSpec::new("gold", 5.0).with_read_fraction(0.9),
            TenantSpec::new("silver", 3.0).with_read_fraction(0.8),
            TenantSpec::new("bronze", 2.0)
                .with_read_fraction(0.5)
                .with_quota(4.0, 6.0),
        ],
        ArrivalProcess::Open {
            requests_per_sec: scale.requests_per_sec * load_multiplier,
        },
    )
    .with_total_requests(scale.requests)
    .with_write_bytes(scale.object_bytes)
    .with_zipf_exponent(1.1)
    .with_seed(0xAE0)
}

fn serve_once(scale: &Scale, load_multiplier: f64, reserved: Option<f64>) -> ServeReport {
    let (mut archive, catalog) = build_archive(scale);
    let config = EngineConfig {
        background: reserved.map(|reserved_fraction| {
            let new_policy = PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 2,
                parity: 1,
            };
            (CampaignOp::Reencode(new_policy), reserved_fraction)
        }),
        ..EngineConfig::default()
    };
    serve(
        &mut archive,
        &catalog,
        &workload(scale, load_multiplier),
        &config,
    )
    .expect("serve run")
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tenant_json(report: &ServeReport) -> Json {
    Json::Arr(
        report
            .tenants
            .iter()
            .map(|t| {
                let (p50, p99, p999) = t.latency.percentiles();
                let (_, qp99, _) = t.queue_wait.percentiles();
                Json::Obj(vec![
                    ("name".into(), Json::Str(t.name.clone())),
                    ("offered".into(), Json::Num(t.offered as f64)),
                    ("admitted".into(), Json::Num(t.admitted as f64)),
                    ("rejected".into(), Json::Num(t.rejected as f64)),
                    ("completed".into(), Json::Num(t.completed as f64)),
                    ("failed".into(), Json::Num(t.failed as f64)),
                    ("bytes_read".into(), Json::Num(t.bytes_read as f64)),
                    ("bytes_written".into(), Json::Num(t.bytes_written as f64)),
                    ("p50_ms".into(), Json::Num(ms(p50))),
                    ("p99_ms".into(), Json::Num(ms(p99))),
                    ("p999_ms".into(), Json::Num(ms(p999))),
                    ("mean_ms".into(), Json::Num(ms(t.latency.mean()))),
                    ("queue_p99_ms".into(), Json::Num(ms(qp99))),
                ])
            })
            .collect(),
    )
}

fn run_json(label: &str, reserved: Option<f64>, report: &ServeReport) -> Json {
    let mut fields = vec![
        ("label".into(), Json::Str(label.to_string())),
        (
            "reserved_fraction".into(),
            reserved.map_or(Json::Num(f64::NAN), Json::Num),
        ),
        ("elapsed_s".into(), Json::Num(report.elapsed.as_secs_f64())),
        ("event_digest".into(), Json::Str(report.digest_hex())),
        ("tenants".into(), tenant_json(report)),
        (
            "cache".into(),
            Json::Obj(vec![
                (
                    "payload_hits".into(),
                    Json::Num(report.cache.payload_hits as f64),
                ),
                (
                    "payload_misses".into(),
                    Json::Num(report.cache.payload_misses as f64),
                ),
                (
                    "manifest_hits".into(),
                    Json::Num(report.cache.manifest_hits as f64),
                ),
                (
                    "manifest_misses".into(),
                    Json::Num(report.cache.manifest_misses as f64),
                ),
                ("evictions".into(), Json::Num(report.cache.evictions as f64)),
            ]),
        ),
    ];
    if let Some(p) = &report.campaign {
        fields.push((
            "campaign".into(),
            Json::Obj(vec![
                ("objects_done".into(), Json::Num(p.objects_done as f64)),
                ("objects_total".into(), Json::Num(p.objects_total as f64)),
                ("bytes_read".into(), Json::Num(p.bytes_read as f64)),
                ("bytes_written".into(), Json::Num(p.bytes_written as f64)),
                (
                    "background_s".into(),
                    Json::Num(p.background_time.as_secs_f64()),
                ),
            ]),
        ));
    }
    Json::Obj(fields)
}

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let scale = Scale::new(quick);

    // Baseline twice: the determinism acceptance check. Fresh archives,
    // identical seeds — the reports must match byte for byte.
    let baseline = serve_once(&scale, 1.0, None);
    let repeat = serve_once(&scale, 1.0, None);
    let identical = baseline == repeat;
    assert!(
        identical,
        "identical seeds must reproduce identical reports (digest {} vs {})",
        baseline.digest_hex(),
        repeat.digest_hex()
    );

    // The same workload while a full re-encryption campaign runs
    // behind it, at three reservation settings.
    let fractions = [0.25, 0.5, 0.9];
    let campaign_runs: Vec<(f64, ServeReport)> = fractions
        .iter()
        .map(|&r| (r, serve_once(&scale, 1.0, Some(r))))
        .collect();

    let mut table = Table::new(
        "serving under §3.2 re-encryption (aggregate latency, ms)",
        &["run", "r", "p50", "p99", "p999", "rejected", "campaign_s"],
    );
    let agg = |rep: &ServeReport| rep.merged_latency().percentiles();
    let rejected = |rep: &ServeReport| rep.tenants.iter().map(|t| t.rejected).sum::<u64>();
    let (p50, p99, p999) = agg(&baseline);
    table.row(&[
        "baseline".to_string(),
        "-".to_string(),
        f2(ms(p50)),
        f2(ms(p99)),
        f2(ms(p999)),
        rejected(&baseline).to_string(),
        "-".to_string(),
    ]);
    for (r, rep) in &campaign_runs {
        let (p50, p99, p999) = agg(rep);
        let camp = rep.campaign.as_ref().expect("campaign configured");
        table.row(&[
            "campaign".to_string(),
            f2(*r),
            f2(ms(p50)),
            f2(ms(p99)),
            f2(ms(p999)),
            rejected(rep).to_string(),
            f2(camp.background_time.as_secs_f64()),
        ]);
    }
    table.print();

    // Offered-load sweep for the saturation curve (no campaign).
    let multipliers: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    let mut sweep_table = Table::new(
        "saturation sweep (open loop, no campaign)",
        &["load(rps)", "p50(ms)", "p99(ms)", "rejected"],
    );
    let sweep: Vec<Json> = multipliers
        .iter()
        .map(|&m| {
            let rep = serve_once(&scale, m, None);
            let (p50, p99, _) = agg(&rep);
            sweep_table.row(&[
                f2(scale.requests_per_sec * m),
                f2(ms(p50)),
                f2(ms(p99)),
                rejected(&rep).to_string(),
            ]);
            Json::Obj(vec![
                ("offered_rps".into(), Json::Num(scale.requests_per_sec * m)),
                ("p50_ms".into(), Json::Num(ms(p50))),
                ("p99_ms".into(), Json::Num(ms(p99))),
                ("rejected".into(), Json::Num(rejected(&rep) as f64)),
            ])
        })
        .collect();
    sweep_table.print();

    let mut runs = vec![
        run_json("baseline", None, &baseline),
        run_json("baseline-repeat", None, &repeat),
    ];
    for (r, rep) in &campaign_runs {
        runs.push(run_json("campaign", Some(*r), rep));
    }
    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("serve".into())),
        ("quick".into(), Json::Num(u8::from(quick) as f64)),
        (
            "config".into(),
            Json::Obj(vec![
                ("objects".into(), Json::Num(scale.objects as f64)),
                ("object_bytes".into(), Json::Num(scale.object_bytes as f64)),
                ("requests".into(), Json::Num(scale.requests as f64)),
                ("requests_per_sec".into(), Json::Num(scale.requests_per_sec)),
                ("seed".into(), Json::Num(0xAE0 as f64)),
            ]),
        ),
        (
            "determinism".into(),
            Json::Obj(vec![
                ("identical".into(), Json::Num(u8::from(identical) as f64)),
                ("digest".into(), Json::Str(baseline.digest_hex())),
            ]),
        ),
        ("runs".into(), Json::Arr(runs)),
        ("saturation".into(), Json::Arr(sweep)),
    ]);
    artifact.write_artifact("BENCH_serve.json", "artifact:");

    // Sanity the experiment promises: the campaign completed under
    // every reservation, and contention never *improved* the tail.
    for (r, rep) in &campaign_runs {
        let camp = rep.campaign.as_ref().expect("campaign configured");
        assert_eq!(
            camp.objects_done, camp.objects_total,
            "campaign at r={r} must finish"
        );
        let (_, base_p99, _) = agg(&baseline);
        let (_, camp_p99, _) = agg(rep);
        assert!(
            camp_p99 >= base_p99,
            "campaign at r={r} cannot beat the baseline tail"
        );
    }
    println!("serving-under-maintenance experiment complete");
}
