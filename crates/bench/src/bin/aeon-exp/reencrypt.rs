//! E3 — §3.2: re-encryption campaign durations for real archives.
//!
//! Reproduces the paper's four read-time estimates (HPSS 6.75 months,
//! MARS 10.35, EOS 8.3, Pergamum 0.76) from the same size/bandwidth
//! figures, then extends them with the paper's two penalty factors and a
//! day-by-day simulation with competing ingest. Finally it validates the
//! analytic model against a scaled-down *live* re-encryption of an
//! in-memory archive.

use aeon_bench::{f2, CliArgs, Json, Table};
use aeon_core::{Archive, ArchiveConfig, Campaign, CampaignOp, IntegrityMode, PolicyKind};
use aeon_crypto::SuiteId;
use aeon_store::campaign::{simulate_campaign, ReencryptionModel};
use aeon_store::media::{ArchiveSite, DAYS_PER_MONTH};
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

/// Relative agreement bound between the measured-and-extrapolated and
/// closed-form campaign figures. The two share only the site's
/// size/bandwidth numbers — the measured run goes through the real
/// codec/plan/executor path on a throughput-charged cluster — so
/// agreement this tight is the cross-check, not a tautology.
const AGREEMENT_BOUND: f64 = 0.02;

pub fn run(args: &CliArgs) {
    let measured_mode = args.flag("--measured");
    let paper_months = [6.75, 10.35, 8.3, 0.76];
    let mut table = Table::new(
        "§3.2 re-encryption durations (months)",
        &[
            "archive",
            "size(PB)",
            "read(TB/day)",
            "read-only",
            "paper",
            "+write-back",
            "+reserved",
            "sim+ingest",
        ],
    );
    for (site, paper) in ArchiveSite::paper_examples().into_iter().zip(paper_months) {
        let est = ReencryptionModel::paper_assumptions(site.clone()).estimate();
        // Day-by-day simulation with ingest at 25% of write bandwidth.
        let sim = simulate_campaign(&site, site.write_tb_per_day * 0.25)
            .expect("25% ingest leaves bandwidth for migration");
        table.row(&[
            site.name.clone(),
            f2(site.capacity_tb / 1000.0),
            f2(site.read_tb_per_day),
            f2(est.read_only_months),
            f2(paper),
            f2(est.with_write_months),
            f2(est.realistic_months),
            f2(sim.days / DAYS_PER_MONTH),
        ]);
    }
    // The forward-looking exabyte archive.
    let exa = ArchiveSite::exabyte_archive();
    let est = ReencryptionModel::paper_assumptions(exa.clone()).estimate();
    table.row(&[
        exa.name.clone(),
        f2(exa.capacity_tb / 1000.0),
        f2(exa.read_tb_per_day),
        f2(est.read_only_months),
        "-".to_string(),
        f2(est.with_write_months),
        f2(est.realistic_months),
        "-".to_string(),
    ]);
    table.print();

    println!(
        "Paper's conclusion check: realistic exabyte-scale campaign = {:.1} YEARS\n",
        est.realistic_months / 12.0
    );

    // Live validation at laptop scale: re-encrypt a real in-memory
    // archive and confirm bytes-read ≈ bytes-stored (the model's premise).
    let mut archive = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 4,
            parity: 2,
        })
        .with_integrity(IntegrityMode::DigestOnly),
    )
    .expect("archive");
    let object_size = 64 * 1024;
    let objects = 32;
    for i in 0..objects {
        let payload = aeon_bench::reference_payload(object_size, i as u64);
        archive
            .ingest(&payload, &format!("obj-{i}"))
            .expect("ingest");
    }
    let stored_before = archive.stats().stored_bytes;
    let campaign = archive
        .reencode_all(PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 4,
            parity: 2,
        })
        .expect("campaign");
    let read = campaign.bytes_read;
    println!(
        "Live campaign: {} objects, read {read} B, wrote {} B",
        campaign.objects_done, campaign.bytes_written
    );
    println!(
        "  model premise check: bytes-read / bytes-stored = {:.3} (expect ~1.0)",
        read as f64 / stored_before as f64
    );
    assert!((read as f64 / stored_before as f64 - 1.0).abs() < 0.05);
    // Every object still retrievable under the new policy.
    let ids: Vec<_> = archive.manifests().map(|m| m.id.clone()).collect();
    for id in ids {
        archive.retrieve(&id).expect("retrievable after campaign");
    }
    println!("  all {objects} objects verified retrievable after migration");

    if measured_mode {
        run_measured();
    }
}

/// `--measured`: runs a scaled-down §3.2 campaign *live* under the
/// virtual clock for each paper site, extrapolates to site scale, and
/// cross-checks the result against the closed-form model. Emits the
/// four site estimates as `BENCH_reencrypt.json`.
fn run_measured() {
    let paper_months = [6.75, 10.35, 8.3, 0.76];
    let mut table = Table::new(
        "§3.2 measured campaigns (SimClock, extrapolated months)",
        &[
            "archive",
            "read-only",
            "closed-form",
            "paper",
            "+write-back",
            "realistic",
            "agreement",
        ],
    );
    let mut site_entries: Vec<Json> = Vec::new();
    for (site, paper) in ArchiveSite::paper_examples().into_iter().zip(paper_months) {
        let closed = ReencryptionModel::paper_assumptions(site.clone()).estimate();
        let (est, campaign_objects) = measure_site(&site, 1);
        let agreement =
            (est.read_only_months - closed.read_only_months).abs() / closed.read_only_months;
        assert!(
            agreement < AGREEMENT_BOUND,
            "{}: measured {:.4} vs closed-form {:.4} months diverge past {:.0}%",
            site.name,
            est.read_only_months,
            closed.read_only_months,
            AGREEMENT_BOUND * 100.0
        );
        table.row(&[
            site.name.clone(),
            f2(est.read_only_months),
            f2(closed.read_only_months),
            f2(paper),
            f2(est.with_write_months),
            f2(est.realistic_months),
            format!("{:.2}%", agreement * 100.0),
        ]);
        site_entries.push(Json::Obj(vec![
            ("name".into(), Json::Str(site.name.clone())),
            ("capacity_tb".into(), Json::Num(site.capacity_tb)),
            (
                "objects_measured".into(),
                Json::Num(campaign_objects as f64),
            ),
            ("read_only_months".into(), Json::Num(est.read_only_months)),
            ("with_write_months".into(), Json::Num(est.with_write_months)),
            ("realistic_months".into(), Json::Num(est.realistic_months)),
            (
                "closed_form_read_only_months".into(),
                Json::Num(closed.read_only_months),
            ),
            ("paper_read_only_months".into(), Json::Num(paper)),
            ("agreement".into(), Json::Num(agreement)),
        ]));
    }
    table.print();
    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("reencrypt_measured".into())),
        ("seed".into(), Json::Num(1.0)),
        ("reserved_fraction".into(), Json::Num(0.5)),
        ("agreement_bound".into(), Json::Num(AGREEMENT_BOUND)),
        ("sites".into(), Json::Arr(site_entries)),
    ]);
    artifact.write_artifact("BENCH_reencrypt.json", "measured estimates written to");
    println!(
        "All four sites: measured campaign agrees with the closed form within {:.0}%",
        AGREEMENT_BOUND * 100.0
    );
}

/// Runs one site's scaled-down live campaign and extrapolates to the
/// site's full capacity. Returns the estimate and the object count.
fn measure_site(
    site: &ArchiveSite,
    seed: u64,
) -> (aeon_store::campaign::ReencryptionEstimate, usize) {
    let profile = ThroughputProfile::from_site_aggregate(site);
    let (cluster, _clock) =
        throughput_in_memory_cluster(&["s0", "s1", "s2", "s3", "s4", "s5"], 1, &profile);
    let config = ArchiveConfig::new(PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 4,
        parity: 2,
    })
    .with_integrity(IntegrityMode::DigestOnly);
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    let objects = 16;
    for i in 0..objects {
        let payload = aeon_bench::reference_payload(64 * 1024, seed.wrapping_add(i as u64));
        archive
            .ingest(&payload, &format!("measured-{i}"))
            .expect("ingest");
    }
    let op = CampaignOp::Reencode(PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
        data: 4,
        parity: 2,
    });
    let campaign = Campaign::new(&archive, op, 0.5)
        .run(&mut archive, u64::MAX)
        .expect("measured campaign");
    (
        campaign.extrapolate(site.capacity_tb * 1e12),
        campaign.objects_done,
    )
}
