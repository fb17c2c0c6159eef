//! E-dedup — content-defined dedup vs the §3.2 maintenance bill.
//!
//! The paper's central arithmetic is that campaign time scales with
//! *stored* bytes. Content-addressed dedup attacks exactly that factor:
//! a block shared by many objects is read and re-encoded once per
//! campaign, not once per object. This experiment builds three corpus
//! models with very different sharing profiles — versioned snapshots,
//! packages linking shared libraries, and an append-only log snapshotted
//! over time — ingests each into twin archives (dedup on / dedup off)
//! over identical throughput-charged clusters, runs the same re-encode
//! campaign on both under the virtual clock, and checks the measured
//! law:
//!
//! ```text
//! campaign_time(dedup) ≈ campaign_time(plain) × (stored_dedup / stored_plain)
//! ```
//!
//! The run asserts the two sides agree within 10%; the residual is the
//! Merkle-tree block overhead plus per-block rounding, both of which the
//! table reports. Results land in `BENCH_dedup.json`.

use aeon_bench::{f2, f3, CliArgs, Json, Table};
use aeon_cas::ChunkerParams;
use aeon_core::dedup::DedupConfig;
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, PolicyKind};
use aeon_crypto::{ChaChaDrbg, CryptoRng, SuiteId};
use aeon_store::clock::SimDuration;
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

/// A named set of (object name, payload) pairs.
type Corpus = Vec<(String, Vec<u8>)>;

/// Measured campaign-time ratio must sit within this bound of the
/// stored-bytes ratio.
const PROPORTIONALITY_BOUND: f64 = 0.10;

const SITES: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "s5"];

fn bench_chunker() -> ChunkerParams {
    ChunkerParams {
        min_size: 4 << 10,
        target_size: 16 << 10,
        max_size: 64 << 10,
        seed: 0xAE0_CD0,
    }
}

fn old_policy() -> PolicyKind {
    PolicyKind::Encrypted {
        suite: SuiteId::Aes256CtrHmac,
        data: 4,
        parity: 2,
    }
}

fn new_policy() -> PolicyKind {
    PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
        data: 4,
        parity: 2,
    }
}

fn rand_bytes(rng: &mut ChaChaDrbg, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Versioned snapshots: one ~256 KiB document, each version inserting a
/// few KiB at a random offset. Nearly everything is shared between
/// adjacent versions.
fn corpus_versions(rng: &mut ChaChaDrbg, versions: usize) -> Corpus {
    let mut doc = rand_bytes(rng, 256 << 10);
    let mut out = Vec::with_capacity(versions);
    for v in 0..versions {
        out.push((format!("doc-v{v}"), doc.clone()));
        let at = (rng.next_u64() as usize) % doc.len();
        let insert = rand_bytes(rng, 4 << 10);
        doc.splice(at..at, insert);
    }
    out
}

/// Shared libraries: each "package" links a random subset of a common
/// pool of library segments plus a slab of unique application code.
fn corpus_libraries(rng: &mut ChaChaDrbg, packages: usize) -> Corpus {
    let pool: Vec<Vec<u8>> = (0..8).map(|_| rand_bytes(rng, 48 << 10)).collect();
    let mut out = Vec::with_capacity(packages);
    for p in 0..packages {
        let mut bytes = Vec::new();
        for lib in &pool {
            if rng.next_u64().is_multiple_of(2) {
                bytes.extend_from_slice(lib);
            }
        }
        bytes.extend_from_slice(&rand_bytes(rng, 32 << 10));
        out.push((format!("pkg-{p}"), bytes));
    }
    out
}

/// Log-append: an ever-growing log snapshotted after each append burst;
/// snapshot `i` is a strict prefix of snapshot `i+1`.
fn corpus_log(rng: &mut ChaChaDrbg, snapshots: usize) -> Corpus {
    let mut log = Vec::new();
    let mut out = Vec::with_capacity(snapshots);
    for s in 0..snapshots {
        log.extend_from_slice(&rand_bytes(rng, 96 << 10));
        out.push((format!("log-snap{s}"), log.clone()));
    }
    out
}

struct CorpusRun {
    name: &'static str,
    logical_bytes: u64,
    plain_stored: u64,
    dedup_stored: u64,
    stored_ratio: f64,
    dedup_ratio: f64,
    plain_campaign_s: f64,
    dedup_campaign_s: f64,
    time_ratio: f64,
    deviation: f64,
}

fn build_archive(dedup: Option<DedupConfig>, seed: u64) -> Archive {
    let profile = ThroughputProfile::new(SimDuration::ZERO, 1e9, 1e9);
    let (cluster, _clock) = throughput_in_memory_cluster(&SITES, 1, &profile);
    let mut config = ArchiveConfig::new(old_policy())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_year(2030);
    config.rng_seed = seed;
    if let Some(d) = dedup {
        config = config.with_dedup(d);
    }
    Archive::with_cluster(config, cluster).expect("archive")
}

/// Ingests the corpus, runs the re-encode campaign, and returns
/// (stored bytes at campaign start, campaign virtual seconds).
fn run_campaign(archive: &mut Archive, corpus: &[(String, Vec<u8>)]) -> (u64, f64) {
    for (name, data) in corpus {
        archive.ingest(data, name).expect("ingest");
    }
    let stored = archive.stats().stored_bytes;
    let campaign = archive.reencode_all(new_policy()).expect("campaign");
    let elapsed = campaign.elapsed().as_secs_f64();
    // Campaign correctness: every object must survive the migration.
    let ids: Vec<_> = archive.manifests().map(|m| m.id.clone()).collect();
    for id in &ids {
        archive.retrieve(id).expect("retrievable after campaign");
    }
    (stored, elapsed)
}

fn run_corpus(name: &'static str, corpus: Corpus, chunker: ChunkerParams) -> CorpusRun {
    let logical_bytes: u64 = corpus.iter().map(|(_, d)| d.len() as u64).sum();
    let dedup_cfg = DedupConfig {
        chunker,
        fanout: 64,
    };

    let mut plain = build_archive(None, 0xD0_0D);
    let (plain_stored, plain_campaign_s) = run_campaign(&mut plain, &corpus);

    let mut dedup = build_archive(Some(dedup_cfg), 0xD0_0D);
    let (dedup_stored, dedup_campaign_s) = run_campaign(&mut dedup, &corpus);
    let stats = dedup.dedup_stats().expect("dedup stats");

    let stored_ratio = dedup_stored as f64 / plain_stored as f64;
    let time_ratio = dedup_campaign_s / plain_campaign_s;
    let deviation = (time_ratio - stored_ratio).abs() / stored_ratio;
    CorpusRun {
        name,
        logical_bytes,
        plain_stored,
        dedup_stored,
        stored_ratio,
        dedup_ratio: stats.dedup_ratio,
        plain_campaign_s,
        dedup_campaign_s,
        time_ratio,
        deviation,
    }
}

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let scale = if quick { 1 } else { 3 };
    let mut rng = ChaChaDrbg::from_u64_seed(0xDED0);

    let corpora: Vec<(&'static str, Corpus)> = vec![
        ("versions", corpus_versions(&mut rng, 4 * scale)),
        ("libraries", corpus_libraries(&mut rng, 6 * scale)),
        ("log-append", corpus_log(&mut rng, 4 * scale)),
    ];

    let mut table = Table::new(
        "dedup ratio x §3.2 campaign time (virtual clock)",
        &[
            "corpus",
            "logical(KiB)",
            "stored plain(KiB)",
            "stored dedup(KiB)",
            "stored ratio",
            "campaign plain(s)",
            "campaign dedup(s)",
            "time ratio",
            "deviation",
        ],
    );
    let mut entries: Vec<Json> = Vec::new();
    let chunker = bench_chunker();
    let mut worst = 0.0f64;
    for (name, corpus) in corpora {
        let run = run_corpus(name, corpus, chunker);
        assert!(
            run.deviation < PROPORTIONALITY_BOUND,
            "{}: campaign time ratio {:.3} strays {:.1}% from stored ratio {:.3} (bound {:.0}%)",
            run.name,
            run.time_ratio,
            run.deviation * 100.0,
            run.stored_ratio,
            PROPORTIONALITY_BOUND * 100.0
        );
        worst = worst.max(run.deviation);
        table.row(&[
            run.name.to_string(),
            f2(run.logical_bytes as f64 / 1024.0),
            f2(run.plain_stored as f64 / 1024.0),
            f2(run.dedup_stored as f64 / 1024.0),
            f3(run.stored_ratio),
            f3(run.plain_campaign_s),
            f3(run.dedup_campaign_s),
            f3(run.time_ratio),
            format!("{:.2}%", run.deviation * 100.0),
        ]);
        entries.push(Json::Obj(vec![
            ("corpus".into(), Json::Str(run.name.into())),
            ("logical_bytes".into(), Json::Num(run.logical_bytes as f64)),
            (
                "plain_stored_bytes".into(),
                Json::Num(run.plain_stored as f64),
            ),
            (
                "dedup_stored_bytes".into(),
                Json::Num(run.dedup_stored as f64),
            ),
            ("stored_ratio".into(), Json::Num(run.stored_ratio)),
            ("dedup_ratio_plaintext".into(), Json::Num(run.dedup_ratio)),
            ("plain_campaign_s".into(), Json::Num(run.plain_campaign_s)),
            ("dedup_campaign_s".into(), Json::Num(run.dedup_campaign_s)),
            ("time_ratio".into(), Json::Num(run.time_ratio)),
            ("deviation".into(), Json::Num(run.deviation)),
        ]));
    }
    table.print();
    println!(
        "Campaign time tracks stored bytes: worst deviation {:.2}% (bound {:.0}%)",
        worst * 100.0,
        PROPORTIONALITY_BOUND * 100.0
    );

    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("dedup".into())),
        ("seed".into(), Json::Num(0xDED0 as f64)),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        (
            "chunker".into(),
            Json::Obj(vec![
                ("min_size".into(), Json::Num(chunker.min_size as f64)),
                ("target_size".into(), Json::Num(chunker.target_size as f64)),
                ("max_size".into(), Json::Num(chunker.max_size as f64)),
            ]),
        ),
        (
            "proportionality_bound".into(),
            Json::Num(PROPORTIONALITY_BOUND),
        ),
        ("corpora".into(), Json::Arr(entries)),
    ]);
    artifact.write_artifact("BENCH_dedup.json", "results written to");
}
