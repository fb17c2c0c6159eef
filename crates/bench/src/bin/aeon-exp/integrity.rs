//! E10 — §3.3: timestamp chains survive signature breaks; Pedersen
//! anchors keep them hiding.
//!
//! Demonstrates the paper's integrity story end to end: a document
//! timestamped in 2026 under scheme v1, renewed in 2044 under v2 (before
//! v1's 2045 break), verifies in 2080 back to 2026; an un-renewed chain
//! and a late-renewed chain both fail. Then compares hash vs Pedersen
//! anchoring for long-term confidentiality of the timestamped content,
//! and measures what aggregation buys: one authority signature per flush
//! of chains, not per chain (ELSA-style; `BENCH_integrity.json`).

use aeon_bench::{f2, CliArgs, Json, Table};
use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::timestamp::{
    AnchorMode, ChainInvalid, DocumentChain, SigBreakSchedule, TimestampAuthority,
};
use aeon_num::pedersen::Committer;
use aeon_num::ModpGroup;

pub fn run(_: &CliArgs) {
    let mut rng = ChaChaDrbg::from_u64_seed(0x1216);
    let committer = Committer::new(ModpGroup::rfc3526_2048());
    let mut schedule = SigBreakSchedule::new();
    schedule.set_break("wots-v1", 2045);
    schedule.set_break("wots-v2", 2090);

    let document = b"land deed, recorded 2026";

    // Chain A: renewed on time (2044, before v1's 2045 break).
    let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 4);
    let mut chain_a = DocumentChain::create(
        &mut rng,
        &mut tsa,
        &committer,
        AnchorMode::HashDigest,
        document,
    )
    .expect("create");
    tsa.advance_to(2044);
    tsa.rotate(&mut rng, "wots-v2", 4);
    chain_a.renew(&mut tsa).expect("renew");

    // Chain B: never renewed.
    let mut tsa_b = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 4);
    let chain_b = DocumentChain::create(
        &mut rng,
        &mut tsa_b,
        &committer,
        AnchorMode::HashDigest,
        document,
    )
    .expect("create");

    // Chain C: renewed too late (2050, after the break).
    let mut tsa_c = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 4);
    let mut chain_c = DocumentChain::create(
        &mut rng,
        &mut tsa_c,
        &committer,
        AnchorMode::HashDigest,
        document,
    )
    .expect("create");
    tsa_c.advance_to(2050);
    tsa_c.rotate(&mut rng, "wots-v2", 4);
    chain_c.renew(&mut tsa_c).expect("renew");

    let verdict = |chain: &DocumentChain, year: u32| match chain.verify(&schedule, year) {
        Ok(origin) => format!("valid (proves {origin})"),
        Err(ChainInvalid::HeadBroken) => "INVALID: head scheme broken".to_string(),
        Err(ChainInvalid::RenewedTooLate { link }) => {
            format!("INVALID: link {link} renewed after break")
        }
        Err(e) => format!("INVALID: {e}"),
    };

    let mut table = Table::new(
        "Timestamp chains across the 2045 break of wots-v1",
        &["chain", "2040", "2060", "2080"],
    );
    for (name, chain) in [
        ("renewed 2044 (on time)", &chain_a),
        ("never renewed", &chain_b),
        ("renewed 2050 (late)", &chain_c),
    ] {
        table.row(&[
            name.to_string(),
            verdict(chain, 2040),
            verdict(chain, 2060),
            verdict(chain, 2080),
        ]);
    }
    table.print();

    // Confidentiality of the anchor: hash mode is dictionary-attackable
    // by an unbounded adversary; Pedersen mode is statistically hiding.
    let mut tsa_d = TimestampAuthority::new(&mut rng, "wots-v2", 2026, 4);
    let hash_chain = DocumentChain::create(
        &mut rng,
        &mut tsa_d,
        &committer,
        AnchorMode::HashDigest,
        b"patient record: diagnosis X",
    )
    .expect("create");
    let pedersen_chain = DocumentChain::create(
        &mut rng,
        &mut tsa_d,
        &committer,
        AnchorMode::PedersenHiding,
        b"patient record: diagnosis X",
    )
    .expect("create");

    // The dictionary attack: an adversary guessing candidate documents.
    let candidates: [&[u8]; 3] = [
        b"patient record: diagnosis X",
        b"patient record: diagnosis Y",
        b"something else entirely",
    ];
    let hash_hit = candidates
        .iter()
        .any(|c| aeon_crypto::Sha256::digest(c).as_ref() == hash_chain.anchor());
    // Against Pedersen, every candidate is consistent with the anchor for
    // SOME blinding, so the dictionary attack learns nothing; concretely
    // the anchor never equals any candidate-derived value.
    let pedersen_hit = candidates
        .iter()
        .any(|c| aeon_crypto::Sha256::digest(c).as_ref() == pedersen_chain.anchor());
    println!("Dictionary attack on the published anchor:");
    println!("  hash anchor identified the document: {hash_hit}");
    println!("  Pedersen anchor identified the document: {pedersen_hit}");
    assert!(hash_hit && !pedersen_hit);
    println!("\nExpected shape (paper/LINCOS): chains renewed before each break");
    println!("keep proving the original year forever; hash anchors leak content");
    println!("to future adversaries, Pedersen anchors never do.");

    aggregation(&mut rng, &committer);
}

/// Height of the authority key the archive uses: 64 signatures a key.
const KEY_HEIGHT: usize = 6;
const KEY_SIGNATURES: usize = 1 << KEY_HEIGHT;

/// Spends one whole authority key inside the timer — its generation
/// and all 64 signatures, one per call of `one_flush` — and returns
/// microseconds per object, all-in: (key + 64 signatures + 64·`flush`
/// links) / (64·`flush` objects).
fn spend_key(
    rng: &mut ChaChaDrbg,
    flush: usize,
    mut one_flush: impl FnMut(&mut ChaChaDrbg, &mut TimestampAuthority),
) -> f64 {
    let start = std::time::Instant::now();
    let mut tsa = TimestampAuthority::new(rng, "wots-v1", 2026, KEY_HEIGHT);
    for _ in 0..KEY_SIGNATURES {
        let before = tsa.remaining();
        one_flush(rng, &mut tsa);
        assert_eq!(before - tsa.remaining(), 1, "one signature per flush");
    }
    assert_eq!(tsa.remaining(), 0);
    start.elapsed().as_secs_f64() * 1e6 / (KEY_SIGNATURES * flush) as f64
}

/// What one link costs when `flush` chains share a token.
fn aggregation(rng: &mut ChaChaDrbg, committer: &Committer) {
    let digests: Vec<[u8; 32]> = (0..512u32)
        .map(|i| Sha256::digest(&i.to_be_bytes()))
        .collect();
    let create = |rng: &mut ChaChaDrbg, tsa: &mut TimestampAuthority, digests: &[[u8; 32]]| {
        DocumentChain::create_many(rng, tsa, committer, AnchorMode::HashDigest, digests)
            .expect("create")
    };

    println!();
    let mut table = Table::new(
        "Timestamp aggregation: one authority signature per flush (height-6 key, 64 signatures)",
        &[
            "flush size",
            "objects per key",
            "signatures per 512 objects",
            "create us/object",
            "renew us/object",
        ],
    );
    let mut cells = Vec::new();
    let mut costs = std::collections::BTreeMap::new();
    for flush in [1usize, 8, 32, 128, 512] {
        let create_us = spend_key(rng, flush, |rng, tsa| {
            create(rng, tsa, &digests[..flush]);
        });
        let mut founder = TimestampAuthority::new(rng, "wots-v1", 2026, 0);
        let mut chains = create(rng, &mut founder, &digests[..flush]);
        let renew_us = spend_key(rng, flush, |_, tsa| {
            DocumentChain::renew_many(&mut chains, tsa).expect("renew");
        });
        let schedule = SigBreakSchedule::new();
        assert!(chains
            .iter()
            .all(|c| c.len() == 1 + KEY_SIGNATURES && c.verify(&schedule, 2026).is_ok()));
        let per_512 = 512 / flush;
        table.row(&[
            flush.to_string(),
            (KEY_SIGNATURES * flush).to_string(),
            per_512.to_string(),
            f2(create_us),
            f2(renew_us),
        ]);
        cells.push(Json::Obj(vec![
            ("flush".into(), Json::Num(flush as f64)),
            (
                "objects_per_key".into(),
                Json::Num((KEY_SIGNATURES * flush) as f64),
            ),
            ("signatures_per_512".into(), Json::Num(per_512 as f64)),
            ("create_us_per_object".into(), Json::Num(create_us)),
            ("renew_us_per_object".into(), Json::Num(renew_us)),
        ]));
        costs.insert(flush, (create_us, renew_us));
    }
    table.print();

    // The century-scale sweep: every chain of a 512-object archive,
    // created in sixteen flushes, renewed under one token.
    let mut tsa = TimestampAuthority::new(rng, "wots-v1", 2026, KEY_HEIGHT);
    let mut archive: Vec<DocumentChain> = digests
        .chunks(32)
        .flat_map(|flush| create(rng, &mut tsa, flush))
        .collect();
    tsa.advance_to(2044);
    tsa.rotate(rng, "wots-v2", KEY_HEIGHT);
    DocumentChain::renew_many(&mut archive, &mut tsa).expect("renew");
    let sweep_signatures = KEY_SIGNATURES - tsa.remaining();
    let mut schedule = SigBreakSchedule::new();
    schedule.set_break("wots-v1", 2045);
    assert!(archive
        .iter()
        .all(|c| c.verify(&schedule, 2080) == Ok(2026)));
    println!("Whole-archive renewal, 512 objects: {sweep_signatures} authority signature(s)");
    assert_eq!(sweep_signatures, 1);

    let (one, thirty_two) = (costs[&1], costs[&32]);
    assert!(
        thirty_two.0 <= one.0 / 3.0 && thirty_two.1 <= one.1 / 3.0,
        "a flush of 32 must cost at most a third per object: {one:?} -> {thirty_two:?}"
    );
    println!("\nExpected shape (ELSA): a timestamp over a commitment to many items");
    println!("costs one signature however many items it covers; each item pays one");
    println!("inclusion path, so per-object cost falls with the flush size.");

    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("e10_integrity".into())),
        ("key_height".into(), Json::Num(KEY_HEIGHT as f64)),
        ("cells".into(), Json::Arr(cells)),
        (
            "whole_archive_renewal".into(),
            Json::Obj(vec![
                ("objects".into(), Json::Num(archive.len() as f64)),
                ("signatures".into(), Json::Num(sweep_signatures as f64)),
            ]),
        ),
    ]);
    json.write_artifact("BENCH_integrity.json", "wrote");
}
