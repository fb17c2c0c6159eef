//! Golden-vector compatibility suite: pins the exact bytes the encoding
//! stack produced *before* the Codec/Plan/Executor refactor, for all
//! nine policies, at three layers:
//!
//! 1. raw policy encode (one shard set per policy),
//! 2. the chunked pipeline (framed multi-chunk shards),
//! 3. a full `Archive::ingest` (manifest digests + placement).
//!
//! Every vector is a SHA-256 of the produced bytes, so any refactor that
//! perturbs shard bytes, framing, key derivation, DRBG consumption
//! order, or placement fails this suite bit-for-bit.
//!
//! Regenerate (only when an encoding change is *intended*) with:
//! `cargo test -p aeon-core --test golden -- --ignored --nocapture`

use aeon_core::keys::KeyStore;
use aeon_core::pipeline::{self, PipelineConfig};
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, PolicyKind};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256, SuiteId};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("replication", PolicyKind::Replication { copies: 3 }),
        ("erasure", PolicyKind::ErasureCoded { data: 4, parity: 2 }),
        (
            "encrypted",
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            },
        ),
        (
            "cascade",
            PolicyKind::Cascade {
                suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
                data: 4,
                parity: 2,
            },
        ),
        ("aont-rs", PolicyKind::AontRs { data: 4, parity: 2 }),
        (
            "shamir",
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
        ),
        (
            "packed",
            PolicyKind::PackedShamir {
                privacy: 2,
                pack: 2,
                shares: 6,
            },
        ),
        (
            "lrss",
            PolicyKind::LeakageResilientShamir {
                threshold: 3,
                shares: 5,
                source_len: 32,
            },
        ),
        ("entropic", PolicyKind::Entropic { data: 4, parity: 2 }),
    ]
}

/// High-entropy deterministic payload (keeps the entropic gate happy).
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    p
}

/// One digest summarizing a shard set: SHA-256 over each shard's
/// length-prefixed bytes, concatenated in shard order.
fn shard_set_digest(shards: &[Vec<u8>]) -> String {
    let mut h = Sha256::new();
    for s in shards {
        h.update(&(s.len() as u64).to_be_bytes());
        h.update(s);
    }
    hex(&h.finalize())
}

fn raw_encode_digest(policy: &PolicyKind) -> String {
    let mut rng = ChaChaDrbg::from_u64_seed(0x601D);
    let keys = KeyStore::new([7u8; 32]);
    let enc = policy
        .encode(&mut rng, &keys, "golden-object", &payload(96, 0xFACE))
        .unwrap();
    shard_set_digest(&enc.shards)
}

fn chunked_encode_digest(policy: &PolicyKind) -> String {
    let mut rng = ChaChaDrbg::from_u64_seed(0x601D);
    let keys = KeyStore::new([7u8; 32]);
    let cfg = PipelineConfig::serial().with_chunk_size(64);
    let enc = pipeline::encode_object(
        policy,
        &keys,
        &mut rng,
        "golden-chunked",
        &payload(300, 0xFACE),
        &cfg,
    )
    .unwrap();
    assert!(enc.meta.chunked.is_some(), "expected a multi-chunk object");
    shard_set_digest(&enc.shards)
}

/// Digest over everything an ingest persists: object id, payload digest
/// and shard digests (segment-tree roots both), and placement.
fn archive_ingest_digest(policy: &PolicyKind) -> String {
    let config = ArchiveConfig::new(policy.clone())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_pipeline(PipelineConfig::serial().with_chunk_size(128));
    let mut archive = Archive::in_memory(config).unwrap();
    let id = archive.ingest(&payload(300, 0xFACE), "golden-doc").unwrap();
    let m = archive.manifest(&id).unwrap();
    let mut h = Sha256::new();
    h.update(id.as_str().as_bytes());
    h.update(&m.digest);
    for d in &m.shard_digests {
        h.update(d);
    }
    for p in &m.placement {
        h.update(&p.0.to_be_bytes());
    }
    h.update(&(m.logical_len as u64).to_be_bytes());
    hex(&h.finalize())
}

/// Pre-refactor golden digests: (policy, raw encode, chunked encode,
/// archive ingest). Generated against commit 3b865ea (the last
/// pre-refactor tree) via `golden_generate`; the archive-ingest column
/// regenerated once when a shard digest became the root of a Merkle
/// tree over fixed segments, and once when the payload digest did
/// (stored bytes unchanged both times: the other two columns did not
/// move).
const GOLDEN: &[(&str, &str, &str, &str)] = &[
    (
        "replication",
        "bc64f054d56ce0aa6b0db03961c6a8c9643677b2a55093562b114d68f3e6d7a4",
        "054e9c5daaf14962e60720289feabce38d28b452269bce297ee2bea88241a889",
        "23f06ec65c1205be0c06a565485b38d8fa96d198ab0859d1e4514c78f421536c",
    ),
    (
        "erasure",
        "bcdf8c4e65dd46e6f076b35e5e541998069a09171856606e0718bbdb2cfecb82",
        "f35a9f8e06ad24dbfa2c0ed486a5816eb4bb618c2050ff804188d255da6f7559",
        "31cb9030f055c03aa8b383ccee672763e192e73a97bebd7595848ba8353f1c65",
    ),
    (
        "encrypted",
        "3668368da69536a58ebc3fb47140d1b4e2633d4d9c3a2800ba325e8d352a06d4",
        "4bd9562c1b4e3f3ac0b771e244837eae45753e586f17fcfd677704dde9617898",
        "a819a3bcc9ae5a344490f5dca4958a25c0f5027f41e689e07d3435b249d89d45",
    ),
    (
        "cascade",
        "c95c48f86d2b26b090c0771ce4ddf038ef7f9557972b713f751010213b557046",
        "9369ff5ddbf094240301542f5b62fd79a3e92133740010bfd418155978f2185e",
        "c8e763a57a1bc107658cf2cacdd66ba0daad1d03f48017e40fd0157e9209af3f",
    ),
    (
        "aont-rs",
        "73c0b8b990c925162f97199230d358b33785f789a7575dddac42ad922d7ca8ab",
        "57e30a42224d1f8616916ede91084d3460e884590e4bb9242404c90177a8c8a7",
        "d2a27cd9cc29664fd1f99fd857e7bac5e423403ab81158a9860b07708aaacd60",
    ),
    (
        "shamir",
        "378e4824fc5405c98697f3c66cd75c2938e3bc3fb736574fff430cf2e7bda1c9",
        "98f2d81a6c2590f1fd1fff7e69a88cc6b8e2090732d609b7168f7fefc3c7a3f2",
        "e3e69439c9d94668a674d9ef8e7ee73d3574c889ce172d8affb11d734eb676fd",
    ),
    (
        "packed",
        "b48f588d03ecbaa50ef7c6318d1983e635c815172707dcf3feba633b31efa5b6",
        "9ef2643b31143b10cf95ed54b0a23473809f544df6965e725bd9223073281104",
        "5f4f3e82cad8cdb1b1ced2bf0a2960755837a6cea81b9444a0d01e56744ff687",
    ),
    (
        "lrss",
        "128c3766bbbc0df0406d948b193ab63eb66475da8c8b84adb250ad27fab5c004",
        "4b1c94030ecf65d9cb04e4bdb5bc9145bdd7f7fa3958f937f0142b85271d601a",
        "e6a84d2488b944c4707f1648925da3eb6f47c2f337059bcd279ba7ac73bbefee",
    ),
    (
        "entropic",
        "a8f04617a7199efdc4fb8ba5fe645c11edf6998a2487875267c0859dc157f3d0",
        "43d5e90a24e6504b2ef053a4133e5bae3e6ef171f8ab220e177716c33635417f",
        "1992f1c7859326e716ecfb043de6412357a470bbbe181b35d7d6a38a6f9c6c63",
    ),
];

#[test]
#[ignore = "generator: prints fresh golden vectors"]
fn golden_generate() {
    for (name, policy) in policies() {
        println!(
            "    (\"{name}\", \"{}\", \"{}\", \"{}\"),",
            raw_encode_digest(&policy),
            chunked_encode_digest(&policy),
            archive_ingest_digest(&policy),
        );
    }
}

#[test]
fn golden_vectors_reproduce_bit_for_bit() {
    assert_eq!(GOLDEN.len(), 9, "one golden row per policy");
    for (name, policy) in policies() {
        let row = GOLDEN
            .iter()
            .find(|(n, _, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden row for {name}"));
        assert_eq!(
            raw_encode_digest(&policy),
            row.1,
            "{name}: raw encode drifted"
        );
        assert_eq!(
            chunked_encode_digest(&policy),
            row.2,
            "{name}: chunked pipeline drifted"
        );
        assert_eq!(
            archive_ingest_digest(&policy),
            row.3,
            "{name}: archive ingest drifted"
        );
    }
}
