//! Cross-crate property tests: every policy, arbitrary payloads,
//! arbitrary loss patterns.

use aeon::core::keys::KeyStore;
use aeon::core::pipeline::{self, PipelineConfig};
use aeon::core::{plan, Archive, ArchiveConfig, IntegrityMode, Manifest, PolicyKind};
use aeon::crypto::{ChaChaDrbg, SuiteId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        (1usize..5).prop_map(|copies| PolicyKind::Replication { copies }),
        (1usize..6, 1usize..4).prop_map(|(data, parity)| PolicyKind::ErasureCoded { data, parity }),
        (1usize..6, 1usize..4).prop_map(|(data, parity)| PolicyKind::Encrypted {
            suite: SuiteId::ChaCha20Poly1305,
            data,
            parity
        }),
        (1usize..5, 1usize..3, 1usize..3).prop_map(|(data, parity, depth)| {
            let suites = [SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305];
            PolicyKind::Cascade {
                suites: suites[..depth].to_vec(),
                data,
                parity,
            }
        }),
        (1usize..5, 1usize..3).prop_map(|(data, parity)| PolicyKind::AontRs { data, parity }),
        (1usize..5, 0usize..4).prop_map(|(t, extra)| PolicyKind::Shamir {
            threshold: t,
            shares: t + extra
        }),
        (1usize..4, 1usize..4, 0usize..4).prop_map(|(privacy, pack, extra)| {
            PolicyKind::PackedShamir {
                privacy,
                pack,
                shares: privacy + pack + extra,
            }
        }),
        (1usize..4, 0usize..3, 8usize..64).prop_map(|(t, extra, source_len)| {
            PolicyKind::LeakageResilientShamir {
                threshold: t,
                shares: t + extra,
                source_len,
            }
        }),
        (1usize..5, 1usize..3).prop_map(|(data, parity)| PolicyKind::Entropic { data, parity }),
    ]
}

/// One hostile edit of a shard set: `(kind, slot, arg)`, applied by
/// [`mutate`]. Out-of-range slots wrap.
fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..11, 0usize..16, 0usize..1 << 20), 1..5)
}

fn mutate(shards: &mut Vec<Option<Vec<u8>>>, (kind, slot, arg): (u8, usize, usize)) {
    if shards.is_empty() {
        return;
    }
    let slot = slot % shards.len();
    match (kind, &mut shards[slot]) {
        (0, Some(blob)) => blob.truncate(arg % (blob.len() + 1)),
        (1, Some(blob)) => blob.clear(),
        (2, Some(blob)) => blob.resize(blob.len() + arg % 7 + 1, 0xA5),
        // One byte short: an odd-length packed share, a ragged RS row.
        (3, Some(blob)) => drop(blob.pop()),
        // A garbled length prefix (LRSS), a bit-rotted header elsewhere.
        (4, Some(blob)) => {
            for (b, g) in blob
                .iter_mut()
                .zip((arg as u32 ^ 0xFFFF_0000).to_be_bytes())
            {
                *b = g;
            }
        }
        (5, Some(blob)) if !blob.is_empty() => {
            let at = arg % blob.len();
            blob[at] ^= 0x80;
        }
        // Well-framed, wrongly cut: the same bytes as three length-prefixed
        // fields (the LRSS share layout) of arbitrary lengths.
        (6, Some(blob)) => {
            let body = blob.split_off(blob.len().min(12));
            let first = arg % (body.len() + 1);
            let second = (arg >> 10) % (body.len() - first + 1);
            blob.clear();
            for field in [
                &body[..first],
                &body[first..first + second],
                &body[first + second..],
            ] {
                blob.extend((field.len() as u32).to_be_bytes());
                blob.extend(field);
            }
        }
        // Too few slots, too many slots (a few, or more than there are
        // share indices), a lost slot.
        (7, _) => drop(shards.remove(slot)),
        (8, _) => shards.push(shards[slot].clone()),
        (9, _) => shards.resize(shards.len() + 250, None),
        _ => shards[slot] = None,
    }
}

/// A manifest saying `policy` / `meta`. `ObjectId` has no public
/// constructor, so the id is borrowed from a one-byte archive.
fn manifest_of(policy: &PolicyKind, meta: &aeon::core::EncodingMeta) -> Manifest {
    static BORROWED: OnceLock<Manifest> = OnceLock::new();
    let borrowed = BORROWED.get_or_init(|| {
        let config = ArchiveConfig::new(PolicyKind::Replication { copies: 1 })
            .with_integrity(IntegrityMode::DigestOnly);
        let mut archive = Archive::in_memory(config).unwrap();
        let id = archive.ingest(b"x", "id-donor").unwrap();
        archive.manifest(&id).unwrap()
    });
    Manifest {
        policy: policy.clone(),
        meta: meta.clone(),
        ..borrowed.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid policy round-trips any payload through encode/decode.
    #[test]
    fn policy_roundtrip(policy in arb_policy(),
                        payload in prop::collection::vec(any::<u8>(), 0..2048),
                        seed in any::<u64>()) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let enc = policy.encode(&mut rng, &keys, "prop-object", &payload).unwrap();
        prop_assert_eq!(enc.shards.len(), policy.shard_count());
        let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let dec = policy.decode(&keys, "prop-object", &shards, &enc.meta).unwrap();
        prop_assert_eq!(dec, payload);
    }

    /// Decoding succeeds with any loss pattern that keeps >= threshold
    /// shards, chosen pseudo-randomly.
    #[test]
    fn policy_survives_random_loss(policy in arb_policy(),
                                   payload in prop::collection::vec(any::<u8>(), 1..512),
                                   seed in any::<u64>()) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let enc = policy.encode(&mut rng, &keys, "loss-object", &payload).unwrap();
        let n = policy.shard_count();
        let t = policy.read_threshold();
        // Drop a pseudo-random set of n - t shards.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        for &idx in order.iter().take(n - t) {
            shards[idx] = None;
        }
        let dec = policy.decode(&keys, "loss-object", &shards, &enc.meta).unwrap();
        prop_assert_eq!(dec, payload);
    }

    /// Encode never panics on pathological payload sizes.
    #[test]
    fn policy_handles_tiny_and_empty(policy in arb_policy(), len in 0usize..4) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(1);
        let payload = vec![0xA5u8; len];
        let enc = policy.encode(&mut rng, &keys, "tiny", &payload).unwrap();
        let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let dec = policy.decode(&keys, "tiny", &shards, &enc.meta).unwrap();
        prop_assert_eq!(dec, payload);
    }

    /// The parallel chunked pipeline and the serial path produce
    /// byte-identical archives and round-trip identically, for every
    /// policy: (a) multi-chunk encodes are invariant under worker count,
    /// and (b) single-chunk payloads match the legacy whole-buffer
    /// `PolicyKind::encode` bit for bit.
    #[test]
    fn chunked_parallel_matches_serial(policy in arb_policy(),
                                       payload in prop::collection::vec(any::<u8>(), 0..3072),
                                       seed in any::<u64>()) {
        let keys = KeyStore::new([9u8; 32]);

        // (a) Same RNG state, same chunking, different worker counts.
        let chunked = PipelineConfig::serial().with_chunk_size(257);
        let mut rng_serial = ChaChaDrbg::from_u64_seed(seed);
        let mut rng_parallel = ChaChaDrbg::from_u64_seed(seed);
        let serial = pipeline::encode_object(
            &policy, &keys, &mut rng_serial, "eq-object", &payload,
            &chunked.clone().with_workers(1)).unwrap();
        let parallel = pipeline::encode_object(
            &policy, &keys, &mut rng_parallel, "eq-object", &payload,
            &chunked.with_workers(4)).unwrap();
        prop_assert_eq!(&serial.shards, &parallel.shards);
        prop_assert_eq!(&serial.meta, &parallel.meta);
        let shards: Vec<Option<Vec<u8>>> =
            parallel.shards.iter().cloned().map(Some).collect();
        let dec = pipeline::decode_object(
            &policy, &keys, "eq-object", &shards, &parallel.meta, 4).unwrap();
        prop_assert_eq!(&dec, &payload);

        // (b) A chunk size >= the payload bypasses framing entirely and
        // matches the legacy path byte for byte.
        let whole = PipelineConfig::serial().with_chunk_size(payload.len().max(1));
        let mut rng_legacy = ChaChaDrbg::from_u64_seed(seed);
        let mut rng_piped = ChaChaDrbg::from_u64_seed(seed);
        let legacy = policy.encode(&mut rng_legacy, &keys, "eq-object", &payload).unwrap();
        let piped = pipeline::encode_object(
            &policy, &keys, &mut rng_piped, "eq-object", &payload, &whole).unwrap();
        prop_assert_eq!(&legacy.shards, &piped.shards);
        prop_assert!(piped.meta.chunked.is_none());
    }

    /// Chunked objects survive the same loss patterns the policy
    /// guarantees for whole-buffer encodes.
    #[test]
    fn chunked_survives_random_loss(policy in arb_policy(),
                                    payload in prop::collection::vec(any::<u8>(), 600..2048),
                                    seed in any::<u64>()) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let cfg = PipelineConfig::serial().with_chunk_size(199).with_workers(2);
        let enc = pipeline::encode_object(
            &policy, &keys, &mut rng, "chunk-loss", &payload, &cfg).unwrap();
        let n = policy.shard_count();
        let t = policy.read_threshold();
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        for &idx in order.iter().take(n - t) {
            shards[idx] = None;
        }
        let dec = pipeline::decode_object(
            &policy, &keys, "chunk-loss", &shards, &enc.meta, 2).unwrap();
        prop_assert_eq!(dec, payload);
    }

    /// Stored bytes match the policy's analytic expansion (within framing
    /// overhead) for large payloads.
    #[test]
    fn measured_expansion_tracks_analytic(policy in arb_policy(), seed in any::<u64>()) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let payload = vec![0x5Au8; 64 * 1024];
        let enc = policy.encode(&mut rng, &keys, "sized", &payload).unwrap();
        let stored: usize = enc.shards.iter().map(|s| s.len()).sum();
        let measured = stored as f64 / payload.len() as f64;
        let analytic = policy.expansion();
        // LRSS's analytic figure is the large-object limit; give all
        // policies 15% headroom for headers, padding, and AEAD tags.
        prop_assert!(
            (measured - analytic).abs() / analytic < 0.15,
            "policy {:?}: measured {measured:.3} vs analytic {analytic:.3}",
            policy
        );
    }

    /// Shard sets are untrusted bytes: whatever was truncated, emptied,
    /// extended, garbled, dropped or duplicated, decode (gather, then
    /// open) and the repair planner (`repair_chunk` per chunk) answer
    /// with bytes or a typed error — never a panic. Whole-buffer and
    /// framed layouts both.
    #[test]
    fn hostile_shard_sets_never_panic(policy in arb_policy(),
                                      payload in prop::collection::vec(any::<u8>(), 0..700),
                                      seed in any::<u64>(),
                                      chunked in any::<bool>(),
                                      mutations in arb_mutations()) {
        let keys = KeyStore::new([9u8; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let chunk_size = if chunked { 199 } else { 1 << 20 };
        let cfg = PipelineConfig::serial().with_chunk_size(chunk_size);
        let enc = pipeline::encode_object(
            &policy, &keys, &mut rng, "hostile", &payload, &cfg).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.into_iter().map(Some).collect();
        for m in mutations {
            mutate(&mut shards, m);
        }
        let _ = pipeline::decode_object(&policy, &keys, "hostile", &shards, &enc.meta, 1);
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        let _ = plan::plan_repair(&manifest_of(&policy, &enc.meta), &shards, &missing);
    }
}
