//! Known answers and cross-tier parity for the crypto kernels, in one
//! place, run on every kernel the host supports.
//!
//! Three layers, each over [`Kernel::supported`]:
//!
//! 1. the published vectors (FIPS 180-4, RFC 4231, RFC 5869, FIPS 197,
//!    SP 800-38A, RFC 8439), recomputed here on *that tier's* slot
//!    function — SHA-256 padding, HMAC, HKDF and the ChaCha20-Poly1305
//!    construction are rebuilt by hand over `sha256_blocks` /
//!    `chacha20_xor`, so a vector passes only if the tier's function is
//!    right; the ChaCha20 vectors are short, so each is also placed at
//!    every lane of a longer call, which is what reaches a wide tier;
//! 2. tier against the scalar oracle, bit for bit, on ragged lengths,
//!    unaligned source offsets, `update` splits and every way a block
//!    counter can wrap;
//! 3. the same over random data, keys and IVs.
//!
//! CI runs the file twice, under `AEON_FORCE_KERNEL=scalar` and under
//! auto-detection, which also moves the library entry points
//! (`Sha256`, `hmac_sha256`, `hkdf`, `Aes::apply_ctr`,
//! `ChaCha20::apply_keystream`, `ChaCha20Poly1305`) between tiers.

use aeon_crypto::aead::{Aead, ChaCha20Poly1305};
use aeon_crypto::aes::Aes;
use aeon_crypto::chacha::ChaCha20;
use aeon_crypto::hkdf;
use aeon_crypto::hmac::hmac_sha256;
use aeon_crypto::kernel::{Kernel, Tier};
use aeon_crypto::poly1305::Poly1305;
use aeon_crypto::sha2::to_hex;
use aeon_crypto::sig::MerkleSigner;
use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::merkle::{MerkleProof, MerkleTree};
use proptest::prelude::*;

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Source offsets into an over-allocated buffer: every alignment of a
/// 16-byte vector load.
const OFFSETS: std::ops::Range<usize> = 0..16;

/// Deterministic filler (not a keystream: just distinct bytes).
fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt) >> 11) as u8)
        .collect()
}

/// The one long input: 1 MiB and a ragged tail.
const LONG: usize = (1 << 20) + 17;

/// Ragged lengths across one-, two- and many-block messages and both
/// sides of every 16/64/128-byte boundary, plus the long input.
fn ragged_lengths() -> impl Iterator<Item = usize> {
    (0..=300).chain([LONG])
}

/// SHA-256 of `msg` computed on `kernel`'s block function alone: the
/// message is padded by hand (FIPS 180-4 §5.1.1) at byte `offset` of a
/// larger buffer, so the blocks the kernel reads start unaligned.
fn sha256_on(kernel: &Kernel, msg: &[u8], offset: usize) -> [u8; 32] {
    let mut buf = vec![0xA5u8; offset];
    buf.extend_from_slice(msg);
    buf.push(0x80);
    while (buf.len() - offset) % 64 != 56 {
        buf.push(0);
    }
    buf.extend_from_slice(&(8 * msg.len() as u64).to_be_bytes());
    let mut state = H0;
    kernel.sha256_blocks(&mut state, &buf[offset..]);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// HMAC-SHA-256 (RFC 2104) over `sha256_on`.
fn hmac_on(kernel: &Kernel, key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256_on(kernel, key, 0));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let keyed = |pad: u8, rest: &[u8]| {
        let mut input: Vec<u8> = block.iter().map(|b| b ^ pad).collect();
        input.extend_from_slice(rest);
        sha256_on(kernel, &input, 0)
    };
    keyed(0x5c, &keyed(0x36, msg))
}

/// HKDF extract-then-expand (RFC 5869) over `hmac_on`.
fn hkdf_on(kernel: &Kernel, salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hmac_on(kernel, salt, ikm);
    let mut okm = Vec::new();
    let mut t: Vec<u8> = Vec::new();
    for counter in 1..=u8::MAX {
        if okm.len() >= len {
            break;
        }
        t.extend_from_slice(info);
        t.push(counter);
        t = hmac_on(kernel, &prk, &t).to_vec();
        okm.extend_from_slice(&t);
    }
    okm.truncate(len);
    okm
}

/// `kernel`'s CTR keystream XORed into `data`, the data placed at byte
/// `offset` of a larger buffer.
fn ctr_on(kernel: &Kernel, aes: &Aes, iv: &[u8; 16], data: &[u8], offset: usize) -> Vec<u8> {
    let mut buf = vec![0xA5u8; offset];
    buf.extend_from_slice(data);
    kernel.aes_ctr(aes, iv, &mut buf[offset..]);
    buf.split_off(offset)
}

fn iv_with_low_word(low: u32) -> [u8; 16] {
    let mut iv: [u8; 16] = core::array::from_fn(|i| 0xC0 + i as u8);
    iv[12..].copy_from_slice(&low.to_be_bytes());
    iv
}

/// `kernel`'s ChaCha20 keystream from block `counter` XORed into `data`,
/// the data placed at byte `offset` of a larger buffer.
fn chacha_on(
    kernel: &Kernel,
    cipher: &ChaCha20,
    counter: u32,
    data: &[u8],
    offset: usize,
) -> Vec<u8> {
    let mut buf = vec![0xA5u8; offset];
    buf.extend_from_slice(data);
    kernel.chacha20_xor(cipher, counter, &mut buf[offset..]);
    buf.split_off(offset)
}

/// The same bytes as `chacha_on(kernel, cipher, counter, data, 0)`, but
/// computed as blocks `lane..` of a call that starts `lane` blocks
/// earlier and runs on for two wide groups: a short message reaches a
/// wide tier's lanes only inside a long call, and a start before block 0
/// puts the 2^32 wrap inside the first group.
fn chacha_in_lane(
    kernel: &Kernel,
    cipher: &ChaCha20,
    counter: u32,
    data: &[u8],
    lane: usize,
) -> Vec<u8> {
    let mut buf = vec![0u8; 64 * lane];
    buf.extend_from_slice(data);
    buf.resize(buf.len() + 1024, 0);
    kernel.chacha20_xor(cipher, counter.wrapping_sub(lane as u32), &mut buf);
    buf[64 * lane..64 * lane + data.len()].to_vec()
}

/// Every way this file computes a ChaCha20 call on `kernel`: directly,
/// and from each lane of a longer call.
fn chacha_every_way(kernel: &Kernel, cipher: &ChaCha20, counter: u32, data: &[u8]) -> Vec<Vec<u8>> {
    let mut results = vec![chacha_on(kernel, cipher, counter, data, 0)];
    results.extend((0..8).map(|lane| chacha_in_lane(kernel, cipher, counter, data, lane)));
    results
}

/// ChaCha20-Poly1305 `seal` (RFC 8439 §2.8) with both keystream uses —
/// the one-time Poly1305 key from block 0, the ciphertext from block 1 —
/// computed by `stream`.
fn chacha20poly1305_on(
    stream: impl Fn(u32, &[u8]) -> Vec<u8>,
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let poly_key: [u8; 32] = stream(0, &[0u8; 32]).try_into().expect("32 bytes");
    let mut sealed = stream(1, plaintext);
    let mut mac = Poly1305::new(&poly_key);
    for part in [aad, &sealed] {
        mac.update(part);
        mac.update(&[0u8; 15][..(16 - part.len() % 16) % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(sealed.len() as u64).to_le_bytes());
    sealed.extend_from_slice(&mac.finalize());
    sealed
}

/// RFC 8439's test key, `00 01 .. 1f`.
fn rfc8439_key() -> [u8; 32] {
    core::array::from_fn(|i| i as u8)
}

/// RFC 8439's test message (§2.4.2, §2.8.2).
const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

#[test]
fn supported_kernels_are_scalar_then_detected() {
    let kernels = Kernel::supported();
    assert_eq!(kernels[0].sha256_tier(), Tier::Scalar);
    assert_eq!(kernels[0].aes_ctr_tier(), Tier::Scalar);
    assert_eq!(kernels[0].chacha20_tier(), Tier::Scalar);
    let tiers = |k: &Kernel| (k.sha256_tier(), k.aes_ctr_tier(), k.chacha20_tier());
    for k in &kernels[1..] {
        assert_ne!(tiers(k), tiers(Kernel::scalar()));
    }
    // The active kernel is the best one, or all-scalar under the override
    // (CI runs this file in both legs): never a mix the host did not pick.
    let active = tiers(Kernel::active());
    assert!(active == tiers(Kernel::scalar()) || active == tiers(kernels[kernels.len() - 1]));
}

#[test]
fn sha256_known_answers_on_every_tier() {
    let million_a = vec![b'a'; 1_000_000];
    // FIPS 180-4 / NIST example messages.
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for kernel in Kernel::supported() {
        let tier = kernel.sha256_tier().name();
        for (msg, expect) in vectors {
            assert_eq!(
                to_hex(&sha256_on(kernel, msg, 0)),
                expect,
                "{tier}, {} bytes",
                msg.len()
            );
        }
    }
    for (msg, expect) in vectors {
        assert_eq!(to_hex(&Sha256::digest(msg)), expect);
    }
}

#[test]
fn hmac_and_hkdf_known_answers_on_every_tier() {
    // RFC 4231 test cases 1-3: (key, data, HMAC-SHA-256).
    let hmac_vectors: [(&[u8], &[u8], &str); 3] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ];
    // RFC 5869 test cases 1 and 3: (salt, info, 42-byte OKM), IKM 22 × 0x0b.
    let ikm = [0x0bu8; 22];
    let salt_1: Vec<u8> = (0x00..=0x0c).collect();
    let info_1: Vec<u8> = (0xf0..=0xf9).collect();
    let hkdf_vectors: [(&[u8], &[u8], &str); 2] = [
        (
            &salt_1,
            &info_1,
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865",
        ),
        (
            &[],
            &[],
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8",
        ),
    ];
    for kernel in Kernel::supported() {
        let tier = kernel.sha256_tier().name();
        for (key, data, expect) in hmac_vectors {
            assert_eq!(to_hex(&hmac_on(kernel, key, data)), expect, "{tier}");
        }
        for (salt, info, expect) in hkdf_vectors {
            let okm = hkdf_on(kernel, salt, &ikm, info, 42);
            assert_eq!(to_hex(&okm), expect, "{tier}");
        }
    }
    for (key, data, expect) in hmac_vectors {
        assert_eq!(to_hex(&hmac_sha256(key, data)), expect);
    }
    for (salt, info, expect) in hkdf_vectors {
        assert_eq!(to_hex(&hkdf::derive(salt, &ikm, info, 42)), expect);
    }
}

/// What every timestamp anchor rests on. The Lamport / Winternitz /
/// Merkle signer is a home-grown XMSS ancestor, so no published vector
/// applies: this is a frozen in-tree golden. Key generation and signing
/// run through the library (`Sha256` on the active tier, which CI moves
/// between its two legs); the signature's digest is then taken on every
/// tier. The serialisation is the derived `{:?}` — the only view of the
/// WOTS chain values an outside crate has.
#[test]
fn merkle_signature_golden_on_every_tier() {
    let mut rng = ChaChaDrbg::from_u64_seed(0x51C);
    let mut signer = MerkleSigner::generate(&mut rng, 3);
    let public_key = signer.public_key();
    assert_eq!(
        to_hex(&public_key.root),
        "c30a3a6dadfc84ccf77cd3da690b486616e4b251ae48f2114d06a182d55cc040"
    );
    // The third leaf: its authentication path has siblings on both sides.
    let message = b"aeon anchor golden";
    let signature = (0..3)
        .map(|_| signer.sign(message).unwrap())
        .last()
        .unwrap();
    assert_eq!(signature.leaf_index, 2);
    assert!(public_key.verify(message, &signature));
    let serialised = format!("{signature:?}");
    for kernel in Kernel::supported() {
        assert_eq!(
            to_hex(&sha256_on(kernel, serialised.as_bytes(), 0)),
            "5d13936c5f456b8071b7925763bc908b3534b3ac29722c7d3d08194852bbc6f7",
            "tier {:?}",
            kernel.sha256_tier()
        );
    }
}

/// The batch tree a flush of timestamps is signed through
/// (`aeon_integrity::merkle`): five fixed digests, so the fifth is the
/// odd node promoted twice. The pinned root is rebuilt by hand on every
/// tier — leaf `H(00 ‖ d)`, node `H(01 ‖ l ‖ r)` — and one member's
/// proof is pinned whole.
#[test]
fn batch_tree_golden_on_every_tier() {
    const ROOT: &str = "60898e30a0e64021a318c38a850a5a3cca223887328345b86afaaf27a8d0cd9e";
    let digests: Vec<[u8; 32]> = (0..5u8).map(|i| [0x10 + i; 32]).collect();
    let tree = MerkleTree::build(digests.iter().map(|d| d.as_slice())).unwrap();
    assert_eq!(to_hex(&tree.root()), ROOT);
    for (i, digest) in digests.iter().enumerate() {
        assert!(tree.prove(i).unwrap().verify(&tree.root(), digest));
    }
    for kernel in Kernel::supported() {
        let leaf = |d: &[u8; 32]| sha256_on(kernel, &[&[0u8][..], d].concat(), 0);
        let node = |l: [u8; 32], r: [u8; 32]| sha256_on(kernel, &[&[1u8][..], &l, &r].concat(), 0);
        let [l0, l1, l2, l3, l4] = [0, 1, 2, 3, 4].map(|i| leaf(&digests[i]));
        let left = node(node(l0, l1), node(l2, l3));
        assert_eq!(
            to_hex(&node(left, l4)),
            ROOT,
            "tier {:?}",
            kernel.sha256_tier()
        );
        // The fifth member's whole proof: one sibling, on its left.
        let expected = MerkleProof {
            leaf_index: 4,
            path: vec![(left, false)],
        };
        assert_eq!(tree.prove(4).unwrap(), expected);
        assert_eq!(
            to_hex(&left),
            "2a2feeda9abd78e0082dd81321796ba3537c33f86ce3516f2e40e333a72578f7"
        );
    }
}

#[test]
fn aes_known_answers_on_every_tier() {
    // FIPS 197 Appendix C.3, reached through CTR: the keystream block for
    // counter = plaintext, XORed into zeros, is E_K(plaintext).
    let c3_key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let c3_plain: [u8; 16] = core::array::from_fn(|i| 0x11 * i as u8);
    // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt, block 1.
    let f55_key: [u8; 32] = [
        0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77,
        0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14,
        0xdf, 0xf4,
    ];
    let f55_iv: [u8; 16] = core::array::from_fn(|i| 0xf0 + i as u8);
    let f55_plain: [u8; 16] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a,
    ];
    let vectors = [
        (
            c3_key,
            c3_plain,
            [0u8; 16],
            "8ea2b7ca516745bfeafc49904b496089",
        ),
        (
            f55_key,
            f55_iv,
            f55_plain,
            "601ec313775789a5b7a7f504bbf3d228",
        ),
    ];
    for (key, iv, data, expect) in vectors {
        let aes = Aes::new_256(&key);
        for kernel in Kernel::supported() {
            let tier = kernel.aes_ctr_tier().name();
            assert_eq!(
                to_hex(&ctr_on(kernel, &aes, &iv, &data, 0)),
                expect,
                "{tier}"
            );
        }
        let mut via_library = data;
        aes.apply_ctr(&iv, &mut via_library);
        assert_eq!(to_hex(&via_library), expect);
    }
    assert_eq!(
        to_hex(&Aes::new_256(&c3_key).encrypt_block(&c3_plain)),
        vectors[0].3
    );
}

#[test]
fn sha256_tiers_agree_on_ragged_lengths_and_unaligned_sources() {
    let data = pattern(LONG, 1);
    for len in ragged_lengths() {
        let msg = &data[..len];
        let oracle = sha256_on(Kernel::scalar(), msg, 0);
        for kernel in Kernel::supported() {
            for offset in OFFSETS {
                assert_eq!(
                    sha256_on(kernel, msg, offset),
                    oracle,
                    "{}, {len} bytes at offset {offset}",
                    kernel.sha256_tier().name()
                );
            }
        }
    }
}

#[test]
fn sha256_update_splits_agree_with_the_oracle() {
    // The library hasher (active tier, its own buffering and padding)
    // against the hand-padded scalar oracle: one-shot, and fed in two and
    // three pieces that start at every source alignment.
    let data = pattern(LONG + OFFSETS.end, 2);
    for len in ragged_lengths() {
        let offset = len % OFFSETS.end;
        let msg = &data[offset..offset + len];
        let oracle = sha256_on(Kernel::scalar(), msg, 0);
        assert_eq!(Sha256::digest(msg), oracle, "{len} bytes one-shot");
        for (a, b) in [
            (len / 3, len / 2),
            (len.min(1), len.min(64)),
            (len.min(63), len),
        ] {
            let mut two = Sha256::new();
            two.update(&msg[..b]);
            two.update(&msg[b..]);
            assert_eq!(two.finalize(), oracle, "{len} bytes split at {b}");
            let mut three = Sha256::new();
            three.update(&msg[..a]);
            three.update(&msg[a..b]);
            three.update(&msg[b..]);
            assert_eq!(three.finalize(), oracle, "{len} bytes split at {a}, {b}");
        }
    }
}

#[test]
fn aes_ctr_tiers_agree_on_ragged_lengths_and_counter_wraps() {
    let data = pattern(LONG, 3);
    let ciphers = [
        Aes::new_128(&core::array::from_fn(|i| 0x3C ^ i as u8)),
        Aes::new_256(&core::array::from_fn(|i| 0x5A ^ (7 * i) as u8)),
    ];
    // Low counter words: no wrap; wrap after two blocks; wrap inside the
    // first eight-block group; wrap after the first block.
    let ivs = [0, 0xFFFF_FFFE, 0xFFFF_FFF9, 0xFFFF_FFFF].map(iv_with_low_word);
    let check = |aes: &Aes, iv: &[u8; 16], len: usize, offsets: std::ops::Range<usize>| {
        let plain = &data[..len];
        let oracle = ctr_on(Kernel::scalar(), aes, iv, plain, 0);
        for kernel in Kernel::supported() {
            for offset in offsets.clone() {
                assert_eq!(
                    ctr_on(kernel, aes, iv, plain, offset),
                    oracle,
                    "{}, {len} bytes at offset {offset}, iv {iv:02x?}",
                    kernel.aes_ctr_tier().name()
                );
            }
        }
    };
    for aes in &ciphers {
        for iv in &ivs {
            for len in 0..=300 {
                check(aes, iv, len, OFFSETS);
            }
        }
    }
    // The long input once (the scalar oracle is slow in debug builds):
    // AES-256, the wrap inside the first group, two alignments.
    check(&ciphers[1], &ivs[2], data.len(), 0..2);
}

#[test]
fn aes_ctr_counter_is_the_low_32_bits_big_endian_and_wraps() {
    // Not only tier = oracle: each keystream block is E_K of the counter
    // block the documentation promises, across the 2^32 wrap, and the
    // upper 96 bits never carry.
    let aes = Aes::new_256(&[0x42; 32]);
    let iv = iv_with_low_word(0xFFFF_FFF9);
    for kernel in Kernel::supported() {
        let keystream = ctr_on(kernel, &aes, &iv, &[0u8; 16 * 20], 0);
        for (i, block) in keystream.chunks_exact(16).enumerate() {
            let counter = iv_with_low_word(0xFFFF_FFF9u32.wrapping_add(i as u32));
            assert_eq!(
                block,
                aes.encrypt_block(&counter),
                "{}, block {i}",
                kernel.aes_ctr_tier().name()
            );
        }
    }
}

#[test]
fn chacha20_known_answers_on_every_tier() {
    // RFC 8439 §2.3.2: the keystream block for counter 1.
    let block_cipher = ChaCha20::new(&rfc8439_key(), &[0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
    let block = "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
                 d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
    // RFC 8439 §2.4.2: the sunscreen message from counter 1.
    let stream_cipher = ChaCha20::new(&rfc8439_key(), &[0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
    let ciphertext = "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
                      f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
                      07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
                      5af90bbf74a35be6b40b8eedf2785e42874d";
    for kernel in Kernel::supported() {
        let tier = kernel.chacha20_tier().name();
        for got in chacha_every_way(kernel, &block_cipher, 1, &[0u8; 64]) {
            assert_eq!(to_hex(&got), block, "{tier}");
        }
        for got in chacha_every_way(kernel, &stream_cipher, 1, SUNSCREEN) {
            assert_eq!(to_hex(&got), ciphertext, "{tier}");
        }
    }
    assert_eq!(to_hex(&block_cipher.block(1)), block);
    let mut via_library = SUNSCREEN.to_vec();
    stream_cipher.apply_keystream(1, &mut via_library);
    assert_eq!(to_hex(&via_library), ciphertext);
    stream_cipher.apply_keystream(1, &mut via_library);
    assert_eq!(via_library, SUNSCREEN);
}

#[test]
fn chacha20poly1305_known_answer_on_every_tier() {
    // RFC 8439 §2.8.2.
    let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
    let nonce: [u8; 12] = [
        0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
    ];
    let aad: [u8; 12] = [
        0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    ];
    let check = |sealed: &[u8], how: &str| {
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(ct.len(), SUNSCREEN.len(), "{how}");
        assert_eq!(
            to_hex(&ct[..16]),
            "d31a8d34648e60db7b86afbc53ef7ec2",
            "{how}"
        );
        assert_eq!(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691", "{how}");
    };
    let cipher = ChaCha20::new(&key, &nonce);
    for kernel in Kernel::supported() {
        let tier = kernel.chacha20_tier().name();
        let direct = |counter, data: &[u8]| chacha_on(kernel, &cipher, counter, data, 0);
        check(&chacha20poly1305_on(direct, &aad, SUNSCREEN), tier);
        for lane in 0..8 {
            let in_lane =
                |counter, data: &[u8]| chacha_in_lane(kernel, &cipher, counter, data, lane);
            check(&chacha20poly1305_on(in_lane, &aad, SUNSCREEN), tier);
        }
    }
    let aead = ChaCha20Poly1305::new(&key);
    let sealed = aead.seal(&nonce, &aad, SUNSCREEN);
    check(&sealed, "library");
    assert_eq!(aead.open(&nonce, &aad, &sealed).as_deref(), Ok(SUNSCREEN));
}

#[test]
fn chacha20_tiers_agree_on_ragged_lengths_and_counter_wraps() {
    // Two wide groups and a ragged third, so every length from an empty
    // call through "whole groups plus a tail of every size" occurs.
    const LENGTHS: std::ops::RangeInclusive<usize> = 0..=1100;
    let data = pattern(LONG, 4);
    let cipher = ChaCha20::new(
        &core::array::from_fn(|i| 0x6B ^ (5 * i) as u8),
        &core::array::from_fn(|i| 0xD0 + i as u8),
    );
    // No wrap, the AEAD's start, and every place the 2^32 wrap can fall
    // in the first eight-block group.
    let counters = [0, 1].into_iter().chain(0xFFFF_FFF8..=0xFFFF_FFFF);
    for counter in counters {
        for len in LENGTHS {
            let plain = &data[..len];
            let oracle = chacha_on(Kernel::scalar(), &cipher, counter, plain, 0);
            for kernel in Kernel::supported() {
                for offset in 0..8 {
                    assert_eq!(
                        chacha_on(kernel, &cipher, counter, plain, offset),
                        oracle,
                        "{}, {len} bytes at offset {offset}, counter {counter:#x}",
                        kernel.chacha20_tier().name()
                    );
                }
            }
        }
    }
    // The long input once, the wrap inside its first group.
    let oracle = chacha_on(Kernel::scalar(), &cipher, 0xFFFF_FFFC, &data, 0);
    for kernel in Kernel::supported() {
        assert_eq!(chacha_on(kernel, &cipher, 0xFFFF_FFFC, &data, 1), oracle);
    }
}

#[test]
fn chacha20_block_i_is_the_block_function_at_counter_plus_i_and_wraps() {
    // Not only tier = oracle: each 64 bytes of keystream is `block` at the
    // counter the documentation promises, across the 2^32 wrap.
    let cipher = ChaCha20::new(&[0x42; 32], &[0x24; 12]);
    for kernel in Kernel::supported() {
        let keystream = chacha_on(kernel, &cipher, 0xFFFF_FFFC, &[0u8; 64 * 20], 0);
        for (i, block) in keystream.chunks_exact(64).enumerate() {
            assert_eq!(
                block,
                cipher.block(0xFFFF_FFFCu32.wrapping_add(i as u32)),
                "{}, block {i}",
                kernel.chacha20_tier().name()
            );
        }
    }
}

proptest! {
    #[test]
    fn sha256_tiers_agree_on_random_input(data in prop::collection::vec(any::<u8>(), 0..4096),
                                          offset in OFFSETS, a in 0usize..4096, b in 0usize..4096) {
        let oracle = sha256_on(Kernel::scalar(), &data, 0);
        for kernel in Kernel::supported() {
            prop_assert_eq!(sha256_on(kernel, &data, offset), oracle);
        }
        let (a, b) = (a.min(b).min(data.len()), a.max(b).min(data.len()));
        let mut h = Sha256::new();
        h.update(&data[..a]);
        h.update(&data[a..b]);
        h.update(&data[b..]);
        prop_assert_eq!(h.finalize(), oracle);
    }

    #[test]
    fn aes_ctr_tiers_agree_on_random_input(key in any::<[u8; 32]>(), iv in any::<[u8; 16]>(),
                                           near_wrap in any::<bool>(), wide in any::<bool>(),
                                           data in prop::collection::vec(any::<u8>(), 0..2048),
                                           offset in OFFSETS) {
        let aes = if wide {
            Aes::new_256(&key)
        } else {
            Aes::new_128(key[..16].try_into().expect("16 of 32 bytes"))
        };
        let mut iv = iv;
        if near_wrap {
            // Put the 2^32 wrap somewhere inside the message.
            iv[12..15].fill(0xFF);
        }
        let oracle = ctr_on(Kernel::scalar(), &aes, &iv, &data, 0);
        for kernel in Kernel::supported() {
            prop_assert_eq!(ctr_on(kernel, &aes, &iv, &data, offset), oracle.clone());
        }
        let mut via_library = data.clone();
        aes.apply_ctr(&iv, &mut via_library);
        prop_assert_eq!(via_library, oracle);
    }

    #[test]
    fn chacha20_tiers_agree_on_random_input(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                            counter in any::<u32>(), near_wrap in any::<bool>(),
                                            data in prop::collection::vec(any::<u8>(), 0..4096),
                                            offset in 0usize..8) {
        let cipher = ChaCha20::new(&key, &nonce);
        // Put the 2^32 wrap somewhere inside the message.
        let counter = if near_wrap { counter | 0xFFFF_FFC0 } else { counter };
        let oracle = chacha_on(Kernel::scalar(), &cipher, counter, &data, 0);
        for kernel in Kernel::supported() {
            prop_assert_eq!(chacha_on(kernel, &cipher, counter, &data, offset), oracle.clone());
        }
        let mut via_library = data.clone();
        cipher.apply_keystream(counter, &mut via_library);
        prop_assert_eq!(&via_library, &oracle);
        cipher.apply_keystream(counter, &mut via_library);
        prop_assert_eq!(via_library, data);
    }
}
