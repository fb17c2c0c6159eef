//! Known answers and cross-tier parity for the crypto kernels, in one
//! place, run on every kernel the host supports.
//!
//! Three layers, each over [`Kernel::supported`] — one kernel per
//! runnable tier of every slot, so an AVX-512 host still runs the AVX2
//! ChaCha20 tier (the first test prints which tiers that was):
//!
//! 1. the published vectors (FIPS 180-4, RFC 4231, RFC 5869, FIPS 197,
//!    SP 800-38A, RFC 8439), recomputed here on *that tier's* slot
//!    function — SHA-256 padding, HMAC, HKDF and the ChaCha20-Poly1305
//!    construction are rebuilt by hand over `sha256_blocks` /
//!    `chacha20_xor` / `Poly1305::update_on`, so a vector passes only if
//!    the tier's function is right; the ChaCha20 vectors are short, so
//!    each is also placed at every lane of a longer call, which is what
//!    reaches a wide tier. The Poly1305 vectors are short too and no
//!    longer message contains them, so on every tier they run the scalar
//!    block loop: what holds the wide Poly1305 tier to the RFC is an
//!    independent evaluation of its §2.5.1 definition over
//!    `aeon_num::Uint`, which every vector is checked against first;
//! 2. tier against the scalar oracle, bit for bit, on ragged lengths,
//!    unaligned source offsets, `update` splits and every way a block
//!    counter can wrap;
//! 3. the same over random data, keys and IVs.
//!
//! SHA-512 has no slot; its FIPS 180-4 vectors live here because this is
//! where the known answers are.
//!
//! CI runs the file twice, under `AEON_FORCE_KERNEL=scalar` and under
//! auto-detection, which also moves the library entry points
//! (`Sha256`, `hmac_sha256`, `hkdf`, `Aes::apply_ctr`,
//! `ChaCha20::apply_keystream`, `Poly1305::update`, `ChaCha20Poly1305`)
//! between tiers.

use aeon_crypto::aead::{Aead, Aes256CtrHmac, AuthError, ChaCha20Poly1305};
use aeon_crypto::aes::Aes;
use aeon_crypto::chacha::ChaCha20;
use aeon_crypto::hkdf;
use aeon_crypto::hmac::hmac_sha256;
use aeon_crypto::kernel::{Kernel, Tier};
use aeon_crypto::poly1305::{poly1305, Poly1305};
use aeon_crypto::sha2::to_hex;
use aeon_crypto::sig::MerkleSigner;
use aeon_crypto::{ChaChaDrbg, Sha256, Sha512};
use aeon_integrity::merkle::{MerkleProof, MerkleTree};
use aeon_num::{reduce_wide, U256};
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

/// The lanes of the widest ChaCha20 tier (`avx512`: sixteen blocks).
const LANES: usize = 16;

/// The same bytes as `chacha_on(kernel, cipher, counter, data, 0)`, but
/// computed as blocks `lane..` of a call that starts `lane` blocks
/// earlier and runs on for two groups of the widest tier: a short message
/// reaches a wide tier's lanes only inside a long call, and a start
/// before block 0 puts the 2^32 wrap inside the first group.
fn chacha_in_lane(
    kernel: &Kernel,
    cipher: &ChaCha20,
    counter: u32,
    data: &[u8],
    lane: usize,
) -> Vec<u8> {
    let mut buf = vec![0u8; 64 * lane];
    buf.extend_from_slice(data);
    buf.resize(buf.len() + 2 * 64 * LANES, 0);
    kernel.chacha20_xor(cipher, counter.wrapping_sub(lane as u32), &mut buf);
    buf[64 * lane..64 * lane + data.len()].to_vec()
}

/// Every way this file computes a ChaCha20 call on `kernel`: directly,
/// and from each lane of a longer call.
fn chacha_every_way(kernel: &Kernel, cipher: &ChaCha20, counter: u32, data: &[u8]) -> Vec<Vec<u8>> {
    let mut results = vec![chacha_on(kernel, cipher, counter, data, 0)];
    results.extend((0..LANES).map(|lane| chacha_in_lane(kernel, cipher, counter, data, lane)));
    results
}

/// Poly1305 of `msg` under `key`, whole blocks absorbed by `kernel`'s
/// `poly1305_blocks` slot, the message fed in the pieces `cuts` (each at
/// most `msg.len()`, ascending) delimit.
fn poly1305_on(kernel: &Kernel, key: &[u8; 32], msg: &[u8], cuts: &[usize]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    let mut from = 0;
    for &cut in cuts.iter().chain([&msg.len()]) {
        mac.update_on(kernel, &msg[from..cut]);
        from = cut;
    }
    mac.finalize()
}

/// RFC 8439 §2.5.1 read literally, in multi-precision integers that share
/// no code with `poly1305.rs`: `acc = (acc + block‖01) · r mod 2¹³⁰ − 5`
/// over little-endian 16-byte blocks, then `acc + s mod 2¹²⁸`.
fn poly1305_by_definition(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let little_endian = |bytes: &[u8]| {
        let reversed: Vec<u8> = bytes.iter().rev().copied().collect();
        U256::from_be_bytes(&reversed)
    };
    let p = U256::from_hex("3_ffffffff_ffffffff_ffffffff_fffffffb");
    let mut r = [0u8; 16];
    r.copy_from_slice(&key[..16]);
    for i in [3, 7, 11, 15] {
        r[i] &= 15;
    }
    for i in [4, 8, 12] {
        r[i] &= 252;
    }
    let (r, s) = (little_endian(&r), little_endian(&key[16..]));
    let mut acc = U256::ZERO;
    for block in msg.chunks(16) {
        let mut with_pad_bit = block.to_vec();
        with_pad_bit.push(1);
        // Below 2^130 + 2^129: no wrap in 256 bits.
        acc = acc.wrapping_add(&little_endian(&with_pad_bit));
        let mut product = [0u64; 8];
        acc.mul_wide_into(&r, &mut product);
        acc = reduce_wide(&product, &p);
    }
    let mut tag: [u8; 16] = acc.wrapping_add(&s).to_be_bytes()[16..]
        .try_into()
        .expect("the low 128 bits");
    tag.reverse();
    tag
}

/// ChaCha20-Poly1305 `seal` (RFC 8439 §2.8) with both keystream uses —
/// the one-time Poly1305 key from block 0, the ciphertext from block 1 —
/// computed by `stream`, and the tag on `kernel`'s Poly1305 slot.
fn chacha20poly1305_on(
    kernel: &Kernel,
    stream: impl Fn(u32, &[u8]) -> Vec<u8>,
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let poly_key: [u8; 32] = stream(0, &[0u8; 32]).try_into().expect("32 bytes");
    let mut sealed = stream(1, plaintext);
    let mut mac = Poly1305::new(&poly_key);
    for part in [aad, &sealed] {
        mac.update_on(kernel, part);
        mac.update_on(kernel, &[0u8; 15][..(16 - part.len() % 16) % 16]);
    }
    mac.update_on(kernel, &(aad.len() as u64).to_le_bytes());
    mac.update_on(kernel, &(sealed.len() as u64).to_le_bytes());
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

/// The tier in each of `kernel`'s five slots, in the module table's order.
fn tiers(kernel: &Kernel) -> [Tier; 5] {
    [
        kernel.sha256_tier(),
        kernel.sha256_x16_tier(),
        kernel.aes_ctr_tier(),
        kernel.chacha20_tier(),
        kernel.poly1305_tier(),
    ]
}

#[test]
fn supported_kernels_cover_every_runnable_tier() {
    let kernels = Kernel::supported();
    assert_eq!(tiers(kernels[0]), [Tier::Scalar; 5]);
    // Slowest first, no kernel twice, at most one step past AVX2.
    assert!(kernels.len() <= 3);
    for pair in kernels.windows(2) {
        assert_ne!(tiers(pair[0]), tiers(pair[1]));
    }
    // Only the last kernel may hold a tier wider than AVX2, and a host
    // that runs the `avx512` ChaCha20 tier also runs (and lists) `avx2`.
    for kernel in &kernels[..kernels.len() - 1] {
        assert!(!tiers(kernel).contains(&Tier::Avx512));
    }
    if kernels[kernels.len() - 1].chacha20_tier() == Tier::Avx512 {
        assert_eq!(kernels[kernels.len() - 2].chacha20_tier(), Tier::Avx2);
    }
    // The sixteen-lane SHA-256 slot has a scalar oracle and one wide tier,
    // and an AVX-512 host lists kernels with and without it, so
    // `digest_many`'s single-stream path runs on a non-scalar kernel too.
    for kernel in &kernels {
        assert!(matches!(
            kernel.sha256_x16_tier(),
            Tier::Scalar | Tier::Avx512
        ));
    }
    if kernels[kernels.len() - 1].sha256_x16_tier() == Tier::Avx512 {
        assert_eq!(kernels[kernels.len() - 2].sha256_x16_tier(), Tier::Scalar);
    }
    // The active kernel is the best one, or all-scalar under the override
    // (CI runs this file in both legs): never a mix the host did not pick.
    let active = tiers(Kernel::active());
    assert!(active == [Tier::Scalar; 5] || active == tiers(kernels[kernels.len() - 1]));

    // What this run of the file covered, for the CI log: a tier missing
    // here was not exercised by any test below.
    let slots = ["sha256", "sha256-x16", "aes256-ctr", "chacha20", "poly1305"];
    let line: Vec<String> = (0..slots.len())
        .map(|slot| {
            let mut names: Vec<&str> = kernels.iter().map(|k| tiers(k)[slot].name()).collect();
            names.dedup();
            format!("{}={}", slots[slot], names.join(","))
        })
        .collect();
    println!("tiers exercised: {}", line.join(" "));
}

#[test]
fn sha512_known_answers() {
    // FIPS 180-4 / NIST example messages: empty, one block, two blocks.
    let vectors: [(&[u8], &str); 3] = [
        (
            b"",
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e",
        ),
        (
            b"abc",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909",
        ),
    ];
    for (msg, expect) in vectors {
        assert_eq!(to_hex(&Sha512::digest(msg)), expect, "{} bytes", msg.len());
    }
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

/// What every timestamp anchor rests on. The Winternitz / Merkle
/// signer is a home-grown XMSS ancestor, so no published vector
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

/// `kernel`'s sixteen-lane slot from `start` over `lanes`, each lane's
/// blocks placed at its own byte offset (`l % 16`) of a larger buffer.
fn sha256_x16_on(kernel: &Kernel, start: &[[u32; 8]; 16], lanes: &[Vec<u8>; 16]) -> [[u32; 8]; 16] {
    let bufs: Vec<Vec<u8>> = (0..16)
        .map(|l| [vec![0xA5u8; l % OFFSETS.end], lanes[l].clone()].concat())
        .collect();
    let runs: [&[u8]; 16] = std::array::from_fn(|l| &bufs[l][l % OFFSETS.end..]);
    let mut states = [[0u32; 16]; 8];
    for (w, row) in states.iter_mut().enumerate() {
        for (l, word) in row.iter_mut().enumerate() {
            *word = start[l][w];
        }
    }
    kernel.sha256_x16(&mut states, &runs);
    std::array::from_fn(|l| std::array::from_fn(|w| states[w][l]))
}

#[test]
fn sha256_x16_lanes_each_equal_the_single_stream_block_function() {
    // Ragged lanes — idle ones, one block, many — from distinct starting
    // states, on every tier: lane `l` must come out as `sha256_blocks`
    // over its own blocks, whatever its neighbours hold.
    let shapes: [[usize; 16]; 4] = [
        [0; 16],
        [1; 16],
        [3, 0, 1, 7, 2, 0, 0, 5, 1, 1, 9, 0, 4, 2, 6, 3],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17],
    ];
    for (s, shape) in shapes.iter().enumerate() {
        let start: [[u32; 8]; 16] = std::array::from_fn(|l| {
            std::array::from_fn(|w| H0[w].wrapping_mul(l as u32 + 1) ^ (s as u32))
        });
        let lanes: [Vec<u8>; 16] =
            std::array::from_fn(|l| pattern(64 * shape[l], (16 * s + l) as u32));
        let expect: [[u32; 8]; 16] = std::array::from_fn(|l| {
            let mut state = start[l];
            Kernel::scalar().sha256_blocks(&mut state, &lanes[l]);
            state
        });
        for kernel in Kernel::supported() {
            assert_eq!(
                sha256_x16_on(kernel, &start, &lanes),
                expect,
                "{}, lanes {shape:?}",
                kernel.sha256_x16_tier().name()
            );
        }
    }
}

/// Message lengths across the padding edges (55/56, 63/64, 119/120, 128)
/// and a few multi-block sizes up to a 44 KiB dedup block, cycled over a
/// set.
const DIGEST_MANY_EDGES: [usize; 13] =
    [0, 1, 55, 56, 63, 64, 119, 120, 128, 300, 1000, 4113, 45_056];

/// `count` messages for `digest_many`: the first 300 KiB (one lane runs
/// long while the others turn over), then lengths cycling through
/// [`DIGEST_MANY_EDGES`], each at its own unaligned offset of `data`.
fn digest_many_set(data: &[u8], count: usize) -> Vec<&[u8]> {
    (0..count)
        .map(|i| {
            let len = match i {
                0 => 300 << 10,
                _ => DIGEST_MANY_EDGES[i % DIGEST_MANY_EDGES.len()] + i / DIGEST_MANY_EDGES.len(),
            };
            let offset = i % OFFSETS.end;
            &data[offset..offset + len]
        })
        .collect()
}

#[test]
fn digest_many_equals_digest_on_every_kernel() {
    // Set sizes around the break-even (nine) and the sixteen lanes, and a
    // small-files flush (32 objects × 7 messages).
    let data = pattern((300 << 10) + OFFSETS.end, 3);
    for count in [0, 1, 8, 9, 10, 16, 17, 40, 224] {
        let msgs = digest_many_set(&data, count);
        let expect: Vec<[u8; 32]> = msgs
            .iter()
            .map(|m| sha256_on(Kernel::scalar(), m, 0))
            .collect();
        assert_eq!(Sha256::digest_many(&msgs), expect, "{count} messages");
        for kernel in Kernel::supported() {
            assert_eq!(
                Sha256::digest_many_on(kernel, &msgs),
                expect,
                "{count} messages, {}",
                kernel.sha256_x16_tier().name()
            );
        }
    }
}

/// Message lengths at and just below the cut-offs of a tagged message
/// (the head block at 63, the one-block padding at 55, two blocks at
/// 119 and 127).
const TAGGED_EDGES: [usize; 8] = [0, 53, 61, 62, 117, 118, 126, 127];

/// SHA-256 of `tag ‖ msg` through the streaming hasher: the oracle of
/// the head-block path.
fn tagged_oracle(tag: u8, msg: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[tag]);
    h.update(msg);
    h.finalize()
}

#[test]
fn digest_many_tagged_equals_streaming_on_every_kernel() {
    // The same sets as `digest_many`: the head block cuts every message
    // one byte earlier, so the padding edges fall one length earlier.
    let data = pattern((300 << 10) + OFFSETS.end, 5);
    for count in [0, 1, 8, 9, 10, 16, 17, 40, 224] {
        let msgs = digest_many_set(&data, count);
        for tag in [0x00, 0x01] {
            let expect: Vec<[u8; 32]> = msgs.iter().map(|m| tagged_oracle(tag, m)).collect();
            assert_eq!(
                Sha256::digest_many_tagged(tag, &msgs),
                expect,
                "{count} messages"
            );
            for kernel in Kernel::supported() {
                assert_eq!(
                    Sha256::digest_many_tagged_on(kernel, tag, &msgs),
                    expect,
                    "{count} messages, tag {tag}, {}",
                    kernel.sha256_x16_tier().name()
                );
            }
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
    let aead = ChaCha20Poly1305::new(&key);
    for kernel in Kernel::supported() {
        let tier = kernel.chacha20_tier().name();
        let direct = |counter, data: &[u8]| chacha_on(kernel, &cipher, counter, data, 0);
        check(&chacha20poly1305_on(kernel, direct, &aad, SUNSCREEN), tier);
        for lane in 0..LANES {
            let in_lane =
                |counter, data: &[u8]| chacha_in_lane(kernel, &cipher, counter, data, lane);
            check(&chacha20poly1305_on(kernel, in_lane, &aad, SUNSCREEN), tier);
        }
        let sealed = aead.seal_on(kernel, &nonce, &aad, SUNSCREEN);
        check(&sealed, tier);
        assert_eq!(
            aead.open_on(kernel, &nonce, &aad, &sealed).as_deref(),
            Ok(SUNSCREEN)
        );
        let mut buf = sealed;
        assert_eq!(
            aead.open_in_place_on(kernel, &nonce, &aad, &mut buf),
            Ok(())
        );
        assert_eq!(buf, SUNSCREEN, "{tier}");
    }
    let sealed = aead.seal(&nonce, &aad, SUNSCREEN);
    check(&sealed, "library");
    assert_eq!(aead.open(&nonce, &aad, &sealed).as_deref(), Ok(SUNSCREEN));
    let mut buf = sealed;
    assert_eq!(aead.open_in_place(&nonce, &aad, &mut buf), Ok(()));
    assert_eq!(buf, SUNSCREEN);
}

/// AES-256-CTR-HMAC (this crate's encrypt-then-MAC suite) sealing
/// RFC 8439's message, rebuilt on each tier's SHA-256 and AES-CTR
/// functions from the construction's definition — HKDF subkeys, CTR from
/// `nonce ‖ 0³²`, HMAC over `nonce ‖ len(aad) as u64 BE ‖ aad ‖ ct` — and
/// pinned. The library seals exactly this, and opens it in place.
#[test]
fn aes_ctr_hmac_known_answer_on_every_tier() {
    let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
    let nonce: [u8; 12] = core::array::from_fn(|i| 0x40 + i as u8);
    let aad = b"aeon-object-context";
    let mut iv = [0u8; 16];
    iv[..12].copy_from_slice(&nonce);
    for kernel in Kernel::supported() {
        let how = format!("{:?}", tiers(kernel));
        let subkeys = hkdf_on(kernel, b"aeon-aes-ctr-hmac", &key, b"subkeys", 64);
        let enc_key: [u8; 32] = subkeys[..32].try_into().expect("32 bytes");
        let mut sealed = ctr_on(kernel, &Aes::new_256(&enc_key), &iv, SUNSCREEN, 0);
        let mut mac_input = nonce.to_vec();
        mac_input.extend_from_slice(&(aad.len() as u64).to_be_bytes());
        mac_input.extend_from_slice(aad);
        mac_input.extend_from_slice(&sealed);
        let tag = hmac_on(kernel, &subkeys[32..], &mac_input);
        assert_eq!(
            to_hex(&sealed[..16]),
            "8c1111b84aab7b625c362f04c9df790b",
            "{how}"
        );
        assert_eq!(
            to_hex(&tag),
            "0dc4f1d642a46372c8861526d45d068d88160a1ce4cb46e0b12ffff476ae3c38",
            "{how}"
        );
        sealed.extend_from_slice(&tag);
        let aead = Aes256CtrHmac::new(&key);
        assert_eq!(aead.seal(&nonce, aad, SUNSCREEN), sealed, "{how}");
        let mut buf = sealed;
        assert_eq!(aead.open_in_place(&nonce, aad, &mut buf), Ok(()));
        assert_eq!(buf, SUNSCREEN, "{how}");
    }
}

/// One flipped byte of ciphertext, tag or AAD: `open_in_place` refuses
/// and leaves the buffer exactly as it was — nothing is decrypted before
/// the tag verifies — for ChaCha20-Poly1305 on every tier and for
/// AES-256-CTR-HMAC on the library's.
#[test]
fn open_in_place_refuses_a_flipped_byte_and_leaves_the_buffer_undecrypted() {
    let (nonce, aad) = ([0x17u8; 12], pattern(40, 8));
    let plain = pattern(1100, 9);
    let chacha = ChaCha20Poly1305::new(&[0xA5; 32]);
    for kernel in Kernel::supported() {
        let how = format!("chacha20-poly1305 {:?}", tiers(kernel));
        let sealed = chacha.seal_on(kernel, &nonce, &aad, &plain);
        refuses_flips(&how, &sealed, &plain, &aad, |aad, buf| {
            chacha.open_in_place_on(kernel, &nonce, aad, buf)
        });
    }
    let aes = Aes256CtrHmac::new(&[0xA5; 32]);
    let sealed = aes.seal(&nonce, &aad, &plain);
    refuses_flips("aes256-ctr-hmac", &sealed, &plain, &aad, |aad, buf| {
        aes.open_in_place(&nonce, aad, buf)
    });
}

/// `open` (in place, under `aad`) refuses `sealed` with one byte of its
/// ciphertext, its tag or `aad` flipped, leaving the buffer untouched,
/// and opens the intact `sealed` to `plain`.
fn refuses_flips(
    how: &str,
    sealed: &[u8],
    plain: &[u8],
    aad: &[u8],
    open: impl Fn(&[u8], &mut Vec<u8>) -> Result<(), AuthError>,
) {
    let last = sealed.len() - 1;
    for (at, in_aad) in [
        (0, false),
        (plain.len() / 2, false),
        (last, false),
        (3, true),
    ] {
        let (mut bent, mut bent_aad) = (sealed.to_vec(), aad.to_vec());
        match in_aad {
            true => bent_aad[at] ^= 0x20,
            false => bent[at] ^= 0x20,
        }
        let mut buf = bent.clone();
        assert_eq!(
            open(&bent_aad, &mut buf),
            Err(AuthError),
            "{how}: byte {at}"
        );
        assert_eq!(buf, bent, "{how}: byte {at} left the buffer touched");
    }
    let mut buf = sealed.to_vec();
    assert_eq!(open(aad, &mut buf), Ok(()), "{how}");
    assert_eq!(buf, plain, "{how}");
}

/// A 32-byte Poly1305 key from its halves: `r` before clamping, and `s`.
fn poly_key(r: [u8; 16], s: [u8; 16]) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(&r);
    key[16..].copy_from_slice(&s);
    key
}

/// `first` followed by zeros, sixteen bytes in all.
fn leading(first: &[u8]) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..first.len()].copy_from_slice(first);
    out
}

/// `first`, then `rest` to the end.
fn then(first: u8, rest: u8) -> [u8; 16] {
    let mut out = [rest; 16];
    out[0] = first;
    out
}

#[test]
fn poly1305_known_answers_on_every_tier() {
    // RFC 8439 §2.5.2.
    let forum_key = poly_key(
        [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8,
        ],
        [
            0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
            0xf5, 0x1b,
        ],
    );
    // RFC 8439 §A.3, the vectors that can be written down exactly: #1
    // (all zero), #4 (the §A.2 #3 key over Jabberwocky) and the seven
    // edge cases #5-#11 — r = 2 and r = 1 over all-ones blocks and over
    // sums that land on, just under and just over 2^130 - 5, and the
    // carry out of the low 64 bits. (#2 and #3 hash a 375-byte notice
    // that is not reproduced here.)
    let jabberwocky_key: [u8; 32] = [
        0x1c, 0x92, 0x40, 0xa5, 0xeb, 0x55, 0xd3, 0x8a, 0xf3, 0x33, 0x88, 0x86, 0x04, 0xf6, 0xb5,
        0xf0, 0x47, 0x39, 0x17, 0xc1, 0x40, 0x2b, 0x80, 0x09, 0x9d, 0xca, 0x5c, 0xbc, 0x20, 0x70,
        0x75, 0xc0,
    ];
    let jabberwocky = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
    let (zero, ones) = ([0u8; 16], [0xFFu8; 16]);
    let r_one = poly_key(leading(&[1]), zero);
    let r_two = poly_key(leading(&[2]), zero);
    let r_low_carry = poly_key(leading(&[1, 0, 0, 0, 0, 0, 0, 0, 4]), zero);
    let carry_blocks = [
        leading(&[0xE3, 0x35, 0x94, 0xD7, 0x50, 0x5E, 0x43, 0xB9]),
        leading(&[0x33, 0x94, 0xD7, 0x50, 0x5E, 0x43, 0x79, 0xCD, 0x01]),
        zero,
        leading(&[1]),
    ];
    let vectors: Vec<([u8; 32], Vec<u8>, [u8; 16])> = vec![
        (
            forum_key,
            b"Cryptographic Forum Research Group".to_vec(),
            [
                0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
                0x27, 0xa9,
            ],
        ),
        ([0u8; 32], vec![0u8; 64], zero),
        (
            jabberwocky_key,
            jabberwocky.to_vec(),
            [
                0x45, 0x41, 0x66, 0x9a, 0x7e, 0xaa, 0xee, 0x61, 0xe7, 0x08, 0xdc, 0x7c, 0xbc, 0xc5,
                0xeb, 0x62,
            ],
        ),
        (r_two, ones.to_vec(), leading(&[3])),
        (
            poly_key(leading(&[2]), ones),
            leading(&[2]).to_vec(),
            leading(&[3]),
        ),
        (
            r_one,
            [ones, then(0xF0, 0xFF), leading(&[0x11])].concat(),
            leading(&[5]),
        ),
        (r_one, [ones, then(0xFB, 0xFE), [1u8; 16]].concat(), zero),
        (r_two, then(0xFD, 0xFF).to_vec(), then(0xFA, 0xFF)),
        (
            r_low_carry,
            carry_blocks.concat(),
            leading(&[0x14, 0, 0, 0, 0, 0, 0, 0, 0x55]),
        ),
        (r_low_carry, carry_blocks[..3].concat(), leading(&[0x13])),
    ];
    for (i, (key, msg, tag)) in vectors.iter().enumerate() {
        assert_eq!(
            poly1305_by_definition(key, msg),
            *tag,
            "vector {i}: the definition"
        );
        for kernel in Kernel::supported() {
            let tier = kernel.poly1305_tier().name();
            assert_eq!(
                poly1305_on(kernel, key, msg, &[]),
                *tag,
                "vector {i}, {tier}"
            );
        }
        assert_eq!(poly1305(key, msg), *tag, "vector {i}, library");
    }
}

/// Keys whose limbs push the multiply hardest, beside an ordinary one:
/// the largest clamped `r` (every kept bit set) with an all-ones `s`, and
/// the RFC's edge-case multipliers 1 and 2.
fn poly_keys() -> [[u8; 32]; 4] {
    [
        core::array::from_fn(|i| 0x9D ^ (11 * i) as u8),
        [0xFF; 32],
        poly_key(leading(&[1]), [0xFF; 16]),
        poly_key(leading(&[2]), [0; 16]),
    ]
}

#[test]
fn poly1305_tiers_agree_with_the_definition_on_ragged_lengths_and_extreme_limbs() {
    // Ordinary bytes, and all-ones blocks: every message limb at its
    // maximum, so every partial product and carry is as large as it gets.
    let messages = [pattern(65_537, 5), vec![0xFF; 65_537]];
    // Both sides of every 16- and 64-byte boundary up to the shortest
    // call the wide tier takes and past it, then sizes that are mostly
    // whole groups.
    let lengths = (0..=300).chain(65_535..=65_537);
    for len in lengths {
        for key in &poly_keys() {
            for data in &messages {
                let msg = &data[..len];
                let defined = poly1305_by_definition(key, msg);
                for kernel in Kernel::supported() {
                    assert_eq!(
                        poly1305_on(kernel, key, msg, &[]),
                        defined,
                        "{}, {len} bytes",
                        kernel.poly1305_tier().name()
                    );
                }
                assert_eq!(poly1305(key, msg), defined, "library, {len} bytes");
            }
        }
    }
}

#[test]
fn poly1305_update_may_be_split_anywhere() {
    // Seven 64-byte groups and a ragged tail, cut in two at every offset:
    // each cut leaves the wide tier a different number of whole groups on
    // either side, a buffered partial block between them, or too little
    // for a wide pass at all. Then in three, around one group boundary.
    let key = poly_keys()[1];
    let msg = pattern(64 * 7 + 13, 8);
    let oracle = poly1305_by_definition(&key, &msg);
    for kernel in Kernel::supported() {
        let tier = kernel.poly1305_tier().name();
        for cut in 0..=msg.len() {
            assert_eq!(
                poly1305_on(kernel, &key, &msg, &[cut]),
                oracle,
                "{tier}, cut at {cut}"
            );
        }
        for first in 0..=70 {
            for second in (256 - 3)..=(256 + 18) {
                assert_eq!(
                    poly1305_on(kernel, &key, &msg, &[first, second]),
                    oracle,
                    "{tier}, cuts at {first} and {second}"
                );
            }
        }
    }
}

#[test]
fn chacha20poly1305_rejects_every_tampering_on_every_tier() {
    // Long enough that `seal` and `open` cross every tier's wide path: a
    // sixteen-block keystream group and a tail, four-block Poly1305
    // groups over both the ciphertext and (in the second case) the AAD.
    let aead = ChaCha20Poly1305::new(&[0xA5; 32]);
    let nonce = [0x17u8; 12];
    let plain = pattern(1100, 6);
    let long_aad = pattern(300, 7);
    for kernel in Kernel::supported() {
        let how = format!("{:?}", tiers(kernel));
        for aad in [&b"header"[..], &long_aad] {
            let sealed = aead.seal_on(kernel, &nonce, aad, &plain);
            assert_eq!(sealed, aead.seal_on(Kernel::scalar(), &nonce, aad, &plain));
            assert_eq!(
                aead.open_on(kernel, &nonce, aad, &sealed).as_deref(),
                Ok(&plain[..]),
                "{how}"
            );
            // Every single-bit flip of the ciphertext and of the tag.
            let mut bent = sealed.clone();
            for bit in 0..8 * sealed.len() {
                bent[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    aead.open_on(kernel, &nonce, aad, &bent),
                    Err(AuthError),
                    "{how}: bit {bit} of the sealed message"
                );
                bent[bit / 8] ^= 1 << (bit % 8);
            }
            // Every single-bit flip of the AAD, and a longer and a shorter one.
            let mut bent_aad = aad.to_vec();
            for bit in 0..8 * aad.len() {
                bent_aad[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    aead.open_on(kernel, &nonce, &bent_aad, &sealed),
                    Err(AuthError),
                    "{how}: bit {bit} of the AAD"
                );
                bent_aad[bit / 8] ^= 1 << (bit % 8);
            }
            bent_aad.push(0);
            assert_eq!(
                aead.open_on(kernel, &nonce, &bent_aad, &sealed),
                Err(AuthError)
            );
            assert_eq!(
                aead.open_on(kernel, &nonce, &aad[..aad.len() - 1], &sealed),
                Err(AuthError)
            );
            // Every truncation, down to nothing.
            for len in 0..sealed.len() {
                assert_eq!(
                    aead.open_on(kernel, &nonce, aad, &sealed[..len]),
                    Err(AuthError),
                    "{how}: truncated to {len}"
                );
            }
            // A wrong nonce (every single-bit flip), and one of a wrong length.
            let mut wrong = nonce;
            for bit in 0..8 * nonce.len() {
                wrong[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(aead.open_on(kernel, &wrong, aad, &sealed), Err(AuthError));
                wrong[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(
                aead.open_on(kernel, &nonce[..11], aad, &sealed),
                Err(AuthError)
            );
        }
    }
}

#[test]
fn chacha20_tiers_agree_on_ragged_lengths_and_counter_wraps() {
    // Two groups of the widest tier and a ragged third, so every length
    // from an empty call through "whole sixteen-block groups, a whole
    // eight-block group and a tail of every size" occurs.
    const LENGTHS: std::ops::RangeInclusive<usize> = 0..=2200;
    let data = pattern(LONG, 4);
    let cipher = ChaCha20::new(
        &core::array::from_fn(|i| 0x6B ^ (5 * i) as u8),
        &core::array::from_fn(|i| 0xD0 + i as u8),
    );
    // No wrap, the AEAD's start, and every place the 2^32 wrap can fall
    // in the first sixteen-block group.
    let counters = [0, 1].into_iter().chain(0xFFFF_FFF0..=0xFFFF_FFFF);
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
        let keystream = chacha_on(kernel, &cipher, 0xFFFF_FFFC, &[0u8; 64 * 40], 0);
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
    fn digest_many_agrees_with_digest_on_random_sets(
        lens in prop::collection::vec(0..2048usize, 0..40),
        salt in any::<u32>(),
    ) {
        let data = pattern(2048 + OFFSETS.end, salt);
        let msgs: Vec<&[u8]> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| &data[i % OFFSETS.end..i % OFFSETS.end + len])
            .collect();
        let expect: Vec<[u8; 32]> = msgs.iter().map(|m| Sha256::digest(m)).collect();
        for kernel in Kernel::supported() {
            prop_assert_eq!(Sha256::digest_many_on(kernel, &msgs), expect.clone());
        }
    }

    #[test]
    fn digest_many_tagged_agrees_with_streaming_on_mixed_lengths(
        lens in prop::collection::vec(
            (0..TAGGED_EDGES.len(), 0usize..3).prop_map(|(e, d)| TAGGED_EDGES[e] + d),
            0..40,
        ),
        long in prop::collection::vec(0..20_000usize, 0..4),
        tag in any::<u8>(),
        salt in any::<u32>(),
    ) {
        // Lengths on and beside the one- and two-block cut-offs of the
        // tagged message, with a few long ones to keep lanes turning over.
        let data = pattern(20_000 + OFFSETS.end, salt);
        let msgs: Vec<&[u8]> = lens
            .iter()
            .chain(&long)
            .enumerate()
            .map(|(i, &len)| &data[i % OFFSETS.end..i % OFFSETS.end + len])
            .collect();
        let expect: Vec<[u8; 32]> = msgs.iter().map(|m| tagged_oracle(tag, m)).collect();
        for kernel in Kernel::supported() {
            prop_assert_eq!(Sha256::digest_many_tagged_on(kernel, tag, &msgs), expect.clone());
        }
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

    #[test]
    fn poly1305_tiers_agree_on_random_input(key in any::<[u8; 32]>(),
                                            widest_r in any::<bool>(), all_ones in any::<bool>(),
                                            len in prop_oneof![0usize..=300, 0usize..=300,
                                                               0usize..=300, 65_535usize..=65_537],
                                            data in prop::collection::vec(any::<u8>(), 65_537..65_538),
                                            cuts in prop::collection::vec(0usize..=65_537, 0..4)) {
        // The adversarial corners: the largest clamped multiplier, and
        // message limbs at their maximum.
        let mut key = key;
        if widest_r {
            key[..16].fill(0xFF);
        }
        let mut msg = data[..len].to_vec();
        if all_ones {
            msg.fill(0xFF);
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (len + 1)).collect();
        cuts.sort_unstable();
        let oracle = poly1305_on(Kernel::scalar(), &key, &msg, &[]);
        prop_assert_eq!(poly1305_by_definition(&key, &msg), oracle);
        for kernel in Kernel::supported() {
            prop_assert_eq!(poly1305_on(kernel, &key, &msg, &[]), oracle);
            prop_assert_eq!(poly1305_on(kernel, &key, &msg, &cuts), oracle);
        }
        prop_assert_eq!(poly1305(&key, &msg), oracle);
    }
}
