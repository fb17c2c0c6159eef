//! Runtime-dispatched kernels for SHA-256 compression, AES-CTR and
//! ChaCha20.
//!
//! The three primitives every archive byte passes through — the SHA-256
//! block function (digests, HMAC, HKDF, the hash-based signer), the
//! AES-CTR keystream (the commercial-default AEAD) and the ChaCha20
//! keystream (the second AEAD, and the DRBG behind every secret-sharing
//! draw) — funnel through one [`Kernel`]: a three-slot vtable chosen once
//! per process, the same recipe as `aeon_gf::kernel`. Each slot is probed
//! on its own, because parts from Haswell to Skylake have `aes` and
//! `avx2` without `sha`:
//!
//! | slot            | tier     | mechanism                                        | availability                |
//! |-----------------|----------|--------------------------------------------------|-----------------------------|
//! | `sha256_blocks` | `scalar` | FIPS 180-4 round loop on `u32`s                  | always                      |
//! | `sha256_blocks` | `ni`     | `sha256rnds2` / `sha256msg1` / `sha256msg2`      | x86-64 with SHA + SSE4.1    |
//! | `aes_ctr`       | `scalar` | FIPS 197 byte-wise rounds, one block at a time   | always                      |
//! | `aes_ctr`       | `ni`     | `aesenc` / `aesenclast`, eight blocks in flight  | x86-64 with AES-NI + SSE4.1 |
//! | `chacha20_xor`  | `scalar` | RFC 8439 block function, one block at a time     | always                      |
//! | `chacha20_xor`  | `avx2`   | the same rounds on eight counter blocks per pass | x86-64 with AVX2            |
//!
//! [`Kernel::active`] gives every slot the fastest tier the host runs
//! (probed with `is_x86_feature_detected!`) and caches the choice.
//! `AEON_FORCE_KERNEL=scalar` pins every slot to the scalar tier; any
//! other value — a GF tier name such as `avx2`, or an unknown string —
//! means auto-detection here, so the variable stays safe to export
//! unconditionally in CI matrices.
//!
//! The scalar tier is the code in [`crate::sha2`], [`crate::aes`] and
//! [`crate::chacha`]: it is what a host without the instructions runs,
//! and the oracle the parity suite (`tests/kernel_parity.rs`) compares
//! the other tiers against, bit for bit. The `ni` AES tier has no
//! data-dependent table lookups; the scalar tier is not constant-time.
//!
//! In the `avx2` ChaCha20 tier every lane carries its own counter,
//! `initial.wrapping_add(lane)`: a group of eight that straddles
//! `0xFFFF_FFFF` equals eight scalar `block` calls. A call — or the end
//! of one — shorter than a whole eight-block group runs the scalar block
//! loop, so a short AEAD message or an 8-byte draw never pays for a wide
//! pass it would mostly discard.

use std::sync::OnceLock;

use crate::aes::Aes;
use crate::chacha::ChaCha20;

/// The implementation tiers of a kernel slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The portable from-scratch code (the universal reference).
    Scalar,
    /// The x86-64 SHA / AES "new instructions".
    Ni,
    /// 256-bit AVX2 integer lanes.
    Avx2,
}

impl Tier {
    /// The lowercase name used in benchmark output: `"scalar"`, `"ni"`
    /// or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Ni => "ni",
            Tier::Avx2 => "avx2",
        }
    }
}

type Sha256Blocks = fn(&mut [u32; 8], &[u8]);
type AesCtr = fn(&Aes, &[u8; 16], &mut [u8]);
type ChaCha20Xor = fn(&ChaCha20, u32, &mut [u8]);

/// One choice of tier for each of the three slots.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    sha256: (Tier, Sha256Blocks),
    aes_ctr: (Tier, AesCtr),
    chacha20: (Tier, ChaCha20Xor),
}

static SCALAR: Kernel = Kernel {
    sha256: (Tier::Scalar, crate::sha2::Sha256::compress_blocks),
    aes_ctr: (Tier::Scalar, Aes::ctr_scalar),
    chacha20: (Tier::Scalar, ChaCha20::xor_scalar),
};

impl Kernel {
    /// The process-wide kernel: for each slot the fastest tier the host
    /// supports, or the scalar tier in all when `AEON_FORCE_KERNEL` is
    /// `scalar`. Selected on first use and cached for the life of the
    /// process.
    pub fn active() -> &'static Kernel {
        static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
        ACTIVE.get_or_init(|| match std::env::var("AEON_FORCE_KERNEL") {
            Ok(v) if v.trim().eq_ignore_ascii_case("scalar") => &SCALAR,
            _ => Kernel::detected(),
        })
    }

    /// The all-scalar kernel (always runnable; the parity oracle).
    pub fn scalar() -> &'static Kernel {
        &SCALAR
    }

    /// Every distinct kernel the host supports, scalar first: the scalar
    /// kernel, then the detected one when any of its slots is not scalar
    /// (benchmark sweeps and cross-tier parity tests iterate this).
    pub fn supported() -> Vec<&'static Kernel> {
        let detected = Kernel::detected();
        let mut kernels = vec![&SCALAR];
        let tiers = [
            detected.sha256_tier(),
            detected.aes_ctr_tier(),
            detected.chacha20_tier(),
        ];
        if tiers != [Tier::Scalar; 3] {
            kernels.push(detected);
        }
        kernels
    }

    fn detected() -> &'static Kernel {
        static DETECTED: OnceLock<Kernel> = OnceLock::new();
        DETECTED.get_or_init(|| {
            #[allow(unused_mut)]
            let mut kernel = SCALAR;
            #[cfg(target_arch = "x86_64")]
            {
                if let Some(f) = x86::sha256_blocks() {
                    kernel.sha256 = (Tier::Ni, f);
                }
                if let Some(f) = x86::aes_ctr() {
                    kernel.aes_ctr = (Tier::Ni, f);
                }
                if let Some(f) = x86::chacha20_xor() {
                    kernel.chacha20 = (Tier::Avx2, f);
                }
            }
            kernel
        })
    }

    /// The tier in this kernel's `sha256_blocks` slot.
    #[inline]
    pub fn sha256_tier(&self) -> Tier {
        self.sha256.0
    }

    /// The tier in this kernel's `aes_ctr` slot.
    #[inline]
    pub fn aes_ctr_tier(&self) -> Tier {
        self.aes_ctr.0
    }

    /// The tier in this kernel's `chacha20_xor` slot.
    #[inline]
    pub fn chacha20_tier(&self) -> Tier {
        self.chacha20.0
    }

    /// Runs the SHA-256 compression function over `blocks` (a whole
    /// number of 64-byte blocks), updating the chaining value `state`.
    /// Padding is the caller's job ([`crate::Sha256`] does it).
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` is not a multiple of 64.
    #[inline]
    pub fn sha256_blocks(&self, state: &mut [u32; 8], blocks: &[u8]) {
        assert!(blocks.len().is_multiple_of(64), "whole 64-byte blocks");
        (self.sha256.1)(state, blocks);
    }

    /// XORs the AES-CTR keystream into `data`: block `i` of the keystream
    /// is the encryption under `aes` of `iv` with its low 32 bits
    /// (big-endian) advanced by `i`, wrapping silently — see
    /// [`Aes::apply_ctr`] for the limit that puts on callers.
    #[inline]
    pub fn aes_ctr(&self, aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
        (self.aes_ctr.1)(aes, iv, data);
    }

    /// XORs the ChaCha20 keystream into `data`: block `i` of the
    /// keystream is [`ChaCha20::block`] at `initial_counter` advanced by
    /// `i`, wrapping silently — see [`ChaCha20::apply_keystream`] for the
    /// limit that puts on callers.
    #[inline]
    pub fn chacha20_xor(&self, cipher: &ChaCha20, initial_counter: u32, data: &mut [u8]) {
        (self.chacha20.1)(cipher, initial_counter, data);
    }
}

/// The SHA-NI, AES-NI and AVX2 tiers: the one `unsafe` island in the
/// crate.
///
/// `unsafe` is needed for two things only. (1) Calling a
/// `#[target_feature]` function: the three `*_impl` functions are
/// private and reachable only through the `fn` pointers
/// [`sha256_blocks`], [`aes_ctr`] and [`chacha20_xor`] hand out after the
/// matching `is_x86_feature_detected!` probe succeeded. (2) The
/// unaligned vector load and store, wrapped once per width in [`load`] /
/// [`store`] (16 bytes) and [`load256`] / [`store256`] (32 bytes), whose
/// array-reference arguments prove the bytes are there. Everything else
/// — the arithmetic intrinsics — is safe inside a function that enables
/// the feature.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{AesCtr, ChaCha20Xor, Sha256Blocks};
    use crate::aes::Aes;
    use crate::chacha::ChaCha20;
    use crate::sha2::K256;
    use std::arch::x86_64::*;

    /// The `ni` tier of the `sha256_blocks` slot, when this host runs it.
    pub(super) fn sha256_blocks() -> Option<Sha256Blocks> {
        let runs = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        runs.then_some(sha256_blocks_ni as Sha256Blocks)
    }

    /// The `ni` tier of the `aes_ctr` slot, when this host runs it.
    pub(super) fn aes_ctr() -> Option<AesCtr> {
        let runs = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1");
        runs.then_some(aes_ctr_ni as AesCtr)
    }

    /// The `avx2` tier of the `chacha20_xor` slot, when this host runs it.
    pub(super) fn chacha20_xor() -> Option<ChaCha20Xor> {
        is_x86_feature_detected!("avx2").then_some(chacha20_xor_avx2 as ChaCha20Xor)
    }

    fn sha256_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: this function is only reachable through the pointer
        // `sha256_blocks()` returns, and it returns one only after the
        // sha, ssse3 and sse4.1 probes all succeeded on this host.
        unsafe { sha256_blocks_impl(state, blocks) }
    }

    fn aes_ctr_ni(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
        // SAFETY: this function is only reachable through the pointer
        // `aes_ctr()` returns, and it returns one only after the aes and
        // sse4.1 probes both succeeded on this host.
        unsafe { aes_ctr_impl(aes.round_keys(), iv, data) }
    }

    fn chacha20_xor_avx2(cipher: &ChaCha20, initial_counter: u32, data: &mut [u8]) {
        let (groups, tail) = data.as_chunks_mut::<CHACHA_GROUP>();
        if !groups.is_empty() {
            // SAFETY: this function is only reachable through the pointer
            // `chacha20_xor()` returns, and it returns one only after the
            // avx2 probe succeeded on this host.
            unsafe { chacha20_groups_impl(cipher.state(), initial_counter, groups) }
        }
        // Less than a whole group — a short call, or the end of a long
        // one — goes through the scalar block loop, which computes only
        // the blocks it needs. `as u32` and `wrapping_add` agree mod 2^32.
        let done = (groups.len() * CHACHA_LANES) as u32;
        cipher.xor_scalar(initial_counter.wrapping_add(done), tail);
    }

    #[inline(always)]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is a live reference to exactly 16 readable
        // bytes, `loadu` has no alignment requirement, and SSE2 is part
        // of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(bytes: &mut [u8; 16], v: __m128i) {
        // SAFETY: `bytes` is a live exclusive reference to exactly 16
        // writable bytes, `storeu` has no alignment requirement, and SSE2
        // is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load256(bytes: &[u8; 32]) -> __m256i {
        // SAFETY: `bytes` is a live reference to exactly 32 readable
        // bytes and `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store256(bytes: &mut [u8; 32], v: __m256i) {
        // SAFETY: `bytes` is a live exclusive reference to exactly 32
        // writable bytes and `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
    }

    /// Four rounds: `$m` holds message words `W[4g..4g+4]`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $m:expr, $g:expr) => {{
            let k = _mm_set_epi32(
                K256[4 * $g + 3] as i32,
                K256[4 * $g + 2] as i32,
                K256[4 * $g + 1] as i32,
                K256[4 * $g] as i32,
            );
            let wk = _mm_add_epi32($m, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }

    /// Message schedule: replaces `$w0 = W[i-16..i-12]` by `W[i..i+4]`,
    /// given the three later quads, then runs its four rounds.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $g:expr) => {{
            let t = _mm_sha256msg1_epu32($w0, $w1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8::<4>($w3, $w2));
            $w0 = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $w0, $g);
        }};
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn sha256_blocks_impl(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        // `sha256rnds2` wants the state as (A,B,E,F) and (C,D,G,H),
        // highest lane first.
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Big-endian message words from little-endian lanes.
        let flip = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);

        for block in blocks.as_chunks::<64>().0 {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let [q0, q1, q2, q3] = block.as_chunks::<16>().0 else {
                unreachable!("a 64-byte block is four 16-byte quads")
            };
            let mut w0 = _mm_shuffle_epi8(load(q0), flip);
            let mut w1 = _mm_shuffle_epi8(load(q1), flip);
            let mut w2 = _mm_shuffle_epi8(load(q2), flip);
            let mut w3 = _mm_shuffle_epi8(load(q3), flip);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }

    /// Counter blocks encrypted together: enough independent `aesenc`
    /// chains to cover the instruction's latency.
    const LANES: usize = 8;

    #[target_feature(enable = "aes,sse2,sse4.1")]
    fn aes_ctr_impl(round_keys: &[[u8; 16]], iv: &[u8; 16], data: &mut [u8]) {
        let mut schedule = [_mm_setzero_si128(); 15];
        for (slot, key) in schedule.iter_mut().zip(round_keys) {
            *slot = load(key);
        }
        let [first, middle @ .., last] = &schedule[..round_keys.len()] else {
            unreachable!("an `Aes` holds 11 or 15 round keys")
        };
        let base = load(iv);
        let mut counter = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]);

        // XORs keystream blocks `counter..counter + LANES` into `group`.
        let mut apply = |group: &mut [u8; 16 * LANES]| {
            let mut ks = [base; LANES];
            for (i, block) in ks.iter_mut().enumerate() {
                let word = counter.wrapping_add(i as u32).swap_bytes();
                *block = _mm_xor_si128(_mm_insert_epi32::<3>(*block, word as i32), *first);
            }
            for key in middle {
                for block in &mut ks {
                    *block = _mm_aesenc_si128(*block, *key);
                }
            }
            for (block, lane) in ks.iter().zip(group.as_chunks_mut::<16>().0) {
                let block = _mm_aesenclast_si128(*block, *last);
                store(lane, _mm_xor_si128(load(lane), block));
            }
            counter = counter.wrapping_add(LANES as u32);
        };

        let (groups, tail) = data.as_chunks_mut::<{ 16 * LANES }>();
        for group in groups {
            apply(group);
        }
        if !tail.is_empty() {
            // A ragged tail goes through the same code on a stack copy;
            // the keystream past its end is discarded.
            let mut group = [0u8; 16 * LANES];
            group[..tail.len()].copy_from_slice(tail);
            apply(&mut group);
            tail.copy_from_slice(&group[..tail.len()]);
        }
    }

    /// Rotates every 32-bit lane of `$v` left by `$n` bits.
    macro_rules! rotl {
        ($v:expr, $n:literal) => {{
            let v = $v;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(v),
                _mm256_srli_epi32::<{ 32 - $n }>(v),
            )
        }};
    }

    /// The RFC 8439 §2.1 quarter round on state words `$a $b $c $d`, each
    /// a vector holding that word of eight blocks.
    macro_rules! quarter_round {
        ($s:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {{
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm256_xor_si256($s[$d], $s[$a]), 16);
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm256_xor_si256($s[$b], $s[$c]), 12);
            $s[$a] = _mm256_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm256_xor_si256($s[$d], $s[$a]), 8);
            $s[$c] = _mm256_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm256_xor_si256($s[$b], $s[$c]), 7);
        }};
    }

    /// Transposes an 8×8 matrix of 32-bit words: row `w` of the input is
    /// word `w` of eight blocks, row `l` of the output is eight
    /// consecutive words of block `l`.
    #[target_feature(enable = "avx2")]
    fn transpose8(r: &[__m256i; 8]) -> [__m256i; 8] {
        let pairs = [
            _mm256_unpacklo_epi32(r[0], r[1]),
            _mm256_unpackhi_epi32(r[0], r[1]),
            _mm256_unpacklo_epi32(r[2], r[3]),
            _mm256_unpackhi_epi32(r[2], r[3]),
            _mm256_unpacklo_epi32(r[4], r[5]),
            _mm256_unpackhi_epi32(r[4], r[5]),
            _mm256_unpacklo_epi32(r[6], r[7]),
            _mm256_unpackhi_epi32(r[6], r[7]),
        ];
        // quads[i] = words 0..4 (or 4..8) of blocks i and i + 4.
        let quads = [
            _mm256_unpacklo_epi64(pairs[0], pairs[2]),
            _mm256_unpackhi_epi64(pairs[0], pairs[2]),
            _mm256_unpacklo_epi64(pairs[1], pairs[3]),
            _mm256_unpackhi_epi64(pairs[1], pairs[3]),
            _mm256_unpacklo_epi64(pairs[4], pairs[6]),
            _mm256_unpackhi_epi64(pairs[4], pairs[6]),
            _mm256_unpacklo_epi64(pairs[5], pairs[7]),
            _mm256_unpackhi_epi64(pairs[5], pairs[7]),
        ];
        [
            _mm256_permute2x128_si256::<0x20>(quads[0], quads[4]),
            _mm256_permute2x128_si256::<0x20>(quads[1], quads[5]),
            _mm256_permute2x128_si256::<0x20>(quads[2], quads[6]),
            _mm256_permute2x128_si256::<0x20>(quads[3], quads[7]),
            _mm256_permute2x128_si256::<0x31>(quads[0], quads[4]),
            _mm256_permute2x128_si256::<0x31>(quads[1], quads[5]),
            _mm256_permute2x128_si256::<0x31>(quads[2], quads[6]),
            _mm256_permute2x128_si256::<0x31>(quads[3], quads[7]),
        ]
    }

    /// Counter blocks per pass: one per 32-bit lane of a 256-bit vector.
    const CHACHA_LANES: usize = 8;

    /// Keystream bytes per pass.
    const CHACHA_GROUP: usize = 64 * CHACHA_LANES;

    /// XORs keystream blocks `initial_counter..` into `groups`, eight
    /// blocks per group.
    #[target_feature(enable = "avx2")]
    fn chacha20_groups_impl(
        state: &[u32; 16],
        initial_counter: u32,
        groups: &mut [[u8; CHACHA_GROUP]],
    ) {
        let mut initial = state.map(|word| _mm256_set1_epi32(word as i32));
        let lane_offsets = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut counter = initial_counter;
        for group in groups {
            // Lane `l` is block `counter + l`; `add_epi32` wraps each
            // lane on its own, as eight scalar `block` calls would.
            initial[12] = _mm256_add_epi32(_mm256_set1_epi32(counter as i32), lane_offsets);
            let mut working = initial;
            for _ in 0..10 {
                quarter_round!(working, 0, 4, 8, 12);
                quarter_round!(working, 1, 5, 9, 13);
                quarter_round!(working, 2, 6, 10, 14);
                quarter_round!(working, 3, 7, 11, 15);
                quarter_round!(working, 0, 5, 10, 15);
                quarter_round!(working, 1, 6, 11, 12);
                quarter_round!(working, 2, 7, 8, 13);
                quarter_round!(working, 3, 4, 9, 14);
            }
            for (word, init) in working.iter_mut().zip(&initial) {
                *word = _mm256_add_epi32(*word, *init);
            }
            let [low, high] = working.as_chunks::<8>().0 else {
                unreachable!("sixteen state words are two halves of eight")
            };
            let (low, high) = (transpose8(low), transpose8(high));
            for (l, block) in group.as_chunks_mut::<64>().0.iter_mut().enumerate() {
                let [first, second] = block.as_chunks_mut::<32>().0 else {
                    unreachable!("a 64-byte block is two 32-byte halves")
                };
                store256(first, _mm256_xor_si256(load256(first), low[l]));
                store256(second, _mm256_xor_si256(load256(second), high[l]));
            }
            counter = counter.wrapping_add(CHACHA_LANES as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Ni.name(), "ni");
        assert_eq!(Tier::Avx2.name(), "avx2");
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn partial_sha_block_is_rejected() {
        Kernel::scalar().sha256_blocks(&mut [0; 8], &[0; 65]);
    }
}
