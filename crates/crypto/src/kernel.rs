//! Runtime-dispatched kernels for SHA-256 compression, AES-CTR, ChaCha20
//! and Poly1305.
//!
//! The four primitives every archive byte passes through — the SHA-256
//! block function (digests, HMAC, HKDF, the hash-based signer), the
//! AES-CTR keystream (the commercial-default AEAD), the ChaCha20
//! keystream (the second AEAD, and the DRBG behind every secret-sharing
//! draw) and the Poly1305 block loop (that AEAD's authenticator) — funnel
//! through one [`Kernel`]: a five-slot vtable chosen once per process, the
//! same recipe as `aeon_gf::kernel`. The fifth slot is the SHA-256 block
//! function again, on sixteen independent messages at once
//! ([`crate::Sha256::digest_many`]). Each slot is probed on its own,
//! because parts from Haswell to Skylake have `aes` and `avx2` without
//! `sha`:
//!
//! | slot              | tier     | mechanism                                          | availability                |
//! |-------------------|----------|----------------------------------------------------|-----------------------------|
//! | `sha256_blocks`   | `scalar` | FIPS 180-4 round loop on `u32`s                    | always                      |
//! | `sha256_blocks`   | `ni`     | `sha256rnds2` / `sha256msg1` / `sha256msg2`        | x86-64 with SHA + SSE4.1    |
//! | `sha256_x16`      | `scalar` | sixteen `sha256_blocks` scalar calls, lane by lane | always                      |
//! | `sha256_x16`      | `avx512` | a message per 32-bit lane, `vprord`/`vpternlogd`   | x86-64 with AVX-512F + BW   |
//! | `aes_ctr`         | `scalar` | FIPS 197 byte-wise rounds, one block at a time     | always                      |
//! | `aes_ctr`         | `ni`     | `aesenc` / `aesenclast`, eight blocks in flight    | x86-64 with AES-NI + SSE4.1 |
//! | `chacha20_xor`    | `scalar` | RFC 8439 block function, one block at a time       | always                      |
//! | `chacha20_xor`    | `avx2`   | the same rounds on eight counter blocks per pass   | x86-64 with AVX2            |
//! | `chacha20_xor`    | `avx512` | sixteen counter blocks per pass, `vprold` rotates  | x86-64 with AVX-512F + AVX2 |
//! | `poly1305_blocks` | `scalar` | RFC 8439 §2.5.1, one multiply by `r` per block     | always                      |
//! | `poly1305_blocks` | `avx2`   | four blocks per pass in radix 2²⁶, `r⁴` per pass   | x86-64 with AVX2            |
//!
//! [`Kernel::active`] gives every slot the fastest tier the host runs
//! (probed with `is_x86_feature_detected!`) and caches the choice.
//! `AEON_FORCE_KERNEL=scalar` pins every slot to the scalar tier; any
//! other value — a GF tier name such as `avx2`, or an unknown string —
//! means auto-detection here, so the variable stays safe to export
//! unconditionally in CI matrices.
//!
//! The scalar tier is the code in [`crate::sha2`], [`crate::aes`],
//! [`crate::chacha`] and [`crate::poly1305`]: it is what a host without
//! the instructions runs, and the oracle the parity suite
//! (`tests/kernel_parity.rs`) compares the other tiers against, bit for
//! bit. The `ni` AES tier has no data-dependent table lookups; the scalar
//! tier is not constant-time.
//!
//! In the wide ChaCha20 tiers every lane carries its own counter,
//! `initial.wrapping_add(lane)`: a group of eight or sixteen that
//! straddles `0xFFFF_FFFF` equals as many scalar `block` calls. A wide
//! tier takes the whole groups of a call and hands what is left to the
//! tier below it — `avx512` sixteen-block groups, then `avx2` eight-block
//! groups, then the scalar block loop — so a short AEAD message or an
//! 8-byte draw never pays for a wide pass it would mostly discard.
//!
//! The `avx2` Poly1305 tier computes `h ← (h + m₀)·r⁴ + m₁·r³ + m₂·r² +
//! m₃·r` over each 64-byte group, four blocks side by side, and returns
//! the accumulator in the five limbs the scalar code keeps; `r²…r⁴` are
//! computed once per message, by the scalar multiply. A call with fewer
//! than four whole groups (256 bytes) would not repay them and runs the
//! scalar loop, as do the blocks after the last whole group; the partial
//! head and tail of an `update` and `finalize` never reach the slot.
//!
//! The `sha256_x16` slot holds sixteen chaining values and gives each lane
//! its own run of blocks. The `avx512` tier runs as many block steps as
//! the longest lane has and masks the state update of each lane that has
//! run out, so an idle lane (an empty run) costs a share of the passes
//! and changes nothing. Which message goes in which lane, and when the
//! lanes stop paying, is the scheduler's business
//! ([`crate::Sha256::digest_many`]).

use std::sync::OnceLock;

use crate::aes::Aes;
use crate::chacha::ChaCha20;
use crate::poly1305::Poly1305;

/// The implementation tiers of a kernel slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The portable from-scratch code (the universal reference).
    Scalar,
    /// The x86-64 SHA / AES "new instructions".
    Ni,
    /// 256-bit AVX2 integer lanes.
    Avx2,
    /// 512-bit AVX-512F integer lanes.
    Avx512,
}

impl Tier {
    /// The lowercase name used in benchmark output: `"scalar"`, `"ni"`,
    /// `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Ni => "ni",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

type Sha256Blocks = fn(&mut [u32; 8], &[u8]);
type Sha256X16 = fn(&mut Sha256Lanes, &[&[u8]; 16]);
type AesCtr = fn(&Aes, &[u8; 16], &mut [u8]);
type ChaCha20Xor = fn(&ChaCha20, u32, &mut [u8]);
type Poly1305Blocks = fn(&mut Poly1305, &[u8]);

/// Sixteen SHA-256 chaining values, word-major: `lanes[w][l]` is word `w`
/// of lane `l`'s value — one row per state word, the layout the wide tier
/// computes in.
pub type Sha256Lanes = [[u32; 16]; 8];

/// One choice of tier for each of the five slots.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    sha256: (Tier, Sha256Blocks),
    sha256_x16: (Tier, Sha256X16),
    aes_ctr: (Tier, AesCtr),
    chacha20: (Tier, ChaCha20Xor),
    poly1305: (Tier, Poly1305Blocks),
}

static SCALAR: Kernel = Kernel {
    sha256: (Tier::Scalar, crate::sha2::Sha256::compress_blocks),
    sha256_x16: (Tier::Scalar, crate::sha2::Sha256::compress_lanes),
    aes_ctr: (Tier::Scalar, Aes::ctr_scalar),
    chacha20: (Tier::Scalar, ChaCha20::xor_scalar),
    poly1305: (Tier::Scalar, Poly1305::blocks_scalar),
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
            _ => &Kernel::detected()[1],
        })
    }

    /// The all-scalar kernel (always runnable; the parity oracle).
    pub fn scalar() -> &'static Kernel {
        &SCALAR
    }

    /// Every distinct kernel the host runs, slowest first, so that each
    /// runnable tier of each slot is in one of them: the scalar kernel,
    /// the widest tiers up to AVX2, and the detected kernel where a slot
    /// goes wider still (benchmark sweeps and cross-tier parity tests
    /// iterate this). Without this an AVX-512 host would never run the
    /// AVX2 ChaCha20 tier again.
    pub fn supported() -> Vec<&'static Kernel> {
        let mut kernels = vec![&SCALAR];
        for kernel in Kernel::detected() {
            if kernel.tiers() != kernels[kernels.len() - 1].tiers() {
                kernels.push(kernel);
            }
        }
        kernels
    }

    /// The fastest tiers the host runs: up to AVX2, then of all.
    fn detected() -> &'static [Kernel; 2] {
        static DETECTED: OnceLock<[Kernel; 2]> = OnceLock::new();
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
                if let Some(f) = x86::poly1305_blocks() {
                    kernel.poly1305 = (Tier::Avx2, f);
                }
            }
            #[allow(unused_mut)]
            let mut widest = kernel;
            #[cfg(target_arch = "x86_64")]
            {
                if let Some(f) = x86::chacha20_xor_512() {
                    widest.chacha20 = (Tier::Avx512, f);
                }
                if let Some(f) = x86::sha256_x16() {
                    widest.sha256_x16 = (Tier::Avx512, f);
                }
            }
            [kernel, widest]
        })
    }

    fn tiers(&self) -> [Tier; 5] {
        [
            self.sha256.0,
            self.sha256_x16.0,
            self.aes_ctr.0,
            self.chacha20.0,
            self.poly1305.0,
        ]
    }

    /// The tier in this kernel's `sha256_blocks` slot.
    #[inline]
    pub fn sha256_tier(&self) -> Tier {
        self.sha256.0
    }

    /// The tier in this kernel's `sha256_x16` slot.
    #[inline]
    pub fn sha256_x16_tier(&self) -> Tier {
        self.sha256_x16.0
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

    /// The tier in this kernel's `poly1305_blocks` slot.
    #[inline]
    pub fn poly1305_tier(&self) -> Tier {
        self.poly1305.0
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

    /// [`Self::sha256_blocks`] on sixteen independent messages: lane `l`
    /// absorbs `lanes[l]` (a whole number of 64-byte blocks; empty for an
    /// idle lane) into its chaining value, column `l` of `states`. Lanes
    /// may differ in length.
    ///
    /// # Panics
    ///
    /// Panics if a lane's length is not a multiple of 64.
    #[inline]
    pub fn sha256_x16(&self, states: &mut Sha256Lanes, lanes: &[&[u8]; 16]) {
        assert!(
            lanes.iter().all(|lane| lane.len().is_multiple_of(64)),
            "whole 64-byte blocks"
        );
        (self.sha256_x16.1)(states, lanes);
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

    /// Absorbs `blocks`, a whole number of full 16-byte Poly1305 blocks,
    /// into `mac`'s accumulator. [`Poly1305::update_on`] is the entry
    /// point: it owns the partial block this bypasses.
    #[inline]
    pub(crate) fn poly1305_blocks(&self, mac: &mut Poly1305, blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(16), "whole 16-byte blocks");
        (self.poly1305.1)(mac, blocks);
    }
}

/// The SHA-NI, AES-NI, AVX2 and AVX-512 tiers: the one `unsafe` island in
/// the crate.
///
/// `unsafe` is needed for two things only. (1) Calling a
/// `#[target_feature]` function: the six `*_impl` functions are private
/// and reachable only through the `fn` pointers [`sha256_blocks`],
/// [`sha256_x16`], [`aes_ctr`], [`chacha20_xor`], [`chacha20_xor_512`]
/// and [`poly1305_blocks`] hand out after the matching
/// `is_x86_feature_detected!` probes succeeded. (2) The unaligned vector
/// load and store, wrapped once per width in [`load`] / [`store`] (16
/// bytes), [`load256`] / [`store256`] (32 bytes) and [`load512`] /
/// [`store512`] (64 bytes, and [`load512_words`] / [`store512_words`] for
/// sixteen `u32`s), whose array-reference arguments prove the bytes are
/// there. Everything else — the arithmetic intrinsics — is safe inside a
/// function that enables the feature.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{AesCtr, ChaCha20Xor, Poly1305Blocks, Sha256Blocks, Sha256Lanes, Sha256X16};
    use crate::aes::Aes;
    use crate::chacha::ChaCha20;
    use crate::poly1305::Poly1305;
    use crate::sha2::K256;
    use std::arch::x86_64::*;

    /// The `ni` tier of the `sha256_blocks` slot, when this host runs it.
    pub(super) fn sha256_blocks() -> Option<Sha256Blocks> {
        let runs = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        runs.then_some(sha256_blocks_ni as Sha256Blocks)
    }

    /// The `avx512` tier of the `sha256_x16` slot, when this host runs it.
    pub(super) fn sha256_x16() -> Option<Sha256X16> {
        let runs = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        runs.then_some(sha256_x16_avx512 as Sha256X16)
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

    /// The `avx512` tier of the `chacha20_xor` slot, when this host runs
    /// it: it hands what is left of a call to the `avx2` tier.
    pub(super) fn chacha20_xor_512() -> Option<ChaCha20Xor> {
        let runs = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2");
        runs.then_some(chacha20_xor_avx512 as ChaCha20Xor)
    }

    /// The `avx2` tier of the `poly1305_blocks` slot, when this host runs
    /// it.
    pub(super) fn poly1305_blocks() -> Option<Poly1305Blocks> {
        is_x86_feature_detected!("avx2").then_some(poly1305_blocks_avx2 as Poly1305Blocks)
    }

    fn sha256_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: this function is only reachable through the pointer
        // `sha256_blocks()` returns, and it returns one only after the
        // sha, ssse3 and sse4.1 probes all succeeded on this host.
        unsafe { sha256_blocks_impl(state, blocks) }
    }

    fn sha256_x16_avx512(states: &mut Sha256Lanes, lanes: &[&[u8]; 16]) {
        // SAFETY: this function is only reachable through the pointer
        // `sha256_x16()` returns, and it returns one only after the
        // avx512f and avx512bw probes both succeeded on this host.
        unsafe { sha256_x16_impl(states, lanes) }
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
            // `chacha20_xor()` returns or from `chacha20_xor_avx512`, and
            // either is handed out only after the avx2 probe succeeded on
            // this host.
            unsafe { chacha20_groups_impl(cipher.state(), initial_counter, groups) }
        }
        // Less than a whole group — a short call, or the end of a long
        // one — goes through the scalar block loop, which computes only
        // the blocks it needs. `as u32` and `wrapping_add` agree mod 2^32.
        let done = (groups.len() * CHACHA_LANES) as u32;
        cipher.xor_scalar(initial_counter.wrapping_add(done), tail);
    }

    fn chacha20_xor_avx512(cipher: &ChaCha20, initial_counter: u32, data: &mut [u8]) {
        let (groups, rest) = data.as_chunks_mut::<CHACHA_GROUP_512>();
        if !groups.is_empty() {
            // SAFETY: this function is only reachable through the pointer
            // `chacha20_xor_512()` returns, and it returns one only after
            // the avx512f probe succeeded on this host.
            unsafe { chacha20_groups512_impl(cipher.state(), initial_counter, groups) }
        }
        let done = (groups.len() * CHACHA_LANES_512) as u32;
        chacha20_xor_avx2(cipher, initial_counter.wrapping_add(done), rest);
    }

    fn poly1305_blocks_avx2(mac: &mut Poly1305, blocks: &[u8]) {
        let (groups, tail) = blocks.as_chunks::<POLY_GROUP>();
        if groups.len() < POLY_MIN_GROUPS {
            return mac.blocks_scalar(blocks);
        }
        let powers = mac.powers();
        // SAFETY: this function is only reachable through the pointer
        // `poly1305_blocks()` returns, and it returns one only after the
        // avx2 probe succeeded on this host.
        let limbs = unsafe { poly1305_groups_impl(mac.accumulator(), &powers, groups) };
        mac.set_accumulator(limbs);
        mac.blocks_scalar(tail);
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

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512(bytes: &[u8; 64]) -> __m512i {
        // SAFETY: `bytes` is a live reference to exactly 64 readable
        // bytes and `loadu` has no alignment requirement.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store512(bytes: &mut [u8; 64], v: __m512i) {
        // SAFETY: `bytes` is a live exclusive reference to exactly 64
        // writable bytes and `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512_words(words: &[u32; 16]) -> __m512i {
        // SAFETY: `words` is a live reference to exactly 64 readable
        // bytes and `loadu` has no alignment requirement.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store512_words(words: &mut [u32; 16], v: __m512i) {
        // SAFETY: `words` is a live exclusive reference to exactly 64
        // writable bytes and `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) }
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

    /// The quarter round of [`quarter_round!`] on sixteen blocks, with
    /// the rotates AVX-512F has natively.
    macro_rules! quarter_round512 {
        ($s:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {{
            $s[$a] = _mm512_add_epi32($s[$a], $s[$b]);
            $s[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($s[$d], $s[$a]));
            $s[$c] = _mm512_add_epi32($s[$c], $s[$d]);
            $s[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($s[$b], $s[$c]));
            $s[$a] = _mm512_add_epi32($s[$a], $s[$b]);
            $s[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($s[$d], $s[$a]));
            $s[$c] = _mm512_add_epi32($s[$c], $s[$d]);
            $s[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($s[$b], $s[$c]));
        }};
    }

    /// Transposes a 16×16 matrix of 32-bit words: row `w` of the input is
    /// word `w` of sixteen blocks, row `l` of the output is block `l`.
    #[target_feature(enable = "avx512f")]
    fn transpose16(r: &[__m512i; 16]) -> [__m512i; 16] {
        let mut out = [_mm512_setzero_si512(); 16];
        // quads[g][j], 128-bit lane q = words 4g..4g+4 of block 4q + j.
        let mut quads = [[_mm512_setzero_si512(); 4]; 4];
        for (quad, rows) in quads.iter_mut().zip(r.as_chunks::<4>().0) {
            let pairs = [
                _mm512_unpacklo_epi32(rows[0], rows[1]),
                _mm512_unpackhi_epi32(rows[0], rows[1]),
                _mm512_unpacklo_epi32(rows[2], rows[3]),
                _mm512_unpackhi_epi32(rows[2], rows[3]),
            ];
            *quad = [
                _mm512_unpacklo_epi64(pairs[0], pairs[2]),
                _mm512_unpackhi_epi64(pairs[0], pairs[2]),
                _mm512_unpacklo_epi64(pairs[1], pairs[3]),
                _mm512_unpackhi_epi64(pairs[1], pairs[3]),
            ];
        }
        // A 4×4 transpose of 128-bit lanes gathers block 4q + j's four
        // quarters: `0x88` picks lanes 0 and 2 of each operand, `0xDD`
        // lanes 1 and 3.
        for j in 0..4 {
            let even_low = _mm512_shuffle_i32x4::<0x88>(quads[0][j], quads[1][j]);
            let odd_low = _mm512_shuffle_i32x4::<0xDD>(quads[0][j], quads[1][j]);
            let even_high = _mm512_shuffle_i32x4::<0x88>(quads[2][j], quads[3][j]);
            let odd_high = _mm512_shuffle_i32x4::<0xDD>(quads[2][j], quads[3][j]);
            out[j] = _mm512_shuffle_i32x4::<0x88>(even_low, even_high);
            out[4 + j] = _mm512_shuffle_i32x4::<0x88>(odd_low, odd_high);
            out[8 + j] = _mm512_shuffle_i32x4::<0xDD>(even_low, even_high);
            out[12 + j] = _mm512_shuffle_i32x4::<0xDD>(odd_low, odd_high);
        }
        out
    }

    /// Counter blocks per pass of the `avx512` tier: one per 32-bit lane
    /// of a 512-bit vector.
    const CHACHA_LANES_512: usize = 16;

    /// Keystream bytes per pass of the `avx512` tier.
    const CHACHA_GROUP_512: usize = 64 * CHACHA_LANES_512;

    /// XORs keystream blocks `initial_counter..` into `groups`, sixteen
    /// blocks per group.
    #[target_feature(enable = "avx512f")]
    fn chacha20_groups512_impl(
        state: &[u32; 16],
        initial_counter: u32,
        groups: &mut [[u8; CHACHA_GROUP_512]],
    ) {
        let mut initial = state.map(|word| _mm512_set1_epi32(word as i32));
        let lane_offsets = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut counter = initial_counter;
        for group in groups {
            // Lane `l` is block `counter + l`; `add_epi32` wraps each
            // lane on its own, as sixteen scalar `block` calls would.
            initial[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), lane_offsets);
            let mut working = initial;
            for _ in 0..10 {
                quarter_round512!(working, 0, 4, 8, 12);
                quarter_round512!(working, 1, 5, 9, 13);
                quarter_round512!(working, 2, 6, 10, 14);
                quarter_round512!(working, 3, 7, 11, 15);
                quarter_round512!(working, 0, 5, 10, 15);
                quarter_round512!(working, 1, 6, 11, 12);
                quarter_round512!(working, 2, 7, 8, 13);
                quarter_round512!(working, 3, 4, 9, 14);
            }
            for (word, init) in working.iter_mut().zip(&initial) {
                *word = _mm512_add_epi32(*word, *init);
            }
            let keystream = transpose16(&working);
            for (block, ks) in group.as_chunks_mut::<64>().0.iter_mut().zip(keystream) {
                store512(block, _mm512_xor_si512(load512(block), ks));
            }
            counter = counter.wrapping_add(CHACHA_LANES_512 as u32);
        }
    }

    /// `x ⊕ y ⊕ z` in one `vpternlogd`.
    macro_rules! xor3 {
        ($x:expr, $y:expr, $z:expr) => {
            _mm512_ternarylogic_epi32::<0x96>($x, $y, $z)
        };
    }

    /// FIPS 180-4 §4.1.2's `σ` (two rotates and a shift) or `Σ` (three
    /// rotates) on sixteen lanes: `xor3` of the three terms.
    macro_rules! sigma {
        ($x:expr, $r1:literal, $r2:literal, >> $s:literal) => {{
            let x = $x;
            xor3!(
                _mm512_ror_epi32::<$r1>(x),
                _mm512_ror_epi32::<$r2>(x),
                _mm512_srli_epi32::<$s>(x)
            )
        }};
        ($x:expr, $r1:literal, $r2:literal, $r3:literal) => {{
            let x = $x;
            xor3!(
                _mm512_ror_epi32::<$r1>(x),
                _mm512_ror_epi32::<$r2>(x),
                _mm512_ror_epi32::<$r3>(x)
            )
        }};
    }

    /// One SHA-256 round on sixteen lanes (FIPS 180-4 §6.2.2 step 3),
    /// given `W[t] + K[t]`. Only `$d` (the next `e`) and `$h` (the next
    /// `a`) change; the caller rotates the names instead of the values.
    macro_rules! sha_round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:expr) => {{
            // `Ch` = e ? f : g is table 0xCA, `Maj` is table 0xE8.
            let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
            let t1 = _mm512_add_epi32(
                _mm512_add_epi32($h, $wk),
                _mm512_add_epi32(sigma!($e, 6, 11, 25), ch),
            );
            let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
            $d = _mm512_add_epi32($d, t1);
            $h = _mm512_add_epi32(t1, _mm512_add_epi32(sigma!($a, 2, 13, 22), maj));
        }};
    }

    /// Sixteen rounds over the message words in `$w` and their sixteen
    /// round constants `$k`: two full turns of the names, so `$s` holds
    /// a..h in order again after.
    macro_rules! sha_rounds16 {
        ($s:ident, $w:ident, $k:expr) => {{
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = $s;
            let k: &[u32; 16] = $k;
            let wk = |i: usize| _mm512_add_epi32($w[i], _mm512_set1_epi32(k[i] as i32));
            sha_round!(a, b, c, d, e, f, g, h, wk(0));
            sha_round!(h, a, b, c, d, e, f, g, wk(1));
            sha_round!(g, h, a, b, c, d, e, f, wk(2));
            sha_round!(f, g, h, a, b, c, d, e, wk(3));
            sha_round!(e, f, g, h, a, b, c, d, wk(4));
            sha_round!(d, e, f, g, h, a, b, c, wk(5));
            sha_round!(c, d, e, f, g, h, a, b, wk(6));
            sha_round!(b, c, d, e, f, g, h, a, wk(7));
            sha_round!(a, b, c, d, e, f, g, h, wk(8));
            sha_round!(h, a, b, c, d, e, f, g, wk(9));
            sha_round!(g, h, a, b, c, d, e, f, wk(10));
            sha_round!(f, g, h, a, b, c, d, e, wk(11));
            sha_round!(e, f, g, h, a, b, c, d, wk(12));
            sha_round!(d, e, f, g, h, a, b, c, wk(13));
            sha_round!(c, d, e, f, g, h, a, b, wk(14));
            sha_round!(b, c, d, e, f, g, h, a, wk(15));
            $s = [a, b, c, d, e, f, g, h];
        }};
    }

    /// The next sixteen message words in place: `W[t] = σ₁(W[t−2]) +
    /// W[t−7] + σ₀(W[t−15]) + W[t−16]`, slot `t mod 16`, for each slot
    /// listed (all sixteen, written out so every index is a constant).
    macro_rules! sha_schedule16 {
        ($w:ident, $($i:literal)+) => {$({
            let s0 = sigma!($w[($i + 1) % 16], 7, 18, >> 3);
            let s1 = sigma!($w[($i + 14) % 16], 17, 19, >> 10);
            $w[$i] = _mm512_add_epi32(
                _mm512_add_epi32($w[$i], s0),
                _mm512_add_epi32($w[($i + 9) % 16], s1),
            );
        })+};
    }

    /// Compresses each lane's blocks into its column of `states`, one
    /// block of every lane per pass: the sixteen blocks are transposed
    /// into word-major order ([`transpose16`]) and byte-swapped to
    /// big-endian words, and a lane past its last block keeps its state
    /// (the final add is masked).
    #[target_feature(enable = "avx512f,avx512bw")]
    fn sha256_x16_impl(states: &mut Sha256Lanes, lanes: &[&[u8]; 16]) {
        let blocks = lanes.map(|lane| lane.as_chunks::<64>().0);
        let passes = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
        // Big-endian message words from little-endian lanes, in every
        // 128-bit quarter.
        let flip = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
        let idle = [0u8; 64];
        let [first_k, rest_k @ ..] = K256.as_chunks::<16>().0 else {
            unreachable!("64 round constants are four runs of sixteen")
        };
        let mut s = [_mm512_setzero_si512(); 8];
        for (v, words) in s.iter_mut().zip(states.iter()) {
            *v = load512_words(words);
        }
        for pass in 0..passes {
            let mut live: __mmask16 = 0;
            let mut rows = [_mm512_setzero_si512(); 16];
            for (l, (row, lane)) in rows.iter_mut().zip(&blocks).enumerate() {
                let block = match lane.get(pass) {
                    Some(block) => {
                        live |= 1 << l;
                        block
                    }
                    None => &idle,
                };
                *row = load512(block);
            }
            let mut w = transpose16(&rows);
            for word in &mut w {
                *word = _mm512_shuffle_epi8(*word, flip);
            }
            let mut working = s;
            sha_rounds16!(working, w, first_k);
            for k in rest_k {
                sha_schedule16!(w, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
                sha_rounds16!(working, w, k);
            }
            for (v, out) in s.iter_mut().zip(working) {
                *v = _mm512_mask_add_epi32(*v, live, *v, out);
            }
        }
        for (words, v) in states.iter_mut().zip(s) {
            store512_words(words, v);
        }
    }

    /// Poly1305 blocks per pass: one per 64-bit lane of a 256-bit vector.
    const POLY_LANES: usize = 4;

    /// Message bytes per pass.
    const POLY_GROUP: usize = 16 * POLY_LANES;

    /// The fewest whole groups in one call that repay computing `r²…r⁴`
    /// and the closing sum across lanes.
    const POLY_MIN_GROUPS: usize = 4;

    /// One limb of four field elements, one element per 64-bit lane.
    /// Lanes hold the blocks of a group in the order 0, 2, 1, 3 — what
    /// `unpack` leaves, and addition and multiplication do not care.
    type Limbs = [__m256i; 5];

    /// The five 26-bit limbs of each block of `group`, pad bit included.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn poly_limbs(group: &[u8; POLY_GROUP]) -> Limbs {
        let [first, second] = group.as_chunks::<32>().0 else {
            unreachable!("a 64-byte group is two 32-byte halves")
        };
        let (first, second) = (load256(first), load256(second));
        // The low and the high eight bytes of blocks 0, 2, 1, 3.
        let low = _mm256_unpacklo_epi64(first, second);
        let high = _mm256_unpackhi_epi64(first, second);
        let mask = _mm256_set1_epi64x(0x3ffffff);
        let straddling =
            _mm256_or_si256(_mm256_srli_epi64::<52>(low), _mm256_slli_epi64::<12>(high));
        [
            _mm256_and_si256(low, mask),
            _mm256_and_si256(_mm256_srli_epi64::<26>(low), mask),
            _mm256_and_si256(straddling, mask),
            _mm256_and_si256(_mm256_srli_epi64::<14>(high), mask),
            _mm256_or_si256(_mm256_srli_epi64::<40>(high), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// A multiplier per lane, as the schoolbook product wants it: its
    /// limbs, and five times its limbs for the terms that wrap past
    /// 2¹³⁰ ≡ 5.
    struct Multiplier {
        limbs: Limbs,
        times5: Limbs,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn poly_multiplier(lanes: [&[u32; 5]; POLY_LANES]) -> Multiplier {
        let limbs: Limbs = core::array::from_fn(|i| {
            let [a, b, c, d] = lanes.map(|power| i64::from(power[i]));
            _mm256_setr_epi64x(a, b, c, d)
        });
        let times5 = limbs.map(|limb| _mm256_add_epi64(_mm256_slli_epi64::<2>(limb), limb));
        Multiplier { limbs, times5 }
    }

    /// `h · by mod 2¹³⁰ − 5` lane by lane, limbs not carried. With `h`
    /// below 2²⁸ and `by` below 2²⁷ per limb (so `times5` below 2³⁰) a
    /// product limb stays below 5 · 2⁵⁸ < 2⁶¹.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn poly_mul(h: &Limbs, by: &Multiplier) -> Limbs {
        let mut product = [_mm256_setzero_si256(); 5];
        for (k, limb) in product.iter_mut().enumerate() {
            for (i, h) in h.iter().enumerate() {
                let factor = if i <= k {
                    by.limbs[k - i]
                } else {
                    by.times5[5 + k - i]
                };
                *limb = _mm256_add_epi64(*limb, _mm256_mul_epu32(*h, factor));
            }
        }
        product
    }

    /// Carries product limbs (below 2⁶¹) down to below 2²⁶ + 2¹³, on two
    /// interleaved chains: 0 → 1 → 2 → 3 → 4 and 3 → 4 → 0 → 1.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn poly_carry(mut d: Limbs) -> Limbs {
        let mask = _mm256_set1_epi64x(0x3ffffff);
        for (from, to) in [(0, 1), (3, 4), (1, 2), (4, 0), (2, 3), (0, 1), (3, 4)] {
            let mut carry = _mm256_srli_epi64::<26>(d[from]);
            if to == 0 {
                // 2¹³⁰ ≡ 5.
                carry = _mm256_add_epi64(_mm256_slli_epi64::<2>(carry), carry);
            }
            d[from] = _mm256_and_si256(d[from], mask);
            d[to] = _mm256_add_epi64(d[to], carry);
        }
        d
    }

    /// Absorbs `groups` (at least one) into the accumulator `h`, given
    /// `powers` = `[r, r², r³, r⁴]`: four running sums, one per lane,
    /// each multiplied by `r⁴` per group — the last time by `r⁴, r³, r²,
    /// r` for blocks 0 to 3 — and then added up, which is the module
    /// header's `h ← (h + m₀)·r⁴ + …` group after group. Returns the
    /// sum's limbs uncarried, each below 2⁶³.
    #[target_feature(enable = "avx2")]
    fn poly1305_groups_impl(
        h: [u32; 5],
        powers: &[[u32; 5]; 4],
        groups: &[[u8; POLY_GROUP]],
    ) -> [u64; 5] {
        let [r1, r2, r3, r4] = powers;
        let (first, rest) = groups.split_first().expect("at least one group");
        let mut sums = poly_limbs(first);
        for (limb, h) in sums.iter_mut().zip(h) {
            *limb = _mm256_add_epi64(*limb, _mm256_setr_epi64x(i64::from(h), 0, 0, 0));
        }
        let by_r4 = poly_multiplier([r4; POLY_LANES]);
        for group in rest {
            let carried = poly_carry(poly_mul(&sums, &by_r4));
            let message = poly_limbs(group);
            for ((sum, carried), message) in sums.iter_mut().zip(carried).zip(message) {
                *sum = _mm256_add_epi64(carried, message);
            }
        }
        // Lanes hold blocks 0, 2, 1, 3.
        let closing = poly_mul(&sums, &poly_multiplier([r4, r2, r3, r1]));
        closing.map(|limb| {
            let halves = _mm_add_epi64(
                _mm256_castsi256_si128(limb),
                _mm256_extracti128_si256::<1>(limb),
            );
            (_mm_extract_epi64::<0>(halves) as u64) + (_mm_extract_epi64::<1>(halves) as u64)
        })
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
        assert_eq!(Tier::Avx512.name(), "avx512");
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn partial_sha_block_is_rejected() {
        Kernel::scalar().sha256_blocks(&mut [0; 8], &[0; 65]);
    }
}
