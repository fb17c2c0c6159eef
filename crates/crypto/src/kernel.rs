//! Runtime-dispatched kernels for SHA-256 compression and AES-CTR.
//!
//! The two primitives every archive byte passes through — the SHA-256
//! block function (digests, HMAC, HKDF, the hash-based signer) and the
//! AES-CTR keystream (the commercial-default AEAD) — funnel through one
//! [`Kernel`]: a two-slot vtable chosen once per process, the same recipe
//! as `aeon_gf::kernel`. Each slot is probed on its own, because parts
//! from Haswell to Skylake have `aes` without `sha`:
//!
//! | slot            | tier     | mechanism                                        | availability                |
//! |-----------------|----------|--------------------------------------------------|-----------------------------|
//! | `sha256_blocks` | `scalar` | FIPS 180-4 round loop on `u32`s                  | always                      |
//! | `sha256_blocks` | `ni`     | `sha256rnds2` / `sha256msg1` / `sha256msg2`      | x86-64 with SHA + SSE4.1    |
//! | `aes_ctr`       | `scalar` | FIPS 197 byte-wise rounds, one block at a time   | always                      |
//! | `aes_ctr`       | `ni`     | `aesenc` / `aesenclast`, eight blocks in flight  | x86-64 with AES-NI + SSE4.1 |
//!
//! [`Kernel::active`] gives every slot the fastest tier the host runs
//! (probed with `is_x86_feature_detected!`) and caches the choice.
//! `AEON_FORCE_KERNEL=scalar` pins both slots to the scalar tier; any
//! other value — a GF tier name such as `avx2`, or an unknown string —
//! means auto-detection here, so the variable stays safe to export
//! unconditionally in CI matrices.
//!
//! The scalar tier is the code in [`crate::sha2`] and [`crate::aes`]: it
//! is what a host without the instructions runs, and the oracle the
//! parity suite (`tests/kernel_parity.rs`) compares the `ni` tier
//! against, bit for bit. The `ni` AES tier has no data-dependent table
//! lookups; the scalar tier is not constant-time.

use std::sync::OnceLock;

use crate::aes::Aes;

/// The implementation tiers of a kernel slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The portable from-scratch code (the universal reference).
    Scalar,
    /// The x86-64 SHA / AES "new instructions".
    Ni,
}

impl Tier {
    /// The lowercase name used in benchmark output: `"scalar"` or `"ni"`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Ni => "ni",
        }
    }
}

type Sha256Blocks = fn(&mut [u32; 8], &[u8]);
type AesCtr = fn(&Aes, &[u8; 16], &mut [u8]);

/// One choice of tier for each of the two slots.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    sha256: (Tier, Sha256Blocks),
    aes_ctr: (Tier, AesCtr),
}

static SCALAR: Kernel = Kernel {
    sha256: (Tier::Scalar, crate::sha2::Sha256::compress_blocks),
    aes_ctr: (Tier::Scalar, Aes::ctr_scalar),
};

impl Kernel {
    /// The process-wide kernel: for each slot the fastest tier the host
    /// supports, or the scalar tier in both when `AEON_FORCE_KERNEL` is
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
    /// kernel, then the detected one when it has an `ni` slot (benchmark
    /// sweeps and cross-tier parity tests iterate this).
    pub fn supported() -> Vec<&'static Kernel> {
        let detected = Kernel::detected();
        let mut kernels = vec![&SCALAR];
        if detected.sha256_tier() == Tier::Ni || detected.aes_ctr_tier() == Tier::Ni {
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
}

/// The SHA-NI and AES-NI tiers: the one `unsafe` island in the crate.
///
/// `unsafe` is needed for two things only. (1) Calling a
/// `#[target_feature]` function: the two `*_impl` functions are private
/// and reachable only through the `fn` pointers [`sha256_blocks`] and
/// [`aes_ctr`] hand out after the matching `is_x86_feature_detected!`
/// probe succeeded. (2) The unaligned 16-byte vector load and store,
/// wrapped once each in [`load`] / [`store`], whose array-reference
/// arguments prove the 16 bytes are there. Everything else — the
/// arithmetic intrinsics — is safe inside a function that enables the
/// feature.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{AesCtr, Sha256Blocks};
    use crate::aes::Aes;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Ni.name(), "ni");
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn partial_sha_block_is_rejected() {
        Kernel::scalar().sha256_blocks(&mut [0; 8], &[0; 65]);
    }
}
