//! Runtime-dispatched bulk kernels for GF(2^8) and GF(2^16).
//!
//! Every slice operation in [`crate::slice`] funnels through exactly one
//! [`Kernel`] — a small vtable of function pointers chosen once per
//! process — so the Reed–Solomon, Shamir and packed-sharing hot loops
//! never branch on CPU features per call. All GF(2^8) tiers consume the
//! same 16-entry nibble product tables ([`Gf256MulTable`]) and are
//! byte-identical by construction; they differ only in how many products
//! they compute per step. The GF(2^16) multiply-accumulate slot reads a
//! [`Gf16MulTable`], which carries both of the layouts its tiers use:
//!
//! | tier                   | GF(2^8) mechanism                               | GF(2^16) `mul_add` mechanism                          | availability      |
//! |------------------------|-------------------------------------------------|-------------------------------------------------------|-------------------|
//! | [`KernelTier::Scalar`] | per-byte nibble lookups, 8-byte unrolled        | two 256-entry byte-table lookups per symbol           | always            |
//! | [`KernelTier::Swar`]   | bit-plane broadcast-select, compiler-vectorized | same as scalar                                        | always            |
//! | [`KernelTier::Ssse3`]  | `PSHUFB` 16-byte nibble shuffles                | `packus` byte split, 8 `PSHUFB`s per 16 symbols       | x86-64 with SSSE3 |
//! | [`KernelTier::Avx2`]   | `VPSHUFB` 32-byte nibble shuffles               | `packus` byte split, 8 `VPSHUFB`s per 32 symbols      | x86-64 with AVX2  |
//!
//! [`Kernel::active`] picks the fastest tier the host supports (probed
//! with `is_x86_feature_detected!`) and caches the choice. Setting
//! `AEON_FORCE_KERNEL=scalar|swar|ssse3|avx2` overrides the choice; a
//! forced tier the host cannot run (or an unrecognized value) silently
//! falls back to auto-detection, so the variable is safe to export
//! unconditionally in CI matrices.
//!
//! The SWAR tier expresses the multiply as a sum over the bit-planes of
//! the source byte: by GF(2)-linearity, `s·b = ⊕_{i: bit i of b set}
//! s·2^i`, and each basis product `s·2^i` is already sitting in the
//! nibble tables (`lo[1<<i]` / `hi[1<<(i-4)]`). The per-byte form
//! `r ^= ((b >> i) & 1).wrapping_neg() & p[i]` is a branch-free select
//! that LLVM lowers to wide vector compares on every target with SIMD
//! registers — measured ≥2× the scalar tier on x86-64 even at the SSE2
//! baseline. (The textbook `u64`-word formulation — broadcast the plane
//! mask with `(x >> i & LSB) * p_splat` — was measured slower here: the
//! eight 64-bit multiplies per word leave the loop frontend-bound.)
//!
//! A GF(2^16) product is linear in the four nibbles of the symbol:
//! `s·v = ⊕_k s·(n_k « 4k)`, and each term's low and high output byte is
//! one 16-entry lookup — eight `PSHUFB` operands per scalar
//! ([`Gf16MulTable`]'s nibble tables). A vector step splits 2 vectors of
//! symbols into one vector of low bytes and one of high bytes
//! (`packus`), shuffles each of the four nibble planes through its two
//! tables, and re-interleaves the two product-byte vectors
//! (`unpacklo/hi`). Under AVX2 both `packus` and `unpack` work per
//! 128-bit lane, so the lane order one introduces the other undoes.

use std::sync::OnceLock;

use crate::slice::{Gf16MulTable, Gf256MulTable};

/// The implementation tiers, ordered slowest to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Per-byte nibble-table lookups (the universal reference).
    Scalar,
    /// Portable bit-plane broadcast-select; auto-vectorizes on any SIMD
    /// target without `unsafe`.
    Swar,
    /// SSSE3 `PSHUFB` nibble shuffles, 16 bytes per step.
    Ssse3,
    /// AVX2 `VPSHUFB` nibble shuffles, 32 bytes per step.
    Avx2,
}

impl KernelTier {
    /// All tiers, slowest first (the order [`Kernel::supported`] probes).
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Swar,
        KernelTier::Ssse3,
        KernelTier::Avx2,
    ];

    /// The lowercase name used by `AEON_FORCE_KERNEL` and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Swar => "swar",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Parses a tier name (as accepted by `AEON_FORCE_KERNEL`).
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "swar" => Some(KernelTier::Swar),
            "ssse3" => Some(KernelTier::Ssse3),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }
}

type SliceOp = fn(&[u8; 16], &[u8; 16], &[u8], &mut [u8]);
type InPlaceOp = fn(&[u8; 16], &[u8; 16], &mut [u8]);
type Gf16Op = fn(&Gf16MulTable, &[u16], &mut [u16]);

/// One dispatch tier's implementations of the three GF(2^8) slice
/// operations and the GF(2^16) multiply-accumulate.
///
/// Scalars 0 and 1 are handled before dispatch (fill / copy / xor), so
/// the vtable entries only ever see a genuine multiply.
#[derive(Debug)]
pub struct Kernel {
    tier: KernelTier,
    mul: SliceOp,
    mul_add: SliceOp,
    mul_in_place: InPlaceOp,
    gf16_mul_add: Gf16Op,
}

impl Kernel {
    /// Which tier this kernel implements.
    #[inline]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The process-wide kernel: the fastest supported tier, or the tier
    /// named by `AEON_FORCE_KERNEL` when set and runnable. Selected on
    /// first use and cached for the life of the process.
    pub fn active() -> &'static Kernel {
        static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            std::env::var("AEON_FORCE_KERNEL")
                .ok()
                .and_then(|v| KernelTier::parse(&v))
                .and_then(Kernel::for_tier)
                .unwrap_or_else(Kernel::best)
        })
    }

    /// The kernel for a specific tier, or `None` when the host cannot
    /// run it. `Scalar` and `Swar` always succeed.
    pub fn for_tier(tier: KernelTier) -> Option<&'static Kernel> {
        match tier {
            KernelTier::Scalar => Some(&SCALAR),
            KernelTier::Swar => Some(&SWAR),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 if is_x86_feature_detected!("ssse3") => Some(&simd::SSSE3),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 if is_x86_feature_detected!("avx2") => Some(&simd::AVX2),
            _ => None,
        }
    }

    /// Every tier the host supports, slowest first (benchmark sweeps and
    /// cross-tier parity tests iterate this).
    pub fn supported() -> Vec<&'static Kernel> {
        KernelTier::ALL
            .into_iter()
            .filter_map(Kernel::for_tier)
            .collect()
    }

    fn best() -> &'static Kernel {
        Kernel::supported().last().expect("scalar always supported")
    }

    /// `dst = scalar · src` through this tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice(&self, table: &Gf256MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
        match table.scalar().value() {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => (self.mul)(table.lo(), table.hi(), src, dst),
        }
    }

    /// `dst ^= scalar · src` through this tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_add_slice(&self, table: &Gf256MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_add_slice length mismatch");
        match table.scalar().value() {
            0 => {}
            1 => xor_slice(src, dst),
            _ => (self.mul_add)(table.lo(), table.hi(), src, dst),
        }
    }

    /// `buf = scalar · buf` through this tier.
    pub fn mul_slice_in_place(&self, table: &Gf256MulTable, buf: &mut [u8]) {
        match table.scalar().value() {
            0 => buf.fill(0),
            1 => {}
            _ => (self.mul_in_place)(table.lo(), table.hi(), buf),
        }
    }

    /// `dst ^= scalar · src` over GF(2^16) symbols through this tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn gf16_mul_add_slice(&self, table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        assert_eq!(src.len(), dst.len(), "gf16 mul_add_slice length mismatch");
        match table.scalar().value() {
            0 => {}
            1 => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s;
                }
            }
            _ => (self.gf16_mul_add)(table, src, dst),
        }
    }
}

/// `dst ^= src` — the scalar-1 row step, shared by every tier.
#[inline]
pub(crate) fn xor_slice(src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

static SCALAR: Kernel = Kernel {
    tier: KernelTier::Scalar,
    mul: scalar::mul,
    mul_add: scalar::mul_add,
    mul_in_place: scalar::mul_in_place,
    gf16_mul_add: scalar::gf16_mul_add,
};

static SWAR: Kernel = Kernel {
    tier: KernelTier::Swar,
    mul: swar::mul,
    mul_add: swar::mul_add,
    mul_in_place: swar::mul_in_place,
    gf16_mul_add: scalar::gf16_mul_add,
};

mod scalar {
    use crate::slice::Gf16MulTable;

    /// The GF(2^16) byte-table loop: the oracle every wider tier is
    /// checked against, and the tail those tiers finish with.
    pub(super) fn gf16_mul_add(table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= table.mul(*s);
        }
    }

    /// One product via the nibble tables.
    #[inline(always)]
    pub(super) fn mul_b(lo: &[u8; 16], hi: &[u8; 16], b: u8) -> u8 {
        lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize]
    }

    pub(super) fn mul(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let mut d = dst.chunks_exact_mut(8);
        let mut s = src.chunks_exact(8);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..8 {
                dc[i] = mul_b(lo, hi, sc[i]);
            }
        }
        for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *db = mul_b(lo, hi, *sb);
        }
    }

    pub(super) fn mul_add(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let mut d = dst.chunks_exact_mut(8);
        let mut s = src.chunks_exact(8);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..8 {
                dc[i] ^= mul_b(lo, hi, sc[i]);
            }
        }
        for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *db ^= mul_b(lo, hi, *sb);
        }
    }

    pub(super) fn mul_in_place(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        let mut d = buf.chunks_exact_mut(8);
        for dc in &mut d {
            for b in dc.iter_mut() {
                *b = mul_b(lo, hi, *b);
            }
        }
        for db in d.into_remainder() {
            *db = mul_b(lo, hi, *db);
        }
    }
}

mod swar {
    /// The eight basis products `p[i] = s·2^i`, read straight out of the
    /// nibble tables: `lo[1<<i]` for the low nibble bits, `hi[1<<(i-4)]`
    /// for the high.
    #[inline(always)]
    fn planes(lo: &[u8; 16], hi: &[u8; 16]) -> [u8; 8] {
        [lo[1], lo[2], lo[4], lo[8], hi[1], hi[2], hi[4], hi[8]]
    }

    /// `s·b` as a bit-plane sum: each term is a branch-free select of
    /// `p[i]` by bit `i` of `b`. Written per-byte so LLVM vectorizes the
    /// surrounding loop into wide compares/selects.
    #[inline(always)]
    fn select(p: &[u8; 8], b: u8) -> u8 {
        let mut r = (b & 1).wrapping_neg() & p[0];
        r ^= ((b >> 1) & 1).wrapping_neg() & p[1];
        r ^= ((b >> 2) & 1).wrapping_neg() & p[2];
        r ^= ((b >> 3) & 1).wrapping_neg() & p[3];
        r ^= ((b >> 4) & 1).wrapping_neg() & p[4];
        r ^= ((b >> 5) & 1).wrapping_neg() & p[5];
        r ^= ((b >> 6) & 1).wrapping_neg() & p[6];
        r ^= (b >> 7).wrapping_neg() & p[7];
        r
    }

    pub(super) fn mul(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let p = planes(lo, hi);
        for (d, s) in dst.iter_mut().zip(src) {
            *d = select(&p, *s);
        }
    }

    pub(super) fn mul_add(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let p = planes(lo, hi);
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= select(&p, *s);
        }
    }

    pub(super) fn mul_in_place(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        let p = planes(lo, hi);
        for b in buf.iter_mut() {
            *b = select(&p, *b);
        }
    }
}

/// The nibble tables *are* the `PSHUFB` lookup tables: `PSHUFB` indexes a
/// 16-byte register by the low 4 bits of each lane, which is exactly the
/// `lo`/`hi` split. Each 16/32-byte step masks out both nibbles, shuffles
/// both tables, and XORs. Tails shorter than one vector fall back to the
/// scalar tier.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{scalar, Kernel, KernelTier};
    use crate::slice::Gf16MulTable;
    use std::arch::x86_64::*;

    pub(super) static SSSE3: Kernel = Kernel {
        tier: KernelTier::Ssse3,
        mul: ssse3_mul,
        mul_add: ssse3_mul_add,
        mul_in_place: ssse3_mul_in_place,
        gf16_mul_add: ssse3_gf16_mul_add,
    };

    pub(super) static AVX2: Kernel = Kernel {
        tier: KernelTier::Avx2,
        mul: avx2_mul,
        mul_add: avx2_mul_add,
        mul_in_place: avx2_mul_in_place,
        gf16_mul_add: avx2_gf16_mul_add,
    };

    // SAFETY (all eight wrappers): the `#[target_feature]` inner functions
    // are only reachable through the SSSE3/AVX2 vtables above, which
    // `Kernel::for_tier` hands out only after the matching
    // `is_x86_feature_detected!` probe succeeded on this host. `Kernel`'s
    // methods assert `src.len() == dst.len()` before calling any entry,
    // so every `dst` offset below a whole-vector bound of `src` is in
    // bounds.

    fn ssse3_gf16_mul_add(table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        unsafe { ssse3_gf16_mul_add_impl(table, src, dst) }
    }

    fn avx2_gf16_mul_add(table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        unsafe { avx2_gf16_mul_add_impl(table, src, dst) }
    }

    fn ssse3_mul(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        unsafe { ssse3_mul_impl(lo, hi, src, dst) }
    }

    fn ssse3_mul_add(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        unsafe { ssse3_mul_add_impl(lo, hi, src, dst) }
    }

    fn ssse3_mul_in_place(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        unsafe { ssse3_mul_in_place_impl(lo, hi, buf) }
    }

    fn avx2_mul(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        unsafe { avx2_mul_impl(lo, hi, src, dst) }
    }

    fn avx2_mul_add(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        unsafe { avx2_mul_add_impl(lo, hi, src, dst) }
    }

    fn avx2_mul_in_place(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        unsafe { avx2_mul_in_place_impl(lo, hi, buf) }
    }

    /// Shuffles one 16-byte lane through both nibble tables.
    #[inline(always)]
    unsafe fn shuffle128(tlo: __m128i, thi: __m128i, mask: __m128i, v: __m128i) -> __m128i {
        let lo_n = _mm_and_si128(v, mask);
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(v), mask);
        _mm_xor_si128(_mm_shuffle_epi8(tlo, lo_n), _mm_shuffle_epi8(thi, hi_n))
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn ssse3_mul_impl(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = src.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let r = shuffle128(tlo, thi, mask, v);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), r);
            i += 16;
        }
        for j in n..src.len() {
            dst[j] = scalar::mul_b(lo, hi, src[j]);
        }
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn ssse3_mul_add_impl(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = src.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let r = shuffle128(tlo, thi, mask, v);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, r));
            i += 16;
        }
        for j in n..src.len() {
            dst[j] ^= scalar::mul_b(lo, hi, src[j]);
        }
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn ssse3_mul_in_place_impl(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = buf.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_si128(buf.as_ptr().add(i).cast());
            let r = shuffle128(tlo, thi, mask, v);
            _mm_storeu_si128(buf.as_mut_ptr().add(i).cast(), r);
            i += 16;
        }
        for b in buf[n..].iter_mut() {
            *b = scalar::mul_b(lo, hi, *b);
        }
    }

    /// Shuffles one 32-byte lane-pair through both (broadcast) tables.
    #[inline(always)]
    unsafe fn shuffle256(tlo: __m256i, thi: __m256i, mask: __m256i, v: __m256i) -> __m256i {
        let lo_n = _mm256_and_si256(v, mask);
        let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
        _mm256_xor_si256(
            _mm256_shuffle_epi8(tlo, lo_n),
            _mm256_shuffle_epi8(thi, hi_n),
        )
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_mul_impl(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = src.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let r = shuffle256(tlo, thi, mask, v);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), r);
            i += 32;
        }
        for j in n..src.len() {
            dst[j] = scalar::mul_b(lo, hi, src[j]);
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_mul_add_impl(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = src.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let r = shuffle256(tlo, thi, mask, v);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, r));
            i += 32;
        }
        for j in n..src.len() {
            dst[j] ^= scalar::mul_b(lo, hi, src[j]);
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_mul_in_place_impl(lo: &[u8; 16], hi: &[u8; 16], buf: &mut [u8]) {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = buf.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let v = _mm256_loadu_si256(buf.as_ptr().add(i).cast());
            let r = shuffle256(tlo, thi, mask, v);
            _mm256_storeu_si256(buf.as_mut_ptr().add(i).cast(), r);
            i += 32;
        }
        for b in buf[n..].iter_mut() {
            *b = scalar::mul_b(lo, hi, *b);
        }
    }

    /// GF(2^16) products of 16 symbols given as a vector of their low
    /// bytes and one of their high bytes: each of the four nibble planes
    /// shuffled through its low-output and its high-output table.
    ///
    /// # Safety
    ///
    /// The host must support SSSE3.
    #[inline(always)]
    unsafe fn gf16_products128(
        t: &[__m128i; 8],
        mask: __m128i,
        lo: __m128i,
        hi: __m128i,
    ) -> (__m128i, __m128i) {
        let planes = [
            _mm_and_si128(lo, mask),
            _mm_and_si128(_mm_srli_epi16::<4>(lo), mask),
            _mm_and_si128(hi, mask),
            _mm_and_si128(_mm_srli_epi16::<4>(hi), mask),
        ];
        let mut out_lo = _mm_shuffle_epi8(t[0], planes[0]);
        let mut out_hi = _mm_shuffle_epi8(t[4], planes[0]);
        for k in 1..4 {
            out_lo = _mm_xor_si128(out_lo, _mm_shuffle_epi8(t[k], planes[k]));
            out_hi = _mm_xor_si128(out_hi, _mm_shuffle_epi8(t[4 + k], planes[k]));
        }
        (out_lo, out_hi)
    }

    /// # Safety
    ///
    /// The host must support SSSE3, and `dst` must be as long as `src`.
    #[target_feature(enable = "ssse3")]
    unsafe fn ssse3_gf16_mul_add_impl(table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        let mut t = [_mm_setzero_si128(); 8];
        for (v, nib) in t.iter_mut().zip(table.nibbles()) {
            *v = _mm_loadu_si128(nib.as_ptr().cast());
        }
        let mask = _mm_set1_epi8(0x0F);
        let low = _mm_set1_epi16(0x00FF);
        let n = src.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let a = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(src.as_ptr().add(i + 8).cast());
            let lo = _mm_packus_epi16(_mm_and_si128(a, low), _mm_and_si128(b, low));
            let hi = _mm_packus_epi16(_mm_srli_epi16::<8>(a), _mm_srli_epi16::<8>(b));
            let (plo, phi) = gf16_products128(&t, mask, lo, hi);
            let da = dst.as_mut_ptr().add(i).cast::<__m128i>();
            let db = dst.as_mut_ptr().add(i + 8).cast::<__m128i>();
            _mm_storeu_si128(
                da,
                _mm_xor_si128(_mm_loadu_si128(da), _mm_unpacklo_epi8(plo, phi)),
            );
            _mm_storeu_si128(
                db,
                _mm_xor_si128(_mm_loadu_si128(db), _mm_unpackhi_epi8(plo, phi)),
            );
            i += 16;
        }
        scalar::gf16_mul_add(table, &src[n..], &mut dst[n..]);
    }

    /// [`gf16_products128`] on both 128-bit lanes at once.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline(always)]
    unsafe fn gf16_products256(
        t: &[__m256i; 8],
        mask: __m256i,
        lo: __m256i,
        hi: __m256i,
    ) -> (__m256i, __m256i) {
        let planes = [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi16::<4>(lo), mask),
            _mm256_and_si256(hi, mask),
            _mm256_and_si256(_mm256_srli_epi16::<4>(hi), mask),
        ];
        let mut out_lo = _mm256_shuffle_epi8(t[0], planes[0]);
        let mut out_hi = _mm256_shuffle_epi8(t[4], planes[0]);
        for k in 1..4 {
            out_lo = _mm256_xor_si256(out_lo, _mm256_shuffle_epi8(t[k], planes[k]));
            out_hi = _mm256_xor_si256(out_hi, _mm256_shuffle_epi8(t[4 + k], planes[k]));
        }
        (out_lo, out_hi)
    }

    /// # Safety
    ///
    /// The host must support AVX2, and `dst` must be as long as `src`.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_gf16_mul_add_impl(table: &Gf16MulTable, src: &[u16], dst: &mut [u16]) {
        let mut t = [_mm256_setzero_si256(); 8];
        for (v, nib) in t.iter_mut().zip(table.nibbles()) {
            *v = _mm256_broadcastsi128_si256(_mm_loadu_si128(nib.as_ptr().cast()));
        }
        let mask = _mm256_set1_epi8(0x0F);
        let low = _mm256_set1_epi16(0x00FF);
        let n = src.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let a = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(src.as_ptr().add(i + 16).cast());
            // Per lane, `packus` puts `a`'s eight symbols before `b`'s,
            // and `unpacklo/hi` takes the same halves back apart: the low
            // unpack is `a`'s sixteen products in order, the high `b`'s.
            let lo = _mm256_packus_epi16(_mm256_and_si256(a, low), _mm256_and_si256(b, low));
            let hi = _mm256_packus_epi16(_mm256_srli_epi16::<8>(a), _mm256_srli_epi16::<8>(b));
            let (plo, phi) = gf16_products256(&t, mask, lo, hi);
            let da = dst.as_mut_ptr().add(i).cast::<__m256i>();
            let db = dst.as_mut_ptr().add(i + 16).cast::<__m256i>();
            let pa = _mm256_unpacklo_epi8(plo, phi);
            let pb = _mm256_unpackhi_epi8(plo, phi);
            _mm256_storeu_si256(da, _mm256_xor_si256(_mm256_loadu_si256(da), pa));
            _mm256_storeu_si256(db, _mm256_xor_si256(_mm256_loadu_si256(db), pb));
            i += 32;
        }
        scalar::gf16_mul_add(table, &src[n..], &mut dst[n..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::parse("AVX2"), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse(" swar "), Some(KernelTier::Swar));
        assert_eq!(KernelTier::parse("neon"), None);
    }

    #[test]
    fn scalar_and_swar_always_supported() {
        assert_eq!(
            Kernel::for_tier(KernelTier::Scalar).unwrap().tier(),
            KernelTier::Scalar
        );
        assert_eq!(
            Kernel::for_tier(KernelTier::Swar).unwrap().tier(),
            KernelTier::Swar
        );
        let tiers: Vec<KernelTier> = Kernel::supported().iter().map(|k| k.tier()).collect();
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "sorted: {tiers:?}");
        assert!(Kernel::supported().len() >= 2);
    }

    #[test]
    fn active_is_a_supported_tier() {
        let active = Kernel::active().tier();
        assert!(Kernel::supported().iter().any(|k| k.tier() == active));
    }

    #[test]
    fn every_tier_handles_zero_and_one_scalars() {
        let src: Vec<u8> = (0..100u8).collect();
        for kernel in Kernel::supported() {
            let t0 = Gf256MulTable::new(Gf256::ZERO);
            let t1 = Gf256MulTable::new(Gf256::ONE);

            let mut dst = vec![0xEEu8; src.len()];
            kernel.mul_slice(&t0, &src, &mut dst);
            assert!(dst.iter().all(|&b| b == 0));
            kernel.mul_slice(&t1, &src, &mut dst);
            assert_eq!(dst, src);

            let mut acc = vec![0xF0u8; src.len()];
            kernel.mul_add_slice(&t0, &src, &mut acc);
            assert!(acc.iter().all(|&b| b == 0xF0));
            kernel.mul_add_slice(&t1, &src, &mut acc);
            let expect: Vec<u8> = src.iter().map(|&b| b ^ 0xF0).collect();
            assert_eq!(acc, expect);

            let mut buf = src.clone();
            kernel.mul_slice_in_place(&t1, &mut buf);
            assert_eq!(buf, src);
            kernel.mul_slice_in_place(&t0, &mut buf);
            assert!(buf.iter().all(|&b| b == 0));
        }
    }
}
