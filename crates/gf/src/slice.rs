//! Bulk slice kernels: scalar × vector products over GF(2^8) and
//! GF(2^16).
//!
//! The log/exp scalar multiply in [`Gf256`]/[`Gf16`] costs two table
//! lookups, an add, and a zero-check branch per element. The inner loops
//! of Reed–Solomon encoding and Shamir share evaluation multiply *whole
//! buffers* by one scalar, so this module precomputes a per-scalar
//! product table once and then streams through the buffer branch-free:
//!
//! * [`Gf256MulTable`] — two 16-entry nibble tables (`lo[n] = s·n`,
//!   `hi[n] = s·(n«4)`); a product is `lo[b & 0xF] ^ hi[b >> 4]`. This
//!   is the classic SSSE3 `PSHUFB` layout, expressed portably.
//! * [`Gf16MulTable`] — two 256-entry byte tables over the low and high
//!   byte of each 16-bit symbol, and eight 16-entry nibble tables (the
//!   low and high product byte for each of the symbol's four nibbles).
//!
//! # Dispatch tiers
//!
//! The GF(2^8) table operations and the GF(2^16) multiply-accumulate do
//! not loop over symbols here; they hand the table to the process-wide
//! [`Kernel`](crate::kernel), which applies it through the fastest
//! implementation tier the host supports — per-byte scalar lookups, a
//! portable compiler-vectorized SWAR select (GF(2^8) only; GF(2^16)
//! keeps the byte-table loop there), or SSSE3/AVX2 `PSHUFB` shuffles
//! (the nibble tables are literally the `PSHUFB` operands). The tier is
//! probed once per process with `is_x86_feature_detected!` and can be
//! pinned with `AEON_FORCE_KERNEL=scalar|swar|ssse3|avx2`; every tier is
//! byte-identical to the log/exp reference, so the choice is invisible
//! to callers. See [`crate::kernel`] for the tier table.
//! `Gf16MulTable::{mul_slice, mul_slice_in_place}` stay byte-table loops
//! on every tier: no hot path calls them.
//!
//! Free functions [`mul_slice`] / [`mul_add_slice`] (and the `gf16_*`
//! variants) build the table and apply it in one call; hot paths that
//! reuse one coefficient across many rows should build the table once.
//!
//! # Fused rows
//!
//! Erasure parity rows, Shamir share evaluation, and Lagrange recovery
//! all compute `dst ^= Σ_k c_k · src_k`. Issuing one `mul_add_slice`
//! per coefficient walks the full destination once per row, falling out
//! of cache between passes for large buffers. [`mul_add_rows`] (and
//! [`gf16_mul_add_rows`]) fuse the accumulation: the destination is cut
//! into cache-sized strips and every row is applied to a strip while it
//! is hot. [`mul_rows`] is the same pass into a destination that holds
//! nothing yet: its first row is stored, not accumulated.

use crate::kernel::Kernel;
use crate::{Gf16, Gf256};

/// Precomputed multiplication table for one GF(2^8) scalar.
///
/// # Examples
///
/// ```
/// use aeon_gf::slice::Gf256MulTable;
/// use aeon_gf::Gf256;
///
/// let t = Gf256MulTable::new(Gf256::new(0x57));
/// assert_eq!(t.mul(0x83), 0xC1); // {57}·{83} = {C1} in the AES field
/// ```
#[derive(Debug, Clone)]
pub struct Gf256MulTable {
    lo: [u8; 16],
    hi: [u8; 16],
    scalar: Gf256,
}

impl Gf256MulTable {
    /// Builds the nibble tables for `scalar` (32 scalar multiplies).
    pub fn new(scalar: Gf256) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u8 {
            lo[n as usize] = (scalar * Gf256::new(n)).value();
            hi[n as usize] = (scalar * Gf256::new(n << 4)).value();
        }
        Gf256MulTable { lo, hi, scalar }
    }

    /// The scalar this table multiplies by.
    #[inline]
    pub fn scalar(&self) -> Gf256 {
        self.scalar
    }

    /// The low-nibble product table (`lo[n] = s·n`).
    #[inline]
    pub(crate) fn lo(&self) -> &[u8; 16] {
        &self.lo
    }

    /// The high-nibble product table (`hi[n] = s·(n«4)`).
    #[inline]
    pub(crate) fn hi(&self) -> &[u8; 16] {
        &self.hi
    }

    /// Multiplies one byte by the scalar.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// `dst = scalar · src`, element-wise, through the active
    /// [`Kernel`](crate::kernel) tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice(&self, src: &[u8], dst: &mut [u8]) {
        Kernel::active().mul_slice(self, src, dst);
    }

    /// `buf = scalar · buf`, element-wise, through the active
    /// [`Kernel`](crate::kernel) tier.
    pub fn mul_slice_in_place(&self, buf: &mut [u8]) {
        Kernel::active().mul_slice_in_place(self, buf);
    }

    /// `dst ^= scalar · src`, element-wise — the Reed–Solomon inner loop
    /// — through the active [`Kernel`](crate::kernel) tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_add_slice(&self, src: &[u8], dst: &mut [u8]) {
        Kernel::active().mul_add_slice(self, src, dst);
    }
}

/// `dst = scalar · src` over GF(2^8) bytes (one-shot table build).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_slice(scalar: Gf256, src: &[u8], dst: &mut [u8]) {
    Gf256MulTable::new(scalar).mul_slice(src, dst);
}

/// `dst ^= scalar · src` over GF(2^8) bytes (one-shot table build).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_add_slice(scalar: Gf256, src: &[u8], dst: &mut [u8]) {
    Gf256MulTable::new(scalar).mul_add_slice(src, dst);
}

/// Destination strip size for the fused row kernels: small enough that a
/// strip plus one source strip stay resident in L1d between rows, large
/// enough to amortize the per-row dispatch. Callers that produce their
/// sources strip by strip (Shamir's coefficient draws) cut at it too.
pub const ROW_STRIP: usize = 16 * 1024;

/// `dst ^= Σ_k c_k · src_k` — the fused matrix-row kernel behind RS
/// parity rows, Shamir share evaluation, and Lagrange recovery.
///
/// The destination is processed in cache-sized strips; within a strip
/// every row is accumulated while the strip is hot, instead of walking
/// the whole destination once per coefficient. Builds one product table
/// per row. A destination that holds nothing yet wants [`mul_rows`]
/// ([`mul_rows_tables`] for callers that reuse coefficient tables across
/// many destinations, as RS encode does).
///
/// # Examples
///
/// ```
/// use aeon_gf::slice::{mul_add_rows, mul_add_slice};
/// use aeon_gf::Gf256;
///
/// let a = vec![0x11u8; 100];
/// let b = vec![0x22u8; 100];
/// let mut fused = vec![0u8; 100];
/// mul_add_rows(&mut fused, &[(Gf256::new(3), &a), (Gf256::new(7), &b)]);
///
/// let mut serial = vec![0u8; 100];
/// mul_add_slice(Gf256::new(3), &a, &mut serial);
/// mul_add_slice(Gf256::new(7), &b, &mut serial);
/// assert_eq!(fused, serial);
/// ```
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn mul_add_rows(dst: &mut [u8], rows: &[(Gf256, &[u8])]) {
    with_tables(rows, |rows| mul_add_rows_on(Kernel::active(), dst, rows));
}

/// [`mul_add_rows`] with caller-prebuilt product tables, through an
/// explicit kernel tier (benchmark sweeps and cross-tier parity tests;
/// everything else wants [`mul_add_rows`]).
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn mul_add_rows_on(kernel: &Kernel, dst: &mut [u8], rows: &[(&Gf256MulTable, &[u8])]) {
    fused_rows(kernel, dst, rows, false);
}

/// `dst = Σ_k c_k · src_k`: [`mul_add_rows`] with the first row stored,
/// not accumulated, so whatever `dst` held is never read. Into fresh
/// memory that is one write per byte where zero-fill-then-accumulate
/// reads each page (mapping the shared zero page) before writing it
/// (faulting it again). No rows store zeros.
///
/// # Examples
///
/// ```
/// use aeon_gf::slice::{mul_add_rows, mul_rows};
/// use aeon_gf::Gf256;
///
/// let rows = [(Gf256::new(3), &[0x11u8; 100][..]), (Gf256::new(7), &[0x22; 100])];
/// let mut stored = vec![0xEEu8; 100];
/// mul_rows(&mut stored, &rows);
///
/// let mut accumulated = vec![0u8; 100];
/// mul_add_rows(&mut accumulated, &rows);
/// assert_eq!(stored, accumulated);
/// ```
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn mul_rows(dst: &mut [u8], rows: &[(Gf256, &[u8])]) {
    with_tables(rows, |rows| mul_rows_tables(dst, rows));
}

/// [`mul_rows`] with caller-prebuilt product tables.
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn mul_rows_tables(dst: &mut [u8], rows: &[(&Gf256MulTable, &[u8])]) {
    mul_rows_on(Kernel::active(), dst, rows);
}

/// [`mul_rows_tables`] through an explicit kernel tier (cross-tier
/// parity tests; everything else wants [`mul_rows_tables`]).
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn mul_rows_on(kernel: &Kernel, dst: &mut [u8], rows: &[(&Gf256MulTable, &[u8])]) {
    fused_rows(kernel, dst, rows, true);
}

/// Runs `f` over `rows` with one product table built per row.
fn with_tables<T>(rows: &[(Gf256, &[u8])], f: impl FnOnce(&[(&Gf256MulTable, &[u8])]) -> T) -> T {
    let tables: Vec<Gf256MulTable> = rows.iter().map(|&(c, _)| Gf256MulTable::new(c)).collect();
    let trows: Vec<(&Gf256MulTable, &[u8])> = tables
        .iter()
        .zip(rows)
        .map(|(t, &(_, src))| (t, src))
        .collect();
    f(&trows)
}

/// The one body of the fused GF(2^8) row kernels: strip by strip, every
/// row applied while the strip is hot, the first one stored rather than
/// accumulated when `store_first`.
fn fused_rows(
    kernel: &Kernel,
    dst: &mut [u8],
    rows: &[(&Gf256MulTable, &[u8])],
    store_first: bool,
) {
    for (_, src) in rows {
        assert_eq!(src.len(), dst.len(), "fused rows length mismatch");
    }
    if store_first && rows.is_empty() {
        dst.fill(0);
    }
    let mut start = 0;
    while start < dst.len() {
        let end = (start + ROW_STRIP).min(dst.len());
        for (k, &(table, src)) in rows.iter().enumerate() {
            let (src, strip) = (&src[start..end], &mut dst[start..end]);
            if store_first && k == 0 {
                kernel.mul_slice(table, src, strip);
            } else {
                kernel.mul_add_slice(table, src, strip);
            }
        }
        start = end;
    }
}

/// Precomputed multiplication table for one GF(2^16) scalar.
///
/// Symbol slices are `&[u16]`; byte-oriented callers convert at the
/// boundary (packed sharing stores big-endian pairs).
#[derive(Clone)]
pub struct Gf16MulTable {
    lo: Box<[u16; 256]>,
    hi: Box<[u16; 256]>,
    nibbles: [[u8; 16]; 8],
    scalar: Gf16,
}

impl std::fmt::Debug for Gf16MulTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gf16MulTable({:?})", self.scalar)
    }
}

impl Gf16MulTable {
    /// Builds the byte tables for `scalar` (512 scalar multiplies) and,
    /// independently, the nibble tables (64 more).
    pub fn new(scalar: Gf16) -> Self {
        let mut lo = Box::new([0u16; 256]);
        let mut hi = Box::new([0u16; 256]);
        for b in 0..256u16 {
            lo[b as usize] = (scalar * Gf16::new(b)).value();
            hi[b as usize] = (scalar * Gf16::new(b << 8)).value();
        }
        let mut nibbles = [[0u8; 16]; 8];
        for k in 0..4 {
            for n in 0..16u16 {
                let [low, high] = (scalar * Gf16::new(n << (4 * k))).value().to_le_bytes();
                nibbles[k][n as usize] = low;
                nibbles[4 + k][n as usize] = high;
            }
        }
        Gf16MulTable {
            lo,
            hi,
            nibbles,
            scalar,
        }
    }

    /// The scalar this table multiplies by.
    #[inline]
    pub fn scalar(&self) -> Gf16 {
        self.scalar
    }

    /// The `PSHUFB` operands: entry `k` (`k < 4`) is the low byte of
    /// `s·(n « 4k)` for each nibble `n`, entry `4 + k` its high byte, so a
    /// product is the XOR of four lookups per output byte.
    #[inline]
    pub(crate) fn nibbles(&self) -> &[[u8; 16]; 8] {
        &self.nibbles
    }

    /// Multiplies one 16-bit symbol by the scalar.
    #[inline]
    pub fn mul(&self, v: u16) -> u16 {
        self.lo[(v & 0xFF) as usize] ^ self.hi[(v >> 8) as usize]
    }

    /// `dst = scalar · src`, symbol-wise.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_slice(&self, src: &[u16], dst: &mut [u16]) {
        assert_eq!(src.len(), dst.len(), "gf16 mul_slice length mismatch");
        match self.scalar.value() {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = self.mul(*s);
                }
            }
        }
    }

    /// `buf = scalar · buf`, symbol-wise.
    pub fn mul_slice_in_place(&self, buf: &mut [u16]) {
        match self.scalar.value() {
            0 => buf.fill(0),
            1 => {}
            _ => {
                for v in buf.iter_mut() {
                    *v = self.mul(*v);
                }
            }
        }
    }

    /// `dst ^= scalar · src`, symbol-wise — the column pass of packed
    /// share evaluation — through the active [`Kernel`](crate::kernel)
    /// tier.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn mul_add_slice(&self, src: &[u16], dst: &mut [u16]) {
        Kernel::active().gf16_mul_add_slice(self, src, dst);
    }
}

/// `dst = scalar · src` over GF(2^16) symbols (one-shot table build).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn gf16_mul_slice(scalar: Gf16, src: &[u16], dst: &mut [u16]) {
    Gf16MulTable::new(scalar).mul_slice(src, dst);
}

/// `dst ^= scalar · src` over GF(2^16) symbols (one-shot table build).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn gf16_mul_add_slice(scalar: Gf16, src: &[u16], dst: &mut [u16]) {
    Gf16MulTable::new(scalar).mul_add_slice(src, dst);
}

/// Below this many symbols the fused GF(2^16) row kernel skips the
/// 576-multiply table build and accumulates through log/exp directly
/// (byte-identical — field arithmetic is exact either way). Callers that
/// build their tables once for many strips use the same break-even.
pub const GF16_TABLE_MIN: usize = 64;

/// `dst ^= Σ_k c_k · src_k` over GF(2^16) symbols — the fused row kernel
/// behind packed-share polynomial evaluation.
///
/// Long buffers build one [`Gf16MulTable`] per row and accumulate in
/// cache-sized strips through the active [`Kernel`](crate::kernel) tier,
/// like [`mul_add_rows`]; buffers shorter than the table-build
/// break-even use the direct log/exp multiply.
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn gf16_mul_add_rows(dst: &mut [u16], rows: &[(Gf16, &[u16])]) {
    for (_, src) in rows {
        assert_eq!(src.len(), dst.len(), "gf16 mul_add_rows length mismatch");
    }
    if dst.len() < GF16_TABLE_MIN {
        for &(c, src) in rows {
            match c.value() {
                0 => {}
                1 => {
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d ^= *s;
                    }
                }
                _ => {
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d = (Gf16::new(*d) + c * Gf16::new(*s)).value();
                    }
                }
            }
        }
        return;
    }
    let tables: Vec<Gf16MulTable> = rows.iter().map(|&(c, _)| Gf16MulTable::new(c)).collect();
    let trows: Vec<(&Gf16MulTable, &[u16])> = tables
        .iter()
        .zip(rows)
        .map(|(t, &(_, src))| (t, src))
        .collect();
    gf16_mul_add_rows_on(Kernel::active(), dst, &trows);
}

/// [`gf16_mul_add_rows`] with caller-prebuilt product tables, through an
/// explicit kernel tier (benchmark sweeps and cross-tier parity tests;
/// everything else wants [`gf16_mul_add_rows`]).
///
/// # Panics
///
/// Panics if any row's length differs from `dst`'s.
pub fn gf16_mul_add_rows_on(kernel: &Kernel, dst: &mut [u16], rows: &[(&Gf16MulTable, &[u16])]) {
    for (_, src) in rows {
        assert_eq!(src.len(), dst.len(), "gf16 mul_add_rows length mismatch");
    }
    // Strip length in symbols; same byte footprint as `ROW_STRIP`.
    let strip = ROW_STRIP / 2;
    let mut start = 0;
    while start < dst.len() {
        let end = (start + strip).min(dst.len());
        for &(table, src) in rows {
            kernel.gf16_mul_add_slice(table, &src[start..end], &mut dst[start..end]);
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: d' = d ⊕ s·v via the field's own multiply.
    fn ref_mul_acc_256(scalar: Gf256, src: &[u8], dst: &mut [u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = (Gf256::new(*d) + scalar * Gf256::new(*s)).value();
        }
    }

    #[test]
    fn gf256_table_matches_field_mul_exhaustive() {
        for s in 0..=255u8 {
            let t = Gf256MulTable::new(Gf256::new(s));
            for b in 0..=255u8 {
                assert_eq!(
                    t.mul(b),
                    (Gf256::new(s) * Gf256::new(b)).value(),
                    "s={s} b={b}"
                );
            }
        }
    }

    #[test]
    fn gf256_slice_kernels_match_scalar_reference() {
        let src: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for s in [0u8, 1, 2, 0x53, 0x8E, 0xFF] {
            let scalar = Gf256::new(s);
            let t = Gf256MulTable::new(scalar);

            let mut expect = vec![0xA5u8; src.len()];
            let mut got = expect.clone();
            ref_mul_acc_256(scalar, &src, &mut expect);
            t.mul_add_slice(&src, &mut got);
            assert_eq!(got, expect, "mul_add_slice s={s}");

            let mut got2 = vec![0u8; src.len()];
            t.mul_slice(&src, &mut got2);
            let expect2: Vec<u8> = src
                .iter()
                .map(|&b| (scalar * Gf256::new(b)).value())
                .collect();
            assert_eq!(got2, expect2, "mul_slice s={s}");

            let mut got3 = src.clone();
            t.mul_slice_in_place(&mut got3);
            assert_eq!(got3, expect2, "mul_slice_in_place s={s}");
        }
    }

    #[test]
    fn gf256_kernels_agree_with_mul_acc_slice() {
        // The legacy log/exp path and the new table path must be
        // bit-identical on every length, including the unrolled tail.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 255] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for s in [0u8, 1, 0xB7] {
                let mut a = vec![0x3Cu8; len];
                let mut b = a.clone();
                Gf256::new(s).mul_acc_slice(&src, &mut a);
                mul_add_slice(Gf256::new(s), &src, &mut b);
                assert_eq!(a, b, "len={len} s={s}");
            }
        }
    }

    #[test]
    fn gf16_table_matches_field_mul_samples() {
        for s in [0u16, 1, 2, 0x1234, 0xABCD, 0xFFFF] {
            let t = Gf16MulTable::new(Gf16::new(s));
            for v in (0..=65_535u16).step_by(251) {
                assert_eq!(
                    t.mul(v),
                    (Gf16::new(s) * Gf16::new(v)).value(),
                    "s={s:#x} v={v:#x}"
                );
            }
        }
    }

    #[test]
    fn gf16_slice_kernels_match_scalar_reference() {
        let src: Vec<u16> = (0..500u16).map(|i| i.wrapping_mul(131)).collect();
        for s in [0u16, 1, 0x0003, 0x8001, 0xFFFE] {
            let scalar = Gf16::new(s);
            let t = Gf16MulTable::new(scalar);

            let mut got = vec![0x5A5Au16; src.len()];
            let expect: Vec<u16> = src
                .iter()
                .zip(got.iter())
                .map(|(&v, &d)| (Gf16::new(d) + scalar * Gf16::new(v)).value())
                .collect();
            t.mul_add_slice(&src, &mut got);
            assert_eq!(got, expect, "gf16 mul_add_slice s={s:#x}");

            let mut got2 = vec![0u16; src.len()];
            gf16_mul_slice(scalar, &src, &mut got2);
            let expect2: Vec<u16> = src
                .iter()
                .map(|&v| (scalar * Gf16::new(v)).value())
                .collect();
            assert_eq!(got2, expect2, "gf16 mul_slice s={s:#x}");

            let mut got3 = src.clone();
            t.mul_slice_in_place(&mut got3);
            assert_eq!(got3, expect2, "gf16 mul_slice_in_place s={s:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let t = Gf256MulTable::new(Gf256::new(2));
        let mut dst = [0u8; 3];
        t.mul_add_slice(&[1, 2], &mut dst);
    }
}
