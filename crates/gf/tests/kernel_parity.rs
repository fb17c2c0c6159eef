//! Cross-tier kernel parity: every dispatch tier must be byte-identical
//! to the log/exp field reference on every scalar and on lengths that
//! straddle the vector widths (8-byte SWAR words, 16-byte SSSE3 lanes,
//! 32-byte AVX2 lanes, and the 16 KiB fused-row strip). GF(2^16) tiers
//! are checked against the scalar tier's byte-table loop, itself checked
//! against the field on every symbol.

use aeon_gf::slice::{
    gf16_mul_add_rows, gf16_mul_add_rows_on, mul_add_rows, mul_add_rows_on, mul_rows, mul_rows_on,
    Gf16MulTable, Gf256MulTable, ROW_STRIP,
};
use aeon_gf::{Gf16, Gf256, Kernel, KernelTier};
use proptest::prelude::*;

/// Ragged lengths covering the remainder paths of every tier.
const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 4096 + 3];

/// Deterministic non-trivial byte pattern.
fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + salt * 101 + 11) as u8).collect()
}

fn pattern16(len: usize, salt: usize) -> Vec<u16> {
    (0..len)
        .map(|i| (i * 4099 + salt * 31 + 7) as u16)
        .collect()
}

#[test]
fn every_tier_matches_log_exp_reference_exhaustively() {
    for kernel in Kernel::supported() {
        for s in 0..=255u8 {
            let scalar = Gf256::new(s);
            let table = Gf256MulTable::new(scalar);
            for len in LENGTHS {
                let src = pattern(len, s as usize);
                let init = pattern(len, s as usize + 1);
                let label = format!("tier={} s={s} len={len}", kernel.tier().name());

                let expect_mul: Vec<u8> = src
                    .iter()
                    .map(|&b| (scalar * Gf256::new(b)).value())
                    .collect();
                let mut got = vec![0u8; len];
                kernel.mul_slice(&table, &src, &mut got);
                assert_eq!(got, expect_mul, "mul_slice {label}");

                let mut got = src.clone();
                kernel.mul_slice_in_place(&table, &mut got);
                assert_eq!(got, expect_mul, "mul_slice_in_place {label}");

                let expect_acc: Vec<u8> =
                    init.iter().zip(&expect_mul).map(|(&d, &p)| d ^ p).collect();
                let mut got = init.clone();
                kernel.mul_add_slice(&table, &src, &mut got);
                assert_eq!(got, expect_acc, "mul_add_slice {label}");
            }
        }
    }
}

#[test]
fn fused_rows_match_serial_reference_on_every_tier() {
    // Row counts from degenerate to RS-like; lengths crossing the strip
    // boundary (16 KiB) exercise the cache-blocked accumulation order.
    for kernel in Kernel::supported() {
        for row_count in [0usize, 1, 3, 8] {
            for len in [0usize, 1, 9, 65, 4099, 40_000] {
                let coeffs: Vec<Gf256> = (0..row_count)
                    .map(|r| Gf256::new([0, 1, 0xB7, 0x02, 0x8E, 0xFF, 0x53, 0x1C][r % 8]))
                    .collect();
                let sources: Vec<Vec<u8>> = (0..row_count).map(|r| pattern(len, r + 2)).collect();
                let tables: Vec<Gf256MulTable> =
                    coeffs.iter().map(|&c| Gf256MulTable::new(c)).collect();

                let mut expect = pattern(len, 99);
                for (c, src) in coeffs.iter().zip(&sources) {
                    for (d, &s) in expect.iter_mut().zip(src) {
                        *d = (Gf256::new(*d) + *c * Gf256::new(s)).value();
                    }
                }

                let trows: Vec<(&Gf256MulTable, &[u8])> = tables
                    .iter()
                    .zip(&sources)
                    .map(|(t, s)| (t, s.as_slice()))
                    .collect();
                let mut got = pattern(len, 99);
                mul_add_rows_on(kernel, &mut got, &trows);
                assert_eq!(
                    got,
                    expect,
                    "tier={} rows={row_count} len={len}",
                    kernel.tier().name()
                );
            }
        }
    }
}

/// The write-first kernel against its definition: zero-fill, then
/// accumulate. Every tier, lengths at and beside the strip edge,
/// coefficients 0 and 1 in the first slot and later, and a destination
/// holding garbage that must never show through.
#[test]
fn mul_rows_equal_zero_fill_then_mul_add_rows_on_every_tier() {
    let firsts = [0u8, 1, 0xB7];
    for kernel in Kernel::supported() {
        for row_count in [0usize, 1, 2, 3, 5] {
            for len in [
                0,
                1,
                65,
                ROW_STRIP - 1,
                ROW_STRIP,
                ROW_STRIP + 1,
                2 * ROW_STRIP + 33,
            ] {
                for first in firsts {
                    let coeffs: Vec<Gf256> = (0..row_count)
                        .map(|r| {
                            Gf256::new(if r == 0 {
                                first
                            } else {
                                [1, 0, 0x53, 0x8E][r % 4]
                            })
                        })
                        .collect();
                    let tables: Vec<Gf256MulTable> =
                        coeffs.iter().map(|&c| Gf256MulTable::new(c)).collect();
                    let sources: Vec<Vec<u8>> =
                        (0..row_count).map(|r| pattern(len, r + 5)).collect();
                    let trows: Vec<(&Gf256MulTable, &[u8])> = tables
                        .iter()
                        .zip(&sources)
                        .map(|(t, s)| (t, s.as_slice()))
                        .collect();
                    let mut expect = vec![0u8; len];
                    mul_add_rows_on(kernel, &mut expect, &trows);
                    let mut got = pattern(len, 77);
                    mul_rows_on(kernel, &mut got, &trows);
                    assert_eq!(
                        got,
                        expect,
                        "tier={} rows={row_count} len={len} first={first}",
                        kernel.tier().name()
                    );
                }
            }
        }
    }
    // The table-building entry point on the active tier.
    let (a, b) = (pattern(ROW_STRIP + 1, 1), pattern(ROW_STRIP + 1, 2));
    let rows = [(Gf256::new(0x03), &a[..]), (Gf256::new(0xC6), &b[..])];
    let mut expect = vec![0u8; a.len()];
    mul_add_rows(&mut expect, &rows);
    let mut got = pattern(a.len(), 3);
    mul_rows(&mut got, &rows);
    assert_eq!(got, expect);
}

#[test]
fn mul_add_rows_active_dispatch_matches_reference() {
    let len = 5000;
    let a = pattern(len, 1);
    let b = pattern(len, 2);
    let rows: Vec<(Gf256, &[u8])> = vec![
        (Gf256::new(0x03), a.as_slice()),
        (Gf256::new(0xC6), b.as_slice()),
    ];
    let mut got = pattern(len, 3);
    let mut expect = got.clone();
    mul_add_rows(&mut got, &rows);
    for &(c, src) in &rows {
        for (d, &s) in expect.iter_mut().zip(src) {
            *d = (Gf256::new(*d) + c * Gf256::new(s)).value();
        }
    }
    assert_eq!(got, expect);
}

/// `dst ^= Σ c·src` for each row through `kernel`, from a copy of `init`.
fn gf16_rows_on(kernel: &Kernel, init: &[u16], rows: &[(&Gf16MulTable, &[u16])]) -> Vec<u16> {
    let mut dst = init.to_vec();
    gf16_mul_add_rows_on(kernel, &mut dst, rows);
    dst
}

fn scalar_kernel() -> &'static Kernel {
    Kernel::for_tier(KernelTier::Scalar).expect("scalar always supported")
}

#[test]
fn gf16_every_tier_matches_the_scalar_oracle_on_every_symbol() {
    let every_symbol: Vec<u16> = (0..=u16::MAX).collect();
    let init = pattern16(every_symbol.len(), 3);
    for s in [0u16, 1, 2, 0x8000, 0xFFFF, 0x1234, 0xB7C5] {
        let scalar = Gf16::new(s);
        let table = Gf16MulTable::new(scalar);
        let rows = [(&table, every_symbol.as_slice())];
        let oracle = gf16_rows_on(scalar_kernel(), &init, &rows);
        let field: Vec<u16> = init
            .iter()
            .zip(&every_symbol)
            .map(|(&d, &v)| d ^ (scalar * Gf16::new(v)).value())
            .collect();
        assert_eq!(oracle, field, "scalar oracle s={s:#x}");
        for kernel in Kernel::supported() {
            let got = gf16_rows_on(kernel, &init, &rows);
            assert!(got == oracle, "tier={} s={s:#x}", kernel.tier().name());
        }
    }
}

#[test]
fn gf16_every_tier_matches_the_scalar_oracle_on_ragged_and_offset_buffers() {
    // Every remainder of the 16- and 32-symbol steps, the 8192-symbol
    // strip edge, and a source one symbol off its allocation's alignment;
    // scalars 0 and 1 take the shared fast paths beside two multiplies.
    let tables: Vec<Gf16MulTable> = [0x1234u16, 1, 0, 0xFFFF]
        .map(|s| Gf16MulTable::new(Gf16::new(s)))
        .into();
    let lengths = (0..=70).chain([8191, 8192, 8193]);
    for len in lengths {
        for offset in [0, 1] {
            let sources: Vec<Vec<u16>> = (0..tables.len())
                .map(|r| pattern16(len + offset, r + 9))
                .collect();
            let rows: Vec<(&Gf16MulTable, &[u16])> = tables
                .iter()
                .zip(&sources)
                .map(|(t, s)| (t, &s[offset..]))
                .collect();
            let init = pattern16(len, 41);
            let oracle = gf16_rows_on(scalar_kernel(), &init, &rows);
            for kernel in Kernel::supported() {
                let got = gf16_rows_on(kernel, &init, &rows);
                assert_eq!(
                    got,
                    oracle,
                    "tier={} len={len} offset={offset}",
                    kernel.tier().name()
                );
            }
        }
    }
}

#[test]
fn gf16_kernels_match_log_exp_reference_on_sampled_scalars() {
    // The table kernels (multiply-accumulate on the active tier) must
    // agree with the field reference on the same ragged lengths.
    let scalars = [
        0u16, 1, 2, 3, 0x0100, 0x1234, 0x8001, 0xABCD, 0xFFFE, 0xFFFF,
    ];
    for &s in &scalars {
        let scalar = Gf16::new(s);
        let table = Gf16MulTable::new(scalar);
        for len in LENGTHS {
            let src = pattern16(len, s as usize);
            let init = pattern16(len, s as usize + 1);

            let expect_mul: Vec<u16> = src
                .iter()
                .map(|&v| (scalar * Gf16::new(v)).value())
                .collect();
            let mut got = vec![0u16; len];
            table.mul_slice(&src, &mut got);
            assert_eq!(got, expect_mul, "gf16 mul_slice s={s:#x} len={len}");

            let mut got = src.clone();
            table.mul_slice_in_place(&mut got);
            assert_eq!(
                got, expect_mul,
                "gf16 mul_slice_in_place s={s:#x} len={len}"
            );

            let expect_acc: Vec<u16> = init.iter().zip(&expect_mul).map(|(&d, &p)| d ^ p).collect();
            let mut got = init.clone();
            table.mul_add_slice(&src, &mut got);
            assert_eq!(got, expect_acc, "gf16 mul_add_slice s={s:#x} len={len}");
        }
    }
}

#[test]
fn gf16_fused_rows_match_serial_reference_across_fallback_threshold() {
    // Lengths on both sides of the table-build break-even (64 symbols)
    // and past the strip size (8192 symbols).
    for len in [0usize, 1, 63, 64, 65, 4099, 10_000] {
        for row_count in [0usize, 1, 4] {
            let coeffs: Vec<Gf16> = (0..row_count)
                .map(|r| Gf16::new([0u16, 1, 0x1234, 0x8001][r % 4]))
                .collect();
            let sources: Vec<Vec<u16>> = (0..row_count).map(|r| pattern16(len, r + 5)).collect();

            let mut expect = pattern16(len, 77);
            for (c, src) in coeffs.iter().zip(&sources) {
                for (d, &s) in expect.iter_mut().zip(src) {
                    *d = (Gf16::new(*d) + *c * Gf16::new(s)).value();
                }
            }

            let rows: Vec<(Gf16, &[u16])> = coeffs
                .iter()
                .zip(&sources)
                .map(|(&c, s)| (c, s.as_slice()))
                .collect();
            let mut got = pattern16(len, 77);
            gf16_mul_add_rows(&mut got, &rows);
            assert_eq!(got, expect, "gf16 rows={row_count} len={len}");
        }
    }
}

#[test]
fn forced_tier_parse_covers_all_tiers() {
    // The dispatch override itself is env-driven and cached per process;
    // CI runs this whole suite once under AEON_FORCE_KERNEL=scalar and
    // once unset. Here we pin the parse/fallback logic it rests on.
    for tier in KernelTier::ALL {
        assert_eq!(KernelTier::parse(tier.name()), Some(tier));
    }
    assert!(Kernel::for_tier(KernelTier::Scalar).is_some());
    assert!(Kernel::for_tier(KernelTier::Swar).is_some());
}

proptest! {
    /// Random scalars, lengths, and contents: all tiers agree with each
    /// other and with the reference on `mul_add_slice`.
    #[test]
    fn tiers_agree_on_random_inputs(
        s in any::<u8>(),
        init in prop::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        let scalar = Gf256::new(s);
        let table = Gf256MulTable::new(scalar);
        let src: Vec<u8> = (0..init.len())
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8)
            .collect();
        let mut expect = init.clone();
        for (d, &b) in expect.iter_mut().zip(&src) {
            *d = (Gf256::new(*d) + scalar * Gf256::new(b)).value();
        }
        for kernel in Kernel::supported() {
            let mut got = init.clone();
            kernel.mul_add_slice(&table, &src, &mut got);
            prop_assert_eq!(&got, &expect, "tier {}", kernel.tier().name());
        }
    }

    /// A random supported tier, scalar, length and contents: GF(2^16)
    /// multiply-accumulate equals the scalar oracle.
    #[test]
    fn gf16_random_tier_agrees_with_the_scalar_oracle(
        tier in any::<usize>(),
        s in any::<u16>(),
        init in prop::collection::vec(any::<u16>(), 0..600),
        seed in any::<u64>(),
    ) {
        let supported = Kernel::supported();
        let kernel = supported[tier % supported.len()];
        let table = Gf16MulTable::new(Gf16::new(s));
        let src: Vec<u16> = (0..init.len())
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 17) as u16)
            .collect();
        let rows = [(&table, src.as_slice())];
        prop_assert_eq!(
            gf16_rows_on(kernel, &init, &rows),
            gf16_rows_on(scalar_kernel(), &init, &rows),
            "tier {}",
            kernel.tier().name()
        );
    }

    /// Fused rows equal the serial per-coefficient loop for random
    /// shapes on the active kernel.
    #[test]
    fn fused_rows_equal_serial_on_random_shapes(
        coeffs in prop::collection::vec(any::<u8>(), 0..6),
        len in 0usize..500,
        seed in any::<u64>(),
    ) {
        let sources: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|r| {
                (0..len)
                    .map(|i| (seed.wrapping_mul((r * len + i) as u64 + 7) >> 11) as u8)
                    .collect()
            })
            .collect();
        let init: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64) >> 3) as u8).collect();

        let mut serial = init.clone();
        for (&c, src) in coeffs.iter().zip(&sources) {
            Gf256MulTable::new(Gf256::new(c)).mul_add_slice(src, &mut serial);
        }

        let rows: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (Gf256::new(c), s.as_slice()))
            .collect();
        let mut fused = init;
        mul_add_rows(&mut fused, &rows);
        prop_assert_eq!(fused, serial);
    }
}
