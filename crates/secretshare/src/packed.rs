//! Packed secret sharing over GF(2^16) (Franklin–Yung).
//!
//! Standard Shamir sharing pays `n×` storage because one polynomial hides
//! one secret. Packed sharing hides `k` secrets in a single polynomial of
//! degree `t + k - 1`: the secrets sit at `k` dedicated evaluation points
//! and `t` random values provide the privacy slack. Any `t` shares still
//! reveal nothing, but reconstruction now needs `t + k` shares, and the
//! amortized storage drops from `n×` to `n / k ×` — the middle point of
//! the paper's Figure 1 trade-off, between erasure coding and full secret
//! sharing.
//!
//! GF(2^16) supplies the 65 536 evaluation points needed to keep the
//! secret slots disjoint from up to ~65 000 share indices.
//!
//! # A linear code
//!
//! The payload is cut into rows of `k` symbols, one polynomial per row.
//! Every row's polynomial passes through the same `k + t` x-coordinates
//! — the secret points `65535 − j`, the anchor points below them — and
//! is evaluated at the same share points `1..=n`, so
//! `share_i = Σ_j L_j(i) · y_j` with one `n × (k + t)` generator matrix
//! `G[i][j] = L_j(i)` (Lagrange basis) that depends on [`PackedParams`]
//! alone. [`split`] walks the rows in strips: it de-interleaves a strip
//! of the payload into `k` symbol columns, draws its `t` anchor columns,
//! and writes each share's strip as one matrix row × columns pass;
//! [`reconstruct`] is the same with the basis taken over the share
//! points and evaluated at each secret point. No polynomial is ever
//! materialized, and no buffer but the shares and the output is as long
//! as the payload.
//!
//! # Bytes
//!
//! Shares are bytes: each row's symbol big-endian, two bytes per row, as
//! they are stored. The payload is read as big-endian symbols too, an
//! odd last byte zero-padded.
//!
//! The anchors are drawn row by row, `t` per row, each the low 16 bits of
//! one [`CryptoRng::next_u64`] — eight generator bytes per anchor, of
//! which bytes `[0..2]` (little-endian) are used. The draw is made in
//! bulk through a fixed-size strip, which consumes the identical byte
//! stream; shares are a pure function of (generator stream, parameters,
//! payload) and pinned as such by the golden vectors.

use crate::ShareError;
use aeon_crypto::CryptoRng;
use aeon_gf::poly::lagrange_coefficients;
use aeon_gf::slice::{Gf16MulTable, GF16_TABLE_MIN};
use aeon_gf::Gf16;

/// A packed share: one evaluation of the packed polynomial per row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedShare {
    /// 1-based share index; the evaluation point is `x = index`.
    pub index: u16,
    /// Evaluations, one big-endian GF(2^16) symbol (two bytes) per row.
    pub data: Vec<u8>,
}

/// Parameters of a packed sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedParams {
    /// Privacy threshold: any `t` shares are independent of the secrets.
    pub privacy: usize,
    /// Number of secrets packed per polynomial.
    pub pack: usize,
    /// Number of shares issued.
    pub shares: usize,
}

impl PackedParams {
    /// Creates parameters, validating the algebraic constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ShareError::InvalidParameters`] unless
    /// `privacy ≥ 1`, `pack ≥ 1`, and `privacy + pack ≤ shares` (needed to
    /// reconstruct), with secret points and share points fitting in
    /// GF(2^16).
    pub fn new(privacy: usize, pack: usize, shares: usize) -> Result<Self, ShareError> {
        let params = PackedParams {
            privacy,
            pack,
            shares,
        };
        params.check()?;
        Ok(params)
    }

    /// The constraints [`PackedParams::new`] promises. The fields are
    /// public, so [`split`] and [`reconstruct`] check them again rather
    /// than trust that a value came through `new`.
    fn check(&self) -> Result<(), ShareError> {
        let reason = if self.privacy == 0 || self.pack == 0 {
            "privacy threshold and pack width must be at least 1"
        } else if self.privacy.saturating_add(self.pack) > self.shares {
            "need at least privacy + pack shares to reconstruct"
        } else if self.shares.saturating_add(self.pack) >= 65_536 {
            "share and secret points exceed GF(2^16)"
        } else {
            return Ok(());
        };
        Err(ShareError::InvalidParameters {
            threshold: self.privacy,
            shares: self.shares,
            reason,
        })
    }

    /// Shares required for reconstruction.
    pub fn reconstruct_threshold(&self) -> usize {
        self.privacy + self.pack
    }

    /// Amortized storage expansion per secret: `shares / pack`.
    pub fn expansion(&self) -> f64 {
        self.shares as f64 / self.pack as f64
    }

    /// The evaluation point hiding secret slot `j` (0-based): points are
    /// taken from the top of the field, disjoint from share indices.
    fn secret_point(&self, j: usize) -> Gf16 {
        Gf16::new((65_535 - j) as u16)
    }

    /// The x-coordinates every row's polynomial is fixed at, in input
    /// column order: the `pack` secret points, then the `privacy` anchor
    /// points directly below the secret block.
    fn input_points(&self) -> Vec<Gf16> {
        (0..self.pack + self.privacy)
            .map(|j| self.secret_point(j))
            .collect()
    }
}

/// Rows of a Lagrange basis — `basis[r][j] = L_j(x0_r)` over the points
/// `xs`, one row per `x0s` — applied to strips of symbol columns: through
/// product tables built once when the columns are long enough to pay for
/// them, else symbol by symbol.
struct Basis {
    width: usize,
    coefficients: Vec<Gf16>,
    tables: Vec<Gf16MulTable>,
}

impl Basis {
    /// `None` if two of `xs` coincide.
    fn new(xs: &[Gf16], x0s: impl Iterator<Item = Gf16>, rows: usize) -> Option<Basis> {
        let mut coefficients = Vec::new();
        for x0 in x0s {
            coefficients.extend(lagrange_coefficients(xs, x0).ok()?);
        }
        let tables = if rows >= GF16_TABLE_MIN {
            coefficients.iter().map(|&c| Gf16MulTable::new(c)).collect()
        } else {
            Vec::new()
        };
        Some(Basis {
            width: xs.len(),
            coefficients,
            tables,
        })
    }

    /// `dst = Σ_j basis[r][j] · column_j`, column `j` being the first
    /// `dst.len()` symbols of `columns[j·stride..]`.
    fn apply(&self, r: usize, columns: &[u16], stride: usize, dst: &mut [u16]) {
        let n = dst.len();
        let columns = columns.chunks_exact(stride).map(|c| &c[..n]);
        let row = r * self.width..(r + 1) * self.width;
        dst.fill(0);
        if self.tables.is_empty() {
            for (&c, column) in self.coefficients[row].iter().zip(columns) {
                for (d, &s) in dst.iter_mut().zip(column) {
                    *d ^= (c * Gf16::new(s)).value();
                }
            }
        } else {
            for (table, column) in self.tables[row].iter().zip(columns) {
                table.mul_add_slice(column, dst);
            }
        }
    }
}

/// Rows per strip: 1 KiB per symbol column, so a strip's columns stay in
/// L1 beside the strip they combine into, and the product tables, built
/// once, are the largest scratch an encoder holds.
const STRIP_ROWS: usize = 512;

/// Generator bytes fetched per pass of the anchor draw: a fixed strip, so
/// the bulk draw holds no buffer proportional to the payload.
const DRAW_STRIP: usize = 16 * 1024;

/// Fills the first `rows` symbols of each `stride`-long anchor column in
/// `anchors` from `rng`, in the order the sharing is defined by:
/// row-major, one `next_u64() & 0xFFFF` per anchor. `next_u64` is eight
/// `fill_bytes` bytes read little-endian, so the low 16 bits are bytes
/// `[0..2]` of each 8-byte group of one bulk draw. Each draw fills whole
/// rows of `buf` (one row at least), then scatters each anchor column out
/// of them; the generator emits one stream however its reads are cut, so
/// the anchors depend on neither `buf`'s length nor the caller's strip.
fn draw_anchors<R: CryptoRng + ?Sized>(
    rng: &mut R,
    buf: &mut [u8],
    anchors: &mut [u16],
    stride: usize,
    rows: usize,
) {
    let row_bytes = 8 * (anchors.len() / stride);
    let per_draw = buf.len() / row_bytes;
    let mut row = 0;
    while row < rows {
        let take = per_draw.min(rows - row);
        let bytes = &mut buf[..take * row_bytes];
        rng.fill_bytes(bytes);
        for (c, column) in anchors.chunks_exact_mut(stride).enumerate() {
            let draws = bytes.chunks_exact(row_bytes).map(|r| &r[8 * c..8 * c + 2]);
            for (anchor, draw) in column[row..row + take].iter_mut().zip(draws) {
                *anchor = u16::from_le_bytes([draw[0], draw[1]]);
            }
        }
        row += take;
    }
}

/// Splits `secrets` (exactly `params.pack` symbol columns wide per
/// polynomial batch) into packed shares. The secret slice is interpreted
/// as big-endian u16 symbols; odd-length inputs are zero-padded, and the
/// empty secret is shared as one all-zero row.
///
/// # Errors
///
/// Returns [`ShareError::InvalidParameters`] for parameters
/// [`PackedParams::new`] would reject.
pub fn split<R: CryptoRng + ?Sized>(
    rng: &mut R,
    params: PackedParams,
    secrets: &[u8],
) -> Result<Vec<PackedShare>, ShareError> {
    params.check()?;
    let pack = params.pack;
    let rows = secrets.len().div_ceil(2).div_ceil(pack).max(1);
    // share_i = Σ_j L_j(i) · column_j: one generator-matrix row per share.
    let share_points = (1..=params.shares as u16).map(Gf16::new);
    let matrix = Basis::new(&params.input_points(), share_points, rows)
        .ok_or(ShareError::ProtocolViolation("interpolation failed"))?;
    let stride = STRIP_ROWS.min(rows);
    // Input column `j` of a strip, at `columns[j·stride..]`, holds `y_j`
    // of each of its rows: `pack` secret columns (the payload
    // de-interleaved, zero-padded tail), then the anchors.
    let mut columns = vec![0u16; stride * matrix.width];
    let mut symbols = vec![0u16; stride];
    // The anchor draw's bytes: a fixed strip, or one row if a row is wider.
    let mut fixed = [0u8; DRAW_STRIP];
    let mut wide = Vec::new();
    let draws: &mut [u8] = if 8 * params.privacy <= DRAW_STRIP {
        &mut fixed
    } else {
        wide.resize(8 * params.privacy, 0);
        &mut wide
    };
    let mut out: Vec<PackedShare> = (1..=params.shares as u16)
        .map(|index| PackedShare {
            index,
            data: vec![0u8; 2 * rows],
        })
        .collect();
    for first in (0..rows).step_by(stride) {
        let n = stride.min(rows - first);
        let at = |row: usize| (2 * pack * row).min(secrets.len());
        let whole = secrets[at(first)..at(first + n)].chunks_exact(2 * pack);
        let (full, tail) = (whole.len(), whole.remainder());
        let (secret_cols, anchor_cols) = columns.split_at_mut(pack * stride);
        for (j, column) in secret_cols.chunks_exact_mut(stride).enumerate() {
            for (symbol, row) in column.iter_mut().zip(whole.clone()) {
                *symbol = u16::from_be_bytes([row[2 * j], row[2 * j + 1]]);
            }
            // The ragged last row, if any: its missing symbols and odd
            // byte are 0.
            if full < n {
                let pair = tail.get(2 * j..).unwrap_or_default();
                let byte = |k: usize| pair.get(k).copied().unwrap_or(0);
                column[full] = u16::from_be_bytes([byte(0), byte(1)]);
            }
        }
        draw_anchors(rng, draws, anchor_cols, stride, n);
        for (i, share) in out.iter_mut().enumerate() {
            matrix.apply(i, &columns, stride, &mut symbols[..n]);
            let bytes = share.data[2 * first..2 * (first + n)].chunks_exact_mut(2);
            for (pair, symbol) in bytes.zip(&symbols) {
                pair.copy_from_slice(&symbol.to_be_bytes());
            }
        }
    }
    Ok(out)
}

/// Reconstructs the packed secrets from at least `privacy + pack` shares.
/// Returns the secrets as bytes (length `2 * pack * rows`, including any
/// zero padding introduced at split; the caller tracks true length).
///
/// # Errors
///
/// Returns [`ShareError::InvalidParameters`] for parameters
/// [`PackedParams::new`] would reject, [`ShareError::TooFewShares`], or
/// [`ShareError::InconsistentShares`] (a share of an odd byte length
/// among them).
pub fn reconstruct(params: PackedParams, shares: &[PackedShare]) -> Result<Vec<u8>, ShareError> {
    combine(params, shares, |s| (s.index, &s.data))
}

/// [`reconstruct`] from borrowed `(index, data)` shares: a reader that
/// holds the share bytes copies none of them.
///
/// # Errors
///
/// Same conditions as [`reconstruct`].
pub fn reconstruct_slices(
    params: PackedParams,
    shares: &[(u16, &[u8])],
) -> Result<Vec<u8>, ShareError> {
    combine(params, shares, |&(index, data)| (index, data))
}

/// The one body of [`reconstruct`] and [`reconstruct_slices`], each
/// share seen through `part` as `(index, data)`.
fn combine<T>(
    params: PackedParams,
    shares: &[T],
    part: impl Fn(&T) -> (u16, &[u8]),
) -> Result<Vec<u8>, ShareError> {
    if shares.iter().any(|s| !part(s).1.len().is_multiple_of(2)) {
        return Err(ShareError::InconsistentShares(
            "packed share of an odd byte length",
        ));
    }
    params.check()?;
    let need = params.reconstruct_threshold();
    if shares.len() < need {
        return Err(ShareError::TooFewShares {
            provided: shares.len(),
            required: need,
        });
    }
    let subset = &shares[..need];
    let rows = part(&subset[0]).1.len() / 2;
    if subset.iter().any(|s| part(s).1.len() != 2 * rows) {
        return Err(ShareError::InconsistentShares("ragged share lengths"));
    }
    let mut seen = std::collections::HashSet::new();
    for (index, _) in subset.iter().map(&part) {
        if index == 0 || !seen.insert(index) {
            return Err(ShareError::InconsistentShares(
                "duplicate or reserved share index",
            ));
        }
    }
    // secret_j = Σ_i L_i(secret point j) · share_i, basis over the share
    // points: one pass per secret slot and strip, interleaved back into
    // rows.
    let xs: Vec<Gf16> = subset.iter().map(|s| Gf16::new(part(s).0)).collect();
    let pack = params.pack;
    let slots = (0..pack).map(|j| params.secret_point(j));
    let basis = Basis::new(&xs, slots, rows)
        .ok_or(ShareError::InconsistentShares("duplicate share index"))?;
    let stride = STRIP_ROWS.min(rows).max(1);
    let mut columns = vec![0u16; stride * need];
    let mut symbols = vec![0u16; stride];
    let mut out = vec![0u8; rows * pack * 2];
    for first in (0..rows).step_by(stride) {
        let n = stride.min(rows - first);
        for (column, share) in columns.chunks_exact_mut(stride).zip(subset) {
            let bytes = part(share).1[2 * first..2 * (first + n)].chunks_exact(2);
            for (symbol, pair) in column.iter_mut().zip(bytes) {
                *symbol = u16::from_be_bytes([pair[0], pair[1]]);
            }
        }
        let strip = &mut out[2 * pack * first..2 * pack * (first + n)];
        for j in 0..pack {
            basis.apply(j, &columns, stride, &mut symbols[..n]);
            for (row, symbol) in strip.chunks_exact_mut(2 * pack).zip(&symbols) {
                row[2 * j..2 * j + 2].copy_from_slice(&symbol.to_be_bytes());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;
    use aeon_gf::poly::{interpolate, lagrange_eval};
    use proptest::prelude::*;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(11)
    }

    /// The definition [`split`] is checked against: one polynomial per
    /// row, interpolated through its `pack` secrets and `privacy` anchors
    /// (one `next_u64() & 0xFFFF` each, row-major) and evaluated at every
    /// share point.
    fn split_by_interpolation<R: CryptoRng + ?Sized>(
        rng: &mut R,
        params: PackedParams,
        secrets: &[u8],
    ) -> Vec<PackedShare> {
        let symbols: Vec<Gf16> = secrets
            .chunks(2)
            .map(|c| Gf16::new(u16::from_be_bytes([c[0], *c.get(1).unwrap_or(&0)])))
            .collect();
        let rows = symbols.len().div_ceil(params.pack).max(1);
        let mut shares: Vec<PackedShare> = (1..=params.shares as u16)
            .map(|index| PackedShare {
                index,
                data: Vec::with_capacity(2 * rows),
            })
            .collect();
        for row in 0..rows {
            let mut points: Vec<(Gf16, Gf16)> = Vec::new();
            for j in 0..params.pack {
                let s = symbols.get(row * params.pack + j).copied();
                points.push((params.secret_point(j), s.unwrap_or(Gf16::ZERO)));
            }
            for j in 0..params.privacy {
                let x = Gf16::new((65_535 - params.pack - j) as u16);
                let y = Gf16::new((rng.next_u64() & 0xFFFF) as u16);
                points.push((x, y));
            }
            let poly = interpolate(&points).expect("distinct points");
            for share in &mut shares {
                let y = poly.eval(Gf16::new(share.index)).value();
                share.data.extend_from_slice(&y.to_be_bytes());
            }
        }
        shares
    }

    /// The definition [`reconstruct`] is checked against, for well-formed
    /// share sets: `rows × pack` Lagrange evaluations over the first
    /// `privacy + pack` shares.
    fn reconstruct_by_lagrange_eval(params: PackedParams, shares: &[PackedShare]) -> Vec<u8> {
        let subset = &shares[..params.reconstruct_threshold()];
        let mut out = Vec::new();
        for row in 0..subset[0].data.len() / 2 {
            let pts: Vec<(Gf16, Gf16)> = subset
                .iter()
                .map(|s| (Gf16::new(s.index), Gf16::new(symbol(s, row))))
                .collect();
            for j in 0..params.pack {
                let v = lagrange_eval(&pts, params.secret_point(j)).expect("distinct indices");
                out.extend_from_slice(&v.value().to_be_bytes());
            }
        }
        out
    }

    /// Symbol `row` of a share.
    fn symbol(share: &PackedShare, row: usize) -> u16 {
        u16::from_be_bytes([share.data[2 * row], share.data[2 * row + 1]])
    }

    /// `split` against the oracle from the same seed: equal share for
    /// share, and both generators left at the same stream position.
    fn assert_split_matches_oracle(params: PackedParams, seed: u64, secret: &[u8]) {
        let mut fast_rng = ChaChaDrbg::from_u64_seed(seed);
        let mut oracle_rng = ChaChaDrbg::from_u64_seed(seed);
        // Start mid-block, as a generator that has served earlier draws does.
        assert_eq!(fast_rng.gen_array::<5>(), oracle_rng.gen_array::<5>());
        let fast = split(&mut fast_rng, params, secret).unwrap();
        let oracle = split_by_interpolation(&mut oracle_rng, params, secret);
        assert_eq!(fast, oracle, "{params:?}, {} bytes", secret.len());
        assert_eq!(fast_rng.gen_array::<32>(), oracle_rng.gen_array::<32>());
    }

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        ChaChaDrbg::from_u64_seed(seed).fill_bytes(&mut bytes);
        bytes
    }

    proptest! {
        #[test]
        fn oracle_agrees_with_split(privacy in 1usize..=4, pack in 1usize..=5,
                                              extra in 0usize..12, seed in any::<u64>(),
                                              secret in prop::collection::vec(any::<u8>(), 0..71)) {
            let need = privacy + pack;
            let params = PackedParams::new(privacy, pack, need + extra % (13 - need)).unwrap();
            assert_split_matches_oracle(params, seed, &secret);
        }

        #[test]
        fn oracle_agrees_with_reconstruct(privacy in 1usize..=4, pack in 1usize..=5,
                                                    extra in 0usize..12, seed in any::<u64>(),
                                                    secret in prop::collection::vec(any::<u8>(), 0..71)) {
            let need = privacy + pack;
            let params = PackedParams::new(privacy, pack, need + extra % (13 - need)).unwrap();
            let mut shares = split(&mut ChaChaDrbg::from_u64_seed(seed), params, &secret).unwrap();
            // The last `need` shares, so the subset is not always 1..=need.
            shares.drain(..params.shares - need);
            let rec = reconstruct(params, &shares).unwrap();
            prop_assert_eq!(&rec, &reconstruct_by_lagrange_eval(params, &shares));
            prop_assert_eq!(&rec[..secret.len()], &secret[..]);
            prop_assert!(rec[secret.len()..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn oracle_agrees_with_split_and_reconstruct_across_strips() {
        // 64 KiB + 3: many row and anchor strips, an odd byte and a
        // ragged last row; a pack width that does not divide the strip.
        let secret = payload(65_539, 3);
        for (params, secret) in [
            (PackedParams::new(2, 2, 6).unwrap(), &secret[..]),
            (PackedParams::new(3, 5, 9).unwrap(), &secret[..40_001]),
        ] {
            assert_split_matches_oracle(params, 7, secret);
            let shares = split(&mut rng(), params, secret).unwrap();
            let subset = &shares[params.shares - params.reconstruct_threshold()..];
            let rec = reconstruct(params, subset).unwrap();
            assert_eq!(rec, reconstruct_by_lagrange_eval(params, subset));
            assert_eq!(&rec[..secret.len()], secret);
            let lent: Vec<(u16, &[u8])> = subset.iter().map(|s| (s.index, &s.data[..])).collect();
            assert_eq!(reconstruct_slices(params, &lent).unwrap(), rec);
        }
    }

    #[test]
    fn oracle_agrees_with_reconstruct_on_every_threshold_subset() {
        let secret = payload(23, 5); // odd length, ragged last row
        for (privacy, pack, n) in [(1, 1, 4), (2, 2, 6), (2, 3, 7), (3, 2, 8)] {
            let params = PackedParams::new(privacy, pack, n).unwrap();
            let shares = split(&mut rng(), params, &secret).unwrap();
            let need = params.reconstruct_threshold();
            for mask in (0u32..1 << n).filter(|m| m.count_ones() as usize == need) {
                let mut subset: Vec<PackedShare> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| shares[i].clone())
                    .collect();
                for _order in 0..2 {
                    let rec = reconstruct(params, &subset).unwrap();
                    assert_eq!(rec, reconstruct_by_lagrange_eval(params, &subset));
                    assert_eq!(&rec[..secret.len()], &secret[..], "{params:?} {mask:#b}");
                    subset.reverse();
                }
            }
        }
    }

    #[test]
    fn malformed_share_sets_keep_their_errors() {
        let params = PackedParams::new(2, 2, 6).unwrap();
        let shares = split(&mut rng(), params, b"malformed sets").unwrap();
        let mut ragged = shares.clone();
        let short = ragged[2].data.len() - 2;
        ragged[2].data.truncate(short);
        let mut odd = shares.clone();
        odd[5].data.pop();
        let mut duplicate = shares.clone();
        duplicate[3] = duplicate[0].clone();
        let mut reserved = shares.clone();
        reserved[1].index = 0;
        let bad_index = ShareError::InconsistentShares("duplicate or reserved share index");
        let cases = [
            (
                &shares[..3],
                ShareError::TooFewShares {
                    provided: 3,
                    required: 4,
                },
            ),
            (
                &ragged[..],
                ShareError::InconsistentShares("ragged share lengths"),
            ),
            (&duplicate[..], bad_index.clone()),
            (&reserved[..], bad_index),
            // Any share given, read or not, must be whole symbols.
            (
                &odd[..],
                ShareError::InconsistentShares("packed share of an odd byte length"),
            ),
        ];
        for (set, error) in cases {
            assert_eq!(reconstruct(params, set), Err(error.clone()));
            let lent: Vec<(u16, &[u8])> = set.iter().map(|s| (s.index, &s.data[..])).collect();
            assert_eq!(reconstruct_slices(params, &lent), Err(error));
        }
    }

    #[test]
    fn parameters_built_without_new_are_rejected_not_trusted() {
        // The fields are public: both entry points used to panic on these
        // (`subset[0]` of an empty slice, `div_ceil(0)`).
        let zero = PackedParams {
            privacy: 0,
            pack: 0,
            shares: 0,
        };
        let huge = PackedParams {
            privacy: usize::MAX,
            pack: usize::MAX,
            shares: usize::MAX,
        };
        let short = PackedParams {
            privacy: 3,
            pack: 3,
            shares: 5,
        };
        for params in [zero, huge, short] {
            assert!(matches!(
                reconstruct(params, &[]),
                Err(ShareError::InvalidParameters { .. })
            ));
            assert!(matches!(
                split(&mut rng(), params, b"secret"),
                Err(ShareError::InvalidParameters { .. })
            ));
        }
    }

    #[test]
    fn roundtrip_exact() {
        let params = PackedParams::new(2, 4, 10).unwrap();
        let mut r = rng();
        let secret = b"0123456789abcdef"; // 8 symbols = 2 rows of 4
        let shares = split(&mut r, params, secret).unwrap();
        assert_eq!(shares.len(), 10);
        let rec = reconstruct(params, &shares[..6]).unwrap();
        assert_eq!(&rec[..16], secret);
    }

    #[test]
    fn any_reconstruction_subset_works() {
        let params = PackedParams::new(2, 2, 8).unwrap();
        let mut r = rng();
        let secret = b"pack";
        let shares = split(&mut r, params, secret).unwrap();
        for start in 0..4 {
            let subset: Vec<PackedShare> = shares[start..start + 4].to_vec();
            let rec = reconstruct(params, &subset).unwrap();
            assert_eq!(&rec[..4], secret, "subset start {start}");
        }
    }

    #[test]
    fn below_reconstruct_threshold_fails() {
        let params = PackedParams::new(3, 2, 8).unwrap();
        let mut r = rng();
        let shares = split(&mut r, params, b"hi").unwrap();
        assert!(matches!(
            reconstruct(params, &shares[..4]),
            Err(ShareError::TooFewShares { .. })
        ));
    }

    #[test]
    fn privacy_statistical_check() {
        // t shares of the SAME secrets over fresh randomness should vary:
        // a single share symbol takes many values.
        let params = PackedParams::new(2, 2, 6).unwrap();
        let mut values = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let mut r = ChaChaDrbg::from_u64_seed(seed);
            let shares = split(&mut r, params, b"same secret data").unwrap();
            values.insert(symbol(&shares[0], 0));
        }
        assert!(values.len() > 48, "share values too deterministic");
    }

    #[test]
    fn expansion_is_n_over_k() {
        let params = PackedParams::new(2, 4, 12).unwrap();
        assert!((params.expansion() - 3.0).abs() < 1e-9);
        // Compare: plain Shamir with same n would be 12x.
    }

    #[test]
    fn parameter_validation() {
        assert!(PackedParams::new(0, 2, 5).is_err());
        assert!(PackedParams::new(2, 0, 5).is_err());
        assert!(PackedParams::new(3, 3, 5).is_err()); // 3+3 > 5
        assert!(PackedParams::new(3, 2, 5).is_ok());
        assert!(PackedParams::new(2, 40_000, 40_000).is_err());
    }

    #[test]
    fn odd_length_secret_padded() {
        let params = PackedParams::new(1, 2, 4).unwrap();
        let mut r = rng();
        let shares = split(&mut r, params, b"abc").unwrap();
        let rec = reconstruct(params, &shares[..3]).unwrap();
        assert_eq!(&rec[..3], b"abc");
        assert_eq!(rec[3], 0); // padding
    }

    #[test]
    fn empty_secret() {
        let params = PackedParams::new(1, 2, 4).unwrap();
        let mut r = rng();
        let shares = split(&mut r, params, b"").unwrap();
        let rec = reconstruct(params, &shares[..3]).unwrap();
        // One zero row of padding.
        assert!(rec.iter().all(|&b| b == 0));
    }

    #[test]
    fn duplicate_index_rejected() {
        let params = PackedParams::new(1, 1, 3).unwrap();
        let mut r = rng();
        let shares = split(&mut r, params, b"xy").unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(matches!(
            reconstruct(params, &dup),
            Err(ShareError::InconsistentShares(_))
        ));
    }

    #[test]
    fn large_pack_width_efficiency() {
        // 8 secrets per polynomial, 3 privacy, 16 shares: 2x expansion for
        // ITS privacy against 3 colluders.
        let params = PackedParams::new(3, 8, 16).unwrap();
        let mut r = rng();
        let secret: Vec<u8> = (0..64u8).collect();
        let shares = split(&mut r, params, &secret).unwrap();
        let stored: usize = shares.iter().map(|s| s.data.len()).sum();
        let rows = (64usize / 2).div_ceil(8); // 32 symbols in rows of 8
        assert_eq!(stored, 16 * rows * 2);
        // Amortized expansion: 128 stored bytes / 64 secret bytes = 2x.
        assert_eq!(stored / 64, 2);
        let rec = reconstruct(params, &shares[..11]).unwrap();
        assert_eq!(&rec[..64], &secret[..]);
    }
}
