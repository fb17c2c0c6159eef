//! Erasure coding: systematic Reed–Solomon and replication.
//!
//! Availability is the best-understood leg of the CIA triad for archives:
//! `[n, k]` MDS codes tolerate the loss of any `n - k` shards at a storage
//! cost of `n / k`, versus `n`× for replication. This crate provides:
//!
//! * [`ReedSolomon`] — a systematic RS code over GF(2^8) built on Cauchy
//!   matrices (any `k` of the `n` shards reconstruct; data shards are
//!   plaintext copies of the input, parity shards are linear combinations).
//! * [`Replicator`] — plain `n`-way replication behind the same
//!   [`ErasureCode`] interface, as the baseline encoding in the paper's
//!   Figure 1.
//!
//! # Examples
//!
//! ```
//! use aeon_erasure::{ErasureCode, ReedSolomon};
//!
//! let rs = ReedSolomon::new(4, 2)?; // 4 data + 2 parity
//! let shards = rs.encode(b"archival payload, arbitrarily sized")?;
//! // Lose any two shards:
//! let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! partial[0] = None;
//! partial[5] = None;
//! let recovered = rs.decode(&partial)?;
//! assert_eq!(recovered, b"archival payload, arbitrarily sized");
//! # Ok::<(), aeon_erasure::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use aeon_gf::slice::{self, Gf256MulTable};
use aeon_gf::{Gf256, Matrix};
use std::ops::Range;

/// Errors from erasure coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// Invalid code parameters.
    InvalidParameters {
        /// Data shard count requested.
        data: usize,
        /// Parity shard count requested.
        parity: usize,
        /// Why the parameters are invalid.
        reason: &'static str,
    },
    /// Not enough shards survive to reconstruct.
    TooFewShards {
        /// Shards available.
        available: usize,
        /// Shards required.
        required: usize,
    },
    /// Shard lengths are inconsistent.
    ShardLengthMismatch,
    /// The shard list has the wrong number of entries.
    WrongShardCount {
        /// Entries provided.
        provided: usize,
        /// Entries expected.
        expected: usize,
    },
    /// The encoded payload header is malformed.
    CorruptHeader,
    /// A requested shard slot lies beyond the code's `n` slots.
    NoSuchShard {
        /// The slot requested.
        index: usize,
        /// Slots the code has.
        total: usize,
    },
}

impl core::fmt::Display for CodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodeError::InvalidParameters {
                data,
                parity,
                reason,
            } => {
                write!(
                    f,
                    "invalid code parameters ({data} data, {parity} parity): {reason}"
                )
            }
            CodeError::TooFewShards {
                available,
                required,
            } => {
                write!(
                    f,
                    "too few shards: {available} available, {required} required"
                )
            }
            CodeError::ShardLengthMismatch => write!(f, "shard lengths differ"),
            CodeError::WrongShardCount { provided, expected } => {
                write!(
                    f,
                    "wrong shard count: {provided} provided, {expected} expected"
                )
            }
            CodeError::CorruptHeader => write!(f, "corrupt shard header"),
            CodeError::NoSuchShard { index, total } => {
                write!(f, "no shard slot {index}: the code has {total}")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// A `[n, k]` erasure code over byte shards.
///
/// Encoding maps a byte payload to `n = data + parity` shards; decoding
/// accepts a vector with `None` marking lost shards and reconstructs the
/// payload from any `k` survivors.
pub trait ErasureCode: core::fmt::Debug + Send + Sync {
    /// Number of data shards (`k`).
    fn data_shards(&self) -> usize;

    /// Number of parity shards (`n - k`).
    fn parity_shards(&self) -> usize;

    /// Total shards (`n`).
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Storage expansion factor `n / k`.
    fn expansion(&self) -> f64 {
        self.total_shards() as f64 / self.data_shards() as f64
    }

    /// Encodes a payload into `n` equal-length shards.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see the concrete types.
    fn encode(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, CodeError>;

    /// Reconstructs the payload from surviving shards (`None` = lost).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::TooFewShards`] if fewer than `k` survive.
    fn decode(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<u8>, CodeError>;
}

/// Systematic Reed–Solomon code over GF(2^8).
///
/// The first `k` shards are verbatim slices of the (length-prefixed,
/// zero-padded) payload; parity shards are Cauchy-matrix combinations.
/// Supports up to 255 total shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
    encode_matrix: Matrix<Gf256>,
    /// Per-coefficient product tables for the parity rows, built once at
    /// construction: `parity_tables[r][c]` multiplies by
    /// `encode_matrix[data + r][c]`. Encoding the same code over many
    /// chunks then pays zero table-build cost per chunk.
    parity_tables: Vec<Vec<Gf256MulTable>>,
}

impl ReedSolomon {
    /// Creates a code with `data` data shards and `parity` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if either count is zero or
    /// `data + parity > 255`.
    pub fn new(data: usize, parity: usize) -> Result<Self, CodeError> {
        if data == 0 {
            return Err(CodeError::InvalidParameters {
                data,
                parity,
                reason: "need at least one data shard",
            });
        }
        if parity == 0 {
            return Err(CodeError::InvalidParameters {
                data,
                parity,
                reason: "need at least one parity shard",
            });
        }
        if data + parity > 255 {
            return Err(CodeError::InvalidParameters {
                data,
                parity,
                reason: "GF(256) supports at most 255 shards",
            });
        }
        let encode_matrix = Matrix::rs_systematic(data, parity);
        let parity_tables = (0..parity)
            .map(|r| {
                let row = encode_matrix.row(data + r);
                row.iter().map(|&coeff| Gf256MulTable::new(coeff)).collect()
            })
            .collect();
        Ok(ReedSolomon {
            data,
            parity,
            encode_matrix,
            parity_tables,
        })
    }

    /// Encodes pre-split, equal-length data shards, returning only the
    /// parity shards. This is the hot path used by the archive pipeline
    /// when it manages striping itself.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`] or
    /// [`CodeError::ShardLengthMismatch`] on malformed input.
    pub fn encode_shards(&self, data_shards: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        if data_shards.len() != self.data {
            return Err(CodeError::WrongShardCount {
                provided: data_shards.len(),
                expected: self.data,
            });
        }
        let len = data_shards[0].len();
        if data_shards.iter().any(|s| s.len() != len) {
            return Err(CodeError::ShardLengthMismatch);
        }
        let parity = (self.parity_tables.iter())
            .map(|tables| {
                // One fused pass per parity row: all data shards combine
                // into each cache-sized strip of `out` while it is hot,
                // the first one stored, so the fresh buffer is written
                // once and never read.
                let rows: Vec<(&Gf256MulTable, &[u8])> = tables
                    .iter()
                    .zip(data_shards)
                    .map(|(table, shard)| (table, *shard))
                    .collect();
                let mut out = vec![0u8; len];
                slice::mul_rows_tables(&mut out, &rows);
                out
            })
            .collect();
        Ok(parity)
    }

    /// Checks a shard set (`None` = lost) and sets up recovery from its
    /// first `k` survivors.
    fn survivors<'s, T: AsRef<[u8]>>(
        &self,
        shards: &'s [Option<T>],
    ) -> Result<Survivors<'s>, CodeError> {
        let n = self.total_shards();
        if shards.len() != n {
            return Err(CodeError::WrongShardCount {
                provided: shards.len(),
                expected: n,
            });
        }
        let available: Vec<(usize, &[u8])> = (shards.iter().enumerate())
            .filter_map(|(i, s)| Some((i, s.as_ref()?.as_ref())))
            .collect();
        let too_few = CodeError::TooFewShards {
            available: available.len(),
            required: self.data,
        };
        if available.len() < self.data {
            return Err(too_few);
        }
        let len = available[0].1.len();
        if available.iter().any(|(_, s)| s.len() != len) {
            return Err(CodeError::ShardLengthMismatch);
        }
        let (slots, rows): (Vec<usize>, Vec<&[u8]>) =
            available[..self.data].iter().copied().unzip();
        let inverse = (self.encode_matrix.select_rows(&slots).inverse()).map_err(|_| too_few)?;
        Ok(Survivors { rows, len, inverse })
    }

    /// Recovers the payload from surviving shards (`None` = lost),
    /// working from the caller's bytes: each present data shard is
    /// copied once into the output, each lost one is computed from the
    /// first `k` survivors straight into it, and parity is never
    /// regenerated. The result equals the data shards of
    /// [`Self::reconstruct_shards`], concatenated and unframed, error for
    /// error, on any input bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`], [`CodeError::TooFewShards`]
    /// or [`CodeError::ShardLengthMismatch`] on an unusable set, and
    /// [`CodeError::CorruptHeader`] when the recovered length prefix
    /// overruns the data.
    pub fn decode_slices<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
    ) -> Result<Vec<u8>, CodeError> {
        let survivors = self.survivors(shards)?;
        let len = survivors.len;
        // The data shards cut the frame `[u64 BE length][payload][pad]`:
        // its first eight bytes go to `header`, the rest to `payload`.
        let mut header = Vec::with_capacity(8);
        let mut payload = Vec::with_capacity((self.data * len).saturating_sub(8));
        for (c, shard) in shards[..self.data].iter().enumerate() {
            let cut = 8usize.saturating_sub(c * len).min(len);
            match shard {
                Some(shard) => {
                    let shard = shard.as_ref();
                    header.extend_from_slice(&shard[..cut]);
                    payload.extend_from_slice(&shard[cut..]);
                }
                None => {
                    let coefficients = survivors.coefficients(self.encode_matrix.row(c));
                    survivors.append(&coefficients, 0..cut, &mut header);
                    survivors.append(&coefficients, cut..len, &mut payload);
                }
            }
        }
        let header: [u8; 8] = header.try_into().map_err(|_| CodeError::CorruptHeader)?;
        let payload_len = u64::from_be_bytes(header);
        if payload_len > payload.len() as u64 {
            return Err(CodeError::CorruptHeader);
        }
        payload.truncate(payload_len as usize);
        Ok(payload)
    }

    /// Rebuilds only the shard slots `rows` from the first `k`
    /// survivors, in the order asked: a data slot from the inverse of the
    /// survivors' rows, a parity slot `r` in one fused pass with the
    /// coefficients `E_r · inverse` (`E` the encoding matrix). A slot
    /// that is one survivor as it is comes back as a copy of it. Each
    /// output equals that slot of [`Self::reconstruct_shards`].
    ///
    /// # Errors
    ///
    /// As [`Self::reconstruct_shards`], and [`CodeError::NoSuchShard`] for
    /// a slot past the last.
    pub fn reconstruct_rows<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
        rows: &[usize],
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let survivors = self.survivors(shards)?;
        let total = self.total_shards();
        rows.iter()
            .map(|&r| {
                if r >= total {
                    return Err(CodeError::NoSuchShard { index: r, total });
                }
                let coefficients = survivors.coefficients(self.encode_matrix.row(r));
                let mut out = Vec::with_capacity(survivors.len);
                survivors.append(&coefficients, 0..survivors.len, &mut out);
                Ok(out)
            })
            .collect()
    }

    /// Reconstructs all shards (data and parity) from any `k` survivors,
    /// returning the full shard set: [`Self::reconstruct_rows`] over
    /// every slot.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::TooFewShards`] when reconstruction is
    /// impossible and [`CodeError::ShardLengthMismatch`] on ragged input.
    pub fn reconstruct_shards<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let all: Vec<usize> = (0..self.total_shards()).collect();
        self.reconstruct_rows(shards, &all)
    }
}

/// The first `k` surviving shards of a set and the inverse of their rows
/// of the encoding matrix: every slot of the codeword is a fixed
/// combination of these `k` slices.
struct Survivors<'s> {
    rows: Vec<&'s [u8]>,
    len: usize,
    inverse: Matrix<Gf256>,
}

impl Survivors<'_> {
    /// The coefficients over the survivors of the slot whose
    /// encoding-matrix row is `row`: `row · inverse`. A data slot's row
    /// is a unit vector, so this is that slot's row of the inverse.
    fn coefficients(&self, row: &[Gf256]) -> Vec<Gf256> {
        (0..self.rows.len())
            .map(|j| {
                (row.iter().enumerate())
                    .fold(Gf256::ZERO, |acc, (c, &e)| acc + e * self.inverse[(c, j)])
            })
            .collect()
    }

    /// Appends bytes `range` of the slot with `coefficients` to `out`: a
    /// copy when the slot is one survivor as it is, else one fused pass
    /// over the survivors with a nonzero coefficient.
    fn append(&self, coefficients: &[Gf256], range: Range<usize>, out: &mut Vec<u8>) {
        let terms: Vec<(Gf256, &[u8])> = (coefficients.iter().zip(&self.rows))
            .filter(|(&c, _)| c != Gf256::ZERO)
            .map(|(&c, row)| (c, &row[range.clone()]))
            .collect();
        match terms[..] {
            [(Gf256::ONE, source)] => out.extend_from_slice(source),
            _ => {
                let start = out.len();
                out.resize(start + range.len(), 0);
                slice::mul_rows(&mut out[start..], &terms);
            }
        }
    }
}

/// The `k` data shards of a payload: its length-prefixed (`u64` BE),
/// zero-padded frame cut into `k` equal pieces, each built straight from
/// the caller's slice.
fn frame_into_shards(payload: &[u8], k: usize) -> Vec<Vec<u8>> {
    let header = (payload.len() as u64).to_be_bytes();
    let shard_len = (header.len() + payload.len()).div_ceil(k);
    (0..k)
        .map(|i| {
            // This shard is bytes `start..end` of the frame.
            let (start, end) = (i * shard_len, (i + 1) * shard_len);
            let mut shard = Vec::with_capacity(shard_len);
            if start < header.len() {
                shard.extend_from_slice(&header[start..end.min(header.len())]);
            }
            let from = start.saturating_sub(header.len()).min(payload.len());
            let to = end.saturating_sub(header.len()).min(payload.len());
            shard.extend_from_slice(&payload[from..to]);
            shard.resize(shard_len, 0);
            shard
        })
        .collect()
}

impl ErasureCode for ReedSolomon {
    fn data_shards(&self) -> usize {
        self.data
    }

    fn parity_shards(&self) -> usize {
        self.parity
    }

    fn encode(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let mut all = frame_into_shards(payload, self.data);
        let data_shards: Vec<&[u8]> = all.iter().map(Vec::as_slice).collect();
        let parity = self.encode_shards(&data_shards)?;
        all.extend(parity);
        Ok(all)
    }

    fn decode(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<u8>, CodeError> {
        self.decode_slices(shards)
    }
}

/// `n`-way replication behind the [`ErasureCode`] interface.
///
/// Tolerates `n - 1` losses at `n`× storage — the upper-left point of the
/// paper's Figure 1 (high cost, no confidentiality).
#[derive(Debug, Clone)]
pub struct Replicator {
    copies: usize,
}

impl Replicator {
    /// Creates an `n`-way replicator.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `copies == 0`.
    pub fn new(copies: usize) -> Result<Self, CodeError> {
        if copies == 0 {
            return Err(CodeError::InvalidParameters {
                data: 1,
                parity: 0,
                reason: "need at least one copy",
            });
        }
        Ok(Replicator { copies })
    }

    /// Recovers the payload from the caller's surviving copies (`None` =
    /// lost): one copy of the first present one.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`] for a set of the wrong size
    /// and [`CodeError::TooFewShards`] when no copy survives.
    pub fn decode_slices<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
    ) -> Result<Vec<u8>, CodeError> {
        if shards.len() != self.copies {
            return Err(CodeError::WrongShardCount {
                provided: shards.len(),
                expected: self.copies,
            });
        }
        let first = shards.iter().flatten().next();
        first
            .map(|copy| copy.as_ref().to_vec())
            .ok_or(CodeError::TooFewShards {
                available: 0,
                required: 1,
            })
    }
}

impl ErasureCode for Replicator {
    fn data_shards(&self) -> usize {
        1
    }

    fn parity_shards(&self) -> usize {
        self.copies - 1
    }

    fn encode(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        Ok(vec![payload.to_vec(); self.copies])
    }

    fn decode(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<u8>, CodeError> {
        self.decode_slices(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_roundtrip_no_loss() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let payload = b"hello world, this is a payload";
        let shards: Vec<Option<Vec<u8>>> =
            rs.encode(payload).unwrap().into_iter().map(Some).collect();
        assert_eq!(rs.decode(&shards).unwrap(), payload);
    }

    #[test]
    fn rs_tolerates_max_losses() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let payload: Vec<u8> = (0..100u8).collect();
        let encoded = rs.encode(&payload).unwrap();
        // Drop every pair of shards.
        for i in 0..5 {
            for j in i + 1..5 {
                let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
                shards[i] = None;
                shards[j] = None;
                assert_eq!(rs.decode(&shards).unwrap(), payload, "lost {i},{j}");
            }
        }
    }

    #[test]
    fn rs_fails_below_threshold() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let encoded = rs.encode(b"data").unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.decode(&shards).unwrap_err(),
            CodeError::TooFewShards {
                available: 2,
                required: 3
            }
        );
    }

    #[test]
    fn rs_systematic_property() {
        // Data shards carry the framed payload verbatim.
        let rs = ReedSolomon::new(2, 1).unwrap();
        let payload = [0xAAu8; 24];
        let shards = rs.encode(&payload).unwrap();
        let mut framed = Vec::new();
        framed.extend_from_slice(&shards[0]);
        framed.extend_from_slice(&shards[1]);
        assert_eq!(&framed[8..8 + 24], &payload);
    }

    #[test]
    fn rs_empty_payload() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let shards: Vec<Option<Vec<u8>>> = rs.encode(b"").unwrap().into_iter().map(Some).collect();
        assert_eq!(rs.decode(&shards).unwrap(), b"");
    }

    #[test]
    fn rs_payload_not_multiple_of_k() {
        let rs = ReedSolomon::new(5, 2).unwrap();
        for len in 1..40 {
            let payload: Vec<u8> = (0..len as u8).collect();
            let mut shards: Vec<Option<Vec<u8>>> =
                rs.encode(&payload).unwrap().into_iter().map(Some).collect();
            shards[4] = None;
            shards[0] = None;
            assert_eq!(rs.decode(&shards).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn rs_invalid_parameters() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(200, 55).is_ok());
    }

    #[test]
    fn rs_expansion() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert!((rs.expansion() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rs_wrong_shard_count() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let shards = vec![Some(vec![0u8; 8]); 5];
        assert!(matches!(
            rs.decode(&shards),
            Err(CodeError::WrongShardCount { .. })
        ));
    }

    #[test]
    fn rs_ragged_shards_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let shards = vec![Some(vec![0u8; 8]), Some(vec![0u8; 9]), Some(vec![0u8; 8])];
        assert_eq!(
            rs.decode(&shards).unwrap_err(),
            CodeError::ShardLengthMismatch
        );
    }

    #[test]
    fn replication_roundtrip_and_loss() {
        let rep = Replicator::new(3).unwrap();
        let shards = rep.encode(b"copy me").unwrap();
        assert_eq!(shards.len(), 3);
        let partial = vec![None, None, Some(shards[2].clone())];
        assert_eq!(rep.decode(&partial).unwrap(), b"copy me");
        let none = vec![None, None, None];
        assert!(matches!(
            rep.decode(&none),
            Err(CodeError::TooFewShards { .. })
        ));
    }

    #[test]
    fn replication_expansion() {
        let rep = Replicator::new(4).unwrap();
        assert!((rep.expansion() - 4.0).abs() < 1e-9);
        assert_eq!(rep.total_shards(), 4);
    }

    /// The direct shard construction equals cutting the length-prefixed,
    /// zero-padded frame into `k` pieces, header split across shards
    /// included (`k > 8`), and `unframe_payload` inverts it.
    #[test]
    fn data_shards_are_the_padded_frame_cut_in_k() {
        for k in 1..=12usize {
            for len in 0..=70usize {
                let payload: Vec<u8> = (0..len).map(|b| (b as u8).wrapping_mul(37) | 1).collect();
                let mut frame = (len as u64).to_be_bytes().to_vec();
                frame.extend_from_slice(&payload);
                frame.resize(frame.len().div_ceil(k) * k, 0);
                let expect: Vec<Vec<u8>> =
                    frame.chunks(frame.len() / k).map(<[u8]>::to_vec).collect();
                assert_eq!(frame_into_shards(&payload, k), expect, "k={k} len={len}");
                assert_eq!(unframe_payload(frame).unwrap(), payload, "k={k} len={len}");
            }
        }
    }

    #[test]
    fn corrupt_header_detected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let with_parity = |data: [&[u8]; 2]| {
            let parity = rs.encode_shards(&data).unwrap();
            let all = data.into_iter().map(<[u8]>::to_vec).chain(parity);
            all.map(Some).collect::<Vec<_>>()
        };
        // A frame claiming a longer payload than exists, and one too
        // short to hold the length prefix at all.
        let mut bad = [0u8; 16];
        bad[..8].copy_from_slice(&(100u64).to_be_bytes());
        for shards in [
            with_parity([&bad[..8], &bad[8..]]),
            with_parity([&[1], &[2]]),
        ] {
            for lost in [None, Some(0), Some(1)] {
                let mut shards = shards.clone();
                if let Some(slot) = lost {
                    shards[slot] = None;
                }
                assert_eq!(rs.decode(&shards), Err(CodeError::CorruptHeader));
                check_against_oracle(&rs, &shards, 0);
            }
        }
    }

    #[test]
    fn a_slot_past_the_last_is_a_typed_error() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let shards: Vec<Option<Vec<u8>>> = rs.encode(b"x").unwrap().into_iter().map(Some).collect();
        assert_eq!(
            rs.reconstruct_rows(&shards, &[1, 3]),
            Err(CodeError::NoSuchShard { index: 3, total: 3 })
        );
    }

    /// The payload of a length-prefixed, zero-padded frame — the inverse
    /// of `frame_into_shards`, as decode applied it to the concatenated
    /// data shards before it worked from borrowed slices.
    fn unframe_payload(mut framed: Vec<u8>) -> Result<Vec<u8>, CodeError> {
        if framed.len() < 8 {
            return Err(CodeError::CorruptHeader);
        }
        let len = u64::from_be_bytes(framed[..8].try_into().expect("8 bytes")) as usize;
        if len > framed.len() - 8 {
            return Err(CodeError::CorruptHeader);
        }
        framed.copy_within(8..8 + len, 0);
        framed.truncate(len);
        Ok(framed)
    }

    /// The reconstruct-all oracle, as the code was before it rebuilt only
    /// what a caller needs: invert the first `k` survivors' rows of the
    /// encoding matrix, recover every data shard with one full pass per
    /// row, then regenerate every parity shard from the recovered data.
    fn oracle_all(rs: &ReedSolomon, shards: &[Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>, CodeError> {
        let n = rs.total_shards();
        if shards.len() != n {
            return Err(CodeError::WrongShardCount {
                provided: shards.len(),
                expected: n,
            });
        }
        let available: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        let too_few = CodeError::TooFewShards {
            available: available.len(),
            required: rs.data,
        };
        if available.len() < rs.data {
            return Err(too_few);
        }
        let present = |i: usize| shards[i].as_deref().unwrap();
        let len = present(available[0]).len();
        if available.iter().any(|&i| present(i).len() != len) {
            return Err(CodeError::ShardLengthMismatch);
        }
        let rows = &available[..rs.data];
        let inv = rs
            .encode_matrix
            .select_rows(rows)
            .inverse()
            .map_err(|_| too_few)?;
        let mut all: Vec<Vec<u8>> = (0..rs.data)
            .map(|c| {
                let terms: Vec<(Gf256, &[u8])> = (rows.iter().enumerate())
                    .map(|(j, &slot)| (inv[(c, j)], present(slot)))
                    .collect();
                let mut out = vec![0u8; len];
                slice::mul_rows(&mut out, &terms);
                out
            })
            .collect();
        let data: Vec<&[u8]> = all.iter().map(Vec::as_slice).collect();
        let parity = rs.encode_shards(&data)?;
        all.extend(parity);
        Ok(all)
    }

    /// A deterministic byte stream (xorshift64*), so every run checks
    /// the same "random" shard sets.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// The borrowed decode and the per-row rebuild against the
    /// reconstruct-all oracle, output for output and error for error:
    /// every RS(k, m) with k, m ≤ 4, every erasure pattern, payloads of
    /// 0..=70 bytes, on true codewords and on shard sets no encoder
    /// produced — random bytes throughout, a true data half under random
    /// parity, a ragged set and a set one slot short.
    #[test]
    fn borrowed_decode_and_row_rebuild_match_the_reconstruct_all_oracle() {
        oracle_sweep(0..=70);
    }

    /// The same either side of 8 KiB, across the fused kernel's strips.
    #[test]
    fn borrowed_decode_matches_the_oracle_either_side_of_8_kib() {
        oracle_sweep([8191, 8192, 8193]);
    }

    fn oracle_sweep(lengths: impl IntoIterator<Item = usize> + Clone) {
        for (k, m) in (1..=4usize).flat_map(|k| (1..=4usize).map(move |m| (k, m))) {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = k + m;
            for len in lengths.clone() {
                let seed = (k * 10 + m) as u64 * 100_003 + len as u64;
                let codeword = rs.encode(&noise(seed, len)).unwrap();
                let shard_len = codeword[0].len();
                let random: Vec<Vec<u8>> = (0..n as u64)
                    .map(|s| noise(seed ^ (s + 1) << 40, shard_len))
                    .collect();
                let mut true_data = codeword.clone();
                true_data[k..].clone_from_slice(&random[k..]);
                let sets = [codeword, random, true_data];
                // The big lengths on every pattern of the true codeword,
                // and on the patterns that lose at most one data shard of
                // the others: enough to cross the strip boundaries of
                // the fused kernel without an 8 KiB oracle per pattern.
                let big = len > 70;
                for (which, set) in sets.iter().enumerate() {
                    for pattern in 0u32..1 << n {
                        let lost_data = (0..k).filter(|&i| pattern & 1 << i != 0).count();
                        if big && which > 0 && lost_data > 1 {
                            continue;
                        }
                        let shards: Vec<Option<Vec<u8>>> = (0..n)
                            .map(|i| (pattern & 1 << i == 0).then(|| set[i].clone()))
                            .collect();
                        check_against_oracle(&rs, &shards, pattern);
                        // The malformed sets fail before any arithmetic:
                        // a few lengths are plenty.
                        if len % 16 != 0 || big {
                            continue;
                        }
                        // Ragged: the last present shard a byte short.
                        if let Some(last) = shards.iter().rposition(Option::is_some) {
                            let mut ragged = shards.clone();
                            ragged[last].as_mut().unwrap().pop();
                            check_against_oracle(&rs, &ragged, pattern);
                        }
                        check_against_oracle(&rs, &shards[..n - 1], pattern);
                    }
                }
            }
        }
    }

    /// `decode_slices` and `reconstruct_rows(missing)` against one
    /// oracle reconstruct-all of `shards`; `reconstruct_shards` too on
    /// short shards.
    fn check_against_oracle(rs: &ReedSolomon, shards: &[Option<Vec<u8>>], pattern: u32) {
        let case = format_args!("RS({}, {}) pattern {pattern:#b}", rs.data, rs.parity);
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        let oracle = oracle_all(rs, shards);
        let decoded = (oracle.clone()).and_then(|all| unframe_payload(all[..rs.data].concat()));
        assert_eq!(rs.decode_slices(&borrowed), decoded, "{case}");
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        let want = (oracle.clone()).map(|all| missing.iter().map(|&i| all[i].clone()).collect());
        assert_eq!(rs.reconstruct_rows(&borrowed, &missing), want, "{case}");
        if shards.iter().flatten().all(|s| s.len() < 64) {
            assert_eq!(rs.reconstruct_shards(shards), oracle, "{case}");
        }
    }
}
