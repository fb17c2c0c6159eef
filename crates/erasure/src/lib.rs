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
        let mut parity = vec![vec![0u8; len]; self.parity];
        for (tables, out) in self.parity_tables.iter().zip(parity.iter_mut()) {
            // One fused pass per parity row: all data shards accumulate
            // into each cache-sized strip of `out` while it is hot.
            let rows: Vec<(&Gf256MulTable, &[u8])> = tables
                .iter()
                .zip(data_shards)
                .map(|(table, shard)| (table, *shard))
                .collect();
            slice::mul_add_rows_tables(out, &rows);
        }
        Ok(parity)
    }

    /// Reconstructs all shards (data and parity) from any `k` survivors,
    /// returning the full shard set.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::TooFewShards`] when reconstruction is
    /// impossible and [`CodeError::ShardLengthMismatch`] on ragged input.
    pub fn reconstruct_shards(
        &self,
        shards: &[Option<Vec<u8>>],
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let n = self.total_shards();
        if shards.len() != n {
            return Err(CodeError::WrongShardCount {
                provided: shards.len(),
                expected: n,
            });
        }
        let available: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if available.len() < self.data {
            return Err(CodeError::TooFewShards {
                available: available.len(),
                required: self.data,
            });
        }
        let len = shards[available[0]].as_ref().expect("available").len();
        if available
            .iter()
            .any(|&i| shards[i].as_ref().expect("available").len() != len)
        {
            return Err(CodeError::ShardLengthMismatch);
        }

        // Invert the submatrix of the first k surviving rows.
        let rows: Vec<usize> = available[..self.data].to_vec();
        let sub = self.encode_matrix.select_rows(&rows);
        let inv = sub.inverse().map_err(|_| CodeError::TooFewShards {
            available: available.len(),
            required: self.data,
        })?;

        // Recover data shards: data[c] = sum_j inv[c][j] * surviving[j].
        // The inverse depends on the erasure pattern, so each output
        // row's tables are built inside the fused kernel; the cost
        // amortizes over the shard length.
        let mut data: Vec<Vec<u8>> = vec![vec![0u8; len]; self.data];
        for (c, out) in data.iter_mut().enumerate() {
            let inv_rows: Vec<(Gf256, &[u8])> = rows
                .iter()
                .enumerate()
                .map(|(j, &row_idx)| {
                    let src: &[u8] = shards[row_idx].as_ref().expect("available");
                    (inv[(c, j)], src)
                })
                .collect();
            slice::mul_add_rows(out, &inv_rows);
        }

        // Regenerate parity from recovered data.
        let data_refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = self.encode_shards(&data_refs)?;
        let mut all = data;
        all.extend(parity);
        Ok(all)
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

/// Recovers a payload from its framed form, in place.
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
        let mut data = self.reconstruct_shards(shards)?;
        data.truncate(self.data);
        unframe_payload(data.concat())
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
        if shards.len() != self.copies {
            return Err(CodeError::WrongShardCount {
                provided: shards.len(),
                expected: self.copies,
            });
        }
        shards
            .iter()
            .flatten()
            .next()
            .cloned()
            .ok_or(CodeError::TooFewShards {
                available: 0,
                required: 1,
            })
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
        // Frame claiming a longer payload than exists.
        let mut bad = vec![0u8; 16];
        bad[..8].copy_from_slice(&(100u64).to_be_bytes());
        assert_eq!(unframe_payload(bad).unwrap_err(), CodeError::CorruptHeader);
        assert_eq!(
            unframe_payload(vec![1, 2]).unwrap_err(),
            CodeError::CorruptHeader
        );
    }
}
