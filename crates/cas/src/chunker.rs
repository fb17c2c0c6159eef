//! Deterministic content-defined chunking (Gear rolling hash).
//!
//! Fixed-size chunking destroys dedup the moment one byte is inserted:
//! every later chunk shifts. A content-defined chunker instead cuts
//! where the *data* says to — a rolling hash over the last 64 bytes
//! crosses a seeded mask — so an edit only disturbs boundaries in a
//! bounded window around itself and the rest of the stream re-aligns.
//!
//! The gear construction: a 256-entry table of random `u64`s (derived
//! from a caller seed, so boundaries are reproducible across runs and
//! platforms), and per byte
//!
//! ```text
//! h = (h << 1) + gear[b]
//! ```
//!
//! Each shift ages a byte's contribution by one bit; after 64 bytes it
//! has left the register, which is what bounds the edit window. A cut
//! is declared when the top `mask_bits` bits of `h` are all zero —
//! probability `2^-mask_bits` per byte — but only after `min_size`
//! bytes (suppressing pathological tiny chunks), and forced at
//! `max_size` (bounding the tree arity and repair unit). `mask_bits` is
//! `ilog2(target_size - min_size)`, so the mean chunk length lands near
//! `target_size` on random data.
//!
//! Because `h` at byte `i` depends only on bytes `i − 63..=i`, a chunk
//! need not roll through the `min_size` bytes no cut can fall in: the
//! search starts rolling 64 bytes before the first byte that may end a
//! chunk and from there only tests the mask. The cuts are the ones a
//! byte-at-a-time loop from the chunk start finds.

use aeon_crypto::{ChaChaDrbg, CryptoRng};

/// Chunking parameters. Boundaries are a pure function of
/// `(params, data)` — same params and bytes, same cuts, on every
/// platform and kernel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerParams {
    /// No cut before this many bytes (the final chunk may be shorter).
    pub min_size: usize,
    /// Mean chunk size to aim for on random data.
    pub target_size: usize,
    /// Hard cut at this many bytes.
    pub max_size: usize,
    /// Seed for the gear table and cut mask; part of the chunking
    /// identity (different seeds cut differently on purpose).
    pub seed: u64,
}

impl Default for ChunkerParams {
    /// 16 KiB / 64 KiB / 256 KiB: small enough that shared content
    /// dedups, large enough that per-block encoding overhead (AEAD
    /// tags, shard framing, tree arity) stays well under a percent.
    fn default() -> Self {
        ChunkerParams {
            min_size: 16 << 10,
            target_size: 64 << 10,
            max_size: 256 << 10,
            seed: 0xAE0_CD0,
        }
    }
}

impl ChunkerParams {
    /// `true` when `0 < min <= target <= max`.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.min_size > 0 && self.min_size <= self.target_size && self.target_size <= self.max_size
    }
}

/// A configured content-defined chunker: the gear table and cut mask
/// derived once from [`ChunkerParams`].
#[derive(Clone)]
pub struct Chunker {
    params: ChunkerParams,
    gear: [u64; 256],
    mask: u64,
}

impl std::fmt::Debug for Chunker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunker")
            .field("params", &self.params)
            .field("mask_bits", &self.mask.count_ones())
            .finish_non_exhaustive()
    }
}

impl Chunker {
    /// Builds a chunker: fills the gear table from a DRBG seeded with
    /// `params.seed` and derives the cut mask from the target span.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_size <= target_size <= max_size`.
    #[must_use]
    pub fn new(params: ChunkerParams) -> Self {
        assert!(
            params.is_valid(),
            "chunker params must satisfy 0 < min <= target <= max: {params:?}"
        );
        let mut rng = ChaChaDrbg::from_u64_seed(params.seed ^ 0x6165_6f6e_2d63_6173); // "aeon-cas"
        let mut gear = [0u64; 256];
        for g in &mut gear {
            *g = rng.next_u64();
        }
        // A cut fires when the top `bits` bits of the rolling hash are
        // zero: probability 2^-bits per byte past min_size, so the mean
        // gap past min is ~2^bits ≈ target - min.
        let span = (params.target_size - params.min_size).max(1) as u64;
        let bits = 64 - span.leading_zeros() as u64 - 1; // ilog2(span), 0 when span == 1
        let bits = bits.max(1);
        let mask = ((1u64 << bits) - 1) << (64 - bits);
        Chunker { params, gear, mask }
    }

    /// The parameters this chunker was built with.
    #[must_use]
    pub fn params(&self) -> &ChunkerParams {
        &self.params
    }

    /// Number of hash bits a cut must zero (`2^-bits` cut probability).
    #[must_use]
    pub fn mask_bits(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Chunk boundaries as **end offsets**, in ascending order; the
    /// last entry is always `data.len()`. Empty input yields no
    /// boundaries. Every chunk spans `[prev, end)` with
    /// `min_size <= end - prev <= max_size`, except the final chunk
    /// which may be shorter than `min_size`.
    #[must_use]
    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        let ChunkerParams {
            min_size, max_size, ..
        } = self.params;
        let mut cuts = Vec::new();
        let mut start = 0usize;
        while start + min_size <= data.len() {
            // The first byte whose hash may end the chunk, and the 63
            // bytes before it (within the chunk) that hash depends on.
            let first = start + min_size - 1;
            let mut h = 0u64;
            for &b in &data[first.saturating_sub(63).max(start)..first] {
                h = (h << 1).wrapping_add(self.gear[b as usize]);
            }
            let end = (start + max_size).min(data.len());
            let found = data[first..end].iter().position(|&b| {
                h = (h << 1).wrapping_add(self.gear[b as usize]);
                h & self.mask == 0
            });
            let forced = (start + max_size <= data.len()).then_some(start + max_size);
            match found.map(|i| first + i + 1).or(forced) {
                Some(cut) => {
                    cuts.push(cut);
                    start = cut;
                }
                None => break,
            }
        }
        if start < data.len() {
            cuts.push(data.len());
        }
        cuts
    }

    /// The chunks themselves, as sub-slices of `data` in order.
    #[must_use]
    pub fn chunks<'a>(&self, data: &'a [u8]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut prev = 0;
        for end in self.boundaries(data) {
            out.push(&data[prev..end]);
            prev = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_params() -> ChunkerParams {
        ChunkerParams {
            min_size: 256,
            target_size: 1024,
            max_size: 4096,
            seed: 7,
        }
    }

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn empty_input_has_no_boundaries() {
        let c = Chunker::new(small_params());
        assert!(c.boundaries(&[]).is_empty());
        assert!(c.chunks(&[]).is_empty());
    }

    #[test]
    fn boundaries_partition_the_input() {
        let c = Chunker::new(small_params());
        let data = random_data(50_000, 1);
        let cuts = c.boundaries(&data);
        assert_eq!(*cuts.last().unwrap(), data.len());
        let mut prev = 0;
        for (i, &end) in cuts.iter().enumerate() {
            let len = end - prev;
            assert!(len <= 4096, "chunk {i} too large: {len}");
            if i + 1 < cuts.len() {
                assert!(len >= 256, "chunk {i} too small: {len}");
            }
            prev = end;
        }
        let total: usize = c.chunks(&data).iter().map(|s| s.len()).sum();
        assert_eq!(total, data.len());
    }

    #[test]
    fn same_seed_same_cuts_different_seed_different_cuts() {
        let data = random_data(100_000, 2);
        let a = Chunker::new(small_params()).boundaries(&data);
        let b = Chunker::new(small_params()).boundaries(&data);
        assert_eq!(a, b);
        let mut other = small_params();
        other.seed = 8;
        let c = Chunker::new(other).boundaries(&data);
        assert_ne!(a, c, "different gear seeds should cut differently");
    }

    #[test]
    fn mean_chunk_size_near_target() {
        let c = Chunker::new(small_params());
        let data = random_data(1 << 20, 3);
        let cuts = c.boundaries(&data);
        assert!(cuts.len() > 100, "expected many chunks, got {}", cuts.len());
        let mean = data.len() as f64 / cuts.len() as f64;
        let target = small_params().target_size as f64;
        assert!(
            mean > target * 0.5 && mean < target * 1.6,
            "mean chunk {mean:.0} strays from target {target}"
        );
    }

    #[test]
    fn degenerate_data_falls_back_to_max_cuts() {
        // All-zero data never fires a content cut with overwhelming
        // probability under a random gear value -- unless gear[0]'s
        // accumulated sum happens to zero the mask. Either way every
        // chunk respects the bounds.
        let c = Chunker::new(small_params());
        let data = vec![0u8; 20_000];
        let cuts = c.boundaries(&data);
        let mut prev = 0;
        for &end in &cuts {
            assert!(end - prev <= 4096);
            prev = end;
        }
        assert_eq!(prev, data.len());
    }

    /// The byte-at-a-time Gear loop: every byte rolled from the chunk
    /// start, the cut rule tested at each. The oracle for
    /// [`Chunker::boundaries`].
    fn boundaries_bytewise(c: &Chunker, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut start = 0usize;
        let mut h = 0u64;
        for (i, &b) in data.iter().enumerate() {
            h = (h << 1).wrapping_add(c.gear[b as usize]);
            let len = i + 1 - start;
            if (len >= c.params.min_size && h & c.mask == 0) || len == c.params.max_size {
                cuts.push(i + 1);
                start = i + 1;
                h = 0;
            }
        }
        if start < data.len() {
            cuts.push(data.len());
        }
        cuts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Skipping the sub-minimum window cuts where the byte loop does:
        /// random, all-zero and periodic inputs, under bounds from a
        /// `min_size` inside the 64-byte window to `min == max`.
        #[test]
        fn skipping_the_minimum_window_keeps_every_cut(
            bounds in prop_oneof![
                (1usize..200, 0usize..300, 0usize..600)
                    .prop_map(|(min, t, m)| (min, min + t, min + t + m)),
                (1usize..300).prop_map(|min| (min, min, min)),
            ],
            kind in 0u8..3,
            period in 1usize..97,
            len in 0usize..6000,
            seed in any::<u64>(),
        ) {
            let (min, target, max) = bounds;
            let c = Chunker::new(ChunkerParams {
                min_size: min,
                target_size: target,
                max_size: max,
                seed,
            });
            let data = match kind {
                0 => random_data(len, seed),
                1 => vec![0u8; len],
                _ => (0..len).map(|i| ((i % period) * 37) as u8).collect(),
            };
            prop_assert_eq!(c.boundaries(&data), boundaries_bytewise(&c, &data));
        }
    }

    #[test]
    fn skipping_the_minimum_window_keeps_every_cut_at_the_default_params() {
        let c = Chunker::new(ChunkerParams::default());
        for data in [random_data(3 << 20, 4), vec![0u8; 1 << 20]] {
            assert_eq!(c.boundaries(&data), boundaries_bytewise(&c, &data));
        }
    }

    #[test]
    #[should_panic(expected = "chunker params")]
    fn invalid_params_panic() {
        let _ = Chunker::new(ChunkerParams {
            min_size: 0,
            target_size: 8,
            max_size: 4,
            seed: 0,
        });
    }
}
