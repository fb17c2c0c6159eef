//! Deterministic random bit generation.
//!
//! Every randomized protocol in the workspace (share generation, blinding,
//! refresh) draws from the [`CryptoRng`] trait so tests and simulations can
//! inject a seeded generator and replay runs bit-for-bit.

use crate::chacha::ChaCha20;
use crate::kernel::Kernel;

/// A source of cryptographic random bytes.
///
/// Implemented by [`ChaChaDrbg`]; simulation code may provide its own
/// deterministic implementations.
pub trait CryptoRng {
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Returns a fresh array of random bytes.
    ///
    /// Generic over `N`, so only callable on sized types; object-safe
    /// callers (`&mut dyn CryptoRng`) use the free [`random_array`]
    /// instead — both funnel through [`CryptoRng::fill_bytes`] and
    /// consume the identical byte stream.
    fn gen_array<const N: usize>(&mut self) -> [u8; N]
    where
        Self: Sized,
    {
        random_array(self)
    }

    /// Splits off the next `len` bytes of the stream as a generator of
    /// their own, and moves this one past them: drawing the sub-stream
    /// (in any cuts) and then this generator yields the bytes one
    /// sequential draw would have. A caller that needs several long
    /// draws side by side — one per polynomial coefficient, say — takes
    /// a sub-stream for each and reads them strip by strip, holding no
    /// buffer as long as a draw.
    ///
    /// This default draws the `len` bytes at once and replays them;
    /// [`ChaChaDrbg`] jumps its block counter instead and holds nothing.
    fn substream(&mut self, len: usize) -> SubStream {
        let mut bytes = vec![0u8; len];
        self.fill_bytes(&mut bytes);
        SubStream {
            left: len,
            source: Source::Replay(bytes),
        }
    }

    /// Returns a uniform `u64`.
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a uniform value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Rejection sampling to remove modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Returns a fresh array of random bytes from any [`CryptoRng`],
/// including trait objects. Byte-stream-identical to
/// [`CryptoRng::gen_array`].
pub fn random_array<const N: usize, R: CryptoRng + ?Sized>(rng: &mut R) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

/// A ChaCha20-based deterministic random bit generator.
///
/// The generator is the ChaCha20 keystream (zero nonce, block counter
/// from 0) of its seed: two instances with the same seed emit identical
/// streams, however the reads are cut up. It does not reseed. One
/// instance serves 2^32 − 1 blocks (just under 256 GiB) and panics on the
/// draw that would need the next one, rather than wrap the counter and
/// repeat itself. Nothing in the workspace comes near that: maintenance
/// operations and pipeline chunks each seed a generator of their own,
/// and the longest-lived instance — an archive's, which serves its
/// ingest draws — spends a few bytes per payload byte of an in-memory
/// simulation. A caller that could get there must start a new generator
/// from a fresh seed first (e.g. [`ChaChaDrbg::from_seed`] over 32
/// bytes drawn from this one).
///
/// A draw first drains the buffered block, then generates every whole
/// 64-byte block of the rest straight into the destination through the
/// [`Kernel`]'s `chacha20_xor` slot — eight or sixteen blocks per pass
/// where the host has a wide tier — and buffers only the ragged tail.
///
/// # Examples
///
/// ```
/// use aeon_crypto::{ChaChaDrbg, CryptoRng};
///
/// let mut a = ChaChaDrbg::from_seed([1u8; 32]);
/// let mut b = ChaChaDrbg::from_seed([1u8; 32]);
/// assert_eq!(a.gen_array::<16>(), b.gen_array::<16>());
/// ```
#[derive(Clone)]
pub struct ChaChaDrbg {
    cipher: ChaCha20,
    counter: u32,
    buf: [u8; 64],
    buf_pos: usize,
}

// The seed, and in `buf` output not yet served.
redacted_debug!(ChaChaDrbg);

/// What a generator panics with when its 2^32 − 1 blocks are spent.
const EXHAUSTED: &str = "DRBG exhausted 2^32 blocks; reseed required";

impl ChaChaDrbg {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaDrbg {
            cipher: ChaCha20::new(&seed, &[0u8; 12]),
            counter: 0,
            buf: [0u8; 64],
            buf_pos: 64,
        }
    }

    /// Creates a generator seeded from a u64 (convenience for simulations).
    pub fn from_u64_seed(seed: u64) -> Self {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&seed.to_le_bytes());
        s[8..16].copy_from_slice(&seed.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes());
        Self::from_seed(s)
    }

    /// Reserves the next `blocks` keystream blocks and returns the first
    /// one's counter. Every block served passes through here, so no draw
    /// — buffered or bulk — generates from a counter that has wrapped.
    fn reserve(&mut self, blocks: usize) -> u32 {
        let first = self.counter;
        self.counter = u32::try_from(blocks)
            .ok()
            .and_then(|blocks| first.checked_add(blocks))
            .expect(EXHAUSTED);
        first
    }

    /// [`CryptoRng::fill_bytes`] on a given kernel.
    fn fill_on(&mut self, kernel: &Kernel, dest: &mut [u8]) {
        let buffered = (64 - self.buf_pos).min(dest.len());
        let (head, rest) = dest.split_at_mut(buffered);
        head.copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + buffered]);
        self.buf_pos += buffered;

        let (blocks, tail) = rest.as_chunks_mut::<64>();
        if !blocks.is_empty() {
            let first = self.reserve(blocks.len());
            let bulk = blocks.as_flattened_mut();
            bulk.fill(0);
            kernel.chacha20_xor(&self.cipher, first, bulk);
        }
        if !tail.is_empty() {
            let counter = self.reserve(1);
            self.buf = self.cipher.block(counter);
            tail.copy_from_slice(&self.buf[..tail.len()]);
            self.buf_pos = tail.len();
        }
    }
}

impl CryptoRng for ChaChaDrbg {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill_on(Kernel::active(), dest);
    }

    /// O(1): the sub-stream is this generator as it stands, and this one
    /// skips `len` bytes by counter arithmetic, generating at most the
    /// one block its next draw starts inside.
    fn substream(&mut self, len: usize) -> SubStream {
        let sub = self.clone();
        let buffered = (64 - self.buf_pos).min(len);
        self.buf_pos += buffered;
        let (blocks, tail) = ((len - buffered) / 64, (len - buffered) % 64);
        self.reserve(blocks);
        if tail > 0 {
            let counter = self.reserve(1);
            self.buf = self.cipher.block(counter);
            self.buf_pos = tail;
        }
        SubStream {
            left: len,
            source: Source::ChaCha(sub),
        }
    }
}

/// The next `len` bytes of a [`CryptoRng`]'s stream, split off by
/// [`CryptoRng::substream`]. It serves exactly those bytes, however its
/// reads are cut, and panics on a draw past them.
pub struct SubStream {
    left: usize,
    source: Source,
}

// A generator's state, or bytes it drew.
redacted_debug!(SubStream);

enum Source {
    /// A [`ChaChaDrbg`] positioned at the sub-stream's first byte.
    ChaCha(ChaChaDrbg),
    /// The whole sub-stream, drawn up front; the next byte served is
    /// at `len - left`.
    Replay(Vec<u8>),
}

impl SubStream {
    /// [`CryptoRng::fill_bytes`] on a given kernel.
    fn fill_on(&mut self, kernel: &Kernel, dest: &mut [u8]) {
        self.left = (self.left.checked_sub(dest.len())).expect("draw past the end of a sub-stream");
        match &mut self.source {
            Source::ChaCha(rng) => rng.fill_on(kernel, dest),
            Source::Replay(bytes) => {
                let at = bytes.len() - self.left - dest.len();
                dest.copy_from_slice(&bytes[at..at + dest.len()]);
            }
        }
    }
}

impl CryptoRng for SubStream {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill_on(Kernel::active(), dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn deterministic_for_seed() {
        let mut a = ChaChaDrbg::from_seed([7u8; 32]);
        let mut b = ChaChaDrbg::from_seed([7u8; 32]);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaDrbg::from_seed([1u8; 32]);
        let mut b = ChaChaDrbg::from_seed([2u8; 32]);
        assert_ne!(a.gen_array::<32>(), b.gen_array::<32>());
    }

    /// One draw of `total` bytes on the scalar kernel against the same
    /// stream drawn piecewise, cut at `cuts`, on every kernel.
    fn assert_cut_reads_match(total: usize, cuts: &[usize]) {
        let mut even = vec![0u8; total];
        ChaChaDrbg::from_u64_seed(99).fill_on(Kernel::scalar(), &mut even);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(total)).collect();
        cuts.extend([0, total]);
        cuts.sort_unstable();
        for kernel in Kernel::supported() {
            let mut rng = ChaChaDrbg::from_u64_seed(99);
            let mut uneven = vec![0u8; total];
            for piece in cuts.windows(2) {
                rng.fill_on(kernel, &mut uneven[piece[0]..piece[1]]);
            }
            assert_eq!(uneven, even, "{cuts:?}");
        }
    }

    #[test]
    fn uneven_reads_match_even_reads() {
        assert_cut_reads_match(200, &[13, 77]);
        // Runs long enough for the bulk path and for whole wide groups,
        // entered with an empty, a partly used and a full buffer.
        assert_cut_reads_match(4096, &[512, 1024 + 8, 3000]);
        assert_cut_reads_match(4096, &[64, 64 + 512, 64 + 512 + 7]);
    }

    proptest! {
        #[test]
        fn reads_cut_anywhere_match_one_read(total in 0usize..=4096,
                                             cuts in prop::collection::vec(0usize..=4096, 0..12)) {
            assert_cut_reads_match(total, &cuts);
        }
    }

    /// One draw of `prefix + len + tail` bytes on the scalar kernel
    /// against `prefix` bytes, then a sub-stream of `len` drawn cut at
    /// `cuts`, then `tail` bytes of the parent, on every kernel; and the
    /// same through the default (replaying) sub-stream.
    fn assert_substream_matches_one_read(prefix: usize, len: usize, cuts: &[usize], tail: usize) {
        let mut even = vec![0u8; prefix + len + tail];
        ChaChaDrbg::from_u64_seed(98).fill_on(Kernel::scalar(), &mut even);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(len)).collect();
        cuts.extend([0, len]);
        cuts.sort_unstable();
        for kernel in Kernel::supported() {
            let mut rng = ChaChaDrbg::from_u64_seed(98);
            let mut got = vec![0u8; even.len()];
            let (head, rest) = got.split_at_mut(prefix);
            let (middle, end) = rest.split_at_mut(len);
            rng.fill_on(kernel, head);
            let mut sub = rng.substream(len);
            for piece in cuts.windows(2) {
                sub.fill_on(kernel, &mut middle[piece[0]..piece[1]]);
            }
            rng.fill_on(kernel, end);
            let tier = kernel.chacha20_tier().name();
            assert_eq!(got, even, "{tier}: {prefix} + {len} {cuts:?} + {tail}");
        }
        /// Draws through `fill_bytes` alone, so it takes the default
        /// sub-stream.
        struct Plain(ChaChaDrbg);
        impl CryptoRng for Plain {
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0.fill_bytes(dest);
            }
        }
        let mut rng = Plain(ChaChaDrbg::from_u64_seed(98));
        let mut got = vec![0u8; even.len()];
        rng.fill_bytes(&mut got[..prefix]);
        let mut sub = rng.substream(len);
        for piece in cuts.windows(2) {
            sub.fill_bytes(&mut got[prefix + piece[0]..prefix + piece[1]]);
        }
        rng.fill_bytes(&mut got[prefix + len..]);
        assert_eq!(got, even, "replayed: {prefix} + {len} {cuts:?} + {tail}");
    }

    #[test]
    fn substreams_on_and_beside_block_edges_match_one_read() {
        for prefix in [0, 1, 63, 64, 65] {
            for len in [0, 1, 63, 64, 65, 1000, 4096 + 7] {
                assert_substream_matches_one_read(prefix, len, &[len / 3, len / 2], 70);
            }
        }
    }

    proptest! {
        #[test]
        fn a_substream_then_the_parent_match_one_read(prefix in 0usize..=300, len in 0usize..=4096,
                                                      cuts in prop::collection::vec(0usize..=4096, 0..8),
                                                      tail in 0usize..=300) {
            assert_substream_matches_one_read(prefix, len, &cuts, tail);
        }
    }

    #[test]
    #[should_panic(expected = "draw past the end of a sub-stream")]
    fn a_draw_past_a_substream_panics() {
        let mut sub = ChaChaDrbg::from_u64_seed(1).substream(10);
        sub.fill_bytes(&mut [0u8; 6]);
        sub.fill_bytes(&mut [0u8; 5]);
    }

    /// A generator whose next block is `counter`, as if everything before
    /// it had been drawn.
    fn at_counter(seed: [u8; 32], counter: u32) -> ChaChaDrbg {
        ChaChaDrbg {
            counter,
            ..ChaChaDrbg::from_seed(seed)
        }
    }

    /// Runs `draws` on a generator 15 blocks (960 bytes) from exhaustion
    /// and holds it to the block-at-a-time definition: a draw that ends
    /// within block `0xFFFF_FFFE` returns those blocks of the block
    /// function, the first draw that needs block `0xFFFF_FFFF` panics.
    fn assert_exhaustion_matches_the_block_loop(kernel: &Kernel, draws: &[usize]) {
        let seed = [0x5E; 32];
        let cipher = ChaCha20::new(&seed, &[0u8; 12]);
        let stream: Vec<u8> = (0xFFFF_FFF0..=0xFFFF_FFFE)
            .flat_map(|counter| cipher.block(counter))
            .collect();
        let mut rng = at_counter(seed, 0xFFFF_FFF0);
        let mut served = 0;
        for &len in draws {
            let mut out = vec![0u8; len];
            let outcome = catch_unwind(AssertUnwindSafe(|| rng.fill_on(kernel, &mut out)));
            let tier = kernel.chacha20_tier().name();
            if served + len <= stream.len() {
                assert!(
                    outcome.is_ok(),
                    "{tier} {draws:?}: panicked {served} bytes in"
                );
                assert_eq!(out, stream[served..served + len], "{tier} {draws:?}");
                served += len;
            } else {
                let panic = outcome.expect_err("a draw past the last block must panic");
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .expect("a panic message");
                assert!(message.contains(EXHAUSTED), "{tier} {draws:?}: {message}");
                return;
            }
        }
        panic!("{draws:?} never runs past the last block");
    }

    #[test]
    fn exhaustion_is_at_the_same_byte_however_the_stream_is_drawn() {
        let schedules: [&[usize]; 9] = [
            &[960, 1],            // one bulk draw of everything, then one byte
            &[961],               // one bulk draw that needs the last block's successor
            &[1024],              // sixteen whole blocks: a full wide group too many
            &[512, 448, 8],       // a wide group, a scalar remainder, a `next_u64`
            &[512, 512],          // the second group would straddle the wrap
            &[13, 64, 883, 0, 1], // buffered, bulk, buffered; an empty draw is free
            &[8; 121],            // `next_u64` after `next_u64`
            &[959, 2],            // the draw that crosses the end by one byte
            &[700, 100, 100, 100],
        ];
        for kernel in Kernel::supported() {
            for draws in schedules {
                assert_exhaustion_matches_the_block_loop(kernel, draws);
            }
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = ChaChaDrbg::from_u64_seed(5);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..50 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_values() {
        let mut rng = ChaChaDrbg::from_u64_seed(6);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn rough_uniformity() {
        // Mean byte value of 64 KiB of output should be near 127.5.
        let mut rng = ChaChaDrbg::from_u64_seed(42);
        let mut buf = vec![0u8; 65536];
        rng.fill_bytes(&mut buf);
        let mean: f64 = buf.iter().map(|&b| b as f64).sum::<f64>() / buf.len() as f64;
        assert!((mean - 127.5).abs() < 2.0, "mean {mean}");
    }
}
