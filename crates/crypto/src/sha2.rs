//! SHA-256 and SHA-512 (FIPS 180-4).
//!
//! [`Sha256`] buffers and pads; the block function itself runs through
//! the process-wide [`Kernel`]'s `sha256_blocks` slot, whose scalar tier
//! is this module's round loop. [`Sha256::digest_many`] hashes a set of
//! independent messages through the sixteen-lane `sha256_x16` slot where
//! the host has a wide tier for it, and [`Sha256::digest_many_tagged`]
//! the same set behind a one-byte domain tag (Merkle leaves), still
//! hashing each message where it lies.

use crate::kernel::{Kernel, Sha256Lanes, Tier};
use std::cmp::Reverse;
use std::ops::Range;

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use aeon_crypto::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

/// Initial hash value H(0) (FIPS 180-4 §5.3.3).
const H256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

pub(crate) const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Digest length in bytes.
    pub const DIGEST_LEN: usize = 32;

    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H256,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        Self::digest_on(Kernel::active(), None, data)
    }

    /// One-shot digests of independent messages: `out[i]` is
    /// [`Sha256::digest`]`(msgs[i])`. Where the host has a wide
    /// `sha256_x16` tier and the set is large enough to keep its lanes
    /// busy (nine messages or more), up to sixteen messages are
    /// compressed at once; otherwise each is hashed on its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use aeon_crypto::Sha256;
    ///
    /// let msgs: Vec<&[u8]> = vec![b"abc", b"", b"abc"];
    /// let digests = Sha256::digest_many(&msgs);
    /// assert_eq!(digests[0], Sha256::digest(b"abc"));
    /// assert_eq!(digests[1], Sha256::digest(b""));
    /// ```
    pub fn digest_many(msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        Self::digest_many_on(Kernel::active(), msgs)
    }

    /// [`Sha256::digest_many`] on `kernel`'s slots instead of the
    /// process-wide kernel's (parity tests and per-tier benchmarks; the
    /// output is the same on every kernel).
    #[doc(hidden)]
    pub fn digest_many_on(kernel: &Kernel, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        digest_set(kernel, None, msgs)
    }

    /// One-shot digests of `tag ‖ msgs[i]`, each message hashed where it
    /// lies: the tag and the message's first 63 bytes are assembled into
    /// a head block as the padded tail is, so no message is copied whole.
    /// Scheduled like [`Sha256::digest_many`]. With tag `0x00` these are
    /// RFC 6962 Merkle leaf hashes.
    ///
    /// # Examples
    ///
    /// ```
    /// use aeon_crypto::Sha256;
    ///
    /// let digests = Sha256::digest_many_tagged(0x00, &[b"abc"]);
    /// assert_eq!(digests[0], Sha256::digest(b"\x00abc"));
    /// ```
    pub fn digest_many_tagged(tag: u8, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        Self::digest_many_tagged_on(Kernel::active(), tag, msgs)
    }

    /// [`Sha256::digest_many_tagged`] on `kernel`'s slots (parity tests
    /// and per-tier benchmarks).
    #[doc(hidden)]
    pub fn digest_many_tagged_on(kernel: &Kernel, tag: u8, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        digest_set(kernel, Some(tag), msgs)
    }

    /// [`Sha256::digest`] of `tag ‖ data` (`data` alone without a tag)
    /// on `kernel`'s `sha256_blocks` slot: the head block, the whole
    /// blocks compressed where they lie, then the padded tail.
    fn digest_on(kernel: &Kernel, tag: Option<u8>, data: &[u8]) -> [u8; 32] {
        let mut buf = [0u8; STAGE];
        let (head, body, pad) = stage(tag, data, &mut buf);
        let mut state = H256;
        for run in [&buf[head], body] {
            if !run.is_empty() {
                kernel.sha256_blocks(&mut state, run);
            }
        }
        kernel.sha256_blocks(&mut state, &buf[pad]);
        state_bytes(&state)
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                Kernel::active().sha256_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // The longest whole-block run is compressed where it lies.
        let (blocks, tail) = data.split_at(data.len() / 64 * 64);
        if !blocks.is_empty() {
            Kernel::active().sha256_blocks(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        let end = padding(&mut pad, self.buf_len, self.total_len);
        Kernel::active().sha256_blocks(&mut self.state, &pad[..end]);
        state_bytes(&self.state)
    }

    /// The scalar tier of the kernel's `sha256_blocks` slot: the
    /// compression function over each 64-byte block of `blocks` in turn.
    pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.as_chunks::<64>().0 {
            Self::compress(state, block);
        }
    }

    /// The scalar tier of the kernel's `sha256_x16` slot: sixteen
    /// [`Self::compress_blocks`] calls, lane by lane.
    pub(crate) fn compress_lanes(states: &mut Sha256Lanes, lanes: &[&[u8]; 16]) {
        for (l, blocks) in lanes.iter().enumerate() {
            let mut state = lane_state(states, l);
            Self::compress_blocks(&mut state, blocks);
            for (row, word) in states.iter_mut().zip(state) {
                row[l] = word;
            }
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K256[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Completes in the zeroed `pad` the final one or two blocks of a
/// message whose unabsorbed tail (under 64 bytes) is already in
/// `pad[..tail]` and whose whole length is `len` bytes: tail ‖ 0x80 ‖
/// zeros ‖ big-endian bit length — one block when the tail leaves room
/// for the nine bytes, else two. Returns how much of `pad` to compress.
fn padding(pad: &mut [u8], tail: usize, len: u64) -> usize {
    pad[tail] = 0x80;
    let end = if tail < 56 { 64 } else { 128 };
    pad[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    end
}

/// A message's fixed staging buffer: its head block, then room for its
/// padded tail.
const STAGE: usize = 64 + 128;

/// Lays out the blocks of `tag ‖ msg` (`msg` alone without a tag) in
/// the zeroed `buf` as three runs: the head block in `buf[..64]` (the
/// tag and the first 63 message bytes; empty without a tag, or when the
/// tagged message fills no block), the rest's whole blocks where they
/// lie, and the padded tail in `buf[64..]`. Returns the head's range of
/// `buf`, the body and the tail's range of `buf`.
fn stage<'a>(
    tag: Option<u8>,
    msg: &'a [u8],
    buf: &mut [u8; STAGE],
) -> (Range<usize>, &'a [u8], Range<usize>) {
    let len = msg.len() as u64 + u64::from(tag.is_some());
    let (head, pad) = buf.split_at_mut(64);
    let (head, body, tail) = match tag {
        Some(tag) if msg.len() < 63 => {
            // The whole tagged message is the tail.
            pad[0] = tag;
            pad[1..=msg.len()].copy_from_slice(msg);
            (0, &[][..], msg.len() + 1)
        }
        _ => {
            let (head, rest) = match tag {
                Some(tag) => {
                    head[0] = tag;
                    head[1..].copy_from_slice(&msg[..63]);
                    (64, &msg[63..])
                }
                None => (0, msg),
            };
            let (body, tail) = rest.split_at(rest.len() / 64 * 64);
            pad[..tail.len()].copy_from_slice(tail);
            (head, body, tail.len())
        }
    };
    let end = padding(pad, tail, len);
    (0..head, body, 64..64 + end)
}

fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lane `l`'s chaining value, out of the word-major [`Sha256Lanes`].
fn lane_state(states: &Sha256Lanes, l: usize) -> [u32; 8] {
    states.map(|row| row[l])
}

/// The fewest messages still unhashed for which [`Sha256::digest_many`]
/// keeps the sixteen-lane slot running; below it, the messages left in
/// lanes are finished one at a time on `sha256_blocks`, and a call with
/// fewer messages never enters the lanes.
///
/// A pass costs the same however many lanes are busy, so the lanes pay
/// once enough of them are. Measured on a Xeon with AVX-512 and SHA-NI
/// (2 vCPUs), `avx512` lanes against one `ni` stream over 4 to 12 equal
/// messages of 4 KiB, 44 KiB and 256 KiB: 0.95–1.05× at 8 messages,
/// 1.19–1.21× at 9, 1.33× and up from 10; sixteen full lanes run at 2.2×
/// (`aeon-exp kernels`, `sha256-x16` against `sha256`). Not
/// configurable: re-measure with those rows on a new host.
const BREAK_EVEN: usize = 9;

/// `out[i]` = SHA-256 of `tag ‖ msgs[i]` (`msgs[i]` alone without a
/// tag): through the lanes when the set keeps them busy, else one
/// message at a time on the single-stream slot.
fn digest_set(kernel: &Kernel, tag: Option<u8>, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
    let mut out = vec![[0u8; 32]; msgs.len()];
    if msgs.len() >= BREAK_EVEN && kernel.sha256_x16_tier() != Tier::Scalar {
        digest_lanes(kernel, tag, msgs, &mut out);
    } else {
        for (digest, msg) in out.iter_mut().zip(msgs) {
            *digest = Sha256::digest_on(kernel, tag, msg);
        }
    }
    out
}

/// One message in flight in a lane of [`digest_lanes`]: the part of its
/// head block not yet compressed, then the whole blocks of its body,
/// then the unconsumed part of its padded tail (head and tail live in
/// the lane's fixed [`stage`] buffer).
struct InFlight<'a> {
    job: usize,
    head: Range<usize>,
    body: &'a [u8],
    pad: Range<usize>,
}

impl<'a> InFlight<'a> {
    /// The run of blocks this message compresses next: its head block,
    /// then its body until that is used up, then its padding.
    fn run<'p>(&self, buf: &'p [u8; STAGE]) -> &'p [u8]
    where
        'a: 'p,
    {
        if !self.head.is_empty() {
            &buf[self.head.clone()]
        } else if !self.body.is_empty() {
            self.body
        } else {
            &buf[self.pad.clone()]
        }
    }

    /// Consumes `bytes` of [`Self::run`]; `true` once the message is done.
    fn advance(&mut self, bytes: usize) -> bool {
        if !self.head.is_empty() {
            self.head.start += bytes;
        } else if !self.body.is_empty() {
            self.body = &self.body[bytes..];
        } else {
            self.pad.start += bytes;
        }
        self.head.is_empty() && self.body.is_empty() && self.pad.is_empty()
    }
}

/// The sixteen-lane scheduler behind [`Sha256::digest_many`]: messages go
/// into lanes longest first; every pass runs as many blocks as the
/// shortest run in flight (a head block, a body, or a padded tail), so
/// no busy lane idles and an empty lane holds nobody back; a lane whose
/// message is done takes the next one at once. When fewer than
/// [`BREAK_EVEN`] messages remain, the lanes' states are taken out and
/// finished on the single-stream slot.
fn digest_lanes(kernel: &Kernel, tag: Option<u8>, msgs: &[&[u8]], out: &mut [[u8; 32]]) {
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    order.sort_by_key(|&i| Reverse(msgs[i].len()));
    let mut queue = order.into_iter();
    let mut states: Sha256Lanes = [[0; 16]; 8];
    let mut bufs = [[0u8; STAGE]; 16];
    let mut lanes: [Option<InFlight<'_>>; 16] = Default::default();
    let mut left = msgs.len();
    loop {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.is_some() {
                continue;
            }
            let Some(job) = queue.next() else { break };
            bufs[l] = [0; STAGE];
            let (head, body, pad) = stage(tag, msgs[job], &mut bufs[l]);
            for (row, word) in states.iter_mut().zip(H256) {
                row[l] = word;
            }
            *lane = Some(InFlight {
                job,
                head,
                body,
                pad,
            });
        }
        if left < BREAK_EVEN {
            break;
        }
        let runs: [&[u8]; 16] =
            std::array::from_fn(|l| lanes[l].as_ref().map_or(&[][..], |lane| lane.run(&bufs[l])));
        let step = runs
            .iter()
            .filter(|run| !run.is_empty())
            .map(|run| run.len())
            .min()
            .expect("a lane is busy while messages are left");
        kernel.sha256_x16(&mut states, &runs.map(|run| &run[..step.min(run.len())]));
        for (l, lane) in lanes.iter_mut().enumerate() {
            if let Some(flight) = lane {
                if flight.advance(step) {
                    out[flight.job] = state_bytes(&lane_state(&states, l));
                    *lane = None;
                    left -= 1;
                }
            }
        }
    }
    for (l, lane) in lanes.iter().enumerate() {
        if let Some(flight) = lane {
            let mut state = lane_state(&states, l);
            kernel.sha256_blocks(&mut state, &bufs[l][flight.head.clone()]);
            kernel.sha256_blocks(&mut state, flight.body);
            kernel.sha256_blocks(&mut state, &bufs[l][flight.pad.clone()]);
            out[flight.job] = state_bytes(&state);
        }
    }
}

/// Incremental SHA-512 hasher.
///
/// # Examples
///
/// ```
/// use aeon_crypto::Sha512;
///
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest[..4], [0xdd, 0xaf, 0x35, 0xa1]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

/// Initial hash value H(0) (FIPS 180-4 §5.3.5).
const H512: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Digest length in bytes.
    pub const DIGEST_LEN: usize = 64;

    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: H512,
            buf: [0; 128],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 128 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = data.as_chunks::<128>();
        for block in blocks {
            Self::compress(&mut self.state, block);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // As SHA-256, with 128-byte blocks and a 16-byte length field.
        let mut pad = [0u8; 256];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 112 { 128 } else { 256 };
        let bit_len = self.total_len.wrapping_mul(8);
        pad[end - 16..end].copy_from_slice(&bit_len.to_be_bytes());
        for block in pad[..end].as_chunks::<128>().0 {
            Self::compress(&mut self.state, block);
        }
        let mut out = [0u8; 64];
        for (i, s) in self.state.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Formats a digest as lowercase hex (test/diagnostic helper).
pub fn to_hex(bytes: &[u8]) -> String {
    hex(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    // The SHA-512 FIPS 180-4 known answers live in
    // `tests/kernel_parity.rs`, with every other published vector.

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        for split in [0usize, 1, 127, 128, 129, 777, 1000] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha512::digest(&data), "split at {split}");
        }
    }

    /// FIPS 180-4 §5.1 padding built by hand: message ‖ `0x80` ‖ zeros up
    /// to the length field ‖ big-endian bit length in `len_field` bytes.
    fn padded(msg: &[u8], block: usize, len_field: usize) -> Vec<u8> {
        let mut p = msg.to_vec();
        p.push(0x80);
        while !(p.len() + len_field).is_multiple_of(block) {
            p.push(0);
        }
        p.extend_from_slice(&vec![0; len_field - 8]);
        p.extend_from_slice(&(8 * msg.len() as u64).to_be_bytes());
        p
    }

    #[test]
    fn digest_equals_block_function_over_hand_padded_message() {
        // Every length across the one-block / two-block padding cut-offs
        // (55/56 and 119/120; 111/112 and 239/240), checked against the
        // raw block function run from the IV — not against `finalize`.
        let data: Vec<u8> = (0..260u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=130 {
            let msg = &data[..len];
            let mut state = H256;
            Sha256::compress_blocks(&mut state, &padded(msg, 64, 8));
            let expect: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(Sha256::digest(msg)[..], expect[..], "SHA-256, {len} bytes");
            let mut h = Sha256::new();
            msg.iter().for_each(|b| h.update(&[*b]));
            assert_eq!(
                h.finalize()[..],
                expect[..],
                "SHA-256 bytewise, {len} bytes"
            );
        }
        for len in 0..=260 {
            let msg = &data[..len];
            let mut state = H512;
            for block in padded(msg, 128, 16).as_chunks::<128>().0 {
                Sha512::compress(&mut state, block);
            }
            let expect: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(Sha512::digest(msg)[..], expect[..], "SHA-512, {len} bytes");
            let mut h = Sha512::new();
            msg.iter().for_each(|b| h.update(&[*b]));
            assert_eq!(
                h.finalize()[..],
                expect[..],
                "SHA-512 bytewise, {len} bytes"
            );
        }
    }
}
