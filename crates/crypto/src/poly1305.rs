//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! [`Poly1305::update`] buffers a partial block and hands every whole
//! 16-byte block to the `poly1305_blocks` slot of
//! [`crate::kernel::Kernel`]: the `scalar` tier is the
//! `process_block` loop below, the `avx2` tier absorbs four blocks per
//! pass. Either leaves the accumulator in the same five 26-bit limbs, so
//! the partial head and tail, `finalize` and short calls are this file's
//! code on every tier, and a message may be cut into `update`s anywhere.

use crate::kernel::Kernel;

/// Computes the Poly1305 tag of `msg` under a 32-byte one-time key.
///
/// The first 16 key bytes form the clamped polynomial evaluation point `r`;
/// the last 16 form the additive mask `s`. Arithmetic is over the prime
/// 2^130 - 5 using 26-bit limbs.
///
/// # Examples
///
/// ```
/// use aeon_crypto::poly1305::poly1305;
///
/// let key = [0x42u8; 32];
/// let t1 = poly1305(&key, b"msg");
/// let t2 = poly1305(&key, b"msg");
/// assert_eq!(t1, t2);
/// ```
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Incremental Poly1305 state.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u32; 5],
    /// `r`, `r²`, `r³`, `r⁴`, once a wide tier has asked for them.
    powers: Option<[[u32; 5]; 4]>,
    h: [u32; 5],
    pad: [u32; 4],
    buf: [u8; 16],
    buf_len: usize,
}

redacted_debug!(Poly1305);

impl Poly1305 {
    /// Creates an authenticator from a 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        // Clamp r per RFC 8439 and split into 26-bit limbs.
        let t0 = u32::from_le_bytes(key[0..4].try_into().expect("4"));
        let t1 = u32::from_le_bytes(key[4..8].try_into().expect("4"));
        let t2 = u32::from_le_bytes(key[8..12].try_into().expect("4"));
        let t3 = u32::from_le_bytes(key[12..16].try_into().expect("4"));
        let r = [
            t0 & 0x3ffffff,
            ((t0 >> 26) | (t1 << 6)) & 0x3ffff03,
            ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff,
            ((t2 >> 14) | (t3 << 18)) & 0x3f03fff,
            (t3 >> 8) & 0x00fffff,
        ];
        let pad = [
            u32::from_le_bytes(key[16..20].try_into().expect("4")),
            u32::from_le_bytes(key[20..24].try_into().expect("4")),
            u32::from_le_bytes(key[24..28].try_into().expect("4")),
            u32::from_le_bytes(key[28..32].try_into().expect("4")),
        ];
        Poly1305 {
            r,
            powers: None,
            h: [0; 5],
            pad,
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_on(Kernel::active(), data);
    }

    /// [`Poly1305::update`] with the whole blocks absorbed by `kernel`'s
    /// `poly1305_blocks` slot (parity tests and per-tier benchmarks; the
    /// tag is the same on every kernel).
    pub fn update_on(&mut self, kernel: &Kernel, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.process_block(&block, false);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 16);
        if !blocks.is_empty() {
            kernel.poly1305_blocks(self, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// The scalar tier of the kernel's `poly1305_blocks` slot: one
    /// `process_block` per 16 bytes of `blocks`, a whole number of blocks.
    pub(crate) fn blocks_scalar(&mut self, blocks: &[u8]) {
        for block in blocks.as_chunks::<16>().0 {
            self.process_block(block, false);
        }
    }

    /// `[r, r², r³, r⁴]` in the accumulator's limb form, computed on the
    /// first call and kept for the rest of the message.
    pub(crate) fn powers(&mut self) -> [[u32; 5]; 4] {
        if let Some(powers) = self.powers {
            return powers;
        }
        // Absorbing an all-zero block without its pad bit adds nothing
        // and multiplies by `r`: the scalar multiply, reused as is, with
        // the accumulator lent out to hold the running power.
        let h = std::mem::replace(&mut self.h, self.r);
        let mut powers = [self.r; 4];
        for next in &mut powers[1..] {
            self.process_block(&[0; 16], true);
            *next = self.h;
        }
        self.h = h;
        self.powers = Some(powers);
        powers
    }

    /// The accumulator's five limbs, each below 2²⁷.
    pub(crate) fn accumulator(&self) -> [u32; 5] {
        self.h
    }

    /// Replaces the accumulator by `limbs` (any five values that leave
    /// room for the carries, here below 2⁶³), carried down to the form
    /// `process_block` leaves.
    pub(crate) fn set_accumulator(&mut self, mut limbs: [u64; 5]) {
        let mut carry = 0;
        for limb in &mut limbs {
            *limb += carry;
            carry = *limb >> 26;
            *limb &= 0x3ffffff;
        }
        limbs[0] += carry * 5;
        limbs[1] += limbs[0] >> 26;
        limbs[0] &= 0x3ffffff;
        self.h = limbs.map(|limb| limb as u32);
    }

    /// Finishes and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zero-pad.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_block(&block, true);
        }
        // Full carry propagation.
        let mut h = self.h;
        let mut carry;
        carry = h[1] >> 26;
        h[1] &= 0x3ffffff;
        h[2] += carry;
        carry = h[2] >> 26;
        h[2] &= 0x3ffffff;
        h[3] += carry;
        carry = h[3] >> 26;
        h[3] &= 0x3ffffff;
        h[4] += carry;
        carry = h[4] >> 26;
        h[4] &= 0x3ffffff;
        h[0] += carry * 5;
        carry = h[0] >> 26;
        h[0] &= 0x3ffffff;
        h[1] += carry;

        // Compute g = h + 5 - 2^130 and select it if there was no borrow
        // (i.e., h >= p). The top limb keeps its carry bit for the test.
        let mut g = [0u32; 5];
        let mut c = 5u32;
        for i in 0..4 {
            g[i] = h[i].wrapping_add(c);
            c = g[i] >> 26;
            g[i] &= 0x3ffffff;
        }
        let g4 = h[4].wrapping_add(c).wrapping_sub(1 << 26);
        let use_g = (g4 >> 31) == 0; // no borrow means h >= p
        let sel = if use_g {
            [g[0], g[1], g[2], g[3], g4 & 0x3ffffff]
        } else {
            h
        };

        // Serialize to 128 bits and add s.
        let h0 = sel[0] | (sel[1] << 26);
        let h1 = (sel[1] >> 6) | (sel[2] << 20);
        let h2 = (sel[2] >> 12) | (sel[3] << 14);
        let h3 = (sel[3] >> 18) | (sel[4] << 8);

        let mut acc = (h0 as u64) + (self.pad[0] as u64);
        let f0 = acc as u32;
        acc = (h1 as u64) + (self.pad[1] as u64) + (acc >> 32);
        let f1 = acc as u32;
        acc = (h2 as u64) + (self.pad[2] as u64) + (acc >> 32);
        let f2 = acc as u32;
        acc = (h3 as u64) + (self.pad[3] as u64) + (acc >> 32);
        let f3 = acc as u32;

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&f0.to_le_bytes());
        out[4..8].copy_from_slice(&f1.to_le_bytes());
        out[8..12].copy_from_slice(&f2.to_le_bytes());
        out[12..16].copy_from_slice(&f3.to_le_bytes());
        out
    }

    fn process_block(&mut self, block: &[u8; 16], partial: bool) {
        let hibit: u32 = if partial { 0 } else { 1 << 24 };
        let t0 = u32::from_le_bytes(block[0..4].try_into().expect("4"));
        let t1 = u32::from_le_bytes(block[4..8].try_into().expect("4"));
        let t2 = u32::from_le_bytes(block[8..12].try_into().expect("4"));
        let t3 = u32::from_le_bytes(block[12..16].try_into().expect("4"));

        self.h[0] += t0 & 0x3ffffff;
        self.h[1] += ((t0 >> 26) | (t1 << 6)) & 0x3ffffff;
        self.h[2] += ((t1 >> 20) | (t2 << 12)) & 0x3ffffff;
        self.h[3] += ((t2 >> 14) | (t3 << 18)) & 0x3ffffff;
        self.h[4] += (t3 >> 8) | hibit;

        // h *= r mod 2^130 - 5 (schoolbook with 5x folding).
        let [r0, r1, r2, r3, r4] = self.r.map(|v| v as u64);
        let s1 = r1 * 5;
        let s2 = r2 * 5;
        let s3 = r3 * 5;
        let s4 = r4 * 5;
        let [h0, h1, h2, h3, h4] = self.h.map(|v| v as u64);

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut carry;
        let mut d = [d0, d1, d2, d3, d4];
        carry = d[0] >> 26;
        d[0] &= 0x3ffffff;
        d[1] += carry;
        carry = d[1] >> 26;
        d[1] &= 0x3ffffff;
        d[2] += carry;
        carry = d[2] >> 26;
        d[2] &= 0x3ffffff;
        d[3] += carry;
        carry = d[3] >> 26;
        d[3] &= 0x3ffffff;
        d[4] += carry;
        carry = d[4] >> 26;
        d[4] &= 0x3ffffff;
        d[0] += carry * 5;
        carry = d[0] >> 26;
        d[0] &= 0x3ffffff;
        d[1] += carry;

        self.h = [
            d[0] as u32,
            d[1] as u32,
            d[2] as u32,
            d[3] as u32,
            d[4] as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The RFC 8439 §2.5.2 and §A.3 known answers live in
    // `tests/kernel_parity.rs`, where they run on every tier of the
    // `poly1305_blocks` slot and against the RFC's definition.

    #[test]
    fn empty_message() {
        // With r clamped and no blocks, tag == s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[7u8; 16]);
        assert_eq!(poly1305(&key, b""), [7u8; 16]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x5Au8; 32];
        let msg: Vec<u8> = (0..100u8).collect();
        for split in [0usize, 1, 15, 16, 17, 50, 100] {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), poly1305(&key, &msg), "split {split}");
        }
    }

    #[test]
    fn message_sensitivity() {
        let key = [0x11u8; 32];
        let t1 = poly1305(&key, b"message one");
        let t2 = poly1305(&key, b"message two");
        assert_ne!(t1, t2);
    }
}
