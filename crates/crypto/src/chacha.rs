//! The ChaCha20 stream cipher (RFC 8439).
//!
//! [`ChaCha20::block`] is the RFC's block function, one counter at a
//! time. Keystream application goes through the `chacha20_xor` slot of
//! [`crate::kernel::Kernel`]: the `scalar` tier is the `block` loop
//! below, the `avx2` tier computes eight counter blocks per pass and the
//! `avx512` tier sixteen.

use crate::kernel::Kernel;

/// The ChaCha20 stream cipher with a 256-bit key and 96-bit nonce.
///
/// # Examples
///
/// ```
/// use aeon_crypto::chacha::ChaCha20;
///
/// let key = [1u8; 32];
/// let nonce = [2u8; 12];
/// let mut buf = b"attack at dawn".to_vec();
/// ChaCha20::new(&key, &nonce).apply_keystream(1, &mut buf);
/// ChaCha20::new(&key, &nonce).apply_keystream(1, &mut buf);
/// assert_eq!(buf, b"attack at dawn");
/// ```
#[derive(Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

redacted_debug!(ChaCha20);

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher instance from a key and nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        state[12] = 0; // counter, set per block
        for i in 0..3 {
            state[13 + i] =
                u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        ChaCha20 { state }
    }

    /// The key, counter (zero) and nonce words in RFC 8439 §2.3 order.
    pub(crate) fn state(&self) -> &[u32; 16] {
        &self.state
    }

    /// Generates the 64-byte keystream block for the given counter.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut working = self.state;
        working[12] = counter;
        let initial = working;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let v = working[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// XORs the keystream (starting at block `initial_counter`) into `data`.
    ///
    /// Encryption and decryption are the same operation.
    ///
    /// The block counter is 32 bits and wraps silently: `data` must not
    /// run past block 2³² − 1 (RFC 8439 §2.3), or keystream is reused.
    /// [`ChaCha20Poly1305`](crate::aead::ChaCha20Poly1305) refuses longer
    /// messages.
    pub fn apply_keystream(&self, initial_counter: u32, data: &mut [u8]) {
        Kernel::active().chacha20_xor(self, initial_counter, data);
    }

    /// The scalar tier of the kernel's `chacha20_xor` slot: one
    /// [`ChaCha20::block`] per 64 bytes.
    pub(crate) fn xor_scalar(&self, initial_counter: u32, data: &mut [u8]) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The RFC 8439 known answers live in `tests/kernel_parity.rs`, where
    // they run on every tier of the `chacha20_xor` slot.

    #[test]
    fn distinct_counters_distinct_blocks() {
        let c = ChaCha20::new(&[1u8; 32], &[2u8; 12]);
        assert_ne!(c.block(0), c.block(1));
        assert_eq!(c.block(7), c.block(7));
    }

    #[test]
    fn partial_block_handling() {
        let c = ChaCha20::new(&[9u8; 32], &[3u8; 12]);
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut data = vec![0xAB; len];
            c.apply_keystream(0, &mut data);
            let mut again = vec![0xAB; len];
            c.apply_keystream(0, &mut again);
            assert_eq!(data, again);
            c.apply_keystream(0, &mut data);
            assert_eq!(data, vec![0xAB; len], "len {len}");
        }
    }
}
