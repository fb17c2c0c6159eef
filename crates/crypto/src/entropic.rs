//! Entropically secure encryption (Dodis–Smith style).
//!
//! Perfect secrecy demands keys as long as the message (Shannon), but if
//! the *message itself* has high min-entropy — true of compressed or
//! encrypted archival blobs — information-theoretic secrecy is achievable
//! with much shorter keys. This module implements the classic
//! XOR-with-δ-biased-pad construction: the pad is derived from a short key
//! and a public random nonce through the *powering* small-bias family in
//! GF(2^128) (pad block `j` is `k · r^(j+1)`), which is a δ-biased sample
//! space — an information-theoretic object, not a PRG — so the guarantee
//! does not rest on any hardness assumption.
//!
//! The scheme occupies the "entropically secure encryption" point in the
//! paper's Figure 1: storage cost barely above plaintext (16-byte nonce),
//! security information-theoretic *conditioned on message entropy*, which
//! is weaker than secret sharing (unconditional) but far stronger than
//! computational encryption against a harvest-now-decrypt-later adversary.

use crate::drbg::CryptoRng;

/// GF(2^128) multiplication with the GCM polynomial
/// `x^128 + x^7 + x^2 + x + 1`, operating on big-endian 16-byte blocks
/// interpreted with bit 0 as the x^127 coefficient (GCM convention is
/// irrelevant here as long as we are internally consistent).
fn gf128_mul(a: u128, b: u128) -> u128 {
    let mut acc: u128 = 0;
    let mut v = a;
    for i in 0..128 {
        if (b >> (127 - i)) & 1 == 1 {
            acc ^= v;
        }
        let carry = v & 1;
        v >>= 1;
        if carry == 1 {
            v ^= 0xE100_0000_0000_0000_0000_0000_0000_0000;
        }
    }
    acc
}

/// Ciphertext of the entropically secure scheme: a public nonce plus the
/// XOR-padded body. Total expansion over the plaintext: 16 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntropicCiphertext {
    /// The public random nonce `r` (the δ-biased family index).
    pub nonce: [u8; 16],
    /// `m ⊕ pad(k, r)`.
    pub body: Vec<u8>,
}

/// Entropically secure cipher with a 16-byte key.
///
/// Security requires the plaintext to have min-entropy at least
/// `|m| - |k| + 2·log(1/ε)` bits; for low-entropy messages use real
/// encryption or secret sharing instead.
///
/// # Examples
///
/// ```
/// use aeon_crypto::entropic::EntropicCipher;
/// use aeon_crypto::ChaChaDrbg;
///
/// let cipher = EntropicCipher::new([7u8; 16]);
/// let mut rng = ChaChaDrbg::from_u64_seed(1);
/// let ct = cipher.encrypt(&mut rng, b"high-entropy compressed blob .....");
/// assert_eq!(cipher.decrypt(&ct), b"high-entropy compressed blob .....");
/// ```
#[derive(Clone)]
pub struct EntropicCipher {
    key: u128,
}

redacted_debug!(EntropicCipher);

impl EntropicCipher {
    /// Key length in bytes.
    pub const KEY_LEN: usize = 16;
    /// Per-message storage overhead in bytes (the public nonce).
    pub const OVERHEAD: usize = 16;

    /// Creates a cipher from a 16-byte key.
    pub fn new(key: [u8; 16]) -> Self {
        EntropicCipher {
            key: u128::from_be_bytes(key),
        }
    }

    fn pad_into(&self, nonce: u128, data: &mut [u8]) {
        // Block j of the pad is k · r^(j+1) in GF(2^128): consecutive
        // powers of r scaled by the key — the powering δ-biased generator.
        let mut power = nonce;
        for chunk in data.chunks_mut(16) {
            let block = gf128_mul(self.key, power).to_be_bytes();
            for (b, p) in chunk.iter_mut().zip(block.iter()) {
                *b ^= p;
            }
            power = gf128_mul(power, nonce);
        }
    }

    /// Encrypts a message with a freshly drawn public nonce.
    pub fn encrypt<R: CryptoRng + ?Sized>(
        &self,
        rng: &mut R,
        plaintext: &[u8],
    ) -> EntropicCiphertext {
        let mut nonce = [0u8; 16];
        // The nonce must be nonzero (r = 0 gives a zero pad).
        loop {
            rng.fill_bytes(&mut nonce);
            if nonce.iter().any(|&b| b != 0) {
                break;
            }
        }
        let mut body = plaintext.to_vec();
        self.pad_into(u128::from_be_bytes(nonce), &mut body);
        EntropicCiphertext { nonce, body }
    }

    /// Decrypts a ciphertext.
    pub fn decrypt(&self, ct: &EntropicCiphertext) -> Vec<u8> {
        let mut out = ct.body.clone();
        self.pad_into(u128::from_be_bytes(ct.nonce), &mut out);
        out
    }

    /// Storage expansion factor for a message of `len` bytes.
    pub fn expansion(len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        (len + Self::OVERHEAD) as f64 / len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::ChaChaDrbg;

    #[test]
    fn gf128_identity_and_zero() {
        let one = 1u128 << 127; // x^0 in our bit convention
        assert_eq!(gf128_mul(one, 0xDEADBEEF), 0xDEADBEEF);
        assert_eq!(gf128_mul(0, 0xDEADBEEF), 0);
    }

    #[test]
    fn gf128_commutative_samples() {
        let vals = [1u128 << 127, 0x1234_5678, u128::MAX, 0x8000_0000_0000_0000];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
            }
        }
    }

    #[test]
    fn gf128_distributive_samples() {
        let vals = [3u128, 0xFFFF_0000, 1 << 100, 0xABCD << 64];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    assert_eq!(gf128_mul(a, b ^ c), gf128_mul(a, b) ^ gf128_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = EntropicCipher::new([0x42u8; 16]);
        let mut rng = ChaChaDrbg::from_u64_seed(7);
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let ct = cipher.encrypt(&mut rng, &pt);
            assert_eq!(cipher.decrypt(&ct), pt, "len {len}");
        }
    }

    #[test]
    fn different_nonces_different_ciphertexts() {
        let cipher = EntropicCipher::new([1u8; 16]);
        let mut rng = ChaChaDrbg::from_u64_seed(9);
        let c1 = cipher.encrypt(&mut rng, b"same message body!!");
        let c2 = cipher.encrypt(&mut rng, b"same message body!!");
        assert_ne!(c1.nonce, c2.nonce);
        assert_ne!(c1.body, c2.body);
    }

    #[test]
    fn wrong_key_garbles() {
        let a = EntropicCipher::new([1u8; 16]);
        let b = EntropicCipher::new([2u8; 16]);
        let mut rng = ChaChaDrbg::from_u64_seed(3);
        let ct = a.encrypt(&mut rng, b"sixteen byte msg");
        assert_ne!(b.decrypt(&ct), b"sixteen byte msg");
    }

    #[test]
    fn overhead_accounting() {
        assert!((EntropicCipher::expansion(16) - 2.0).abs() < 1e-9);
        assert!((EntropicCipher::expansion(1 << 20) - 1.0) < 0.001);
        assert_eq!(EntropicCipher::expansion(0), 1.0);
    }

    #[test]
    fn pad_blocks_are_distinct() {
        // Consecutive pad blocks k·r, k·r², ... must differ (r != 0, 1).
        let cipher = EntropicCipher::new([9u8; 16]);
        let mut zeroes = vec![0u8; 64];
        cipher.pad_into(0x0123_4567_89AB_CDEF_0011_2233_4455_6677, &mut zeroes);
        let blocks: Vec<&[u8]> = zeroes.chunks(16).collect();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert_ne!(blocks[i], blocks[j]);
            }
        }
    }
}
