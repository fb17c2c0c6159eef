//! The one-time pad: information-theoretically secure encryption.
//!
//! The pad is the ε = 0 point of the paper's Definition 2.1: without the
//! key, a ciphertext is statistically independent of the plaintext, so no
//! amount of future computation helps. The price is a key exactly as long
//! as the message that must never be reused — the [`OneTimePad`] type makes
//! key consumption explicit and refuses reuse.

/// Errors from one-time-pad operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtpError {
    /// The pad has fewer unused key bytes than the message requires.
    KeyExhausted {
        /// Bytes remaining in the pad.
        remaining: usize,
        /// Bytes the operation needed.
        needed: usize,
    },
    /// Ciphertext and offset metadata are inconsistent with the pad.
    InvalidOffset,
}

impl core::fmt::Display for OtpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OtpError::KeyExhausted { remaining, needed } => write!(
                f,
                "one-time pad exhausted: {needed} bytes needed, {remaining} remaining"
            ),
            OtpError::InvalidOffset => write!(f, "invalid pad offset"),
        }
    }
}

impl std::error::Error for OtpError {}

/// A one-time pad with strict single-use key accounting.
///
/// # Examples
///
/// ```
/// use aeon_crypto::otp::OneTimePad;
///
/// let mut pad = OneTimePad::new(vec![0x5A; 32]);
/// let (ct, offset) = pad.encrypt(b"top secret")?;
/// let pt = pad.decrypt(&ct, offset)?;
/// assert_eq!(pt, b"top secret");
/// assert_eq!(pad.remaining(), 32 - 10);
/// # Ok::<(), aeon_crypto::otp::OtpError>(())
/// ```
#[derive(Clone)]
pub struct OneTimePad {
    key: Vec<u8>,
    consumed: usize,
}

redacted_debug!(OneTimePad);

impl OneTimePad {
    /// Creates a pad from key material (must be uniformly random for
    /// security; callers typically fill it from a
    /// [`CryptoRng`](crate::CryptoRng) or a QKD link).
    pub fn new(key: Vec<u8>) -> Self {
        OneTimePad { key, consumed: 0 }
    }

    /// Bytes of unused key material remaining.
    pub fn remaining(&self) -> usize {
        self.key.len() - self.consumed
    }

    /// Total pad length.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// Returns `true` if the pad was created empty.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// Encrypts a message, consuming key bytes. Returns the ciphertext and
    /// the pad offset needed for decryption.
    ///
    /// # Errors
    ///
    /// Returns [`OtpError::KeyExhausted`] if insufficient key remains.
    pub fn encrypt(&mut self, plaintext: &[u8]) -> Result<(Vec<u8>, usize), OtpError> {
        if self.remaining() < plaintext.len() {
            return Err(OtpError::KeyExhausted {
                remaining: self.remaining(),
                needed: plaintext.len(),
            });
        }
        let offset = self.consumed;
        let ct = plaintext
            .iter()
            .zip(&self.key[offset..offset + plaintext.len()])
            .map(|(p, k)| p ^ k)
            .collect();
        self.consumed += plaintext.len();
        Ok((ct, offset))
    }

    /// Decrypts a ciphertext produced at `offset`. Decryption does not
    /// consume key (the bytes were consumed at encryption time).
    ///
    /// # Errors
    ///
    /// Returns [`OtpError::InvalidOffset`] if `offset + len` exceeds the pad.
    pub fn decrypt(&self, ciphertext: &[u8], offset: usize) -> Result<Vec<u8>, OtpError> {
        let end = offset
            .checked_add(ciphertext.len())
            .ok_or(OtpError::InvalidOffset)?;
        if end > self.key.len() {
            return Err(OtpError::InvalidOffset);
        }
        Ok(ciphertext
            .iter()
            .zip(&self.key[offset..end])
            .map(|(c, k)| c ^ k)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut pad = OneTimePad::new((0..=255u8).collect());
        let (ct, off) = pad.encrypt(b"hello").unwrap();
        assert_ne!(&ct, b"hello");
        assert_eq!(pad.decrypt(&ct, off).unwrap(), b"hello");
    }

    #[test]
    fn sequential_messages_use_disjoint_key() {
        let mut pad = OneTimePad::new(vec![0xFF; 10]);
        let (c1, o1) = pad.encrypt(b"aaa").unwrap();
        let (c2, o2) = pad.encrypt(b"aaa").unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 3);
        // Same plaintext, same all-0xFF key region -> same ct here, but
        // offsets differ, proving disjoint consumption.
        assert_eq!(c1, c2);
        assert_eq!(pad.remaining(), 4);
    }

    #[test]
    fn exhaustion_detected() {
        let mut pad = OneTimePad::new(vec![0; 4]);
        assert!(pad.encrypt(b"12345").is_err());
        pad.encrypt(b"1234").unwrap();
        let err = pad.encrypt(b"x").unwrap_err();
        assert_eq!(
            err,
            OtpError::KeyExhausted {
                remaining: 0,
                needed: 1
            }
        );
    }

    #[test]
    fn invalid_offset_rejected() {
        let pad = OneTimePad::new(vec![0; 4]);
        assert_eq!(pad.decrypt(&[1, 2, 3], 2), Err(OtpError::InvalidOffset));
        assert_eq!(pad.decrypt(&[1], usize::MAX), Err(OtpError::InvalidOffset));
    }

    #[test]
    fn empty_message_ok() {
        let mut pad = OneTimePad::new(vec![]);
        let (ct, off) = pad.encrypt(b"").unwrap();
        assert!(ct.is_empty());
        assert_eq!(pad.decrypt(&ct, off).unwrap(), b"");
    }

    #[test]
    fn perfect_secrecy_shape() {
        // For a fixed ciphertext, every plaintext is reachable by some key:
        // enumerate over a 1-byte message space.
        let ct = 0xA7u8;
        let mut reachable = [false; 256];
        for key in 0..=255u8 {
            reachable[(ct ^ key) as usize] = true;
        }
        assert!(reachable.iter().all(|&r| r));
    }
}
