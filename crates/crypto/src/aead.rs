//! Authenticated encryption with associated data.
//!
//! Two independent AEAD constructions back the cipher-agility story: a
//! stream-cipher-based suite (ChaCha20-Poly1305, RFC 8439) and a
//! block-cipher-based suite (AES-256-CTR with HMAC-SHA-256 in
//! encrypt-then-MAC composition). Cascading both hedges against the
//! cryptanalysis of either family — the ArchiveSafeLT approach.

use crate::aes::Aes;
use crate::chacha::ChaCha20;
use crate::hmac::{hmac_sha256, verify_tag, HmacSha256};
use crate::kernel::Kernel;
use crate::poly1305::Poly1305;

/// Error returned when AEAD opening fails authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// An authenticated encryption scheme with associated data.
///
/// `seal` returns `ciphertext || tag`; `open_in_place` verifies the tag,
/// strips it and decrypts in the caller's buffer, and `open` is that on a
/// copy. Implementations are deterministic given (key, nonce, aad,
/// plaintext) — nonce uniqueness is the caller's responsibility.
pub trait Aead: core::fmt::Debug + Send + Sync {
    /// Key length in bytes.
    const KEY_LEN: usize;
    /// Nonce length in bytes.
    const NONCE_LEN: usize;
    /// Authentication tag length in bytes.
    const TAG_LEN: usize;

    /// Encrypts and authenticates `plaintext`, binding `aad`.
    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8>;

    /// Verifies the tag that ends `buf`, truncates it, then decrypts the
    /// rest of `buf` in place. Nothing is decrypted unless the tag
    /// verifies: on an error `buf` is left exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify.
    fn open_in_place(&self, nonce: &[u8], aad: &[u8], buf: &mut Vec<u8>) -> Result<(), AuthError>;

    /// Verifies and decrypts `ciphertext` (which includes the trailing
    /// tag): [`Aead::open_in_place`] on a copy.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify.
    fn open(&self, nonce: &[u8], aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, AuthError> {
        let mut out = ciphertext.to_vec();
        self.open_in_place(nonce, aad, &mut out)?;
        Ok(out)
    }
}

/// A copy of `plaintext` with room for the tag behind it, so `seal`
/// makes one allocation of the ciphertext's final size: pushing the tag
/// onto an exact-size copy would double the buffer.
fn copy_with_tag_room(plaintext: &[u8], tag_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + tag_len);
    out.extend_from_slice(plaintext);
    out
}

/// Whether a `len`-byte message stays inside the keystream a 32-bit block
/// counter addresses before it wraps: blocks `first_counter..2³²` of
/// `block_len` bytes each. Past that, [`Aes::apply_ctr`] and
/// [`ChaCha20::apply_keystream`] silently reuse keystream, so both AEADs
/// refuse such a message.
fn within_counter_space(len: u64, block_len: u64, first_counter: u32) -> bool {
    len <= ((1u64 << 32) - u64::from(first_counter)) * block_len
}

/// ChaCha20-Poly1305 AEAD (RFC 8439).
///
/// A message is at most 2³² − 1 keystream blocks (just under 256 GiB,
/// RFC 8439 §2.8): `seal` panics on a longer one and `open` rejects it.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

redacted_debug!(ChaCha20Poly1305, Aes256CtrHmac);

impl ChaCha20Poly1305 {
    /// Creates an instance from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    /// The one-time Poly1305 key: the first half of keystream block 0.
    fn poly_key(cipher: &ChaCha20) -> [u8; 32] {
        let block = cipher.block(0);
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&block[..32]);
        pk
    }

    /// RFC 8439 §2.8: the tag over `aad ‖ pad ‖ ct ‖ pad ‖ lengths`, each
    /// pad the zeros up to the next 16-byte boundary.
    fn compute_tag(kernel: &Kernel, poly_key: &[u8; 32], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        const ZEROS: [u8; 16] = [0; 16];
        let mut mac = Poly1305::new(poly_key);
        for part in [aad, ct] {
            mac.update_on(kernel, part);
            mac.update_on(kernel, &ZEROS[..(16 - part.len() % 16) % 16]);
        }
        mac.update_on(kernel, &(aad.len() as u64).to_le_bytes());
        mac.update_on(kernel, &(ct.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// [`Aead::seal`] with the keystream and the authenticator on
    /// `kernel`'s slots instead of the process-wide kernel's (parity
    /// tests and per-tier benchmarks; the output is the same on every
    /// kernel).
    ///
    /// # Panics
    ///
    /// As `seal`: on a nonce that is not 12 bytes or a message past the
    /// counter space.
    #[doc(hidden)]
    pub fn seal_on(&self, kernel: &Kernel, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let nonce: &[u8; 12] = nonce.try_into().expect("nonce must be 12 bytes");
        assert!(
            within_counter_space(plaintext.len() as u64, 64, 1),
            "message exceeds the ChaCha20 counter space"
        );
        let cipher = ChaCha20::new(&self.key, nonce);
        let mut out = copy_with_tag_room(plaintext, Self::TAG_LEN);
        kernel.chacha20_xor(&cipher, 1, &mut out);
        let tag = Self::compute_tag(kernel, &Self::poly_key(&cipher), aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// [`Aead::open_in_place`] on `kernel`'s slots, as [`Self::seal_on`]:
    /// the one verify-then-decrypt body.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify.
    #[doc(hidden)]
    pub fn open_in_place_on(
        &self,
        kernel: &Kernel,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        let nonce: &[u8; 12] = nonce.try_into().map_err(|_| AuthError)?;
        let ct_len = buf.len().checked_sub(Self::TAG_LEN).ok_or(AuthError)?;
        let (ct, tag) = buf.split_at(ct_len);
        if !within_counter_space(ct.len() as u64, 64, 1) {
            return Err(AuthError);
        }
        let cipher = ChaCha20::new(&self.key, nonce);
        let expect = Self::compute_tag(kernel, &Self::poly_key(&cipher), aad, ct);
        if !verify_tag(&expect, tag) {
            return Err(AuthError);
        }
        buf.truncate(ct_len);
        kernel.chacha20_xor(&cipher, 1, buf);
        Ok(())
    }

    /// [`Aead::open`] on `kernel`'s slots: [`Self::open_in_place_on`] on
    /// a copy.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify.
    #[doc(hidden)]
    pub fn open_on(
        &self,
        kernel: &Kernel,
        nonce: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        let mut out = ciphertext.to_vec();
        self.open_in_place_on(kernel, nonce, aad, &mut out)?;
        Ok(out)
    }
}

impl Aead for ChaCha20Poly1305 {
    const KEY_LEN: usize = 32;
    const NONCE_LEN: usize = 12;
    const TAG_LEN: usize = 16;

    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        self.seal_on(Kernel::active(), nonce, aad, plaintext)
    }

    fn open_in_place(&self, nonce: &[u8], aad: &[u8], buf: &mut Vec<u8>) -> Result<(), AuthError> {
        self.open_in_place_on(Kernel::active(), nonce, aad, buf)
    }
}

/// AES-256-CTR with HMAC-SHA-256 (encrypt-then-MAC).
///
/// The 64-byte master key splits into an encryption half and a MAC half.
/// The MAC covers `nonce || aad_len || aad || ciphertext`, giving the same
/// binding properties as a standard AEAD.
///
/// A message is at most 2³² AES blocks (64 GiB), the span of the CTR
/// counter: `seal` panics on a longer one and `open` rejects it.
#[derive(Clone)]
pub struct Aes256CtrHmac {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
}

impl Aes256CtrHmac {
    /// Creates an instance from a 256-bit key, deriving independent
    /// encryption and MAC subkeys via HKDF.
    pub fn new(key: &[u8; 32]) -> Self {
        let okm = crate::hkdf::derive(b"aeon-aes-ctr-hmac", key, b"subkeys", 64);
        let mut enc_key = [0u8; 32];
        let mut mac_key = [0u8; 32];
        enc_key.copy_from_slice(&okm[..32]);
        mac_key.copy_from_slice(&okm[32..]);
        Aes256CtrHmac { enc_key, mac_key }
    }

    fn iv_from_nonce(nonce: &[u8]) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..12].copy_from_slice(nonce);
        iv
    }

    fn compute_tag(&self, nonce: &[u8], aad: &[u8], ct: &[u8]) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        mac.update(ct);
        mac.finalize()
    }
}

impl Aead for Aes256CtrHmac {
    const KEY_LEN: usize = 32;
    const NONCE_LEN: usize = 12;
    const TAG_LEN: usize = 32;

    fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        assert_eq!(nonce.len(), 12, "nonce must be 12 bytes");
        assert!(
            within_counter_space(plaintext.len() as u64, 16, 0),
            "message exceeds the AES-CTR counter space"
        );
        let mut out = copy_with_tag_room(plaintext, Self::TAG_LEN);
        Aes::new_256(&self.enc_key).apply_ctr(&Self::iv_from_nonce(nonce), &mut out);
        let tag = self.compute_tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    fn open_in_place(&self, nonce: &[u8], aad: &[u8], buf: &mut Vec<u8>) -> Result<(), AuthError> {
        if nonce.len() != 12 {
            return Err(AuthError);
        }
        let ct_len = buf.len().checked_sub(Self::TAG_LEN).ok_or(AuthError)?;
        let (ct, tag) = buf.split_at(ct_len);
        if !within_counter_space(ct.len() as u64, 16, 0) {
            return Err(AuthError);
        }
        let expect = self.compute_tag(nonce, aad, ct);
        if !verify_tag(&expect, tag) {
            return Err(AuthError);
        }
        buf.truncate(ct_len);
        Aes::new_256(&self.enc_key).apply_ctr(&Self::iv_from_nonce(nonce), buf);
        Ok(())
    }
}

/// Convenience: derives a deterministic nonce from context bytes by
/// hashing. Safe when each (key, context) pair is unique.
pub fn derive_nonce(context: &[u8]) -> [u8; 12] {
    let d = hmac_sha256(b"aeon-nonce", context);
    let mut n = [0u8; 12];
    n.copy_from_slice(&d[..12]);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    // The RFC 8439 §2.8.2 known answer lives in `tests/kernel_parity.rs`,
    // where it runs on every tier of the ChaCha20 keystream.

    fn roundtrip<A: Aead>(aead: &A) {
        let nonce = [9u8; 12];
        for len in [0usize, 1, 16, 17, 100, 1000] {
            let pt = vec![0x3Cu8; len];
            let sealed = aead.seal(&nonce, b"aad", &pt);
            let opened = aead.open(&nonce, b"aad", &sealed).unwrap();
            assert_eq!(opened, pt, "len {len}");
            let mut buf = sealed;
            aead.open_in_place(&nonce, b"aad", &mut buf).unwrap();
            assert_eq!(buf, pt, "len {len}");
        }
    }

    #[test]
    fn chacha_roundtrip() {
        roundtrip(&ChaCha20Poly1305::new(&[1u8; 32]));
    }

    #[test]
    fn aes_roundtrip() {
        roundtrip(&Aes256CtrHmac::new(&[1u8; 32]));
    }

    /// `open_in_place` refuses `sealed` and leaves it as it was.
    fn refused_in_place<A: Aead>(aead: &A, nonce: &[u8], aad: &[u8], sealed: &[u8]) {
        let mut buf = sealed.to_vec();
        assert_eq!(aead.open_in_place(nonce, aad, &mut buf), Err(AuthError));
        assert_eq!(buf, sealed, "a refused buffer stays undecrypted");
    }

    fn tamper_detected<A: Aead>(aead: &A) {
        let nonce = [3u8; 12];
        let mut sealed = aead.seal(&nonce, b"aad", b"payload");
        // Flip a ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(aead.open(&nonce, b"aad", &sealed), Err(AuthError));
        refused_in_place(aead, &nonce, b"aad", &sealed);
        sealed[0] ^= 1;
        // Flip a tag bit.
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(aead.open(&nonce, b"aad", &sealed), Err(AuthError));
        refused_in_place(aead, &nonce, b"aad", &sealed);
        sealed[last] ^= 1;
        // Wrong AAD.
        assert_eq!(aead.open(&nonce, b"bad", &sealed), Err(AuthError));
        refused_in_place(aead, &nonce, b"bad", &sealed);
        refused_in_place(aead, &nonce, b"aad", &sealed[..A::TAG_LEN - 1]);
        // Wrong nonce.
        assert_eq!(aead.open(&[4u8; 12], b"aad", &sealed), Err(AuthError));
        // Truncated.
        assert_eq!(aead.open(&nonce, b"aad", &sealed[..4]), Err(AuthError));
        // Intact still opens.
        assert!(aead.open(&nonce, b"aad", &sealed).is_ok());
    }

    #[test]
    fn chacha_tamper_detected() {
        tamper_detected(&ChaCha20Poly1305::new(&[2u8; 32]));
    }

    #[test]
    fn aes_tamper_detected() {
        tamper_detected(&Aes256CtrHmac::new(&[2u8; 32]));
    }

    #[test]
    fn different_keys_cannot_open() {
        let a = ChaCha20Poly1305::new(&[1u8; 32]);
        let b = ChaCha20Poly1305::new(&[2u8; 32]);
        let sealed = a.seal(&[0u8; 12], b"", b"msg");
        assert!(b.open(&[0u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn counter_space_ends_where_the_keystream_would_repeat() {
        // AES-CTR counts 16-byte blocks from 0: 2^32 of them.
        assert!(within_counter_space(0, 16, 0));
        assert!(within_counter_space(1 << 36, 16, 0));
        assert!(!within_counter_space((1 << 36) + 1, 16, 0));
        // ChaCha20-Poly1305 counts 64-byte blocks from 1 (block 0 keys
        // Poly1305): 2^32 - 1 of them, RFC 8439's 274,877,906,880 bytes.
        assert!(within_counter_space(274_877_906_880, 64, 1));
        assert!(!within_counter_space(274_877_906_881, 64, 1));
        assert!(!within_counter_space(u64::MAX, 64, 1));
    }

    #[test]
    fn derive_nonce_deterministic() {
        assert_eq!(derive_nonce(b"ctx"), derive_nonce(b"ctx"));
        assert_ne!(derive_nonce(b"ctx1"), derive_nonce(b"ctx2"));
    }
}
