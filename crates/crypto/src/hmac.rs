//! HMAC (RFC 2104) over SHA-256.

use crate::sha2::Sha256;

/// Computes HMAC-SHA-256 of `data` under `key`.
///
/// # Examples
///
/// ```
/// use aeon_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[..4], [0xf7, 0xbc, 0x83, 0xf4]);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

// Both hash states have absorbed a key block.
redacted_debug!(HmacSha256);

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        const BLOCK: usize = 64;
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = Sha256::digest(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }
}

/// Constant-shape tag comparison (XOR-accumulate; avoids early exit).
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut acc = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        acc |= a ^ b;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::to_hex;

    #[test]
    fn rfc4231_case_1() {
        // Key = 20 bytes of 0x0b, data = "Hi There"
        let key = [0x0bu8; 20];
        assert_eq!(
            to_hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_jefe() {
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_long_key() {
        // 131-byte key of 0xaa forces key hashing.
        let key = [0xaau8; 131];
        assert_eq!(
            to_hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"incremental-key";
        let data = b"part one and part two and part three";
        let mut mac = HmacSha256::new(key);
        mac.update(&data[..10]);
        mac.update(&data[10..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, data));
    }

    #[test]
    fn verify_tag_behaviour() {
        assert!(verify_tag(b"abcd", b"abcd"));
        assert!(!verify_tag(b"abcd", b"abce"));
        assert!(!verify_tag(b"abcd", b"abc"));
        assert!(verify_tag(b"", b""));
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = hmac_sha256(b"k1", b"data");
        let t2 = hmac_sha256(b"k2", b"data");
        assert_ne!(t1, t2);
    }
}
