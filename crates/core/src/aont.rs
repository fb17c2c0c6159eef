//! AONT-RS (Resch–Plank): the all-or-nothing transform in front of
//! Reed–Solomon dispersal.
//!
//! The Cleversafe scheme the paper singles out as the *practical*
//! computational design point. Encoding:
//!
//! 1. Draw a random key `k`; compute ciphertext blocks
//!    `c_i = m_i ⊕ E_k(i)` (AES-256-CTR here).
//! 2. Append a "difference block" `c_{s+1} = k ⊕ H(c_1 ‖ … ‖ c_s)`.
//! 3. Erasure-code the package `c_1 … c_{s+1}` systematically `[n, t]`
//!    and disperse one codeword per node.
//!
//! Steps 1–2 are [`package`] / [`unpackage`] here; step 3 is the shared
//! dispersal of [`crate::codec`], and the harvest-now-decrypt-later
//! model lives with the other families' in `PolicyKind::hndl_recover`.
//!
//! Anyone holding `t` codewords rebuilds the package, recomputes the
//! hash, unmasks `k`, and decrypts — **no key management at all**. An
//! adversary with fewer than `t` codewords provably (while `E` and `H`
//! stand) learns nothing. The catch the paper highlights: if `E`/`H`
//! fall, a *single* share leaks plaintext — AONT-RS confidentiality is
//! computational, and harvest-now-decrypt-later defeats it.

use aeon_crypto::aes::Aes;
use aeon_crypto::{CryptoRng, Sha256};

/// The rebuilt package is too short to hold its difference block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptPackage;

impl core::fmt::Display for CorruptPackage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "corrupt AONT package")
    }
}

impl std::error::Error for CorruptPackage {}

/// Builds the AONT package: `ciphertext ‖ (k ⊕ H(ciphertext))`, 32
/// bytes longer than the payload, under a freshly drawn `k`.
pub fn package<R: CryptoRng + ?Sized>(rng: &mut R, payload: &[u8]) -> Vec<u8> {
    let key = aeon_crypto::random_array::<32, _>(rng);
    let mut ct = payload.to_vec();
    Aes::new_256(&key).apply_ctr(&[0u8; 16], &mut ct);
    let digest = Sha256::digest(&ct);
    let mut package = ct;
    for (k, d) in key.iter().zip(digest.iter()) {
        package.push(k ^ d);
    }
    package
}

/// Opens a rebuilt package back into the payload. Uses no external key
/// material: the key is inside the package.
///
/// # Errors
///
/// Returns [`CorruptPackage`] when the package is shorter than its
/// difference block.
pub fn unpackage(package: &[u8]) -> Result<Vec<u8>, CorruptPackage> {
    if package.len() < 32 {
        return Err(CorruptPackage);
    }
    let (ct, masked_key) = package.split_at(package.len() - 32);
    let digest = Sha256::digest(ct);
    let mut key = [0u8; 32];
    for (out, (m, d)) in key.iter_mut().zip(masked_key.iter().zip(digest.iter())) {
        *out = m ^ d;
    }
    let mut pt = ct.to_vec();
    Aes::new_256(&key).apply_ctr(&[0u8; 16], &mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(77)
    }

    #[test]
    fn roundtrip_needs_no_key() {
        // Opening uses no external key material — the key is inside the
        // package. (This test is the "eliminates key management" claim.)
        let payload = b"dispersed archival object payload";
        let package = package(&mut rng(), payload);
        assert_eq!(package.len(), payload.len() + 32);
        assert_eq!(unpackage(&package).unwrap(), payload);
    }

    #[test]
    fn randomized_packages_differ() {
        let mut r = rng();
        let p1 = package(&mut r, b"same payload");
        let p2 = package(&mut r, b"same payload");
        assert_ne!(p1, p2, "fresh key per package");
    }

    #[test]
    fn tampered_package_decrypts_to_garbage() {
        // AONT gives all-or-nothing *confidentiality*, not integrity: a
        // flipped ciphertext bit changes the digest, hence the key, hence
        // everything. Integrity must come from a separate layer.
        let mut package = package(&mut rng(), b"integrity elsewhere");
        package[9] ^= 1;
        assert_ne!(unpackage(&package).unwrap(), b"integrity elsewhere");
    }

    #[test]
    fn short_package_is_corrupt() {
        assert_eq!(unpackage(&[0u8; 31]), Err(CorruptPackage));
    }

    #[test]
    fn empty_payload() {
        let package = package(&mut rng(), b"");
        assert_eq!(unpackage(&package).unwrap(), b"");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes open to a payload 32 bytes shorter, or are
        /// refused with `CorruptPackage` when shorter than the
        /// difference block — never a panic.
        #[test]
        fn hostile_package_bytes_open_or_fail_typed(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..97),
        ) {
            match unpackage(&bytes) {
                Ok(payload) => proptest::prop_assert_eq!(payload.len() + 32, bytes.len()),
                Err(CorruptPackage) => proptest::prop_assert!(bytes.len() < 32),
            }
        }
    }

    /// A real package cut at every length and with every bit flipped in
    /// turn: a cut shorter than the difference block is refused, any
    /// other cut or flip opens to a payload of its length — and a flip
    /// to other bytes, since every bit decides the key — and nothing
    /// panics.
    #[test]
    fn hostile_package_cuts_and_flips_open_or_fail_typed() {
        let payload = b"all or nothing, and never a panic";
        let mut package = package(&mut rng(), payload);
        for cut in 0..package.len() {
            match unpackage(&package[..cut]) {
                Ok(opened) => assert_eq!(opened.len() + 32, cut, "cut at {cut}"),
                Err(CorruptPackage) => assert!(cut < 32, "a {cut}-byte package refused"),
            }
        }
        for bit in 0..package.len() * 8 {
            package[bit / 8] ^= 1 << (bit % 8);
            let opened = unpackage(&package).unwrap();
            assert_eq!(opened.len(), payload.len());
            assert_ne!(opened, payload, "bit {bit} flipped");
            package[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(unpackage(&package).unwrap(), payload);
    }
}
