//! Cascade ciphers (robust combiners) à la ArchiveSafeLT.
//!
//! A cascade encrypts under several independent suites in sequence, each
//! layer with its own key. Maurer & Massey's classic result says a cascade
//! is at least as strong as its *first* cipher against known-plaintext
//! attacks, and in the random-oracle style folklore treatment the cascade
//! stands while at least one layer stands. ArchiveSafeLT uses exactly this
//! construction to hedge against any single cipher falling, at the cost of
//! storing a growing key history instead of re-encrypting data.
//!
//! The cascade here supports *re-wrapping*: adding a fresh outer layer
//! under a new suite without touching inner layers — the cheap emergency
//! response when an inner cipher is broken (the data still must be read
//! and rewritten, but no decryption keys need to be touched).

use crate::aead::AuthError;
use crate::hkdf;
use crate::suite::{SuiteId, SuiteRegistry};
use std::borrow::Cow;

/// Errors from cascade operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CascadeError {
    /// No layers were specified.
    Empty,
    /// A layer failed authentication on decryption.
    LayerAuth {
        /// Index of the failing layer (outermost is last applied).
        layer: usize,
    },
    /// A suite in the layer list is not a plain AEAD (e.g. OTP).
    UnsupportedSuite(SuiteId),
}

impl core::fmt::Display for CascadeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CascadeError::Empty => write!(f, "cascade has no layers"),
            CascadeError::LayerAuth { layer } => {
                write!(f, "cascade layer {layer} failed authentication")
            }
            CascadeError::UnsupportedSuite(s) => write!(f, "suite {s} cannot join a cascade"),
        }
    }
}

impl std::error::Error for CascadeError {}

impl From<AuthError> for CascadeError {
    fn from(_: AuthError) -> Self {
        CascadeError::LayerAuth { layer: 0 }
    }
}

/// A cascade of AEAD layers with per-layer keys derived from a master key.
///
/// Layer keys are derived as `HKDF(master, "layer-i-<suite>")`, so the
/// layers are independent: compromising one layer key reveals nothing
/// about the others (up to HKDF's PRF security).
///
/// # Examples
///
/// ```
/// use aeon_crypto::cascade::Cascade;
/// use aeon_crypto::suite::SuiteId;
///
/// let cascade = Cascade::new(
///     &[SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
///     &[1u8; 32],
/// )?;
/// let ct = cascade.encrypt(b"object-1", b"payload");
/// assert_eq!(cascade.decrypt(b"object-1", &ct)?, b"payload");
/// # Ok::<(), aeon_crypto::cascade::CascadeError>(())
/// ```
#[derive(Clone)]
pub struct Cascade {
    layers: Vec<(SuiteId, [u8; 32])>,
}

/// The suites, never the layer keys.
impl core::fmt::Debug for Cascade {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cascade")
            .field("suites", &self.suites())
            .finish_non_exhaustive()
    }
}

impl Cascade {
    /// Builds a cascade over the given suites (applied in order; the last
    /// suite is the outermost layer).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Empty`] for an empty suite list and
    /// [`CascadeError::UnsupportedSuite`] for non-AEAD suites.
    pub fn new(suites: &[SuiteId], master_key: &[u8; 32]) -> Result<Self, CascadeError> {
        if suites.is_empty() {
            return Err(CascadeError::Empty);
        }
        let mut layers = Vec::with_capacity(suites.len());
        for (i, &s) in suites.iter().enumerate() {
            if SuiteRegistry::new().instantiate(s, &[0u8; 32]).is_none() {
                return Err(CascadeError::UnsupportedSuite(s));
            }
            let info = format!("layer-{i}-{s}");
            let okm = hkdf::derive(b"aeon-cascade", master_key, info.as_bytes(), 32);
            let mut key = [0u8; 32];
            key.copy_from_slice(&okm);
            layers.push((s, key));
        }
        Ok(Cascade { layers })
    }

    /// The suites in application order.
    pub fn suites(&self) -> Vec<SuiteId> {
        self.layers.iter().map(|(s, _)| *s).collect()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Encrypts plaintext through every layer. The `context` binds the
    /// ciphertext to an object identity (used for nonce derivation and as
    /// AAD in every layer).
    pub fn encrypt(&self, context: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let reg = SuiteRegistry::new();
        // The first layer seals straight from the caller's slice.
        let mut data = Cow::Borrowed(plaintext);
        for (i, (suite, key)) in self.layers.iter().enumerate() {
            let cipher = reg.instantiate(*suite, key).expect("validated in new()");
            let nonce = layer_nonce(context, i);
            data = Cow::Owned(cipher.seal(&nonce, context, &data));
        }
        data.into_owned()
    }

    /// Decrypts through every layer in reverse: [`Cascade::decrypt_in_place`]
    /// on a copy.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::LayerAuth`] identifying the first layer that
    /// fails to authenticate.
    pub fn decrypt(&self, context: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CascadeError> {
        self.decrypt_at_depth(context, ciphertext, self.depth())
    }

    /// Decrypts `data` through every layer in reverse, each layer opened
    /// in place.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::LayerAuth`] identifying the first layer that
    /// fails to authenticate; the layers outside it are then already
    /// opened, and it and those inside it are not.
    pub fn decrypt_in_place(&self, context: &[u8], data: &mut Vec<u8>) -> Result<(), CascadeError> {
        self.open_layers(context, data, self.depth())
    }

    /// The one layer loop: opens the first `depth` layers of `data`,
    /// outermost first, in place.
    fn open_layers(
        &self,
        context: &[u8],
        data: &mut Vec<u8>,
        depth: usize,
    ) -> Result<(), CascadeError> {
        let reg = SuiteRegistry::new();
        for (i, (suite, key)) in self.layers.iter().enumerate().take(depth).rev() {
            let cipher = reg.instantiate(*suite, key).expect("validated in new()");
            cipher
                .open_in_place(&layer_nonce(context, i), context, data)
                .map_err(|_| CascadeError::LayerAuth { layer: i })?;
        }
        Ok(())
    }

    /// Adds a fresh outer layer (re-wrap). Existing ciphertexts must be
    /// re-encrypted through [`Cascade::rewrap`]; new encryptions include
    /// the layer automatically.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::UnsupportedSuite`] for non-AEAD suites.
    pub fn add_layer(&mut self, suite: SuiteId, master_key: &[u8; 32]) -> Result<(), CascadeError> {
        if SuiteRegistry::new()
            .instantiate(suite, &[0u8; 32])
            .is_none()
        {
            return Err(CascadeError::UnsupportedSuite(suite));
        }
        let i = self.layers.len();
        let info = format!("layer-{i}-{suite}");
        let okm = hkdf::derive(b"aeon-cascade", master_key, info.as_bytes(), 32);
        let mut key = [0u8; 32];
        key.copy_from_slice(&okm);
        self.layers.push((suite, key));
        Ok(())
    }

    /// Wraps an existing ciphertext (produced before the newest layers were
    /// added) through the layers from `from_depth` onward. This is the I/O
    /// operation ArchiveSafeLT performs when enough inner layers are broken.
    pub fn rewrap(&self, context: &[u8], ciphertext: &[u8], from_depth: usize) -> Vec<u8> {
        let reg = SuiteRegistry::new();
        let mut data = ciphertext.to_vec();
        for (i, (suite, key)) in self.layers.iter().enumerate().skip(from_depth) {
            let cipher = reg.instantiate(*suite, key).expect("validated");
            let nonce = layer_nonce(context, i);
            data = cipher.seal(&nonce, context, &data);
        }
        data
    }

    /// Decrypts a ciphertext that was only wrapped through the first
    /// `depth` layers.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::LayerAuth`] on authentication failure.
    pub fn decrypt_at_depth(
        &self,
        context: &[u8],
        ciphertext: &[u8],
        depth: usize,
    ) -> Result<Vec<u8>, CascadeError> {
        let mut data = ciphertext.to_vec();
        self.open_layers(context, &mut data, depth)?;
        Ok(data)
    }
}

fn layer_nonce(context: &[u8], layer: usize) -> [u8; 12] {
    let mut ctx = context.to_vec();
    ctx.extend_from_slice(&(layer as u64).to_be_bytes());
    crate::aead::derive_nonce(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{BreakSchedule, StackFall};

    fn two_layer() -> Cascade {
        Cascade::new(
            &[SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            &[9u8; 32],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let c = two_layer();
        let ct = c.encrypt(b"ctx", b"hello");
        assert_eq!(c.decrypt(b"ctx", &ct).unwrap(), b"hello");
    }

    #[test]
    fn ciphertext_grows_by_tag_per_layer() {
        let c = two_layer();
        let ct = c.encrypt(b"ctx", b"12345678");
        // AES layer adds 32-byte tag, ChaCha layer adds 16.
        assert_eq!(ct.len(), 8 + 32 + 16);
    }

    #[test]
    fn empty_layers_rejected() {
        assert_eq!(
            Cascade::new(&[], &[0u8; 32]).unwrap_err(),
            CascadeError::Empty
        );
    }

    #[test]
    fn otp_suite_rejected() {
        assert_eq!(
            Cascade::new(&[SuiteId::OneTimePad], &[0u8; 32]).unwrap_err(),
            CascadeError::UnsupportedSuite(SuiteId::OneTimePad)
        );
    }

    #[test]
    fn tamper_identifies_outer_layer() {
        let c = two_layer();
        let mut ct = c.encrypt(b"ctx", b"payload");
        let last = ct.len() - 1;
        ct[last] ^= 1;
        assert_eq!(
            c.decrypt(b"ctx", &ct).unwrap_err(),
            CascadeError::LayerAuth { layer: 1 }
        );
    }

    /// In place, a cascade opens to the same plaintext and names the same
    /// failing layer as `decrypt`: the outer layer for a bent outer tag,
    /// the inner one for a bent inner ciphertext under an intact outer
    /// layer.
    #[test]
    fn in_place_reports_the_same_layer() {
        let c = two_layer();
        let in_place = |ct: &[u8]| {
            let mut data = ct.to_vec();
            c.decrypt_in_place(b"ctx", &mut data).map(|()| data)
        };
        let ct = c.encrypt(b"ctx", b"payload");
        assert_eq!(in_place(&ct).unwrap(), b"payload");
        let mut bent_outer = ct;
        *bent_outer.last_mut().unwrap() ^= 1;
        let mut inner = Cascade::new(&[SuiteId::Aes256CtrHmac], &[9u8; 32])
            .unwrap()
            .encrypt(b"ctx", b"payload");
        inner[0] ^= 1;
        let bent_inner = c.rewrap(b"ctx", &inner, 1);
        for (ct, layer) in [(bent_outer, 1), (bent_inner, 0)] {
            let err = CascadeError::LayerAuth { layer };
            assert_eq!(c.decrypt(b"ctx", &ct), Err(err.clone()));
            assert_eq!(in_place(&ct), Err(err.clone()));
            assert_eq!(c.decrypt_at_depth(b"ctx", &ct, 2), Err(err));
        }
    }

    #[test]
    fn wrong_context_fails() {
        let c = two_layer();
        let ct = c.encrypt(b"ctx-a", b"payload");
        assert!(c.decrypt(b"ctx-b", &ct).is_err());
    }

    #[test]
    fn rewrap_and_decrypt() {
        let mut c = Cascade::new(&[SuiteId::Aes256CtrHmac], &[9u8; 32]).unwrap();
        let old_ct = c.encrypt(b"obj", b"data");
        // AES is about to fall: add a ChaCha outer layer.
        c.add_layer(SuiteId::ChaCha20Poly1305, &[9u8; 32]).unwrap();
        let new_ct = c.rewrap(b"obj", &old_ct, 1);
        assert_eq!(c.decrypt(b"obj", &new_ct).unwrap(), b"data");
        // Old ciphertext still decryptable at depth 1.
        assert_eq!(c.decrypt_at_depth(b"obj", &old_ct, 1).unwrap(), b"data");
    }

    /// A cascade stands while any layer stands: the schedule's stack
    /// rule over its suites, which grow as layers are added.
    #[test]
    fn security_against_schedule() {
        let mut c = Cascade::new(&[SuiteId::Aes256CtrHmac], &[9u8; 32]).unwrap();
        let schedule = BreakSchedule::pessimistic(); // AES 2045, ChaCha 2060
        assert!(schedule.stack_fall(&c.suites()).has_fallen(2045));
        c.add_layer(SuiteId::ChaCha20Poly1305, &[9u8; 32]).unwrap();
        let fall = schedule.stack_fall(&c.suites());
        assert!(!fall.has_fallen(2044));
        assert!(!fall.has_fallen(2050)); // ChaCha still standing
        assert!(fall.has_fallen(2060));
        assert_eq!(
            fall,
            StackFall::At {
                year: 2060,
                last: SuiteId::ChaCha20Poly1305
            }
        );
        assert_eq!(
            BreakSchedule::new().stack_fall(&c.suites()),
            StackFall::Never
        );
    }

    #[test]
    fn deterministic_same_master_key() {
        let a = two_layer();
        let b = two_layer();
        assert_eq!(a.encrypt(b"ctx", b"m"), b.encrypt(b"ctx", b"m"));
    }
}
