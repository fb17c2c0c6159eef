//! From-scratch cryptographic primitives and the cipher-agility layer.
//!
//! Long-term archives cannot bind themselves to a single cipher: the paper's
//! central observation is that *every* computationally secure primitive may
//! be broken within an archival lifetime. This crate therefore provides
//! both the primitives themselves and the machinery to treat them as
//! replaceable, breakable components:
//!
//! * Hashing: [`sha2::Sha256`], [`sha2::Sha512`], [`hmac`] (over
//!   SHA-256), [`hkdf`].
//! * Symmetric encryption: [`chacha::ChaCha20`], [`aes::Aes256`] (+ CTR),
//!   and AEADs ([`aead::ChaCha20Poly1305`], [`aead::Aes256CtrHmac`]).
//! * Entropically secure encryption ([`entropic`]) — shorter-than-message
//!   keys for high-entropy plaintexts (the "entropically secure encryption"
//!   point in the paper's Figure 1).
//! * Hash-based signatures ([`sig`]): WOTS one-time signatures under a
//!   Merkle many-time scheme — the natural signature family for
//!   timestamp chains because their security reduces to preimage
//!   resistance alone.
//! * Randomness: a seedable ChaCha-based [`drbg::ChaChaDrbg`] behind the
//!   small [`drbg::CryptoRng`] trait, keeping every higher-level protocol
//!   deterministic under test.
//! * Agility: a [`suite`] registry that names every suite, tracks a
//!   simulated cryptanalytic [`suite::BreakSchedule`] — whose
//!   [`stack_fall`](suite::BreakSchedule::stack_fall) is the one rule for
//!   when a layered stack of suites falls — and a [`cascade`] robust
//!   combiner that layers independent suites so the stack stays secure
//!   while *any* layer survives.
//! * Hardware tiers: the SHA-256 block function, the AES-CTR and ChaCha20
//!   keystreams and the Poly1305 block loop run through
//!   [`kernel::Kernel`], a per-process vtable that takes SHA-NI / AES-NI /
//!   AVX2 / AVX-512 on x86-64 hosts that have them and this crate's
//!   scalar code everywhere else. Every tier is bit-exact, so nothing
//!   above [`sha2::Sha256`], [`aes::Aes::apply_ctr`],
//!   [`chacha::ChaCha20::apply_keystream`] and
//!   [`poly1305::Poly1305::update`] knows which one ran;
//!   `AEON_FORCE_KERNEL=scalar` pins the scalar tier. The hardware tiers
//!   sit in one private module of [`kernel`], the only place where the
//!   crate-wide lint at the bottom of this header is relaxed.
//! * No key in a log: every type that holds key material formats as its
//!   name alone under `{:?}`.
//!
//! # Security disclaimer
//!
//! These are clean-room educational implementations: correct against
//! standard test vectors, but not audited. The scalar tiers are not
//! constant-time (AES indexes its S-box by secret bytes); the `ni` AES
//! tier has no data-dependent table lookups in its CTR path, though key
//! expansion and single-block calls still use the scalar code. They exist
//! so the archival-system layers above have a real, breakable,
//! swappable crypto substrate — not to protect production keys.
//!
//! # Examples
//!
//! ```
//! use aeon_crypto::aead::{Aead, ChaCha20Poly1305};
//!
//! let key = [7u8; 32];
//! let aead = ChaCha20Poly1305::new(&key);
//! let ct = aead.seal(&[0u8; 12], b"associated", b"plaintext");
//! let pt = aead.open(&[0u8; 12], b"associated", &ct).unwrap();
//! assert_eq!(pt, b"plaintext");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

/// `Debug` for types that hold key material: the type's name and nothing
/// else, so no `{:?}`, `dbg!` or panic message writes a key to a log that
/// outlives the cipher.
macro_rules! redacted_debug {
    ($($name:ident),+) => {$(
        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }
    )+};
}

pub mod aead;
pub mod aes;
pub mod cascade;
pub mod chacha;
pub mod drbg;
pub mod entropic;
pub mod hkdf;
pub mod hmac;
pub mod kernel;
pub mod poly1305;
pub mod sha2;
pub mod sig;
pub mod suite;

pub use aead::Aead;
pub use drbg::{random_array, ChaChaDrbg, CryptoRng, SubStream};
pub use sha2::{Sha256, Sha512};
pub use suite::{BreakSchedule, SecurityLevel, StackFall, SuiteId, SuiteRegistry};
