//! Secret sharing for long-term confidentiality.
//!
//! Secret sharing is the only family of data encodings in the paper's
//! survey that provides *information-theoretic* confidentiality at rest:
//! fewer than `t` shares reveal nothing about the data, no matter how much
//! computation a future adversary wields. This crate implements the whole
//! ladder the paper climbs:
//!
//! * [`shamir`] — Shamir's `t`-of-`n` scheme over GF(2^8), byte-parallel
//!   (the POTSHARDS encoding).
//! * [`packed`] — packed secret sharing over GF(2^16): one polynomial hides
//!   `k` secrets, trading a weaker threshold for `k`× less storage (the
//!   "packed secret sharing" point of Figure 1).
//! * [`vss`] — Feldman and Pedersen *verifiable* secret sharing over the
//!   MODP group for key-sized secrets; Pedersen's variant keeps the
//!   commitments information-theoretically hiding (the LINCOS
//!   requirement).
//! * [`proactive`] — Herzberg-style share refresh and Wong-style share
//!   redistribution among honest participants (neither checks a share),
//!   the defense against the mobile adversary.
//! * [`vss_proactive`] — *verifiable* refresh for VSS scalar shares:
//!   zero-rooted delta dealings checked against their commitments, so a
//!   corrupt shareholder cannot destroy the secret during renewal.
//! * [`lrss`] — a leakage-resilient compiler wrapping any Shamir share
//!   behind an inner-product extractor, addressing the §4 research
//!   direction on side-channel leakage.
//!
//! # Examples
//!
//! ```
//! use aeon_secretshare::shamir;
//! use aeon_crypto::ChaChaDrbg;
//!
//! let mut rng = ChaChaDrbg::from_u64_seed(42);
//! let shares = shamir::split(&mut rng, b"the archive key", 3, 5)?;
//! let secret = shamir::reconstruct(&shares[1..4], 3)?;
//! assert_eq!(secret, b"the archive key");
//! # Ok::<(), aeon_secretshare::ShareError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod lrss;
pub mod packed;
pub mod proactive;
pub mod shamir;
pub mod vss;
pub mod vss_proactive;

/// Errors from secret-sharing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShareError {
    /// Threshold/share-count parameters are invalid.
    InvalidParameters {
        /// The threshold requested.
        threshold: usize,
        /// The share count requested.
        shares: usize,
        /// Why the parameters are invalid.
        reason: &'static str,
    },
    /// Fewer shares than the threshold were provided.
    TooFewShares {
        /// Shares provided.
        provided: usize,
        /// Shares required.
        required: usize,
    },
    /// Shares have inconsistent lengths or indices.
    InconsistentShares(&'static str),
    /// A share failed verification against its commitments.
    VerificationFailed {
        /// Index of the offending share.
        index: u64,
    },
    /// Refresh/redistribution sub-protocol failure.
    ProtocolViolation(&'static str),
}

impl core::fmt::Display for ShareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShareError::InvalidParameters {
                threshold,
                shares,
                reason,
            } => write!(
                f,
                "invalid sharing parameters (t={threshold}, n={shares}): {reason}"
            ),
            ShareError::TooFewShares { provided, required } => {
                write!(
                    f,
                    "too few shares: {provided} provided, {required} required"
                )
            }
            ShareError::InconsistentShares(why) => write!(f, "inconsistent shares: {why}"),
            ShareError::VerificationFailed { index } => {
                write!(f, "share {index} failed verification")
            }
            ShareError::ProtocolViolation(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ShareError {}
