//! Cipher-suite registry and the simulated cryptanalytic timeline.
//!
//! The paper's core threat is *cryptographic obsolescence*: any
//! computationally secure scheme may be broken within an archive's
//! lifetime. To let the rest of the stack reason about that, every cipher
//! is named by a [`SuiteId`], and a [`BreakSchedule`] records the simulated
//! year at which each suite falls to cryptanalysis. Adversary simulations
//! consult the schedule; maintenance schedulers react to it by triggering
//! re-encryption or re-wrapping campaigns.

use crate::aead::{Aead, Aes256CtrHmac, AuthError, ChaCha20Poly1305};
use std::collections::BTreeMap;
use std::fmt;

/// A coarse confidentiality classification used across the workspace
/// (channels, encodings, whole-system evaluation — the rows of the
/// paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityLevel {
    /// No confidentiality at all (plaintext, replication, erasure coding).
    None,
    /// Secure only against computationally bounded adversaries; falls to
    /// future cryptanalysis and harvest-now-decrypt-later.
    Computational,
    /// Information-theoretic for high-entropy messages only (entropically
    /// secure encryption).
    EntropicIts,
    /// Unconditional information-theoretic security.
    InformationTheoretic,
}

impl core::fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SecurityLevel::None => "None",
            SecurityLevel::Computational => "Computational",
            SecurityLevel::EntropicIts => "Entropic-ITS",
            SecurityLevel::InformationTheoretic => "ITS",
        };
        f.write_str(s)
    }
}

/// Identifies an encryption suite known to the archive stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SuiteId {
    /// AES-256 in CTR mode with HMAC-SHA-256 (encrypt-then-MAC).
    Aes256CtrHmac,
    /// ChaCha20-Poly1305 (RFC 8439).
    ChaCha20Poly1305,
    /// One-time pad (information-theoretically secure; never breakable).
    OneTimePad,
    /// Entropically secure encryption (information-theoretic for
    /// high-entropy messages).
    Entropic,
}

impl SuiteId {
    /// All registered computational suites (excludes the OTP).
    pub const COMPUTATIONAL: [SuiteId; 2] = [SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305];

    /// Returns `true` if the suite's security is information-theoretic
    /// (no cryptanalytic advance can break it).
    pub fn is_information_theoretic(self) -> bool {
        matches!(self, SuiteId::OneTimePad | SuiteId::Entropic)
    }
}

impl fmt::Display for SuiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SuiteId::Aes256CtrHmac => "AES-256-CTR-HMAC",
            SuiteId::ChaCha20Poly1305 => "ChaCha20-Poly1305",
            SuiteId::OneTimePad => "OTP",
            SuiteId::Entropic => "Entropic",
        };
        f.write_str(name)
    }
}

/// A simulated year on the archival timeline (e.g. 2026).
pub type SimYear = u32;

/// Maps cipher suites to the simulated year cryptanalysis breaks them.
///
/// A suite absent from the schedule is never broken within the simulation
/// horizon. Information-theoretic suites ignore the schedule entirely.
///
/// # Examples
///
/// ```
/// use aeon_crypto::{BreakSchedule, SuiteId};
///
/// let mut schedule = BreakSchedule::new();
/// schedule.set_break(SuiteId::Aes256CtrHmac, 2045);
/// assert!(!schedule.is_broken(SuiteId::Aes256CtrHmac, 2044));
/// assert!(schedule.is_broken(SuiteId::Aes256CtrHmac, 2045));
/// assert!(!schedule.is_broken(SuiteId::OneTimePad, 9999));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakSchedule {
    breaks: BTreeMap<SuiteId, SimYear>,
}

impl BreakSchedule {
    /// Creates an empty schedule (nothing ever breaks).
    pub fn new() -> Self {
        Self::default()
    }

    /// A pessimistic default used in experiments: AES falls in 2045
    /// (quantum-assisted cryptanalysis), ChaCha in 2060.
    pub fn pessimistic() -> Self {
        let mut s = Self::new();
        s.set_break(SuiteId::Aes256CtrHmac, 2045);
        s.set_break(SuiteId::ChaCha20Poly1305, 2060);
        s
    }

    /// Schedules `suite` to be broken at `year`.
    pub fn set_break(&mut self, suite: SuiteId, year: SimYear) {
        self.breaks.insert(suite, year);
    }

    /// Returns the break year, if scheduled.
    pub fn break_year(&self, suite: SuiteId) -> Option<SimYear> {
        if suite.is_information_theoretic() {
            return None;
        }
        self.breaks.get(&suite).copied()
    }

    /// Returns `true` if `suite` is broken at (or before) `year`.
    pub fn is_broken(&self, suite: SuiteId, year: SimYear) -> bool {
        match self.break_year(suite) {
            Some(by) => year >= by,
            None => false,
        }
    }

    /// When a stack of `suites`, each layered over the next, falls —
    /// the one rule every caller asks. A stack stands while any of its
    /// layers stands, so it falls with the layer that falls last; a
    /// layer that never falls (an information-theoretic suite, or one
    /// with no forecast break) holds it up for good; and a stack with no
    /// suite guards nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use aeon_crypto::{BreakSchedule, StackFall, SuiteId};
    ///
    /// let schedule = BreakSchedule::pessimistic(); // AES 2045, ChaCha 2060
    /// let cascade = [SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305];
    /// let fall = schedule.stack_fall(&cascade);
    /// assert_eq!(fall, StackFall::At { year: 2060, last: SuiteId::ChaCha20Poly1305 });
    /// assert!(!fall.has_fallen(2059));
    /// assert!(schedule.stack_fall(&[]).has_fallen(0));
    /// ```
    pub fn stack_fall(&self, suites: &[SuiteId]) -> StackFall {
        suites
            .iter()
            .try_fold(StackFall::Unguarded, |fall, &suite| {
                let year = self.break_year(suite)?;
                Some(match fall {
                    StackFall::At { year: later, .. } if later > year => fall,
                    _ => StackFall::At { year, last: suite },
                })
            })
            .unwrap_or(StackFall::Never)
    }
}

/// When a stack of suites falls to a [`BreakSchedule`]
/// ([`BreakSchedule::stack_fall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackFall {
    /// No suite: the bytes were never guarded, so the stack has fallen
    /// in every year.
    Unguarded,
    /// Every layer has a forecast break: the stack falls in `year`, with
    /// `last`, the layer that falls last (of layers falling together,
    /// the outermost).
    At {
        /// The year the last layer falls.
        year: SimYear,
        /// The layer that falls last.
        last: SuiteId,
    },
    /// Some layer never falls.
    Never,
}

impl StackFall {
    /// Returns `true` if the stack has fallen at (or before) `year`.
    pub fn has_fallen(self, year: SimYear) -> bool {
        match self {
            StackFall::Unguarded => true,
            StackFall::At { year: fall, .. } => year >= fall,
            StackFall::Never => false,
        }
    }
}

/// An instantiated AEAD suite (enum dispatch keeps the set closed and
/// serializable).
#[derive(Debug, Clone)]
pub enum SuiteCipher {
    /// AES-256-CTR + HMAC.
    Aes(Aes256CtrHmac),
    /// ChaCha20-Poly1305.
    ChaCha(ChaCha20Poly1305),
}

impl SuiteCipher {
    /// Seals plaintext under this suite.
    pub fn seal(&self, nonce: &[u8], aad: &[u8], pt: &[u8]) -> Vec<u8> {
        match self {
            SuiteCipher::Aes(a) => a.seal(nonce, aad, pt),
            SuiteCipher::ChaCha(c) => c.seal(nonce, aad, pt),
        }
    }

    /// Opens ciphertext under this suite.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on authentication failure.
    pub fn open(&self, nonce: &[u8], aad: &[u8], ct: &[u8]) -> Result<Vec<u8>, AuthError> {
        match self {
            SuiteCipher::Aes(a) => a.open(nonce, aad, ct),
            SuiteCipher::ChaCha(c) => c.open(nonce, aad, ct),
        }
    }

    /// Opens `buf` (ciphertext and trailing tag) under this suite in
    /// place: the tag is verified, truncated, then the rest decrypted —
    /// and on an error `buf` is left as it was.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on authentication failure.
    pub fn open_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        match self {
            SuiteCipher::Aes(a) => a.open_in_place(nonce, aad, buf),
            SuiteCipher::ChaCha(c) => c.open_in_place(nonce, aad, buf),
        }
    }

    /// The suite's identifier.
    pub fn id(&self) -> SuiteId {
        match self {
            SuiteCipher::Aes(_) => SuiteId::Aes256CtrHmac,
            SuiteCipher::ChaCha(_) => SuiteId::ChaCha20Poly1305,
        }
    }
}

/// Instantiates AEAD suites from 32-byte keys by suite id.
#[derive(Debug, Clone, Default)]
pub struct SuiteRegistry;

impl SuiteRegistry {
    /// Creates the registry.
    pub fn new() -> Self {
        SuiteRegistry
    }

    /// Instantiates the AEAD for `id` with `key`.
    ///
    /// Returns `None` for suites that are not plain AEADs (OTP, entropic),
    /// which have their own key-material lifecycles.
    pub fn instantiate(&self, id: SuiteId, key: &[u8; 32]) -> Option<SuiteCipher> {
        match id {
            SuiteId::Aes256CtrHmac => Some(SuiteCipher::Aes(Aes256CtrHmac::new(key))),
            SuiteId::ChaCha20Poly1305 => Some(SuiteCipher::ChaCha(ChaCha20Poly1305::new(key))),
            SuiteId::OneTimePad | SuiteId::Entropic => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_semantics() {
        let mut s = BreakSchedule::new();
        assert!(!s.is_broken(SuiteId::Aes256CtrHmac, 3000));
        s.set_break(SuiteId::Aes256CtrHmac, 2045);
        assert!(!s.is_broken(SuiteId::Aes256CtrHmac, 2044));
        assert!(s.is_broken(SuiteId::Aes256CtrHmac, 2045));
        assert!(s.is_broken(SuiteId::Aes256CtrHmac, 2100));
    }

    #[test]
    fn its_suites_never_break() {
        let mut s = BreakSchedule::new();
        s.set_break(SuiteId::OneTimePad, 2000); // ignored
        assert!(!s.is_broken(SuiteId::OneTimePad, 9999));
        assert_eq!(s.break_year(SuiteId::OneTimePad), None);
    }

    /// The stack rule on its five shapes, under the pessimistic
    /// schedule (AES 2045, ChaCha 2060).
    #[test]
    fn stack_fall_shapes() {
        use SuiteId::{Aes256CtrHmac as Aes, ChaCha20Poly1305 as ChaCha};
        let s = BreakSchedule::pessimistic();
        // No suite: fallen from the start.
        assert_eq!(s.stack_fall(&[]), StackFall::Unguarded);
        assert!(s.stack_fall(&[]).has_fallen(0));
        // One computational suite falls with its break.
        let one = s.stack_fall(&[Aes]);
        assert_eq!(
            one,
            StackFall::At {
                year: 2045,
                last: Aes
            }
        );
        assert!(!one.has_fallen(2044) && one.has_fallen(2045));
        // A cascade whose every layer breaks falls with its last layer,
        // in either order.
        for cascade in [[Aes, ChaCha], [ChaCha, Aes]] {
            let fall = s.stack_fall(&cascade);
            assert_eq!(
                fall,
                StackFall::At {
                    year: 2060,
                    last: ChaCha
                }
            );
            assert!(!fall.has_fallen(2059) && fall.has_fallen(2060));
        }
        // One layer with no forecast break holds the cascade up.
        let mut aes_only = BreakSchedule::new();
        aes_only.set_break(Aes, 2045);
        assert_eq!(aes_only.stack_fall(&[Aes, ChaCha]), StackFall::Never);
        assert!(!aes_only.stack_fall(&[Aes, ChaCha]).has_fallen(9999));
        // An information-theoretic suite never falls, scheduled or not.
        let mut its = BreakSchedule::pessimistic();
        its.set_break(SuiteId::OneTimePad, 2000);
        assert_eq!(its.stack_fall(&[SuiteId::OneTimePad]), StackFall::Never);
        assert_eq!(its.stack_fall(&[Aes, SuiteId::Entropic]), StackFall::Never);
    }

    #[test]
    fn registry_instantiates_and_roundtrips() {
        let reg = SuiteRegistry::new();
        for id in SuiteId::COMPUTATIONAL {
            let cipher = reg.instantiate(id, &[7u8; 32]).unwrap();
            assert_eq!(cipher.id(), id);
            let sealed = cipher.seal(&[0u8; 12], b"a", b"data");
            assert_eq!(cipher.open(&[0u8; 12], b"a", &sealed).unwrap(), b"data");
        }
        assert!(reg.instantiate(SuiteId::OneTimePad, &[0u8; 32]).is_none());
    }
}
