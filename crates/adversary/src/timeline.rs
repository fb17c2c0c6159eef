//! The simulated future: an integrated cryptanalytic timeline.

use aeon_crypto::{BreakSchedule, SuiteId};
use aeon_integrity::timestamp::SigBreakSchedule;

/// A unified timeline of cryptanalytic events: which encryption suites and
/// signature schemes fall in which simulated year.
///
/// # Examples
///
/// ```
/// use aeon_adversary::CryptanalyticTimeline;
/// use aeon_crypto::SuiteId;
///
/// let timeline = CryptanalyticTimeline::pessimistic_2045();
/// assert!(timeline.ciphers().is_broken(SuiteId::Aes256CtrHmac, 2050));
/// assert!(!timeline.ciphers().is_broken(SuiteId::Aes256CtrHmac, 2040));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CryptanalyticTimeline {
    ciphers: BreakSchedule,
    signatures: SigBreakSchedule,
}

impl CryptanalyticTimeline {
    /// A timeline where nothing is ever broken.
    pub fn optimistic() -> Self {
        Self::default()
    }

    /// The scenario used throughout the experiments: a cryptanalytically
    /// relevant quantum computer arrives ~2045 and takes AES-class
    /// ciphers and first-generation hash-based signature parameters;
    /// ChaCha-class ciphers fall to classical cryptanalysis in 2060.
    pub fn pessimistic_2045() -> Self {
        let mut signatures = SigBreakSchedule::new();
        signatures.set_break("wots-v1", 2045);
        CryptanalyticTimeline {
            ciphers: BreakSchedule::pessimistic(),
            signatures,
        }
    }

    /// Builder: schedule a cipher break.
    pub fn with_cipher_break(mut self, suite: SuiteId, year: u32) -> Self {
        self.ciphers.set_break(suite, year);
        self
    }

    /// Builder: schedule a signature-scheme break.
    pub fn with_signature_break(mut self, scheme: &str, year: u32) -> Self {
        self.signatures.set_break(scheme, year);
        self
    }

    /// The cipher break schedule.
    pub fn ciphers(&self) -> &BreakSchedule {
        &self.ciphers
    }

    /// The signature break schedule.
    pub fn signatures(&self) -> &SigBreakSchedule {
        &self.signatures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_never_breaks() {
        let t = CryptanalyticTimeline::optimistic();
        assert!(!t.ciphers().is_broken(SuiteId::Aes256CtrHmac, 9999));
        assert!(!t.signatures().is_broken("anything", 9999));
    }

    #[test]
    fn pessimistic_breaks_in_order() {
        let t = CryptanalyticTimeline::pessimistic_2045();
        assert!(t.ciphers().is_broken(SuiteId::Aes256CtrHmac, 2045));
        assert!(!t.ciphers().is_broken(SuiteId::ChaCha20Poly1305, 2045));
        assert!(t.ciphers().is_broken(SuiteId::ChaCha20Poly1305, 2060));
        assert!(t.signatures().is_broken("wots-v1", 2045));
    }

    #[test]
    fn builder_composes() {
        let t = CryptanalyticTimeline::optimistic()
            .with_cipher_break(SuiteId::ChaCha20Poly1305, 2100)
            .with_signature_break("sphincs-like", 2150);
        assert!(t.ciphers().is_broken(SuiteId::ChaCha20Poly1305, 2100));
        assert!(t.signatures().is_broken("sphincs-like", 2150));
        // OTP never breaks regardless of schedule entries.
        let t = t.with_cipher_break(SuiteId::OneTimePad, 2000);
        assert!(!t.ciphers().is_broken(SuiteId::OneTimePad, 3000));
    }
}
