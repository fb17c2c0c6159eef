//! Distributed master-key custody (HasDPSS-style DPSS key management).
//!
//! The paper's §4 points at key-management systems — HasDPSS in
//! particular — as the architectural template for secret-shared archives:
//! the *master key* itself is held as verifiable secret shares among a
//! board of trustees, refreshed proactively, with the public commitments
//! anchored on a ledger. The key is never materialized except
//! transiently, inside a quorum operation.
//!
//! [`TrusteeKeyring`] implements that lifecycle over the
//! [`aeon_secretshare::vss`] and
//! [`aeon_secretshare::vss_proactive`] protocols:
//!
//! * `establish` — deal the master key Pedersen-VSS among `n` trustees
//!   and publish the commitments to a ledger.
//! * `refresh` — a verifiable zero-delta round; corrupt deltas are
//!   rejected and attributed.
//! * `reshare` — move to a new board `(t', n')` (retirements, onboarding)
//!   without reconstructing.
//! * `with_master_key` — quorum reconstruction for the duration of one
//!   closure call.

use aeon_crypto::{CryptoRng, Sha256};
use aeon_integrity::ledger::Ledger;
use aeon_num::pedersen::Committer;
use aeon_num::{ModpGroup, U2048};
use aeon_secretshare::vss::{self, ScalarField, VssKind, VssShare};
use aeon_secretshare::vss_proactive::{self, RefreshDelta};
use aeon_secretshare::ShareError;

/// Errors from trustee-keyring operations.
#[derive(Debug)]
pub enum TrusteeError {
    /// Underlying secret-sharing failure.
    Share(ShareError),
    /// Fewer trustees responded than the threshold.
    QuorumUnavailable {
        /// Trustees that responded.
        responded: usize,
        /// Threshold needed.
        needed: usize,
    },
    /// A trustee's share failed commitment verification.
    BadTrusteeShare {
        /// The trustee's index.
        index: u64,
    },
}

impl core::fmt::Display for TrusteeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrusteeError::Share(e) => write!(f, "sharing: {e}"),
            TrusteeError::QuorumUnavailable { responded, needed } => {
                write!(f, "quorum unavailable: {responded} of {needed}")
            }
            TrusteeError::BadTrusteeShare { index } => {
                write!(f, "trustee {index} presented an invalid share")
            }
        }
    }
}

impl std::error::Error for TrusteeError {}

impl From<ShareError> for TrusteeError {
    fn from(e: ShareError) -> Self {
        TrusteeError::Share(e)
    }
}

/// A board of trustees jointly holding a master key as Pedersen-VSS
/// shares.
///
/// # Examples
///
/// ```
/// use aeon_core::trustees::TrusteeKeyring;
/// use aeon_crypto::ChaChaDrbg;
///
/// let mut rng = ChaChaDrbg::from_u64_seed(1);
/// let mut keyring = TrusteeKeyring::establish(&mut rng, b"master entropy", 2, 3)?;
/// keyring.refresh(&mut rng)?;
/// let digest = keyring.with_master_key(|key| key[0])?;
/// let _ = digest;
/// # Ok::<(), aeon_core::trustees::TrusteeError>(())
/// ```
#[derive(Debug)]
pub struct TrusteeKeyring {
    committer: Committer,
    threshold: usize,
    shares: Vec<VssShare>,
    commitments: Vec<aeon_num::pedersen::Commitment>,
    ledger: Ledger,
    epoch: u64,
}

impl TrusteeKeyring {
    /// Establishes the keyring: derives a master scalar from `entropy`,
    /// deals it `t`-of-`n` under Pedersen VSS, and anchors the
    /// commitments on the keyring's ledger.
    ///
    /// # Errors
    ///
    /// Propagates dealing parameter validation.
    pub fn establish<R: CryptoRng + ?Sized>(
        rng: &mut R,
        entropy: &[u8],
        threshold: usize,
        trustees: usize,
    ) -> Result<Self, TrusteeError> {
        let committer = Committer::new(ModpGroup::rfc3526_2048());
        let secret = committer.group().scalar_from_bytes(entropy);
        let dealing = vss::deal(
            rng,
            &committer,
            VssKind::Pedersen,
            &secret,
            threshold,
            trustees,
        )?;
        let mut ledger = Ledger::new(1);
        for c in &dealing.commitments {
            ledger.append(0, c.to_be_bytes());
        }
        Ok(TrusteeKeyring {
            committer,
            threshold,
            shares: dealing.shares,
            commitments: dealing.commitments,
            ledger,
            epoch: 0,
        })
    }

    /// Number of trustees.
    pub fn trustees(&self) -> usize {
        self.shares.len()
    }

    /// Reconstruction threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Completed refresh/reshare epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The commitment ledger (publicly verifiable).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Each trustee verifies its own share against the published
    /// commitments; returns the indices of trustees holding bad shares.
    pub fn audit(&self) -> Vec<u64> {
        self.shares
            .iter()
            .filter(|s| {
                !vss::verify_share(&self.committer, VssKind::Pedersen, &self.commitments, s)
            })
            .map(|s| s.index)
            .collect()
    }

    /// Runs one verifiable refresh epoch. Returns the dealers whose
    /// deltas were rejected.
    ///
    /// # Errors
    ///
    /// Propagates protocol failures.
    pub fn refresh<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Vec<(u64, &'static str)>, TrusteeError> {
        let deltas = vss_proactive::deal_refresh_round(
            rng,
            &self.committer,
            VssKind::Pedersen,
            &self.shares,
            self.threshold,
        )?;
        self.apply_refresh(&deltas)
    }

    /// Applies caller-supplied refresh deltas (used by adversary
    /// simulations to inject corrupt dealers).
    ///
    /// # Errors
    ///
    /// Propagates protocol failures.
    pub fn apply_refresh(
        &mut self,
        deltas: &[RefreshDelta],
    ) -> Result<Vec<(u64, &'static str)>, TrusteeError> {
        let refreshed =
            vss_proactive::apply_verified_refresh(&self.committer, &self.shares, deltas)?;
        // Homomorphically update the published commitments with each
        // accepted delta's commitments.
        let rejected_dealers: Vec<u64> = refreshed.rejected.iter().map(|(d, _)| *d).collect();
        for delta in deltas {
            if rejected_dealers.contains(&delta.dealer) {
                continue;
            }
            for (ours, theirs) in self.commitments.iter_mut().zip(&delta.dealing.commitments) {
                *ours = self.committer.add(ours, theirs);
            }
        }
        self.shares = refreshed.shares;
        self.epoch += 1;
        for c in &self.commitments {
            self.ledger.append(self.epoch as u32, c.to_be_bytes());
        }
        Ok(refreshed.rejected)
    }

    /// Reshares to a new board `(t', n')` without reconstructing the key:
    /// each current trustee sub-shares its share; the new board combines
    /// with Lagrange weights.
    ///
    /// # Errors
    ///
    /// Returns [`TrusteeError::QuorumUnavailable`] if fewer than `t`
    /// trustees participate.
    pub fn reshare<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
        new_threshold: usize,
        new_trustees: usize,
    ) -> Result<(), TrusteeError> {
        if self.shares.len() < self.threshold {
            return Err(TrusteeError::QuorumUnavailable {
                responded: self.shares.len(),
                needed: self.threshold,
            });
        }
        let field = ScalarField::new(self.committer.group());
        let contributors = &self.shares[..self.threshold];

        // λ_i for the old structure at 0.
        let indices: Vec<u64> = contributors.iter().map(|s| s.index).collect();
        let lambdas = field.lagrange_at_zero(&indices)?;

        // Each contributor deals its share value to the new board; new
        // share j = Σ_i λ_i · subshare_i(j). Blinding shares combine the
        // same way (Pedersen linearity); commitments are re-derived by a
        // fresh dealing of the combined polynomial — here we track shares
        // and re-publish combined commitments homomorphically.
        let mut new_shares: Vec<VssShare> = (1..=new_trustees as u64)
            .map(|i| VssShare {
                index: i,
                value: U2048::ZERO,
                blind: U2048::ZERO,
            })
            .collect();
        let mut combined_commitments: Option<Vec<aeon_num::pedersen::Commitment>> = None;
        for (contrib, lambda) in contributors.iter().zip(&lambdas) {
            let sub = vss::deal(
                rng,
                &self.committer,
                VssKind::Pedersen,
                &contrib.value,
                new_threshold,
                new_trustees,
            )?;
            for (ns, ss) in new_shares.iter_mut().zip(&sub.shares) {
                ns.value = field.add(&ns.value, &field.mul(lambda, &ss.value));
                ns.blind = field.add(&ns.blind, &field.mul(lambda, &ss.blind));
            }
            // Commitments scale as C^λ and multiply together.
            let scaled: Vec<aeon_num::pedersen::Commitment> = sub
                .commitments
                .iter()
                .map(|c| {
                    aeon_num::pedersen::Commitment(
                        self.committer.group().exp(&c.0, &lambda.to_be_bytes()),
                    )
                })
                .collect();
            combined_commitments = Some(match combined_commitments {
                None => scaled,
                Some(acc) => acc
                    .iter()
                    .zip(&scaled)
                    .map(|(a, b)| self.committer.add(a, b))
                    .collect(),
            });
        }
        self.shares = new_shares;
        self.commitments = combined_commitments.expect("at least one contributor");
        self.threshold = new_threshold;
        self.epoch += 1;
        for c in &self.commitments {
            self.ledger.append(self.epoch as u32, c.to_be_bytes());
        }
        Ok(())
    }

    /// Reconstructs the master key inside `f` only; the scalar is reduced
    /// to a 32-byte key by hashing. Trustee shares are verified against
    /// the published commitments first — a trustee presenting a bad share
    /// is identified, not silently folded in.
    ///
    /// # Errors
    ///
    /// Returns [`TrusteeError::BadTrusteeShare`] naming the first corrupt
    /// trustee, or quorum/reconstruction failures.
    pub fn with_master_key<T>(&self, f: impl FnOnce(&[u8; 32]) -> T) -> Result<T, TrusteeError> {
        if self.shares.len() < self.threshold {
            return Err(TrusteeError::QuorumUnavailable {
                responded: self.shares.len(),
                needed: self.threshold,
            });
        }
        for s in &self.shares[..self.threshold] {
            if !vss::verify_share(&self.committer, VssKind::Pedersen, &self.commitments, s) {
                return Err(TrusteeError::BadTrusteeShare { index: s.index });
            }
        }
        let scalar = vss::reconstruct(self.committer.group(), &self.shares, self.threshold)?;
        let key = Sha256::digest(&scalar.to_be_bytes());
        Ok(f(&key))
    }

    /// Adversary hook: corrupts trustee `index`'s share in place.
    pub fn corrupt_trustee_for_simulation(&mut self, index: u64) {
        if let Some(s) = self.shares.iter_mut().find(|s| s.index == index) {
            s.value = s.value.wrapping_add(&U2048::one());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(99)
    }

    #[test]
    fn establish_and_use() {
        let mut r = rng();
        let keyring = TrusteeKeyring::establish(&mut r, b"genesis entropy", 2, 3).unwrap();
        assert_eq!(keyring.trustees(), 3);
        assert!(keyring.audit().is_empty());
        let k1 = keyring.with_master_key(|k| *k).unwrap();
        let k2 = keyring.with_master_key(|k| *k).unwrap();
        assert_eq!(k1, k2, "reconstruction is deterministic");
    }

    #[test]
    fn refresh_preserves_key_and_updates_commitments() {
        let mut r = rng();
        let mut keyring = TrusteeKeyring::establish(&mut r, b"seed", 2, 3).unwrap();
        let before = keyring.with_master_key(|k| *k).unwrap();
        let old_share = keyring.shares[0].clone();
        let rejected = keyring.refresh(&mut r).unwrap();
        assert!(rejected.is_empty());
        assert_ne!(keyring.shares[0], old_share, "shares must change");
        assert!(keyring.audit().is_empty(), "commitments must track shares");
        let after = keyring.with_master_key(|k| *k).unwrap();
        assert_eq!(before, after);
        assert_eq!(keyring.epoch(), 1);
    }

    #[test]
    fn corrupt_refresh_dealer_rejected() {
        let mut r = rng();
        let mut keyring = TrusteeKeyring::establish(&mut r, b"seed", 2, 3).unwrap();
        let before = keyring.with_master_key(|k| *k).unwrap();
        let committer = Committer::new(ModpGroup::rfc3526_2048());
        let good =
            vss_proactive::deal_zero_delta(&mut r, &committer, VssKind::Pedersen, 1, 2, 3).unwrap();
        let bad = vss_proactive::corrupt_delta_for_simulation(
            &mut r,
            &committer,
            VssKind::Pedersen,
            2,
            999,
            2,
            3,
        );
        let rejected = keyring.apply_refresh(&[good, bad]).unwrap();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, 2);
        assert_eq!(keyring.with_master_key(|k| *k).unwrap(), before);
    }

    #[test]
    fn reshare_to_new_board() {
        let mut r = rng();
        let mut keyring = TrusteeKeyring::establish(&mut r, b"seed", 2, 3).unwrap();
        let before = keyring.with_master_key(|k| *k).unwrap();
        keyring.reshare(&mut r, 3, 5).unwrap();
        assert_eq!(keyring.trustees(), 5);
        assert_eq!(keyring.threshold(), 3);
        assert!(
            keyring.audit().is_empty(),
            "new commitments track new shares"
        );
        assert_eq!(keyring.with_master_key(|k| *k).unwrap(), before);
    }

    #[test]
    fn corrupt_trustee_detected_at_use() {
        let mut r = rng();
        let mut keyring = TrusteeKeyring::establish(&mut r, b"seed", 2, 3).unwrap();
        keyring.corrupt_trustee_for_simulation(1);
        assert_eq!(keyring.audit(), vec![1]);
        match keyring.with_master_key(|k| *k) {
            Err(TrusteeError::BadTrusteeShare { index: 1 }) => {}
            other => panic!("expected BadTrusteeShare(1), got {other:?}"),
        }
    }

    #[test]
    fn ledger_grows_with_epochs() {
        let mut r = rng();
        let mut keyring = TrusteeKeyring::establish(&mut r, b"seed", 2, 3).unwrap();
        let initial = keyring.ledger().len();
        keyring.refresh(&mut r).unwrap();
        keyring.refresh(&mut r).unwrap();
        assert_eq!(keyring.ledger().len(), initial + 2 * 2); // t commitments per epoch
        assert!(keyring.ledger().verify().is_ok());
    }
}
