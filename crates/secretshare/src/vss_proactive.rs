//! Verifiable proactive refresh for VSS scalar shares.
//!
//! §3.3 of the paper: "a corrupt shareholder that distributes invalid new
//! shares can compromise the integrity of the secret. Verifiable secret
//! sharing protects against this threat, and is often included by default
//! as a sub-protocol of proactive secret sharing."
//!
//! This module is that sub-protocol. Each refresh round, every
//! shareholder deals a *zero-rooted* delta polynomial with public
//! commitments; receivers check two things before applying a delta:
//!
//! 1. **Zero-rootedness** — the constant-term commitment must open to
//!    zero (`g^0` for Feldman; `g^0 h^{b_0}` for Pedersen, with `b_0`
//!    broadcast), or the delta would *change the secret*.
//! 2. **Share consistency** — the received delta share must match the
//!    committed polynomial at the receiver's index, or the dealer is
//!    corrupting reconstruction.
//!
//! Deltas failing either check are rejected and attributed; honest
//! shareholders apply only verified deltas, so a corrupt minority cannot
//! destroy the secret — it can at worst refuse to contribute randomness.

use crate::vss::{self, ScalarField, VssDealing, VssKind, VssShare};
use crate::ShareError;
use aeon_crypto::CryptoRng;
use aeon_num::pedersen::Committer;
use aeon_num::U2048;

/// One shareholder's refresh contribution: a zero-rooted dealing.
#[derive(Debug, Clone)]
pub struct RefreshDelta {
    /// The dealer's shareholder index (for attribution).
    pub dealer: u64,
    /// The zero-rooted dealing (commitments + delta shares).
    pub dealing: VssDealing,
    /// Pedersen only: the broadcast blinding of the constant term, proving
    /// the constant term is zero.
    pub zero_blinding: Option<U2048>,
}

/// Outcome of a verifiable refresh round.
#[derive(Debug, Clone)]
pub struct VerifiedRefresh {
    /// The refreshed shares (same indices, new values).
    pub shares: Vec<VssShare>,
    /// Dealers whose deltas were rejected, with the reason.
    pub rejected: Vec<(u64, &'static str)>,
}

/// Deals a zero-rooted delta for a refresh round.
///
/// # Errors
///
/// Propagates [`vss::deal`] parameter validation.
pub fn deal_zero_delta<R: CryptoRng + ?Sized>(
    rng: &mut R,
    committer: &Committer,
    kind: VssKind,
    dealer: u64,
    threshold: usize,
    shares: usize,
) -> Result<RefreshDelta, ShareError> {
    // For Pedersen, the dealer broadcasts b_0 so everyone can check
    // C_0 = g^0 h^{b_0}; it drew b_0 itself.
    let (dealing, b0) =
        vss::deal_with_blinding(rng, committer, kind, &U2048::ZERO, threshold, shares)?;
    let zero_blinding = match kind {
        VssKind::Pedersen => Some(b0),
        VssKind::Feldman => None,
    };
    Ok(RefreshDelta {
        dealer,
        dealing,
        zero_blinding,
    })
}

/// Verifies that a delta is zero-rooted (cannot change the secret).
pub fn verify_zero_rooted(committer: &Committer, delta: &RefreshDelta) -> bool {
    let Some(c0) = delta.dealing.commitments.first() else {
        return false;
    };
    match delta.dealing.kind {
        VssKind::Feldman => {
            // C_0 must be g^0 = 1.
            let identity = committer.group().exp_generator(&[0]);
            c0.0 == identity
        }
        VssKind::Pedersen => {
            let Some(b0) = &delta.zero_blinding else {
                return false;
            };
            // C_0 must equal g^0 h^{b0} = h^{b0}.
            let expect = committer.commit_scalars(&U2048::ZERO, b0);
            *c0 == expect
        }
    }
}

/// Applies a set of refresh deltas to shares, verifying each delta's
/// zero-rootedness and per-share consistency. Invalid deltas are rejected
/// (and reported), not applied.
///
/// # Errors
///
/// Returns [`ShareError::InconsistentShares`] if delta share counts do
/// not line up with the share vector.
pub fn apply_verified_refresh(
    committer: &Committer,
    shares: &[VssShare],
    deltas: &[RefreshDelta],
) -> Result<VerifiedRefresh, ShareError> {
    let field = ScalarField::new(committer.group());
    let mut out: Vec<VssShare> = shares.to_vec();
    let mut rejected = Vec::new();
    for delta in deltas {
        if delta.dealing.shares.len() != shares.len() {
            return Err(ShareError::InconsistentShares("delta share count mismatch"));
        }
        if !verify_zero_rooted(committer, delta) {
            rejected.push((delta.dealer, "not zero-rooted"));
            continue;
        }
        // Every shareholder checks its own delta share against the
        // commitments.
        let all_consistent = delta.dealing.shares.iter().all(|ds| {
            vss::verify_share(
                committer,
                delta.dealing.kind,
                &delta.dealing.commitments,
                ds,
            )
        });
        if !all_consistent {
            rejected.push((delta.dealer, "inconsistent delta share"));
            continue;
        }
        for (share, ds) in out.iter_mut().zip(&delta.dealing.shares) {
            debug_assert_eq!(share.index, ds.index);
            share.value = field.add(&share.value, &ds.value);
            share.blind = field.add(&share.blind, &ds.blind);
        }
    }
    Ok(VerifiedRefresh {
        shares: out,
        rejected,
    })
}

/// Deals one refresh round: every shareholder in `shares` deals a
/// zero-rooted delta, in share order. Verify and apply them with
/// [`apply_verified_refresh`].
///
/// # Errors
///
/// Propagates dealing parameter validation.
pub fn deal_refresh_round<R: CryptoRng + ?Sized>(
    rng: &mut R,
    committer: &Committer,
    kind: VssKind,
    shares: &[VssShare],
    threshold: usize,
) -> Result<Vec<RefreshDelta>, ShareError> {
    (shares.iter())
        .map(|s| deal_zero_delta(rng, committer, kind, s.index, threshold, shares.len()))
        .collect()
}

/// Corrupts a delta for adversary simulations: makes the dealing hide a
/// *nonzero* constant (which would shift the secret by `shift` if
/// applied). Verification must catch this.
pub fn corrupt_delta_for_simulation<R: CryptoRng + ?Sized>(
    rng: &mut R,
    committer: &Committer,
    kind: VssKind,
    dealer: u64,
    shift: u64,
    threshold: usize,
    shares: usize,
) -> RefreshDelta {
    let dealing = vss::deal(
        rng,
        committer,
        kind,
        &U2048::from_u64(shift),
        threshold,
        shares,
    )
    .expect("valid parameters");
    // The corrupt dealer lies about the zero blinding: it broadcasts the
    // true b(0), but the commitment opens to `shift`, not zero.
    let zero_blinding = match kind {
        VssKind::Pedersen => Some(U2048::from_u64(12345)), // arbitrary lie
        VssKind::Feldman => None,
    };
    RefreshDelta {
        dealer,
        dealing,
        zero_blinding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;
    use aeon_num::ModpGroup;

    fn setup() -> (Committer, ChaChaDrbg) {
        (
            Committer::new(ModpGroup::rfc3526_2048()),
            ChaChaDrbg::from_u64_seed(515),
        )
    }

    /// One dealt and applied refresh round.
    fn refresh_round(
        rng: &mut ChaChaDrbg,
        committer: &Committer,
        kind: VssKind,
        shares: &[VssShare],
        threshold: usize,
    ) -> VerifiedRefresh {
        let deltas = deal_refresh_round(rng, committer, kind, shares, threshold).unwrap();
        apply_verified_refresh(committer, shares, &deltas).unwrap()
    }

    #[test]
    fn feldman_verifiable_refresh_preserves_secret() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(0xC0FFEE);
        let dealing = vss::deal(&mut rng, &committer, VssKind::Feldman, &secret, 2, 3).unwrap();
        let refreshed = refresh_round(&mut rng, &committer, VssKind::Feldman, &dealing.shares, 2);
        assert!(refreshed.rejected.is_empty());
        // Shares changed...
        assert_ne!(refreshed.shares[0].value, dealing.shares[0].value);
        // ...secret did not.
        let rec = vss::reconstruct(committer.group(), &refreshed.shares[..2], 2).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn pedersen_verifiable_refresh_preserves_secret() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(777);
        let dealing = vss::deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 3).unwrap();
        let refreshed = refresh_round(&mut rng, &committer, VssKind::Pedersen, &dealing.shares, 2);
        assert!(refreshed.rejected.is_empty());
        let rec = vss::reconstruct(committer.group(), &refreshed.shares[1..3], 2).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn corrupt_delta_rejected_and_secret_unharmed() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(42);
        let dealing = vss::deal(&mut rng, &committer, VssKind::Feldman, &secret, 2, 3).unwrap();

        // Two honest deltas, one corrupt (would shift the secret by 999).
        let d1 = deal_zero_delta(&mut rng, &committer, VssKind::Feldman, 1, 2, 3).unwrap();
        let d2 = deal_zero_delta(&mut rng, &committer, VssKind::Feldman, 2, 2, 3).unwrap();
        let bad =
            corrupt_delta_for_simulation(&mut rng, &committer, VssKind::Feldman, 3, 999, 2, 3);
        let refreshed =
            apply_verified_refresh(&committer, &dealing.shares, &[d1, d2, bad]).unwrap();
        assert_eq!(refreshed.rejected, vec![(3, "not zero-rooted")]);
        let rec = vss::reconstruct(committer.group(), &refreshed.shares[..2], 2).unwrap();
        assert_eq!(rec, secret, "corrupt delta must not shift the secret");
    }

    #[test]
    fn corrupt_pedersen_delta_rejected() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(7);
        let dealing = vss::deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 3).unwrap();
        let bad = corrupt_delta_for_simulation(&mut rng, &committer, VssKind::Pedersen, 1, 5, 2, 3);
        let refreshed = apply_verified_refresh(&committer, &dealing.shares, &[bad]).unwrap();
        assert_eq!(refreshed.rejected.len(), 1);
        let rec = vss::reconstruct(committer.group(), &refreshed.shares[..2], 2).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn unapplied_refresh_without_deltas_is_identity() {
        let (committer, mut rng) = setup();
        let dealing = vss::deal(
            &mut rng,
            &committer,
            VssKind::Feldman,
            &U2048::from_u64(1),
            2,
            3,
        )
        .unwrap();
        let refreshed = apply_verified_refresh(&committer, &dealing.shares, &[]).unwrap();
        assert_eq!(refreshed.shares, dealing.shares);
    }

    #[test]
    fn stale_shares_dead_after_verified_refresh() {
        // The mobile-adversary property, now with verification: old
        // shares + new shares do not mix.
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(31337);
        let dealing = vss::deal(&mut rng, &committer, VssKind::Feldman, &secret, 2, 3).unwrap();
        let stolen_old = dealing.shares[0].clone();
        let refreshed = refresh_round(&mut rng, &committer, VssKind::Feldman, &dealing.shares, 2);
        let mix = vec![stolen_old, refreshed.shares[1].clone()];
        let rec = vss::reconstruct(committer.group(), &mix, 2).unwrap();
        assert_ne!(rec, secret);
    }
}
