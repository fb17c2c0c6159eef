//! Proactive secret sharing: share refresh and share redistribution.
//!
//! A mobile adversary (Ostrovsky–Yung) corrupts up to `b` shareholders per
//! epoch, moving between epochs. Given enough epochs it will eventually
//! have touched `t` shareholders — unless the shares it stole in earlier
//! epochs have been made useless. *Proactive refresh* (Herzberg et al.)
//! does exactly that: each epoch, shareholders jointly add a random
//! sharing of zero, re-randomizing every share while preserving the
//! secret. Stolen old shares no longer combine with current ones.
//!
//! *Share redistribution* (after Wong–Wang–Wing) goes further and moves
//! the secret to a fresh access structure `(t', n')` — new shareholders,
//! new threshold — without ever reconstructing it. This is the mechanism
//! archives need when storage providers are added, removed, or
//! decommissioned over decades. Unlike Wong–Wang–Wing's protocol, both
//! rounds here assume honest participants and verify nothing: a
//! shareholder that sends a bad sub-share corrupts the secret unnoticed.
//! The verifiable refresh is [`vss_proactive`](crate::vss_proactive),
//! over VSS scalar shares.
//!
//! Both protocols here operate on the byte-parallel GF(2^8)
//! [`shamir::Share`]s used for bulk data, and both report exact
//! communication costs so the experiments can compare refresh traffic
//! against re-encryption I/O (experiment E6).

use crate::shamir::{self, Share};
use crate::ShareError;
use aeon_crypto::CryptoRng;
use aeon_gf::poly::lagrange_coefficients;
use aeon_gf::slice;
use aeon_gf::Gf256;

/// Communication cost accounting for a refresh or redistribution round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCost {
    /// Point-to-point messages exchanged.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
}

impl ProtocolCost {
    /// Accumulates another cost.
    pub fn add(&mut self, other: ProtocolCost) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Refreshes a full share set in place (Herzberg round with an honest
/// dealer per shareholder).
///
/// Every shareholder `i` samples a random degree-`t-1` polynomial
/// `δ_i` with `δ_i(0) = 0` and sends `δ_i(j)` to shareholder `j`; each
/// shareholder adds all received deltas to its share. The secret is
/// unchanged (all deltas vanish at 0) but the share vector is freshly
/// re-randomized.
///
/// Returns the communication cost: `n × (n - 1)` messages of share-sized
/// payloads (self-deliveries are local).
///
/// # Errors
///
/// Returns [`ShareError::InvalidParameters`] or
/// [`ShareError::InconsistentShares`] on malformed input.
pub fn refresh<R: CryptoRng + ?Sized>(
    rng: &mut R,
    shares: &mut [Share],
    threshold: usize,
) -> Result<ProtocolCost, ShareError> {
    let n = shares.len();
    if threshold == 0 || threshold > n {
        return Err(ShareError::InvalidParameters {
            threshold,
            shares: n,
            reason: "require 1 <= t <= n",
        });
    }
    let len = shares[0].data.len();
    if shares.iter().any(|s| s.data.len() != len) {
        return Err(ShareError::InconsistentShares("ragged share lengths"));
    }

    // Each shareholder deals a zero-rooted delta polynomial. We exploit
    // byte-parallelism: coefficients c_1..c_{t-1} are byte vectors;
    // δ(x) = c_1 x + ... + c_{t-1} x^{t-1}.
    for _dealer in 0..n {
        let mut coeffs: Vec<Vec<u8>> = Vec::with_capacity(threshold.saturating_sub(1));
        for _ in 1..threshold {
            let mut c = vec![0u8; len];
            rng.fill_bytes(&mut c);
            coeffs.push(c);
        }
        for share in shares.iter_mut() {
            let x = Gf256::new(share.index);
            // δ(x) applied as one fused row pass per share.
            let mut rows: Vec<(Gf256, &[u8])> = Vec::with_capacity(coeffs.len());
            let mut x_pow = x;
            for c in &coeffs {
                rows.push((x_pow, c.as_slice()));
                x_pow *= x;
            }
            slice::mul_add_rows(&mut share.data, &rows);
        }
    }
    Ok(ProtocolCost {
        messages: (n * (n - 1)) as u64,
        bytes: (n * (n - 1) * len) as u64,
    })
}

/// Result of a redistribution: the new share set and the protocol cost.
#[derive(Debug, Clone)]
pub struct Redistribution {
    /// Shares under the new `(t', n')` access structure.
    pub shares: Vec<Share>,
    /// Communication cost of the round.
    pub cost: ProtocolCost,
}

/// Redistributes a secret from `(t, n)` shares to a fresh `(t', n')`
/// access structure without reconstructing it (Wong-style redistribution
/// among honest participants: no sub-share is checked).
///
/// Each of the first `t` old shareholders sub-shares its share under the
/// new parameters; new shareholder `j` combines the received sub-shares
/// with the old-structure Lagrange coefficients. Old shares become
/// useless: they are shares of a polynomial that no longer exists.
///
/// # Errors
///
/// Returns [`ShareError::TooFewShares`] if fewer than `t` old shares are
/// given, and [`ShareError::InvalidParameters`] for bad new parameters.
pub fn redistribute<R: CryptoRng + ?Sized>(
    rng: &mut R,
    old_shares: &[Share],
    old_threshold: usize,
    new_threshold: usize,
    new_count: usize,
) -> Result<Redistribution, ShareError> {
    if old_shares.len() < old_threshold {
        return Err(ShareError::TooFewShares {
            provided: old_shares.len(),
            required: old_threshold,
        });
    }
    let contributors = &old_shares[..old_threshold];
    let len = contributors[0].data.len();
    if contributors.iter().any(|s| s.data.len() != len) {
        return Err(ShareError::InconsistentShares("ragged share lengths"));
    }

    // Lagrange coefficients of the old structure at x = 0.
    let xs: Vec<Gf256> = contributors.iter().map(|s| Gf256::new(s.index)).collect();
    let lambda = lagrange_coefficients(&xs, Gf256::ZERO)
        .map_err(|_| ShareError::InconsistentShares("duplicate share index"))?;

    // Each contributor sub-shares its share under (t', n').
    let mut new_shares: Vec<Share> = (1..=new_count as u8)
        .map(|j| Share {
            index: j,
            data: vec![0u8; len],
        })
        .collect();
    let mut cost = ProtocolCost::default();
    // Deal every contributor's sub-shares first (same RNG draw order as
    // the per-contributor accumulation this replaces), then combine them
    // per new share in one fused Lagrange pass.
    let mut all_subshares: Vec<Vec<Share>> = Vec::with_capacity(contributors.len());
    for contrib in contributors {
        all_subshares.push(shamir::split(rng, &contrib.data, new_threshold, new_count)?);
        cost.messages += new_count as u64;
        cost.bytes += (new_count * len) as u64;
    }
    for (j, new_share) in new_shares.iter_mut().enumerate() {
        // new_share = Σ_i λ_i · subshare_i(j)
        let rows: Vec<(Gf256, &[u8])> = lambda
            .iter()
            .zip(&all_subshares)
            .map(|(&lam, subs)| (lam, subs[j].data.as_slice()))
            .collect();
        slice::mul_add_rows(&mut new_share.data, &rows);
    }
    Ok(Redistribution {
        shares: new_shares,
        cost,
    })
}

/// A long-lived proactively-secured secret: shares plus epoch bookkeeping.
///
/// # Examples
///
/// ```
/// use aeon_secretshare::proactive::ProactiveSecret;
/// use aeon_crypto::ChaChaDrbg;
///
/// let mut rng = ChaChaDrbg::from_u64_seed(5);
/// let mut ps = ProactiveSecret::share(&mut rng, b"master key", 3, 5)?;
/// ps.refresh_epoch(&mut rng)?;
/// ps.refresh_epoch(&mut rng)?;
/// assert_eq!(ps.epoch(), 2);
/// assert_eq!(ps.reconstruct()?, b"master key");
/// # Ok::<(), aeon_secretshare::ShareError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProactiveSecret {
    shares: Vec<Share>,
    threshold: usize,
    epoch: u64,
    total_cost: ProtocolCost,
}

impl ProactiveSecret {
    /// Shares a secret `t`-of-`n` at epoch 0.
    ///
    /// # Errors
    ///
    /// Propagates [`shamir::split`] validation errors.
    pub fn share<R: CryptoRng + ?Sized>(
        rng: &mut R,
        secret: &[u8],
        threshold: usize,
        count: usize,
    ) -> Result<Self, ShareError> {
        Ok(ProactiveSecret {
            shares: shamir::split(rng, secret, threshold, count)?,
            threshold,
            epoch: 0,
            total_cost: ProtocolCost::default(),
        })
    }

    /// Current epoch number (refreshes completed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reconstruction threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Current shares (for distribution to simulated nodes).
    pub fn shares(&self) -> &[Share] {
        &self.shares
    }

    /// Accumulated protocol communication cost.
    pub fn total_cost(&self) -> ProtocolCost {
        self.total_cost
    }

    /// Runs one refresh epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`refresh`] errors.
    pub fn refresh_epoch<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<ProtocolCost, ShareError> {
        let cost = refresh(rng, &mut self.shares, self.threshold)?;
        self.epoch += 1;
        self.total_cost.add(cost);
        Ok(cost)
    }

    /// Redistributes to a new access structure, advancing the epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`redistribute`] errors.
    pub fn redistribute_epoch<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
        new_threshold: usize,
        new_count: usize,
    ) -> Result<ProtocolCost, ShareError> {
        let redist = redistribute(rng, &self.shares, self.threshold, new_threshold, new_count)?;
        self.shares = redist.shares;
        self.threshold = new_threshold;
        self.epoch += 1;
        self.total_cost.add(redist.cost);
        Ok(redist.cost)
    }

    /// Reconstructs the secret from the current shares.
    ///
    /// # Errors
    ///
    /// Propagates [`shamir::reconstruct`] errors.
    pub fn reconstruct(&self) -> Result<Vec<u8>, ShareError> {
        shamir::reconstruct(&self.shares, self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(123)
    }

    #[test]
    fn refresh_preserves_secret() {
        let mut r = rng();
        let mut shares = shamir::split(&mut r, b"persistent", 3, 5).unwrap();
        let before: Vec<Vec<u8>> = shares.iter().map(|s| s.data.clone()).collect();
        let cost = refresh(&mut r, &mut shares, 3).unwrap();
        let after: Vec<Vec<u8>> = shares.iter().map(|s| s.data.clone()).collect();
        assert_ne!(before, after, "shares must change");
        assert_eq!(shamir::reconstruct(&shares, 3).unwrap(), b"persistent");
        assert_eq!(cost.messages, 20); // 5 × 4
        assert_eq!(cost.bytes, 20 * 10);
    }

    #[test]
    fn stale_shares_useless_after_refresh() {
        // A mobile adversary stole t-1 shares before refresh and steals
        // one more after: the mix must NOT reconstruct the secret.
        let mut r = rng();
        let mut shares = shamir::split(&mut r, b"mobile adversary", 3, 5).unwrap();
        let stolen_old = [shares[0].clone(), shares[1].clone()];
        refresh(&mut r, &mut shares, 3).unwrap();
        let stolen_new = shares[2].clone();
        let mix = vec![stolen_old[0].clone(), stolen_old[1].clone(), stolen_new];
        let rec = shamir::reconstruct(&mix, 3).unwrap();
        assert_ne!(rec, b"mobile adversary");
        // While the full current set still works.
        assert_eq!(
            shamir::reconstruct(&shares, 3).unwrap(),
            b"mobile adversary"
        );
    }

    #[test]
    fn multiple_refresh_rounds() {
        let mut r = rng();
        let mut shares = shamir::split(&mut r, b"many rounds", 2, 4).unwrap();
        for _ in 0..10 {
            refresh(&mut r, &mut shares, 2).unwrap();
        }
        assert_eq!(shamir::reconstruct(&shares, 2).unwrap(), b"many rounds");
    }

    #[test]
    fn refresh_with_t1_is_noop_on_data() {
        // t = 1: delta polynomials have no free coefficients, so shares
        // stay identical (each share IS the secret).
        let mut r = rng();
        let mut shares = shamir::split(&mut r, b"t=1", 1, 3).unwrap();
        let before: Vec<Vec<u8>> = shares.iter().map(|s| s.data.clone()).collect();
        refresh(&mut r, &mut shares, 1).unwrap();
        let after: Vec<Vec<u8>> = shares.iter().map(|s| s.data.clone()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn redistribute_same_structure() {
        let mut r = rng();
        let shares = shamir::split(&mut r, b"move me", 2, 4).unwrap();
        let redist = redistribute(&mut r, &shares, 2, 2, 4).unwrap();
        assert_eq!(redist.shares.len(), 4);
        assert_eq!(shamir::reconstruct(&redist.shares, 2).unwrap(), b"move me");
    }

    #[test]
    fn redistribute_grow_and_shrink() {
        let mut r = rng();
        let shares = shamir::split(&mut r, b"elastic", 2, 3).unwrap();
        // Grow to 4-of-7.
        let grown = redistribute(&mut r, &shares, 2, 4, 7).unwrap();
        assert_eq!(shamir::reconstruct(&grown.shares, 4).unwrap(), b"elastic");
        // Shrink back to 2-of-3.
        let shrunk = redistribute(&mut r, &grown.shares, 4, 2, 3).unwrap();
        assert_eq!(shamir::reconstruct(&shrunk.shares, 2).unwrap(), b"elastic");
    }

    #[test]
    fn old_shares_dead_after_redistribution() {
        let mut r = rng();
        let old = shamir::split(&mut r, b"retired", 2, 4).unwrap();
        let redist = redistribute(&mut r, &old, 2, 2, 4).unwrap();
        // Mixing one old and one new share fails to produce the secret.
        let mix = vec![old[0].clone(), redist.shares[1].clone()];
        assert_ne!(shamir::reconstruct(&mix, 2).unwrap(), b"retired");
    }

    #[test]
    fn redistribution_cost_accounting() {
        let mut r = rng();
        let shares = shamir::split(&mut r, &[0u8; 100], 3, 5).unwrap();
        let redist = redistribute(&mut r, &shares, 3, 3, 5).unwrap();
        // 3 contributors × 5 sub-shares each.
        assert_eq!(redist.cost.messages, 15);
        assert_eq!(redist.cost.bytes, 15 * 100);
    }

    #[test]
    fn proactive_secret_lifecycle() {
        let mut r = rng();
        let mut ps = ProactiveSecret::share(&mut r, b"lifecycle", 2, 4).unwrap();
        assert_eq!(ps.epoch(), 0);
        ps.refresh_epoch(&mut r).unwrap();
        ps.redistribute_epoch(&mut r, 3, 6).unwrap();
        ps.refresh_epoch(&mut r).unwrap();
        assert_eq!(ps.epoch(), 3);
        assert_eq!(ps.threshold(), 3);
        assert_eq!(ps.shares().len(), 6);
        assert_eq!(ps.reconstruct().unwrap(), b"lifecycle");
        assert!(ps.total_cost().messages > 0);
    }

    #[test]
    fn errors() {
        let mut r = rng();
        let mut shares = shamir::split(&mut r, b"x", 2, 3).unwrap();
        assert!(refresh(&mut r, &mut shares, 0).is_err());
        assert!(refresh(&mut r, &mut shares, 4).is_err());
        assert!(redistribute(&mut r, &shares[..1], 2, 2, 3).is_err());
    }
}
