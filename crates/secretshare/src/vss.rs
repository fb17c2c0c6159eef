//! Verifiable secret sharing: Feldman and Pedersen schemes.
//!
//! Plain Shamir sharing trusts the dealer and the shareholders: a corrupt
//! dealer can hand out inconsistent shares, and during proactive refresh a
//! corrupt shareholder can inject deltas that silently destroy the secret.
//! VSS fixes this by publishing commitments to the sharing polynomial's
//! coefficients; every shareholder checks its own share against them.
//!
//! * **Feldman VSS** commits with `C_j = g^{a_j}`. Verification is exact,
//!   but the commitments leak `g^{secret}` — only *computationally*
//!   hiding, which is precisely the long-term weakness the paper warns
//!   about.
//! * **Pedersen VSS** commits with `C_j = g^{a_j} h^{b_j}` using a
//!   companion random polynomial `b`. The commitments are
//!   *information-theoretically hiding*, so publishing them costs no
//!   long-term confidentiality (the property LINCOS exploits); binding is
//!   computational, which only needs to hold at dealing time.
//!
//! Secrets here are group scalars (up to ~2048 bits) — in the archive
//! stack VSS protects object *keys* and key shares, while bulk data uses
//! the byte-parallel [`shamir`](crate::shamir) scheme.

use crate::ShareError;
use aeon_crypto::CryptoRng;
use aeon_num::pedersen::{Commitment, Committer};
use aeon_num::{GroupElement, ModpGroup, MontCtx, U2048};

/// A scalar share of a VSS dealing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VssShare {
    /// 1-based shareholder index (evaluation point).
    pub index: u64,
    /// `f(index)` — the share of the secret polynomial.
    pub value: U2048,
    /// `b(index)` — the share of the blinding polynomial (Pedersen only;
    /// zero for Feldman shares).
    pub blind: U2048,
}

/// Which commitment flavor a dealing used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VssKind {
    /// Feldman: `C_j = g^{a_j}` (computationally hiding).
    Feldman,
    /// Pedersen: `C_j = g^{a_j} h^{b_j}` (information-theoretically hiding).
    Pedersen,
}

/// A complete VSS dealing: shares plus public commitments.
#[derive(Debug, Clone)]
pub struct VssDealing {
    /// The scheme used.
    pub kind: VssKind,
    /// Reconstruction threshold `t`.
    pub threshold: usize,
    /// Per-coefficient commitments `C_0 … C_{t-1}`.
    pub commitments: Vec<Commitment>,
    /// The issued shares (distribute one per shareholder; do not store
    /// together in production).
    pub shares: Vec<VssShare>,
}

/// Scalar-field helper bound to the subgroup order `q`.
#[derive(Debug, Clone)]
pub struct ScalarField {
    ctx: MontCtx<32>,
    q: U2048,
}

impl ScalarField {
    /// Creates the scalar field for a group.
    pub fn new(group: &ModpGroup) -> Self {
        let q = *group.subgroup_order();
        ScalarField {
            ctx: MontCtx::new(q),
            q,
        }
    }

    /// The field order `q`.
    pub fn order(&self) -> &U2048 {
        &self.q
    }

    /// Addition mod `q`.
    pub fn add(&self, a: &U2048, b: &U2048) -> U2048 {
        a.add_mod(b, &self.q)
    }

    /// Subtraction mod `q`.
    pub fn sub(&self, a: &U2048, b: &U2048) -> U2048 {
        a.sub_mod(b, &self.q)
    }

    /// Multiplication mod `q`.
    pub fn mul(&self, a: &U2048, b: &U2048) -> U2048 {
        self.ctx.mul(a, b)
    }

    /// Inversion mod `q` (Fermat; `q` is prime).
    ///
    /// # Panics
    ///
    /// Panics on zero input.
    pub fn invert(&self, a: &U2048) -> U2048 {
        assert!(!a.is_zero(), "cannot invert zero scalar");
        let q_minus_2 = self.q.wrapping_sub(&U2048::from_u64(2));
        self.ctx.pow(a, &q_minus_2)
    }

    /// Evaluates a polynomial (coefficients low-to-high) at `x` mod `q`.
    pub fn poly_eval(&self, coeffs: &[U2048], x: &U2048) -> U2048 {
        let mut acc = U2048::ZERO;
        for c in coeffs.iter().rev() {
            acc = self.add(&self.mul(&acc, x), c);
        }
        acc
    }

    /// The Lagrange weights at zero for the evaluation points `xs`:
    /// `λ_i = Π_{j≠i} x_j / (x_j − x_i)` mod `q`, so `Σ λ_i·f(x_i) = f(0)`
    /// for every `f` of degree below `xs.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`ShareError::InconsistentShares`] for a zero or repeated
    /// point (a zero difference has no inverse).
    pub fn lagrange_at_zero(&self, xs: &[u64]) -> Result<Vec<U2048>, ShareError> {
        let mut seen = std::collections::HashSet::new();
        if xs.iter().any(|&x| x == 0 || !seen.insert(x)) {
            return Err(ShareError::InconsistentShares(
                "duplicate or reserved share index",
            ));
        }
        let weights = xs.iter().enumerate().map(|(i, &xi)| {
            let xi = U2048::from_u64(xi);
            let mut num = U2048::one();
            let mut den = U2048::one();
            for (j, &xj) in xs.iter().enumerate() {
                if i == j {
                    continue;
                }
                let xj = U2048::from_u64(xj);
                num = self.mul(&num, &xj);
                den = self.mul(&den, &self.sub(&xj, &xi));
            }
            self.mul(&num, &self.invert(&den))
        });
        Ok(weights.collect())
    }

    /// Draws a uniform scalar below `q`.
    pub fn random<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> U2048 {
        // 2048 random bits reduced mod q: bias is 2^-1024, negligible.
        let bytes = aeon_crypto::random_array::<256, _>(rng);
        U2048::from_be_bytes(&bytes).rem(&self.q)
    }
}

/// Deals a secret under Feldman or Pedersen VSS.
///
/// # Errors
///
/// Returns [`ShareError::InvalidParameters`] for `t == 0` or `t > n`.
pub fn deal<R: CryptoRng + ?Sized>(
    rng: &mut R,
    committer: &Committer,
    kind: VssKind,
    secret: &U2048,
    threshold: usize,
    shares: usize,
) -> Result<VssDealing, ShareError> {
    deal_with_blinding(rng, committer, kind, secret, threshold, shares).map(|(dealing, _)| dealing)
}

/// [`deal`], also returning the blinding polynomial's constant term
/// `b(0)` the dealer drew (zero for Feldman).
pub(crate) fn deal_with_blinding<R: CryptoRng + ?Sized>(
    rng: &mut R,
    committer: &Committer,
    kind: VssKind,
    secret: &U2048,
    threshold: usize,
    shares: usize,
) -> Result<(VssDealing, U2048), ShareError> {
    if threshold == 0 || threshold > shares {
        return Err(ShareError::InvalidParameters {
            threshold,
            shares,
            reason: "require 1 <= t <= n",
        });
    }
    let group = committer.group();
    let field = ScalarField::new(group);
    let secret = secret.rem(field.order());

    // Secret polynomial f with f(0) = secret.
    let mut f = Vec::with_capacity(threshold);
    f.push(secret);
    for _ in 1..threshold {
        f.push(field.random(rng));
    }
    // Blinding polynomial b (Pedersen only).
    let b: Vec<U2048> = match kind {
        VssKind::Pedersen => (0..threshold).map(|_| field.random(rng)).collect(),
        VssKind::Feldman => vec![U2048::ZERO; threshold],
    };

    // Commitments per coefficient.
    let commitments: Vec<Commitment> = (0..threshold)
        .map(|j| match kind {
            VssKind::Feldman => Commitment(group.exp_generator(&f[j].to_be_bytes())),
            VssKind::Pedersen => committer.commit_scalars(&f[j], &b[j]),
        })
        .collect();

    let issued: Vec<VssShare> = (1..=shares as u64)
        .map(|i| {
            let x = U2048::from_u64(i);
            VssShare {
                index: i,
                value: field.poly_eval(&f, &x),
                blind: field.poly_eval(&b, &x),
            }
        })
        .collect();

    let dealing = VssDealing {
        kind,
        threshold,
        commitments,
        shares: issued,
    };
    Ok((dealing, b[0]))
}

/// Verifies a single share against the dealing's public commitments.
pub fn verify_share(
    committer: &Committer,
    kind: VssKind,
    commitments: &[Commitment],
    share: &VssShare,
) -> bool {
    let group = committer.group();
    // Expected commitment: Π C_j^(i^j).
    let field = ScalarField::new(group);
    let x = U2048::from_u64(share.index);
    let mut x_pow = U2048::one();
    let mut expect: Option<GroupElement> = None;
    for c in commitments {
        let term = group.exp(&c.0, &x_pow.to_be_bytes());
        expect = Some(match expect {
            None => term,
            Some(e) => group.mul(&e, &term),
        });
        x_pow = field.mul(&x_pow, &x);
    }
    let Some(expect) = expect else { return false };
    let actual = match kind {
        VssKind::Feldman => group.exp_generator(&share.value.to_be_bytes()),
        VssKind::Pedersen => committer.commit_scalars(&share.value, &share.blind).0,
    };
    actual == expect
}

/// Reconstructs the secret scalar from at least `threshold` shares via
/// Lagrange interpolation at zero, mod `q`.
///
/// # Errors
///
/// Returns [`ShareError::TooFewShares`] or
/// [`ShareError::InconsistentShares`] for duplicate indices.
pub fn reconstruct(
    group: &ModpGroup,
    shares: &[VssShare],
    threshold: usize,
) -> Result<U2048, ShareError> {
    if shares.len() < threshold {
        return Err(ShareError::TooFewShares {
            provided: shares.len(),
            required: threshold,
        });
    }
    let field = ScalarField::new(group);
    let subset = &shares[..threshold];
    let xs: Vec<u64> = subset.iter().map(|s| s.index).collect();
    let lambdas = field.lagrange_at_zero(&xs)?;
    let terms = subset
        .iter()
        .zip(&lambdas)
        .map(|(s, l)| field.mul(l, &s.value));
    Ok(terms.fold(U2048::ZERO, |acc, t| field.add(&acc, &t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn setup() -> (Committer, ChaChaDrbg) {
        (
            Committer::new(ModpGroup::rfc3526_2048()),
            ChaChaDrbg::from_u64_seed(99),
        )
    }

    #[test]
    fn feldman_deal_verify_reconstruct() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(0xDEADBEEF);
        let dealing = deal(&mut rng, &committer, VssKind::Feldman, &secret, 2, 3).unwrap();
        for share in &dealing.shares {
            assert!(verify_share(
                &committer,
                VssKind::Feldman,
                &dealing.commitments,
                share
            ));
        }
        let rec = reconstruct(committer.group(), &dealing.shares[1..3], 2).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn pedersen_deal_verify_reconstruct() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(424242);
        let dealing = deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 4).unwrap();
        for share in &dealing.shares {
            assert!(verify_share(
                &committer,
                VssKind::Pedersen,
                &dealing.commitments,
                share
            ));
        }
        let rec = reconstruct(committer.group(), &dealing.shares[2..4], 2).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn corrupted_share_detected() {
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(7);
        let mut dealing = deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 3).unwrap();
        dealing.shares[1].value = dealing.shares[1].value.wrapping_add(&U2048::one());
        assert!(!verify_share(
            &committer,
            VssKind::Pedersen,
            &dealing.commitments,
            &dealing.shares[1]
        ));
        // The untouched shares still verify.
        assert!(verify_share(
            &committer,
            VssKind::Pedersen,
            &dealing.commitments,
            &dealing.shares[0]
        ));
    }

    #[test]
    fn feldman_commitment_leaks_g_to_secret() {
        // Demonstrates WHY Feldman is only computationally hiding: C_0 is
        // literally g^secret, so an adversary with discrete log breaks it.
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(31337);
        let dealing = deal(&mut rng, &committer, VssKind::Feldman, &secret, 2, 3).unwrap();
        let g_to_s = committer.group().exp_generator(&secret.to_be_bytes());
        assert_eq!(dealing.commitments[0].0, g_to_s);
    }

    #[test]
    fn pedersen_commitment_statistically_hides() {
        // Same secret, two dealings: C_0 differs because of blinding.
        let (committer, mut rng) = setup();
        let secret = U2048::from_u64(5);
        let d1 = deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 3).unwrap();
        let d2 = deal(&mut rng, &committer, VssKind::Pedersen, &secret, 2, 3).unwrap();
        assert_ne!(d1.commitments[0], d2.commitments[0]);
    }

    #[test]
    fn too_few_shares() {
        let (committer, mut rng) = setup();
        let dealing = deal(
            &mut rng,
            &committer,
            VssKind::Feldman,
            &U2048::from_u64(1),
            3,
            4,
        )
        .unwrap();
        assert!(matches!(
            reconstruct(committer.group(), &dealing.shares[..2], 3),
            Err(ShareError::TooFewShares { .. })
        ));
    }

    #[test]
    fn invalid_parameters() {
        let (committer, mut rng) = setup();
        assert!(deal(&mut rng, &committer, VssKind::Feldman, &U2048::ZERO, 0, 3).is_err());
        assert!(deal(&mut rng, &committer, VssKind::Feldman, &U2048::ZERO, 4, 3).is_err());
    }

    #[test]
    fn scalar_field_ops() {
        let group = ModpGroup::rfc3526_2048();
        let f = ScalarField::new(&group);
        let a = U2048::from_u64(10);
        let b = U2048::from_u64(3);
        assert_eq!(f.add(&a, &b), U2048::from_u64(13));
        assert_eq!(f.sub(&b, &a), f.sub(&U2048::ZERO, &U2048::from_u64(7)));
        assert_eq!(f.mul(&a, &b), U2048::from_u64(30));
        let inv = f.invert(&a);
        assert_eq!(f.mul(&a, &inv), U2048::one());
    }

    #[test]
    fn duplicate_share_index_rejected() {
        let (committer, mut rng) = setup();
        let dealing = deal(
            &mut rng,
            &committer,
            VssKind::Feldman,
            &U2048::from_u64(1),
            2,
            3,
        )
        .unwrap();
        let dup = vec![dealing.shares[0].clone(), dealing.shares[0].clone()];
        assert!(matches!(
            reconstruct(committer.group(), &dup, 2),
            Err(ShareError::InconsistentShares(_))
        ));
    }
}
