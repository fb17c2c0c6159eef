//! Pedersen commitments: information-theoretically hiding, computationally
//! binding.
//!
//! A Pedersen commitment to message scalar `m` with blinding scalar `r` is
//! `C = g^m · h^r mod p`, where the discrete log of `h` base `g` is
//! unknown. Because `h^r` is uniform in the subgroup for uniform `r`, the
//! commitment statistically reveals *nothing* about `m` — the hiding
//! property survives any amount of future cryptanalysis, which is exactly
//! the property long-term archival timestamping needs (LINCOS swaps hashes
//! for Pedersen commitments for this reason). Binding, by contrast, is
//! only computational: an adversary that can compute `log_g h` can equivocate.

use crate::modp::{GroupElement, ModpGroup};
use crate::uint::U2048;

/// The opening (blinding scalar) of a Pedersen commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opening {
    /// The blinding scalar `r` (big-endian bytes, already reduced mod `q`).
    pub blinding: Vec<u8>,
}

/// A Pedersen commitment `g^m · h^r`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Commitment(pub GroupElement);

impl Commitment {
    /// Serializes the commitment to bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }
}

/// A committer bound to a group and a pair of bases `(g, h)` with no known
/// discrete-log relation.
///
/// # Examples
///
/// ```
/// use aeon_num::{pedersen::Committer, ModpGroup};
///
/// let committer = Committer::new(ModpGroup::rfc3526_2048());
/// let (c, opening) = committer.commit(b"archive manifest digest", &[42u8; 32]);
/// assert!(committer.verify(&c, b"archive manifest digest", &opening));
/// ```
#[derive(Debug, Clone)]
pub struct Committer {
    group: ModpGroup,
    h: GroupElement,
}

impl Committer {
    /// Creates a committer with the standard "nothing up my sleeve" second
    /// base `h = hash_to_group("aeon-pedersen-h-v1")`.
    pub fn new(group: ModpGroup) -> Self {
        let h = group.hash_to_group(b"aeon-pedersen-h-v1");
        Committer { group, h }
    }

    /// Returns the group.
    pub fn group(&self) -> &ModpGroup {
        &self.group
    }

    /// Returns the second base `h`.
    pub fn h(&self) -> &GroupElement {
        &self.h
    }

    /// Commits to a message with the given blinding randomness.
    ///
    /// The message and blinding bytes are mapped to scalars mod `q`. The
    /// caller supplies the randomness so that the crate stays RNG-agnostic;
    /// pass at least 32 uniformly random bytes for full hiding.
    pub fn commit(&self, message: &[u8], blinding: &[u8]) -> (Commitment, Opening) {
        let m = self.group.scalar_from_bytes(message);
        let r = self.group.scalar_from_bytes(blinding);
        let c = self.commit_scalars(&m, &r);
        (
            c,
            Opening {
                blinding: r.to_be_bytes(),
            },
        )
    }

    /// Commits to already-reduced scalars.
    pub fn commit_scalars(&self, m: &U2048, r: &U2048) -> Commitment {
        let gm = self.group.exp_generator(&m.to_be_bytes());
        let hr = self.group.exp(&self.h, &r.to_be_bytes());
        Commitment(self.group.mul(&gm, &hr))
    }

    /// Verifies that `commitment` opens to `message` under `opening`.
    pub fn verify(&self, commitment: &Commitment, message: &[u8], opening: &Opening) -> bool {
        let m = self.group.scalar_from_bytes(message);
        let r = U2048::from_be_bytes(&opening.blinding);
        self.commit_scalars(&m, &r) == *commitment
    }

    /// Homomorphically adds two commitments:
    /// `commit(m1, r1) · commit(m2, r2) = commit(m1 + m2, r1 + r2)`.
    ///
    /// This additive homomorphism is what makes Pedersen commitments
    /// compose with linear secret sharing (Pedersen VSS): commitments to
    /// polynomial coefficients let every shareholder check its share
    /// without learning the secret.
    pub fn add(&self, a: &Commitment, b: &Commitment) -> Commitment {
        Commitment(self.group.mul(&a.0, &b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committer() -> Committer {
        Committer::new(ModpGroup::rfc3526_2048())
    }

    #[test]
    fn commit_verify_roundtrip() {
        let c = committer();
        let (com, open) = c.commit(b"hello archive", &[9u8; 32]);
        assert!(c.verify(&com, b"hello archive", &open));
    }

    #[test]
    fn wrong_message_rejected() {
        let c = committer();
        let (com, open) = c.commit(b"msg-a", &[1u8; 32]);
        assert!(!c.verify(&com, b"msg-b", &open));
    }

    #[test]
    fn wrong_blinding_rejected() {
        let c = committer();
        let (com, _) = c.commit(b"msg", &[1u8; 32]);
        let bad = Opening {
            blinding: U2048::from_u64(99).to_be_bytes(),
        };
        assert!(!c.verify(&com, b"msg", &bad));
    }

    #[test]
    fn hiding_different_blinding_different_commitment() {
        let c = committer();
        let (c1, _) = c.commit(b"same message", &[1u8; 32]);
        let (c2, _) = c.commit(b"same message", &[2u8; 32]);
        assert_ne!(c1, c2, "distinct blinding must randomize the commitment");
    }

    #[test]
    fn additive_homomorphism() {
        let c = committer();
        let g = c.group().clone();
        let m1 = g.scalar_from_bytes(&[3]);
        let m2 = g.scalar_from_bytes(&[5]);
        let r1 = g.scalar_from_bytes(&[100]);
        let r2 = g.scalar_from_bytes(&[200]);
        let c1 = c.commit_scalars(&m1, &r1);
        let c2 = c.commit_scalars(&m2, &r2);
        let sum_c = c.add(&c1, &c2);
        let m_sum = m1.add_mod(&m2, g.subgroup_order());
        let r_sum = r1.add_mod(&r2, g.subgroup_order());
        assert_eq!(sum_c, c.commit_scalars(&m_sum, &r_sum));
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let c = committer();
        let (c1, o1) = c.commit(b"m", &[7u8; 32]);
        let (c2, o2) = c.commit(b"m", &[7u8; 32]);
        assert_eq!(c1, c2);
        assert_eq!(o1, o2);
    }
}
