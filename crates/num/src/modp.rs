//! The RFC 3526 2048-bit MODP group and hash-to-group mapping.

use crate::mont::MontCtx;
use crate::uint::{reduce_wide, U2048};
use std::sync::Arc;

/// The RFC 3526 group-14 prime (2048 bits), a safe prime
/// `p = 2q + 1` with `q` prime.
const RFC3526_2048_HEX: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
    C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
    83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
    670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
    DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
    15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// An element of the MODP group, stored as its canonical residue mod `p`.
///
/// # Examples
///
/// ```
/// use aeon_num::ModpGroup;
///
/// let g = ModpGroup::rfc3526_2048();
/// let a = g.exp_generator(&[5]);
/// let b = g.exp(&a, &[2]);
/// assert_eq!(b, g.exp_generator(&[10]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupElement(pub(crate) U2048);

impl GroupElement {
    /// Deserializes an element from big-endian bytes (as produced by
    /// [`GroupElement::to_be_bytes`]). The caller is responsible for the
    /// value being a canonical residue.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        GroupElement(U2048::from_be_bytes(bytes))
    }

    /// Serializes the element to 256 big-endian bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }
}

/// A safe-prime discrete-log group: arithmetic modulo the RFC 3526
/// 2048-bit prime, with the generator squared so that all exponentiations
/// land in the prime-order-`q` subgroup of quadratic residues.
///
/// The group is cheap to clone (`Arc` inside) and is shared by Pedersen
/// commitments, Feldman/Pedersen VSS, and the Diffie–Hellman channel
/// handshake.
#[derive(Debug, Clone)]
pub struct ModpGroup {
    inner: Arc<GroupInner>,
}

#[derive(Debug)]
struct GroupInner {
    ctx: MontCtx<32>,
    /// Generator of the order-q subgroup: 4 = 2² (2 generates Z_p*;
    /// its square generates the quadratic residues).
    g: U2048,
    /// Subgroup order q = (p - 1) / 2.
    q: U2048,
}

impl ModpGroup {
    /// Returns the RFC 3526 group-14 (2048-bit) instance.
    pub fn rfc3526_2048() -> Self {
        let p = U2048::from_hex(RFC3526_2048_HEX);
        let q = p.shr1(); // (p-1)/2 for odd p: shr1 of p gives (p-1)/2
        let ctx = MontCtx::new(p);
        ModpGroup {
            inner: Arc::new(GroupInner {
                ctx,
                g: U2048::from_u64(4),
                q,
            }),
        }
    }

    /// Returns the group modulus `p`.
    pub fn modulus(&self) -> &U2048 {
        self.inner.ctx.modulus()
    }

    /// Returns the subgroup order `q = (p - 1) / 2`.
    pub fn subgroup_order(&self) -> &U2048 {
        &self.inner.q
    }

    /// Returns the subgroup generator (`4`).
    pub fn generator(&self) -> GroupElement {
        GroupElement(self.inner.g)
    }

    /// Raises the generator to a big-endian byte exponent.
    pub fn exp_generator(&self, exp_be: &[u8]) -> GroupElement {
        GroupElement(self.inner.ctx.pow_bytes(&self.inner.g, exp_be))
    }

    /// Raises an arbitrary element to a big-endian byte exponent.
    pub fn exp(&self, base: &GroupElement, exp_be: &[u8]) -> GroupElement {
        GroupElement(self.inner.ctx.pow_bytes(&base.0, exp_be))
    }

    /// Multiplies two group elements.
    pub fn mul(&self, a: &GroupElement, b: &GroupElement) -> GroupElement {
        GroupElement(self.inner.ctx.mul(&a.0, &b.0))
    }

    /// Inverts a group element via Fermat: `a^(p-2) mod p`.
    pub fn invert(&self, a: &GroupElement) -> GroupElement {
        let p_minus_2 = self.modulus().wrapping_sub(&U2048::from_u64(2));
        GroupElement(self.inner.ctx.pow(&a.0, &p_minus_2))
    }

    /// Deterministically maps arbitrary bytes into the order-`q` subgroup
    /// by interpreting them as an integer and squaring modulo `p`. Squaring
    /// guarantees a quadratic residue; with overwhelming probability the
    /// result is neither 0 nor 1.
    ///
    /// Used to derive the second Pedersen base `h` with no known discrete
    /// log relative to `g` ("nothing up my sleeve").
    pub fn hash_to_group(&self, bytes: &[u8]) -> GroupElement {
        // Fold input into a 2048-bit value (repeat/truncate), reduce, square.
        let mut buf = [0u8; 256];
        for (i, &b) in bytes.iter().enumerate().take(4096) {
            buf[i % 256] ^= b.rotate_left((i / 256) as u32);
        }
        let x = U2048::from_be_bytes(&buf).rem(self.modulus());
        let mut wide = vec![0u64; 64];
        x.mul_wide_into(&x, &mut wide);
        let sq = reduce_wide(&wide, self.modulus());
        GroupElement(sq)
    }

    /// Reduces big-endian bytes modulo the subgroup order `q` — used to map
    /// digests and random scalars into exponent range.
    pub fn scalar_from_bytes(&self, bytes: &[u8]) -> U2048 {
        // Interpret up to 256 bytes, fold the rest.
        let mut buf = [0u8; 256];
        for (i, &b) in bytes.iter().enumerate() {
            buf[i % 256] ^= b.rotate_left((i / 256) as u32);
        }
        U2048::from_be_bytes(&buf).rem(&self.inner.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_in_subgroup() {
        let g = ModpGroup::rfc3526_2048();
        // g^q == 1 for an order-q element.
        let gq = g.exp_generator(&g.subgroup_order().to_be_bytes());
        assert_eq!(gq.0, U2048::one());
    }

    #[test]
    fn exponent_addition_law() {
        let g = ModpGroup::rfc3526_2048();
        let a = g.exp_generator(&[0x12, 0x34]);
        let b = g.exp_generator(&[0x01, 0x00]);
        let prod = g.mul(&a, &b);
        assert_eq!(prod, g.exp_generator(&[0x13, 0x34]));
    }

    #[test]
    fn inversion() {
        let g = ModpGroup::rfc3526_2048();
        let a = g.exp_generator(&[7, 7, 7]);
        let inv = g.invert(&a);
        let prod = g.mul(&a, &inv);
        assert_eq!(prod.0, U2048::one());
    }

    #[test]
    fn hash_to_group_is_residue_and_deterministic() {
        let g = ModpGroup::rfc3526_2048();
        let h1 = g.hash_to_group(b"aeon-pedersen-h");
        let h2 = g.hash_to_group(b"aeon-pedersen-h");
        assert_eq!(h1, h2);
        assert_ne!(h1.0, U2048::ZERO);
        assert_ne!(h1.0, U2048::one());
        // Element of order q: h^q == 1.
        let hq = g.exp(&h1, &g.subgroup_order().to_be_bytes());
        assert_eq!(hq.0, U2048::one());
    }

    #[test]
    fn scalar_from_bytes_below_q() {
        let g = ModpGroup::rfc3526_2048();
        let s = g.scalar_from_bytes(&[0xFF; 300]);
        assert!(s < *g.subgroup_order());
    }

    #[test]
    fn p_is_congruent_3_mod_4() {
        // Safe prime p = 2q+1 with q odd means p ≡ 3 (mod 4).
        let g = ModpGroup::rfc3526_2048();
        assert_eq!(g.modulus().limbs()[0] & 3, 3);
    }
}
