//! Shamir's `t`-of-`n` secret sharing over GF(2^8), byte-parallel.
//!
//! Each byte of the secret is the constant term of an independent random
//! polynomial of degree `t - 1`; share `i` holds the evaluations of all
//! polynomials at `x = i`. Equivalently (McEliece–Sarwate), this is a
//! non-systematic `[n, t]` Reed–Solomon code over `(secret, r_1, …,
//! r_{t-1})` — which is why any `t` shares reconstruct and any `t - 1`
//! shares are statistically independent of the secret.

use crate::ShareError;
use aeon_crypto::{CryptoRng, SubStream};
use aeon_gf::poly::lagrange_coefficients;
use aeon_gf::slice;
use aeon_gf::{Field, Gf256};

/// One Shamir share: an evaluation point and the per-byte evaluations.
///
/// The share is exactly as long as the secret — the storage price of
/// perfect secrecy, provably unavoidable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Share {
    /// The evaluation point `x` (1-based; 0 would expose the secret).
    pub index: u8,
    /// Evaluations of the per-byte polynomials at `x = index`.
    pub data: Vec<u8>,
}

impl Share {
    /// Length of the share payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the share payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

fn validate(threshold: usize, shares: usize) -> Result<(), ShareError> {
    if threshold == 0 {
        return Err(ShareError::InvalidParameters {
            threshold,
            shares,
            reason: "threshold must be at least 1",
        });
    }
    if threshold > shares {
        return Err(ShareError::InvalidParameters {
            threshold,
            shares,
            reason: "threshold cannot exceed share count",
        });
    }
    if shares > 255 {
        return Err(ShareError::InvalidParameters {
            threshold,
            shares,
            reason: "GF(256) supports at most 255 shares",
        });
    }
    Ok(())
}

/// Splits `secret` into `n` shares, any `t` of which reconstruct it.
///
/// # Errors
///
/// Returns [`ShareError::InvalidParameters`] for `t == 0`, `t > n`, or
/// `n > 255`.
///
/// # Examples
///
/// ```
/// use aeon_secretshare::shamir;
/// use aeon_crypto::ChaChaDrbg;
///
/// let mut rng = ChaChaDrbg::from_u64_seed(1);
/// let shares = shamir::split(&mut rng, b"secret", 2, 3)?;
/// assert_eq!(shares.len(), 3);
/// assert_eq!(shares[0].len(), 6); // share size == secret size
/// # Ok::<(), aeon_secretshare::ShareError>(())
/// ```
pub fn split<R: CryptoRng + ?Sized>(
    rng: &mut R,
    secret: &[u8],
    threshold: usize,
    shares: usize,
) -> Result<Vec<Share>, ShareError> {
    validate(threshold, shares)?;
    // Coefficient k (degree-wise) of every byte position is the
    // generator's (k-1)-th run of `secret.len()` bytes: one sub-stream
    // each, read a strip at a time, so no coefficient vector is ever
    // whole.
    let mut coefficients: Vec<SubStream> = (1..threshold)
        .map(|_| rng.substream(secret.len()))
        .collect();
    let mut out: Vec<Share> = (1..=shares as u8)
        .map(|index| Share {
            index,
            data: vec![0u8; secret.len()],
        })
        .collect();
    let strip = slice::ROW_STRIP;
    let mut drawn = vec![
        0u8;
        if threshold > 1 {
            strip.min(secret.len())
        } else {
            0
        }
    ];
    for start in (0..secret.len()).step_by(strip) {
        let end = (start + strip).min(secret.len());
        // share_i = secret + c_1·x_i + c_2·x_i^2 + …, a strip at a time:
        // each share strip stored from the secret, then each coefficient
        // strip drawn once and accumulated into every share strip.
        for share in &mut out {
            share.data[start..end].copy_from_slice(&secret[start..end]);
        }
        for (k, stream) in (1..).zip(&mut coefficients) {
            let drawn = &mut drawn[..end - start];
            stream.fill_bytes(drawn);
            for share in &mut out {
                let x_k = Gf256::new(share.index).pow(k);
                slice::mul_add_slice(x_k, drawn, &mut share.data[start..end]);
            }
        }
    }
    Ok(out)
}

/// Reconstructs the secret from at least `threshold` shares.
///
/// # Errors
///
/// Returns [`ShareError::TooFewShares`] with fewer than `threshold`
/// shares, and [`ShareError::InconsistentShares`] for ragged lengths or
/// duplicate indices.
pub fn reconstruct(shares: &[Share], threshold: usize) -> Result<Vec<u8>, ShareError> {
    reconstruct_at(shares, threshold, Gf256::ZERO)
}

/// Evaluates the hidden polynomial at an arbitrary point `x0` from at
/// least `threshold` shares. `x0 = 0` recovers the secret; other points
/// let redistribution protocols derive new shares without reconstructing.
///
/// # Errors
///
/// Same conditions as [`reconstruct`].
pub fn reconstruct_at(
    shares: &[Share],
    threshold: usize,
    x0: Gf256,
) -> Result<Vec<u8>, ShareError> {
    combine(shares, threshold, x0, |s| (s.index, &s.data))
}

/// [`reconstruct`] from borrowed `(index, data)` shares: a reader that
/// holds the share bytes copies none of them.
///
/// # Errors
///
/// Same conditions as [`reconstruct`].
pub fn reconstruct_slices(shares: &[(u8, &[u8])], threshold: usize) -> Result<Vec<u8>, ShareError> {
    combine(shares, threshold, Gf256::ZERO, |&(index, data)| {
        (index, data)
    })
}

/// The one body of [`reconstruct_at`] and [`reconstruct_slices`]: the
/// hidden polynomial at `x0`, from the first `threshold` shares, each
/// seen through `part` as `(index, data)`.
fn combine<T>(
    shares: &[T],
    threshold: usize,
    x0: Gf256,
    part: impl Fn(&T) -> (u8, &[u8]),
) -> Result<Vec<u8>, ShareError> {
    if shares.len() < threshold {
        return Err(ShareError::TooFewShares {
            provided: shares.len(),
            required: threshold,
        });
    }
    let subset = &shares[..threshold];
    let len = part(&subset[0]).1.len();
    if subset.iter().any(|s| part(s).1.len() != len) {
        return Err(ShareError::InconsistentShares("ragged share lengths"));
    }
    let mut seen = [false; 256];
    for (index, _) in subset.iter().map(&part) {
        if index == 0 {
            return Err(ShareError::InconsistentShares("share index 0 is reserved"));
        }
        if seen[index as usize] {
            return Err(ShareError::InconsistentShares("duplicate share index"));
        }
        seen[index as usize] = true;
    }
    let xs: Vec<Gf256> = subset.iter().map(|s| Gf256::new(part(s).0)).collect();
    let lambda = lagrange_coefficients(&xs, x0)
        .map_err(|_| ShareError::InconsistentShares("duplicate share index"))?;
    // Fused Lagrange combination: out = Σ λ_i · share_i in one pass,
    // the first term stored, so the fresh buffer is only written.
    let rows: Vec<(Gf256, &[u8])> = lambda
        .iter()
        .zip(subset)
        .map(|(coeff, share)| (*coeff, part(share).1))
        .collect();
    let mut out = vec![0u8; len];
    slice::mul_rows(&mut out, &rows);
    Ok(out)
}

/// Storage expansion of `t`-of-`n` Shamir sharing: every share is as large
/// as the secret, so the total stored is `n×`.
pub fn expansion(shares: usize) -> f64 {
    shares as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(7)
    }

    #[test]
    fn roundtrip_exact_threshold() {
        let mut r = rng();
        let shares = split(&mut r, b"attack at dawn", 3, 5).unwrap();
        let rec = reconstruct(&shares[..3], 3).unwrap();
        assert_eq!(rec, b"attack at dawn");
    }

    #[test]
    fn any_subset_reconstructs() {
        let mut r = rng();
        let secret: Vec<u8> = (0..50u8).collect();
        let shares = split(&mut r, &secret, 3, 6).unwrap();
        // All 20 3-subsets.
        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    let subset = vec![shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    assert_eq!(reconstruct(&subset, 3).unwrap(), secret, "{a},{b},{c}");
                }
            }
        }
    }

    /// Borrowed shares answer exactly as owned ones: the secret from
    /// any subset, and the same typed error below the threshold or on a
    /// duplicate index.
    #[test]
    fn borrowed_shares_reconstruct_like_owned_ones() {
        let mut r = rng();
        let shares = split(&mut r, b"borrowed, not copied", 3, 5).unwrap();
        let borrowed: Vec<(u8, &[u8])> = shares.iter().map(|s| (s.index, &s.data[..])).collect();
        for subset in [
            &[0, 1, 2][..],
            &[4, 2, 0],
            &[1, 3, 4, 0],
            &[2, 2, 3],
            &[3, 1],
        ] {
            let owned: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            let lent: Vec<(u8, &[u8])> = subset.iter().map(|&i| borrowed[i]).collect();
            assert_eq!(
                format!("{:?}", reconstruct_slices(&lent, 3)),
                format!("{:?}", reconstruct(&owned, 3)),
                "{subset:?}"
            );
        }
        assert_eq!(
            reconstruct_slices(&borrowed[1..4], 3).unwrap(),
            b"borrowed, not copied"
        );
    }

    #[test]
    fn below_threshold_fails() {
        let mut r = rng();
        let shares = split(&mut r, b"secret", 4, 5).unwrap();
        assert_eq!(
            reconstruct(&shares[..3], 4).unwrap_err(),
            ShareError::TooFewShares {
                provided: 3,
                required: 4
            }
        );
    }

    #[test]
    fn wrong_subset_gives_wrong_secret_not_panic() {
        // Mixing shares from two different sharings yields garbage, not a
        // crash — integrity must come from a separate layer.
        let mut r = rng();
        let s1 = split(&mut r, b"secret-one", 2, 3).unwrap();
        let s2 = split(&mut r, b"secret-two", 2, 3).unwrap();
        let mixed = vec![s1[0].clone(), s2[1].clone()];
        let rec = reconstruct(&mixed, 2).unwrap();
        assert_ne!(rec, b"secret-one");
        assert_ne!(rec, b"secret-two");
    }

    #[test]
    fn single_share_t1_is_plaintext_copy() {
        // t = 1 means the polynomial is constant: every share IS the secret.
        let mut r = rng();
        let shares = split(&mut r, b"no secrecy", 1, 3).unwrap();
        for s in &shares {
            assert_eq!(s.data, b"no secrecy");
        }
    }

    #[test]
    fn t_minus_1_shares_are_random_looking() {
        // Statistical check of perfect secrecy: for a 1-byte secret shared
        // 2-of-3, a single share's value should be uniform over repeated
        // sharings of the SAME secret.
        let mut counts = [0u32; 256];
        for seed in 0..2048u64 {
            let mut r = ChaChaDrbg::from_u64_seed(seed);
            let shares = split(&mut r, &[0x42], 2, 3).unwrap();
            counts[shares[0].data[0] as usize] += 1;
        }
        // Every value should appear at least once and no value should
        // dominate (mean 8, generous bounds).
        let max = *counts.iter().max().unwrap();
        assert!(max < 40, "share value distribution too peaked: {max}");
    }

    #[test]
    fn invalid_parameters() {
        let mut r = rng();
        assert!(split(&mut r, b"s", 0, 3).is_err());
        assert!(split(&mut r, b"s", 4, 3).is_err());
        assert!(split(&mut r, b"s", 2, 256).is_err());
        assert!(split(&mut r, b"s", 255, 255).is_ok());
    }

    #[test]
    fn duplicate_and_zero_indices_rejected() {
        let mut r = rng();
        let shares = split(&mut r, b"secret", 2, 3).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(matches!(
            reconstruct(&dup, 2),
            Err(ShareError::InconsistentShares(_))
        ));
        let mut zero = shares[0].clone();
        zero.index = 0;
        assert!(matches!(
            reconstruct(&[zero, shares[1].clone()], 2),
            Err(ShareError::InconsistentShares(_))
        ));
    }

    #[test]
    fn ragged_lengths_rejected() {
        let mut r = rng();
        let mut shares = split(&mut r, b"secret", 2, 3).unwrap();
        shares[1].data.pop();
        assert!(matches!(
            reconstruct(&shares[..2], 2),
            Err(ShareError::InconsistentShares(_))
        ));
    }

    #[test]
    fn empty_secret() {
        let mut r = rng();
        let shares = split(&mut r, b"", 2, 3).unwrap();
        assert_eq!(reconstruct(&shares[..2], 2).unwrap(), b"");
    }

    #[test]
    fn reconstruct_at_other_points() {
        // reconstruct_at(x=i) should equal share i's data.
        let mut r = rng();
        let shares = split(&mut r, b"polynomial", 3, 5).unwrap();
        let at4 = reconstruct_at(&shares[..3], 3, Gf256::new(4)).unwrap();
        assert_eq!(at4, shares[3].data);
    }

    #[test]
    fn large_secret_roundtrip() {
        let mut r = rng();
        let secret: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        let shares = split(&mut r, &secret, 5, 8).unwrap();
        assert_eq!(reconstruct(&shares[2..7], 5).unwrap(), secret);
    }
}
