//! Hash-based signatures: a Winternitz one-time scheme and the Merkle
//! many-time scheme built on it.
//!
//! Timestamp chains need signatures whose security rests on as little as
//! possible: hash-based signatures reduce to (second-)preimage resistance
//! of the underlying hash — no number-theoretic assumptions, believed
//! post-quantum — which makes them the natural choice for long-term
//! integrity (§3.3 of the paper). The Merkle scheme here is a simplified
//! XMSS ancestor: 2^h Winternitz one-time keys authenticated by a hash
//! tree, signed leaves consumed strictly left to right.

use crate::drbg::CryptoRng;
use crate::sha2::Sha256;

/// Errors from signature operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigError {
    /// All one-time leaves of a Merkle key have been used.
    KeyExhausted,
}

impl core::fmt::Display for SigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SigError::KeyExhausted => write!(f, "one-time signature key exhausted"),
        }
    }
}

impl std::error::Error for SigError {}

// ---------------------------------------------------------------------
// Winternitz one-time signatures (w = 16)
// ---------------------------------------------------------------------

const W: u32 = 16;
/// 256-bit digest / 4 bits per chain.
const LEN1: usize = 64;
/// Checksum chains: max checksum 64·15 = 960 < 16³.
const LEN2: usize = 3;
const CHAINS: usize = LEN1 + LEN2;

fn chain(start: &[u8; 32], from: u32, to: u32) -> [u8; 32] {
    let mut v = *start;
    for step in from..to {
        let mut h = Sha256::new();
        h.update(&v);
        h.update(&[step as u8]);
        v = h.finalize();
    }
    v
}

fn digits(message: &[u8]) -> [u32; CHAINS] {
    let digest = Sha256::digest(message);
    let mut out = [0u32; CHAINS];
    for i in 0..LEN1 {
        let byte = digest[i / 2];
        out[i] = if i % 2 == 0 {
            (byte >> 4) as u32
        } else {
            (byte & 0x0F) as u32
        };
    }
    // Checksum digits (base-w little-endian of sum of complements).
    let checksum: u32 = out[..LEN1].iter().map(|&d| W - 1 - d).sum();
    out[LEN1] = checksum & 0x0F;
    out[LEN1 + 1] = (checksum >> 4) & 0x0F;
    out[LEN1 + 2] = (checksum >> 8) & 0x0F;
    out
}

/// A Winternitz (w = 16) one-time signer.
#[derive(Clone)]
pub struct WotsSigner {
    sk: Vec<[u8; 32]>,
    used: bool,
}

redacted_debug!(WotsSigner);

/// A compressed WOTS public key (hash of all chain ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WotsPublicKey(pub [u8; 32]);

/// A WOTS signature: one intermediate chain value per digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    chains: Vec<[u8; 32]>,
}

impl WotsSigner {
    /// Generates a keypair from the RNG.
    pub fn generate<R: CryptoRng + ?Sized>(rng: &mut R) -> (Self, WotsPublicKey) {
        let sk: Vec<[u8; 32]> = (0..CHAINS)
            .map(|_| crate::drbg::random_array::<32, _>(rng))
            .collect();
        let pk = Self::public_from_sk(&sk);
        (WotsSigner { sk, used: false }, pk)
    }

    fn public_from_sk(sk: &[[u8; 32]]) -> WotsPublicKey {
        let mut h = Sha256::new();
        for s in sk {
            h.update(&chain(s, 0, W - 1));
        }
        WotsPublicKey(h.finalize())
    }

    /// Signs a message (one time only).
    ///
    /// # Errors
    ///
    /// Returns [`SigError::KeyExhausted`] on reuse.
    pub fn sign(&mut self, message: &[u8]) -> Result<WotsSignature, SigError> {
        if self.used {
            return Err(SigError::KeyExhausted);
        }
        self.used = true;
        let d = digits(message);
        let chains = self
            .sk
            .iter()
            .zip(d.iter())
            .map(|(s, &digit)| chain(s, 0, digit))
            .collect();
        Ok(WotsSignature { chains })
    }
}

impl WotsPublicKey {
    /// Verifies a signature by completing each chain and hashing.
    pub fn verify(&self, message: &[u8], sig: &WotsSignature) -> bool {
        if sig.chains.len() != CHAINS {
            return false;
        }
        let d = digits(message);
        let mut h = Sha256::new();
        for (c, &digit) in sig.chains.iter().zip(d.iter()) {
            h.update(&chain(c, digit, W - 1));
        }
        h.finalize() == self.0
    }
}

// ---------------------------------------------------------------------
// Merkle many-time signatures over WOTS leaves
// ---------------------------------------------------------------------

/// A Merkle signature-scheme signer with `2^height` one-time WOTS keys.
///
/// # Examples
///
/// ```
/// use aeon_crypto::sig::MerkleSigner;
/// use aeon_crypto::ChaChaDrbg;
///
/// let mut rng = ChaChaDrbg::from_u64_seed(1);
/// let mut signer = MerkleSigner::generate(&mut rng, 3); // 8 signatures
/// let pk = signer.public_key();
/// let sig = signer.sign(b"timestamp record")?;
/// assert!(pk.verify(b"timestamp record", &sig));
/// # Ok::<(), aeon_crypto::sig::SigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MerkleSigner {
    height: usize,
    leaves: Vec<WotsSigner>,
    leaf_pks: Vec<WotsPublicKey>,
    tree: Vec<Vec<[u8; 32]>>, // tree[0] = leaf hashes, tree[h] = [root]
    next: usize,
}

/// The Merkle scheme public key (tree root and height).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MerklePublicKey {
    /// Root hash of the key tree.
    pub root: [u8; 32],
    /// Tree height.
    pub height: usize,
}

/// A Merkle signature: the WOTS signature, the leaf public key, the leaf
/// index, and the authentication path to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleSignature {
    /// Index of the one-time key used.
    pub leaf_index: usize,
    /// The one-time signature.
    pub wots: WotsSignature,
    /// The one-time public key (verified against the path).
    pub leaf_pk: WotsPublicKey,
    /// Sibling hashes from leaf to root.
    pub auth_path: Vec<[u8; 32]>,
}

fn hash_pair(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

fn leaf_hash(pk: &WotsPublicKey) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"leaf");
    h.update(&pk.0);
    h.finalize()
}

impl MerkleSigner {
    /// Generates a signer with `2^height` one-time keys.
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (65 536 leaves) to keep generation bounded.
    pub fn generate<R: CryptoRng + ?Sized>(rng: &mut R, height: usize) -> Self {
        assert!(height <= 16, "Merkle tree height too large");
        let n = 1usize << height;
        let mut leaves = Vec::with_capacity(n);
        let mut leaf_pks = Vec::with_capacity(n);
        for _ in 0..n {
            let (sk, pk) = WotsSigner::generate(rng);
            leaves.push(sk);
            leaf_pks.push(pk);
        }
        let mut tree = Vec::with_capacity(height + 1);
        tree.push(leaf_pks.iter().map(leaf_hash).collect::<Vec<_>>());
        for level in 0..height {
            let prev = &tree[level];
            let next: Vec<[u8; 32]> = prev
                .chunks_exact(2)
                .map(|pair| hash_pair(&pair[0], &pair[1]))
                .collect();
            tree.push(next);
        }
        MerkleSigner {
            height,
            leaves,
            leaf_pks,
            tree,
            next: 0,
        }
    }

    /// Returns the public key.
    pub fn public_key(&self) -> MerklePublicKey {
        MerklePublicKey {
            root: self.tree[self.height][0],
            height: self.height,
        }
    }

    /// Number of signatures remaining.
    pub fn remaining(&self) -> usize {
        (1 << self.height) - self.next
    }

    /// Signs a message with the next unused leaf.
    ///
    /// # Errors
    ///
    /// Returns [`SigError::KeyExhausted`] when all leaves are consumed.
    pub fn sign(&mut self, message: &[u8]) -> Result<MerkleSignature, SigError> {
        if self.next >= 1 << self.height {
            return Err(SigError::KeyExhausted);
        }
        let idx = self.next;
        self.next += 1;
        let wots = self.leaves[idx].sign(message)?;
        let mut auth_path = Vec::with_capacity(self.height);
        let mut node = idx;
        for level in 0..self.height {
            auth_path.push(self.tree[level][node ^ 1]);
            node >>= 1;
        }
        Ok(MerkleSignature {
            leaf_index: idx,
            wots,
            leaf_pk: self.leaf_pks[idx],
            auth_path,
        })
    }
}

impl MerklePublicKey {
    /// Verifies a Merkle signature. Any key and signature values — a
    /// height past the word size, an index past the tree, a path of the
    /// wrong length — are answered `false`, never a panic: a stored
    /// timestamp token carries both.
    pub fn verify(&self, message: &[u8], sig: &MerkleSignature) -> bool {
        // `leaf_index >= 2^height`; a tree as tall as a `usize` is wide
        // holds every index.
        let past_tree = self.height < usize::BITS as usize && sig.leaf_index >> self.height != 0;
        if sig.auth_path.len() != self.height || past_tree {
            return false;
        }
        if !sig.leaf_pk.verify(message, &sig.wots) {
            return false;
        }
        let mut node = leaf_hash(&sig.leaf_pk);
        let mut idx = sig.leaf_index;
        for sibling in &sig.auth_path {
            node = if idx & 1 == 0 {
                hash_pair(&node, sibling)
            } else {
                hash_pair(sibling, &node)
            };
            idx >>= 1;
        }
        node == self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::ChaChaDrbg;

    fn rng() -> ChaChaDrbg {
        ChaChaDrbg::from_u64_seed(2024)
    }

    #[test]
    fn wots_sign_verify() {
        let mut r = rng();
        let (mut sk, pk) = WotsSigner::generate(&mut r);
        let sig = sk.sign(b"timestamped record").unwrap();
        assert!(pk.verify(b"timestamped record", &sig));
        assert!(!pk.verify(b"tampered record!!", &sig));
    }

    #[test]
    fn wots_wrong_key_rejects() {
        let mut r = rng();
        let (mut sk1, _) = WotsSigner::generate(&mut r);
        let (_, pk2) = WotsSigner::generate(&mut r);
        let sig = sk1.sign(b"m").unwrap();
        assert!(!pk2.verify(b"m", &sig));
    }

    #[test]
    fn wots_checksum_prevents_digit_increase() {
        // Flipping the message changes digits; verify must fail rather than
        // allow forged chains. (Indirect test of the checksum.)
        let mut r = rng();
        let (mut sk, pk) = WotsSigner::generate(&mut r);
        let sig = sk.sign(b"aaaaaaa").unwrap();
        for probe in [b"aaaaaab".as_ref(), b"zzzzzzz", b""] {
            assert!(!pk.verify(probe, &sig));
        }
    }

    #[test]
    fn merkle_all_leaves_usable() {
        let mut r = rng();
        let mut signer = MerkleSigner::generate(&mut r, 3);
        let pk = signer.public_key();
        assert_eq!(signer.remaining(), 8);
        for i in 0..8 {
            let msg = format!("record {i}");
            let sig = signer.sign(msg.as_bytes()).unwrap();
            assert_eq!(sig.leaf_index, i);
            assert!(pk.verify(msg.as_bytes(), &sig), "leaf {i}");
        }
        assert_eq!(signer.remaining(), 0);
        assert_eq!(signer.sign(b"x").unwrap_err(), SigError::KeyExhausted);
    }

    #[test]
    fn merkle_cross_message_rejected() {
        let mut r = rng();
        let mut signer = MerkleSigner::generate(&mut r, 2);
        let pk = signer.public_key();
        let sig = signer.sign(b"message A").unwrap();
        assert!(!pk.verify(b"message B", &sig));
    }

    #[test]
    fn merkle_tampered_path_rejected() {
        let mut r = rng();
        let mut signer = MerkleSigner::generate(&mut r, 2);
        let pk = signer.public_key();
        let mut sig = signer.sign(b"msg").unwrap();
        sig.auth_path[0][0] ^= 1;
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn merkle_wrong_index_rejected() {
        let mut r = rng();
        let mut signer = MerkleSigner::generate(&mut r, 2);
        let pk = signer.public_key();
        let mut sig = signer.sign(b"msg").unwrap();
        sig.leaf_index = 3;
        assert!(!pk.verify(b"msg", &sig));
        sig.leaf_index = 99;
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn merkle_height_zero() {
        let mut r = rng();
        let mut signer = MerkleSigner::generate(&mut r, 0);
        let pk = signer.public_key();
        let sig = signer.sign(b"only one").unwrap();
        assert!(pk.verify(b"only one", &sig));
        assert!(signer.sign(b"no more").is_err());
    }

    /// Hostile key and signature values: heights up to `usize::MAX`,
    /// indices at and past the tree's edge, auth paths one short and one
    /// long, and flipped path or WOTS bytes. There is no byte parser for
    /// a `MerkleSignature`, so the hostile input is the value itself.
    /// Every case answers `false`; none panics (a height of 64 with a
    /// 64-entry path used to overflow the index check's shift).
    #[test]
    fn hostile_merkle_signature_values_are_refused() {
        let mut signer = MerkleSigner::generate(&mut rng(), 2);
        let key = signer.public_key();
        let real = signer.sign(b"msg").unwrap();
        assert!(key.verify(b"msg", &real));
        for height in [0, 2, 16, 63, 64, usize::MAX] {
            let key = MerklePublicKey { height, ..key };
            let edge = 1usize.checked_shl(height as u32).unwrap_or(0);
            for leaf_index in [0, edge, usize::MAX] {
                // One short, exact and one long; no path is built longer
                // than 65 entries, so `usize::MAX` meets a short one.
                let lens = [height.saturating_sub(1), height, height.saturating_add(1)];
                for len in lens.map(|len| len.min(65)) {
                    let sig = MerkleSignature {
                        leaf_index,
                        auth_path: vec![[7u8; 32]; len],
                        ..real.clone()
                    };
                    assert!(
                        !key.verify(b"msg", &sig),
                        "h {height} i {leaf_index} len {len}"
                    );
                }
            }
        }
        let mut flipped = real.clone();
        flipped.auth_path[1][31] ^= 0x80;
        assert!(!key.verify(b"msg", &flipped));
        for chain in 0..real.wots.chains.len() {
            let mut flipped = real.clone();
            flipped.wots.chains[chain][chain % 32] ^= 1;
            assert!(!key.verify(b"msg", &flipped), "wots chain {chain}");
        }
        let mut short = real.clone();
        short.wots.chains.pop();
        assert!(!key.verify(b"msg", &short));
    }
}
