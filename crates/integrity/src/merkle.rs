//! Binary Merkle hash trees with inclusion proofs.

use aeon_crypto::Sha256;

/// Domain-separated leaf hash, SHA-256(0x00 ‖ data) as in RFC 6962
/// (prevents leaf/node second-preimage confusion).
pub fn leaf_hash(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Interior node hash, SHA-256(0x01 ‖ left ‖ right) as in RFC 6962.
pub fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The root of the tree whose leaf hashes are `level`: [`MerkleTree`]'s
/// root without its levels, folded in place (the slice is overwritten).
/// `None` for no leaves.
pub fn fold_root(level: &mut [[u8; 32]]) -> Option<[u8; 32]> {
    let mut len = level.len();
    while len > 1 {
        // Parent `i` reads children `2i` and `2i + 1`, never a slot an
        // earlier parent of this level wrote.
        for i in 0..len.div_ceil(2) {
            level[i] = parent(&level[..len], 2 * i);
        }
        len = len.div_ceil(2);
    }
    level.first().copied()
}

/// The parent of `level[i]` and its right sibling; a last node with no
/// sibling is promoted unchanged.
fn parent(level: &[[u8; 32]], i: usize) -> [u8; 32] {
    match level.get(i + 1) {
        Some(right) => node_hash(&level[i], right),
        None => level[i],
    }
}

/// A binary Merkle tree over byte leaves. Odd nodes at each level are
/// promoted unchanged (Bitcoin-style duplication is avoided to prevent
/// CVE-2012-2459-class ambiguities).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    levels: Vec<Vec<[u8; 32]>>,
}

/// An inclusion proof: the sibling path from a leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hashes with their side (`true` = sibling is on the right).
    pub path: Vec<([u8; 32], bool)>,
}

impl MerkleTree {
    /// Builds a tree over the given leaves. Returns `None` for an empty
    /// iterator.
    pub fn build<'a, I>(leaves: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let base: Vec<[u8; 32]> = leaves.into_iter().map(leaf_hash).collect();
        if base.is_empty() {
            return None;
        }
        let mut levels = vec![base];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let next = (0..prev.len())
                .step_by(2)
                .map(|i| parent(prev, i))
                .collect();
            levels.push(next);
        }
        Some(MerkleTree { levels })
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                path.push((level[sibling], sibling > idx));
            }
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            path,
        })
    }
}

impl MerkleProof {
    /// Verifies that `leaf_data` is included under `root`.
    pub fn verify(&self, root: &[u8; 32], leaf_data: &[u8]) -> bool {
        let mut node = leaf_hash(leaf_data);
        for (sibling, is_right) in &self.path {
            node = if *is_right {
                node_hash(&node, sibling)
            } else {
                node_hash(sibling, &node)
            };
        }
        node == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_returns_none() {
        assert!(MerkleTree::build(std::iter::empty::<&[u8]>()).is_none());
    }

    #[test]
    fn single_leaf() {
        let tree = MerkleTree::build([b"only".as_ref()]).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.prove(0).unwrap();
        assert!(proof.path.is_empty());
        assert!(proof.verify(&tree.root(), b"only"));
        assert!(!proof.verify(&tree.root(), b"other"));
    }

    #[test]
    fn all_proofs_verify_various_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let tree = MerkleTree::build(ls.iter().map(|l| l.as_slice())).unwrap();
            for (i, leaf) in ls.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
                // Wrong leaf data must fail.
                assert!(!proof.verify(&tree.root(), b"forged"), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn fold_root_equals_the_tree_root() {
        assert_eq!(fold_root(&mut []), None);
        for n in 1..=33 {
            let ls = leaves(n);
            let tree = MerkleTree::build(ls.iter().map(|l| l.as_slice())).unwrap();
            let mut level: Vec<[u8; 32]> = ls.iter().map(|l| leaf_hash(l)).collect();
            assert_eq!(fold_root(&mut level), Some(tree.root()), "n={n}");
        }
    }

    #[test]
    fn out_of_range_proof() {
        let tree = MerkleTree::build([b"a".as_ref(), b"b"]).unwrap();
        assert!(tree.prove(2).is_none());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = leaves(8);
        let tree = MerkleTree::build(base.iter().map(|l| l.as_slice())).unwrap();
        for i in 0..8 {
            let mut changed = base.clone();
            changed[i].push(b'!');
            let tree2 = MerkleTree::build(changed.iter().map(|l| l.as_slice())).unwrap();
            assert_ne!(tree.root(), tree2.root(), "leaf {i}");
        }
    }

    #[test]
    fn proof_not_transferable_between_positions() {
        let ls = leaves(4);
        let tree = MerkleTree::build(ls.iter().map(|l| l.as_slice())).unwrap();
        let proof0 = tree.prove(0).unwrap();
        // Proof for leaf 0 must not verify leaf 1's data.
        assert!(!proof0.verify(&tree.root(), &ls[1]));
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A tree whose leaf equals an interior node encoding must not
        // produce the same root as the two-leaf tree.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let interior = node_hash(&a, &b);
        let t1 = MerkleTree::build([b"a".as_ref(), b"b"]).unwrap();
        let t2 = MerkleTree::build([interior.as_ref()]).unwrap();
        assert_ne!(t1.root(), t2.root());
    }
}
