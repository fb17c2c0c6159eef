//! Merkle block trees whose interior nodes are themselves blocks.
//!
//! A dedup'd object is a sequence of leaf block hashes. Storing that
//! sequence *as data* — interior nodes are byte blobs in the same
//! content-addressed store as the leaves — means a single 32-byte root
//! hash recovers and authenticates everything below it: fetch the root
//! block, verify it hashes to the root, decode the child list, recurse.
//! There is no separate index to lose; the index is just blocks.
//!
//! # Node format
//!
//! ```text
//! "AEONTRE1"  [u8 level]  [u32 BE child count]  child hashes (32 B each)
//! ```
//!
//! Level 1 nodes list leaf (data) blocks; level `l > 1` nodes list
//! level `l-1` nodes. The root is always an interior node — even a
//! single-leaf (or zero-leaf) object gets a level-1 root — so a root
//! hash is unambiguously "fetch and decode me", never raw data.
//! Building is deterministic: same leaves and fanout, same node bytes,
//! same root, on every platform.

use crate::BlockHash;

/// Magic prefix of every serialized tree node.
pub const NODE_MAGIC: [u8; 8] = *b"AEONTRE1";

/// Errors from decoding or walking a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A referenced block could not be fetched.
    Missing(BlockHash),
    /// A fetched block's bytes do not hash to its address, or a child's
    /// level does not match its parent's expectation.
    HashMismatch(BlockHash),
    /// A node's bytes do not parse as a tree node.
    Malformed(&'static str),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Missing(h) => write!(f, "tree block {h} is missing"),
            TreeError::HashMismatch(h) => write!(f, "tree block {h} fails verification"),
            TreeError::Malformed(why) => write!(f, "malformed tree node: {why}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A decoded interior node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// 1 = children are data blocks; `l > 1` = children are level
    /// `l - 1` nodes.
    pub level: u8,
    /// Child block hashes, in order.
    pub children: Vec<BlockHash>,
}

/// The result of [`build_tree`]: the root hash plus every interior
/// node's `(hash, serialized bytes)`, bottom level first, root last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeBuild {
    /// Hash of the root node (always an interior node).
    pub root: BlockHash,
    /// Every interior node to store, `(content hash, node bytes)`.
    pub nodes: Vec<(BlockHash, Vec<u8>)>,
}

fn encode_node(level: u8, children: &[BlockHash]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(NODE_MAGIC.len() + 1 + 4 + 32 * children.len());
    bytes.extend_from_slice(&NODE_MAGIC);
    bytes.push(level);
    bytes.extend_from_slice(&(children.len() as u32).to_be_bytes());
    for child in children {
        bytes.extend_from_slice(child.as_bytes());
    }
    bytes
}

/// Builds the Merkle tree over `leaves` with the given fanout,
/// returning every interior node as a storable block. Deterministic in
/// `(leaves, fanout)`. Zero leaves produce a single empty level-1 root
/// (the canonical empty object).
///
/// # Panics
///
/// Panics if `fanout < 2` or the tree exceeds 255 levels (unreachable
/// for any input that fits in memory).
#[must_use]
pub fn build_tree(leaves: &[BlockHash], fanout: usize) -> TreeBuild {
    assert!(fanout >= 2, "tree fanout must be at least 2");
    let mut nodes: Vec<(BlockHash, Vec<u8>)> = Vec::new();
    let mut level = 1u8;
    let mut current: Vec<BlockHash> = leaves.to_vec();
    loop {
        let mut next = Vec::with_capacity(current.len().div_ceil(fanout).max(1));
        // `chunks` yields nothing for an empty slice; the empty object
        // still needs its canonical zero-child root.
        let groups: Vec<&[BlockHash]> = if current.is_empty() {
            vec![&[]]
        } else {
            current.chunks(fanout).collect()
        };
        for group in groups {
            let bytes = encode_node(level, group);
            let hash = BlockHash::of(&bytes);
            nodes.push((hash, bytes));
            next.push(hash);
        }
        if next.len() == 1 {
            return TreeBuild {
                root: next[0],
                nodes,
            };
        }
        current = next;
        level = level.checked_add(1).expect("tree deeper than 255 levels");
    }
}

/// Decodes a serialized tree node.
///
/// # Errors
///
/// Returns [`TreeError::Malformed`] when the magic, level, count, or
/// length do not add up.
pub fn decode_node(bytes: &[u8]) -> Result<TreeNode, TreeError> {
    if bytes.len() < NODE_MAGIC.len() + 1 + 4 {
        return Err(TreeError::Malformed("node shorter than its header"));
    }
    if bytes[..8] != NODE_MAGIC {
        return Err(TreeError::Malformed("bad node magic"));
    }
    let level = bytes[8];
    if level == 0 {
        return Err(TreeError::Malformed("interior node claims level 0"));
    }
    let count = u32::from_be_bytes(bytes[9..13].try_into().expect("4-byte slice")) as usize;
    let body = &bytes[13..];
    if body.len() != count * 32 {
        return Err(TreeError::Malformed("child list length mismatch"));
    }
    let children = body
        .chunks_exact(32)
        .map(|c| BlockHash::from_bytes(c.try_into().expect("32-byte slice")))
        .collect();
    Ok(TreeNode { level, children })
}

/// Walks the tree from `root`, fetching interior node bytes through
/// `fetch`, verifying **every** node hashes to its address and sits at
/// the level its parent claims, and returns the leaf hashes in order.
/// Leaves themselves are not fetched — verifying leaf *bytes* is the
/// caller's job when it reads them.
///
/// # Errors
///
/// [`TreeError::Missing`] when `fetch` returns `None`,
/// [`TreeError::HashMismatch`] when bytes or levels fail verification,
/// [`TreeError::Malformed`] for undecodable nodes.
pub fn collect_leaves<F>(root: &BlockHash, mut fetch: F) -> Result<Vec<BlockHash>, TreeError>
where
    F: FnMut(&BlockHash) -> Option<Vec<u8>>,
{
    let mut leaves = Vec::new();
    // (hash, expected level); None = root, any interior level accepted.
    let mut stack: Vec<(BlockHash, Option<u8>)> = vec![(*root, None)];
    while let Some((hash, expect)) = stack.pop() {
        if expect == Some(0) {
            leaves.push(hash);
            continue;
        }
        let bytes = fetch(&hash).ok_or(TreeError::Missing(hash))?;
        if BlockHash::of(&bytes) != hash {
            return Err(TreeError::HashMismatch(hash));
        }
        let node = decode_node(&bytes)?;
        if let Some(level) = expect {
            if node.level != level {
                return Err(TreeError::HashMismatch(hash));
            }
        }
        // Depth-first, children pushed in reverse so leaves pop out in
        // left-to-right order.
        for child in node.children.iter().rev() {
            stack.push((*child, Some(node.level - 1)));
        }
    }
    Ok(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn leaf(i: u8) -> BlockHash {
        BlockHash::of(&[i])
    }

    fn store_of(build: &TreeBuild) -> BTreeMap<BlockHash, Vec<u8>> {
        build.nodes.iter().cloned().collect()
    }

    #[test]
    fn single_level_tree_roundtrips() {
        let leaves: Vec<BlockHash> = (0..3).map(leaf).collect();
        let build = build_tree(&leaves, 4);
        assert_eq!(build.nodes.len(), 1);
        let store = store_of(&build);
        let got = collect_leaves(&build.root, |h| store.get(h).cloned()).unwrap();
        assert_eq!(got, leaves);
    }

    #[test]
    fn multi_level_tree_roundtrips_in_order() {
        let leaves: Vec<BlockHash> = (0..25).map(leaf).collect();
        let build = build_tree(&leaves, 4);
        // 25 leaves / fanout 4: 7 level-1 nodes, 2 level-2, 1 root.
        assert_eq!(build.nodes.len(), 10);
        let store = store_of(&build);
        let got = collect_leaves(&build.root, |h| store.get(h).cloned()).unwrap();
        assert_eq!(got, leaves);
    }

    #[test]
    fn empty_tree_has_canonical_root() {
        let build = build_tree(&[], 8);
        assert_eq!(build.nodes.len(), 1);
        let store = store_of(&build);
        let got = collect_leaves(&build.root, |h| store.get(h).cloned()).unwrap();
        assert!(got.is_empty());
        // Deterministic: same empty root every time.
        assert_eq!(build_tree(&[], 8).root, build.root);
    }

    #[test]
    fn build_is_deterministic_and_fanout_sensitive() {
        let leaves: Vec<BlockHash> = (0..40).map(leaf).collect();
        assert_eq!(build_tree(&leaves, 4), build_tree(&leaves, 4));
        assert_ne!(build_tree(&leaves, 4).root, build_tree(&leaves, 8).root);
    }

    #[test]
    fn missing_node_is_typed() {
        let leaves: Vec<BlockHash> = (0..25).map(leaf).collect();
        let build = build_tree(&leaves, 4);
        let mut store = store_of(&build);
        let victim = build.nodes[0].0;
        store.remove(&victim);
        assert_eq!(
            collect_leaves(&build.root, |h| store.get(h).cloned()),
            Err(TreeError::Missing(victim))
        );
    }

    #[test]
    fn tampered_node_is_a_hash_mismatch() {
        let leaves: Vec<BlockHash> = (0..25).map(leaf).collect();
        let build = build_tree(&leaves, 4);
        let mut store = store_of(&build);
        let victim = build.nodes[0].0;
        let mut bytes = store[&victim].clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        store.insert(victim, bytes);
        assert_eq!(
            collect_leaves(&build.root, |h| store.get(h).cloned()),
            Err(TreeError::HashMismatch(victim))
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_node(b"short").is_err());
        assert!(decode_node(&[0u8; 13]).is_err());
        let mut bad_level = encode_node(1, &[]);
        bad_level[8] = 0;
        assert!(decode_node(&bad_level).is_err());
        let mut bad_len = encode_node(1, &[leaf(1)]);
        bad_len.pop();
        assert!(decode_node(&bad_len).is_err());
    }

    /// A decode of hostile bytes: the node, or the one typed refusal.
    fn decodes_or_refuses(bytes: &[u8]) -> Option<TreeNode> {
        match decode_node(bytes) {
            Ok(node) => Some(node),
            Err(TreeError::Malformed(_)) => None,
            Err(other) => panic!("untyped node refusal: {other}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, with and without the magic prefix (without
        /// it nearly every case stops at the prefix), decode or are
        /// refused with `Malformed` — never a panic.
        #[test]
        fn hostile_node_bytes_decode_or_fail_typed(
            magic in proptest::prelude::any::<bool>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        ) {
            let mut bytes = if magic { NODE_MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&tail);
            decodes_or_refuses(&bytes);
        }
    }

    /// The root of a three-level tree, cut at every offset and with every
    /// bit flipped in turn: each cut is refused, each flip decodes or is
    /// refused, and nothing panics.
    #[test]
    fn hostile_node_cuts_and_flips_decode_or_fail_typed() {
        let leaves: Vec<BlockHash> = (0..25).map(leaf).collect();
        let build = build_tree(&leaves, 4);
        let (root, bytes) = build.nodes.last().unwrap();
        assert_eq!(*root, build.root);
        let node = decodes_or_refuses(bytes).expect("a real node decodes");
        assert_eq!((node.level, node.children.len()), (3, 2));
        for cut in 0..bytes.len() {
            assert!(
                decodes_or_refuses(&bytes[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            decodes_or_refuses(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
