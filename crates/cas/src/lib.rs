//! Content-addressed storage substrate for the aeon archive.
//!
//! The paper's §3.2 campaigns are priced per byte that crosses the
//! media; the cheapest byte is the one never stored twice. This crate
//! supplies the Venti-shaped substrate ROADMAP item 2 calls for, in
//! two pure, archive-agnostic pieces beside the [`BlockHash`] address:
//!
//! * [`chunker`] — a deterministic content-defined chunker (Gear
//!   rolling hash) with min/target/max bounds and a seeded gear table,
//!   so chunk boundaries are reproducible across runs and machines and
//!   survive insertions with only local boundary churn.
//! * [`merkle`] — a Merkle block tree whose interior nodes are
//!   themselves content-addressed blocks, so an entire object — or a
//!   whole archive catalog — is recoverable and verifiable from a
//!   single 32-byte root hash.
//!
//! Everything here is format code, deterministic in its inputs: no
//! clocks, no global state, no platform-dependent hashing. Which blocks
//! an archive holds, and how many references keep each alive, is the
//! archive's own unit table (`aeon-core`), not state kept here.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chunker;
pub mod merkle;

pub use chunker::{Chunker, ChunkerParams};
pub use merkle::{build_tree, collect_leaves, decode_node, TreeBuild, TreeError, TreeNode};

use aeon_crypto::Sha256;
use std::fmt;

/// The SHA-256 content address of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockHash([u8; 32]);

impl BlockHash {
    /// Hashes a block's bytes into its content address.
    #[must_use]
    pub fn of(data: &[u8]) -> Self {
        BlockHash(Sha256::digest(data))
    }

    /// The content addresses of many blocks, hashed together
    /// ([`Sha256::digest_many`]): `of_many(blocks)[i] == of(blocks[i])`.
    #[must_use]
    pub fn of_many(blocks: &[&[u8]]) -> Vec<Self> {
        Sha256::digest_many(blocks)
            .into_iter()
            .map(BlockHash)
            .collect()
    }

    /// Wraps a raw digest.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        BlockHash(bytes)
    }

    /// The raw digest bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_sha256() {
        assert_eq!(*BlockHash::of(b"abc").as_bytes(), Sha256::digest(b"abc"));
    }

    #[test]
    fn many_hashes_are_each_block_hash() {
        let data: Vec<u8> = (0..=255u8).cycle().take(40 << 10).collect();
        let blocks: Vec<&[u8]> = (0..40).map(|i| &data[i..i * 1000 + 7]).collect();
        let each: Vec<BlockHash> = blocks.iter().map(|b| BlockHash::of(b)).collect();
        assert_eq!(BlockHash::of_many(&blocks), each);
    }

    #[test]
    fn display_is_lowercase_hex() {
        let h = BlockHash::from_bytes([0xAB; 32]);
        assert_eq!(h.to_string(), "ab".repeat(32));
    }

    #[test]
    fn ordering_matches_byte_ordering() {
        let a = BlockHash::from_bytes([1; 32]);
        let b = BlockHash::from_bytes([2; 32]);
        assert!(a < b);
    }
}
