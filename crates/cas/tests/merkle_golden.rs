//! Golden vectors for the content-addressed substrate: the Merkle root
//! of a fixed corpus is pinned byte-exact. Chunk boundaries, leaf
//! hashes, node serialization, and tree shape all feed the root, so one
//! 64-char constant guards the whole stack against accidental format
//! drift — across platforms, kernel tiers, and refactors. If this test
//! fails, the on-disk dedup format changed and every existing root hash
//! in the wild just became unreadable: do not update the constant
//! unless that is the intent.

use aeon_cas::{build_tree, collect_leaves, BlockHash, Chunker, ChunkerParams};
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use std::collections::BTreeMap;

/// Pinned root of `golden_corpus()` under `golden_params()`, fanout 4.
const GOLDEN_ROOT: &str = "0745b8740e34ffb38583b8f2478c9134d9fa7b864abdc09185041a3d82bda7e6";

/// Pinned number of content-defined chunks of the corpus.
const GOLDEN_CHUNKS: usize = 34;

fn golden_params() -> ChunkerParams {
    ChunkerParams {
        min_size: 2 << 10,
        target_size: 8 << 10,
        max_size: 32 << 10,
        seed: 42,
    }
}

/// 200 KiB of seeded DRBG bytes: fixed forever, independent of platform
/// endianness and of everything else in the workspace.
fn golden_corpus() -> Vec<u8> {
    let mut rng = ChaChaDrbg::from_u64_seed(4242);
    let mut data = vec![0u8; 200 << 10];
    rng.fill_bytes(&mut data);
    data
}

/// Interior-node blocks produced alongside the tree: (hash, node bytes).
type NodeBlocks = Vec<(BlockHash, Vec<u8>)>;

fn corpus_root() -> (BlockHash, Vec<BlockHash>, NodeBlocks) {
    let data = golden_corpus();
    let chunker = Chunker::new(golden_params());
    let leaves: Vec<BlockHash> = chunker
        .chunks(&data)
        .iter()
        .map(|c| BlockHash::of(c))
        .collect();
    let build = build_tree(&leaves, 4);
    (build.root, leaves, build.nodes)
}

#[test]
fn golden_root_is_pinned() {
    let (root, leaves, _) = corpus_root();
    assert_eq!(
        leaves.len(),
        GOLDEN_CHUNKS,
        "chunk boundaries of the golden corpus moved"
    );
    assert_eq!(
        root.to_string(),
        GOLDEN_ROOT,
        "merkle root of the golden corpus moved — dedup format break"
    );
}

/// The whole object is recoverable from the root hash alone: keep
/// every block (data + interior nodes) by its address, forget the
/// manifest, walk from the root, reassemble, compare byte-exact.
#[test]
fn corpus_round_trips_from_root_hash_alone() {
    let data = golden_corpus();
    let chunker = Chunker::new(golden_params());
    let mut by_hash: BTreeMap<BlockHash, Vec<u8>> = BTreeMap::new();
    let mut leaves = Vec::new();
    for chunk in chunker.chunks(&data) {
        let h = BlockHash::of(chunk);
        by_hash.insert(h, chunk.to_vec());
        leaves.push(h);
    }
    let build = build_tree(&leaves, 4);
    for (h, bytes) in build.nodes {
        assert_eq!(BlockHash::of(&bytes), h, "a node is addressed by its bytes");
        by_hash.insert(h, bytes);
    }
    // Everything below starts from `build.root` and the blocks only.
    let walked =
        collect_leaves(&build.root, |h| by_hash.get(h).cloned()).expect("tree walk succeeds");
    let mut reassembled = Vec::with_capacity(data.len());
    for leaf in &walked {
        let bytes = &by_hash[leaf];
        assert_eq!(BlockHash::of(bytes), *leaf, "leaf failed verification");
        reassembled.extend_from_slice(bytes);
    }
    assert_eq!(reassembled, data);
    assert_eq!(walked, leaves, "walk must return leaves in ingest order");
}

/// The root is sensitive to every input bit: flipping one corpus byte
/// changes it (through new leaf hashes), as does a different fanout
/// (through tree shape).
#[test]
fn golden_root_is_input_and_shape_sensitive() {
    let (root, leaves, _) = corpus_root();
    let mut data = golden_corpus();
    data[12_345] ^= 1;
    let chunker = Chunker::new(golden_params());
    let flipped: Vec<BlockHash> = chunker
        .chunks(&data)
        .iter()
        .map(|c| BlockHash::of(c))
        .collect();
    assert_ne!(build_tree(&flipped, 4).root, root);
    assert_ne!(build_tree(&leaves, 8).root, root);
}
