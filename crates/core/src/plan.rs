//! Pure plans: I/O-free descriptions of archive operations.
//!
//! Planning and doing are separate layers. Functions here consume
//! manifests, payloads, and fetched shard snapshots and produce plan
//! *values* — [`WritePlan`], [`ReadPlan`], [`RepairPlan`] — that state
//! exactly which bytes belong at which shard slots. They are
//! deterministic in their inputs (including the rng state passed in)
//! and perform no node I/O; applying a plan against a cluster is the
//! [`crate::executor::PlanExecutor`]'s job, and nobody else's. The
//! split is the paper's §3.2 agility argument made structural: a codec
//! change swaps the plan contents, a storage change swaps the executor,
//! and neither can reach around the seam.
//!
//! The planners that start from *fetched* shards — repair, refresh,
//! re-wrap — see them as a list of chunks (the crate-private
//! `pipeline::StoredChunks` view): one loop over the chunks, each handed
//! to the policy's dispersal (and, for a re-wrap, its seal),
//! then a join back into one blob per slot. Whether the set is framed or
//! a single chunk is the view's business, not theirs.

use crate::archive::{ArchiveError, Manifest, ObjectId};
use crate::codec::{self, CodecRepair, RepairMethod};
use crate::keys::KeyStore;
use crate::pipeline::{self, PipelineConfig, StoredChunks};
use crate::policy::{EncodingMeta, PolicyError, PolicyKind};
use aeon_crypto::{CryptoRng, Sha256, SuiteId};
use aeon_integrity::merkle;
use aeon_secretshare::proactive::{self, ProtocolCost};
use aeon_secretshare::shamir::Share;
use aeon_store::node::NodeId;
use std::mem;

/// A fully determined object write: every shard byte and its digest,
/// computed before any node is touched.
#[derive(Debug, Clone)]
pub struct WritePlan {
    /// The object being written.
    pub object: ObjectId,
    /// The policy the shards are encoded under.
    pub policy: PolicyKind,
    /// One blob per placement slot.
    pub shards: Vec<Vec<u8>>,
    /// The shard digest (the root of the blob's [`SEGMENT`] tree) of each
    /// blob, indexed like `shards`.
    pub shard_digests: Vec<[u8; 32]>,
    /// Encode-time metadata for the manifest.
    pub meta: EncodingMeta,
    /// Minimum shards that must land durably for the object to remain
    /// readable (the policy's read threshold).
    pub required: usize,
}

/// A fully determined object read: where the shards live, what their
/// bytes must hash to, how many shards the caller will consume, and
/// whether the executor checks them.
///
/// Every slot is fetched whatever the plan says. A *scrub* (verify,
/// repair, refresh, re-wrap, transfer) asks the executor to check every
/// slot against its digest. A *decode read* ([`ReadPlan::for_decode`]:
/// retrieval, the dedup reads, re-encode) asks it to check none: the
/// decoder consumes the first `need` present slots, and the decoded
/// payload's digest alone decides whether the read returns bytes. Only
/// when that decode fails does the reader check the slots it already
/// holds by digest, to find and discard the corrupt ones.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// The object being read.
    pub object: ObjectId,
    /// Node placement, one entry per shard.
    pub placement: Vec<NodeId>,
    /// Expected shard digest (the root of the blob's [`SEGMENT`] tree) of
    /// each stored blob. A slot whose bytes do not match is discarded as
    /// bit-rot rather than fed to the decoder.
    pub shard_digests: Vec<[u8; 32]>,
    /// Shards the caller will consume: the first `need` valid slots in
    /// slot order, which is what every dispersal decodes from. A
    /// verifying read stops hashing once `need` slots are valid, and
    /// slots past them come back `None`, unhashed and uncounted.
    pub need: usize,
    /// Whether the executor checks slots against `shard_digests`. When
    /// `false`, every fetched slot comes back unhashed and the caller
    /// consumes the first `need` present ones.
    pub verify: bool,
}

impl ReadPlan {
    /// The full-scrub read of a manifest: every slot is verified
    /// (`need` = the placement's length).
    pub fn for_manifest(manifest: &Manifest) -> Self {
        ReadPlan {
            object: manifest.id.clone(),
            placement: manifest.placement.clone(),
            shard_digests: manifest.shard_digests.clone(),
            need: manifest.placement.len(),
            verify: true,
        }
    }

    /// The decode read of a manifest: nothing is verified per shard, and
    /// the decoder consumes the first `need` = the policy's read
    /// threshold present slots.
    pub fn for_decode(manifest: &Manifest) -> Self {
        ReadPlan {
            need: manifest.policy.read_threshold(),
            verify: false,
            ..Self::for_manifest(manifest)
        }
    }
}

/// A fully determined partial repair: the exact bytes to put back at
/// each missing shard slot.
#[derive(Debug, Clone)]
pub struct RepairPlan {
    /// The object being repaired.
    pub object: ObjectId,
    /// `(shard index, rebuilt bytes)` for each slot to rewrite, in
    /// ascending index order.
    pub writes: Vec<(usize, Vec<u8>)>,
    /// The strategy the dispersal used.
    pub method: RepairMethod,
}

/// What [`plan_repair`] decided.
#[derive(Debug, Clone)]
pub enum RepairOutcome {
    /// A partial repair is possible; apply the plan.
    Apply(RepairPlan),
    /// The policy has no partial-repair structure: the caller must
    /// decode the object and re-ingest it (a full re-encode).
    Reencode,
}

/// Plans an object write: encodes the payload through the chunked
/// pipeline and digests every shard. Pure but rng-consuming — the
/// caller's DRBG advances exactly as the encode demands.
///
/// # Errors
///
/// Returns [`PolicyError`] on invalid policies or encode failures.
pub fn plan_write<R: CryptoRng + ?Sized>(
    policy: &PolicyKind,
    keys: &KeyStore,
    rng: &mut R,
    id: &ObjectId,
    payload: &[u8],
    cfg: &PipelineConfig,
) -> Result<WritePlan, PolicyError> {
    let mut write = encode_write(policy, keys, rng, id, payload, cfg)?;
    write.shard_digests = tree_digests(&write.shards);
    Ok(write)
}

/// The length of a segment: a shard digest and an object's payload
/// digest are each the root of a Merkle tree over the bytes cut into
/// `SEGMENT`-byte segments (the last one shorter). One segment is 256
/// SHA-256 blocks, so a lone 256 KiB shard fills the sixteen lanes of
/// [`Sha256::digest_many_tagged`] and a 1 MiB payload keeps them full
/// four times over, while a 4–32 KiB small file stays one or two leaves.
/// Not configurable: a different length is a different digest for every
/// stored shard and every recorded object.
pub const SEGMENT: usize = 16 << 10;

/// The segment-tree digest of each of `blobs`, indexed like it: the root
/// of the RFC 6962 tree `aeon_integrity::merkle::MerkleTree` builds over
/// the blob's [`SEGMENT`]-byte segments — leaf = SHA-256(0x00 ‖
/// segment), node = SHA-256(0x01 ‖ left ‖ right), an odd node promoted,
/// a one-segment blob's root its leaf hash, and the empty blob's
/// `leaf_hash(b"")`. Every segment of every blob in the call is one
/// message of a single [`Sha256::digest_many_tagged`] batch, hashed where
/// it lies; the interior nodes are folded per blob after it.
///
/// Every shard digest and every object's payload digest the archive
/// records or checks is computed here (or, for a payload that is never
/// held whole, by [`SegmentHasher`]), and nowhere else.
pub(crate) fn tree_digests<S: AsRef<[u8]>>(blobs: &[S]) -> Vec<[u8; 32]> {
    let count = |blob: &[u8]| blob.len().div_ceil(SEGMENT).max(1);
    // Counted first: a `flat_map` collect has no size hint to go by.
    let mut segments: Vec<&[u8]> =
        Vec::with_capacity(blobs.iter().map(|blob| count(blob.as_ref())).sum());
    for blob in blobs {
        let blob = blob.as_ref();
        let cuts = (0..count(blob)).map(|i| &blob[i * SEGMENT..blob.len().min((i + 1) * SEGMENT)]);
        segments.extend(cuts);
    }
    let mut leaves = Sha256::digest_many_tagged(0x00, &segments);
    if leaves.len() == blobs.len() {
        // Every blob is one segment, whose leaf is its root.
        return leaves;
    }
    let mut rest = leaves.as_mut_slice();
    blobs
        .iter()
        .map(|blob| {
            let (level, later) = mem::take(&mut rest).split_at_mut(count(blob.as_ref()));
            rest = later;
            merkle::fold_root(level).expect("a blob has a segment")
        })
        .collect()
}

/// [`tree_digests`] of one byte string fed in pieces, for a payload that
/// is never held whole (a dedup object's verify spells it from its leaf
/// blocks). It holds one running leaf hash and, per level, at most one
/// finished subtree root: a leaf count below 2^64 needs at most 64, and
/// the occupied levels are the set bits of the count. A new leaf carries
/// up through the occupied levels like a binary counter; the finish folds
/// the occupied levels from the lowest up, each the left child of what is
/// folded above it — the tree `MerkleTree::build`'s odd-node promotion
/// gives.
pub(crate) struct SegmentHasher {
    leaf: Sha256,
    /// Bytes of the current segment fed to `leaf`.
    filled: usize,
    /// Finished segments.
    leaves: u64,
    /// `roots[l]`, when bit `l` of `leaves` is set: the root of the
    /// latest finished subtree of 2^l leaves.
    roots: [[u8; 32]; 64],
}

impl SegmentHasher {
    pub(crate) fn new() -> Self {
        SegmentHasher {
            leaf: Self::leaf(),
            filled: 0,
            leaves: 0,
            roots: [[0; 32]; 64],
        }
    }

    fn leaf() -> Sha256 {
        let mut leaf = Sha256::new();
        leaf.update(&[0x00]);
        leaf
    }

    /// Feeds the next `bytes` of the payload.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (now, later) = bytes.split_at(bytes.len().min(SEGMENT - self.filled));
            self.leaf.update(now);
            self.filled += now.len();
            bytes = later;
            if self.filled == SEGMENT {
                self.finish_leaf();
            }
        }
    }

    /// Closes the current segment and carries its leaf up the levels.
    fn finish_leaf(&mut self) {
        let mut carry = mem::replace(&mut self.leaf, Self::leaf()).finalize();
        self.filled = 0;
        let mut level = 0;
        while self.leaves >> level & 1 == 1 {
            carry = merkle::node_hash(&self.roots[level], &carry);
            level += 1;
        }
        self.roots[level] = carry;
        self.leaves += 1;
    }

    /// The root over every byte fed: equal to `tree_digests(&[all])[0]`.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        if self.filled > 0 || self.leaves == 0 {
            self.finish_leaf();
        }
        let mut occupied = (0..64).filter(|&l| self.leaves >> l & 1 == 1);
        let lowest = occupied.next().expect("at least one leaf");
        occupied.fold(self.roots[lowest], |right, l| {
            merkle::node_hash(&self.roots[l], &right)
        })
    }
}

/// The encode half of [`plan_write`]: the plan with `shard_digests`
/// still empty, for the ingest flush, whose one write digests every
/// plan's shards in one [`tree_digests`] batch.
///
/// # Errors
///
/// As [`plan_write`].
pub(crate) fn encode_write<R: CryptoRng + ?Sized>(
    policy: &PolicyKind,
    keys: &KeyStore,
    rng: &mut R,
    id: &ObjectId,
    payload: &[u8],
    cfg: &PipelineConfig,
) -> Result<WritePlan, PolicyError> {
    let encoded = pipeline::encode_object(policy, keys, rng, id.as_str(), payload, cfg)?;
    Ok(WritePlan {
        object: id.clone(),
        policy: policy.clone(),
        required: policy.read_threshold(),
        shard_digests: Vec::new(),
        shards: encoded.shards,
        meta: encoded.meta,
    })
}

/// Plans the repair of an object's missing shard slots from the
/// digest-filtered snapshot `shards` (`None` = missing), chunk by chunk
/// — the stored layout is not code material — rebuilding and re-joining
/// only the missing slots' bytes.
///
/// # Errors
///
/// Returns decode errors when too few survivors remain, and
/// [`PolicyError::Malformed`] for a slot outside the set.
pub fn plan_repair(
    manifest: &Manifest,
    shards: &[Option<impl AsRef<[u8]>>],
    missing: &[usize],
) -> Result<RepairOutcome, ArchiveError> {
    let (_, dispersal) = manifest.policy.scheme();
    let chunks = StoredChunks::parse(manifest.id.as_str(), &manifest.meta, shards)?;
    let mut rebuilt = Vec::with_capacity(chunks.count());
    let mut method = RepairMethod::NotNeeded;
    for j in 0..chunks.count() {
        match dispersal.repair_chunk(&chunks.shards(j), missing)? {
            CodecRepair::Rebuilt { shards, method: m } => {
                method = m;
                rebuilt.push(shards);
            }
            CodecRepair::FullReencode => return Ok(RepairOutcome::Reencode),
        }
    }
    let writes = missing.iter().copied().zip(chunks.join(rebuilt));
    Ok(RepairOutcome::Apply(RepairPlan {
        object: manifest.id.clone(),
        writes: writes.collect(),
        method,
    }))
}

/// Plans one Herzberg proactive-refresh epoch over a Shamir object's
/// complete share set, returning the re-randomized blobs and the
/// protocol's communication cost. Each chunk's share set refreshes
/// independently: the zero-sharing delta lands on share payloads only,
/// never on the stored layout.
///
/// # Errors
///
/// Returns [`ArchiveError::UnsupportedOperation`] when a share is
/// absent, and framing or secret-sharing protocol errors.
pub fn plan_refresh<R: CryptoRng + ?Sized>(
    manifest: &Manifest,
    threshold: usize,
    rng: &mut R,
    shards: &[Option<impl AsRef<[u8]>>],
) -> Result<(Vec<Vec<u8>>, ProtocolCost), ArchiveError> {
    if shards.iter().any(Option::is_none) {
        return Err(ArchiveError::UnsupportedOperation(
            "refresh requires all shareholders online",
        ));
    }
    let chunks = StoredChunks::parse(manifest.id.as_str(), &manifest.meta, shards)?;
    let mut refreshed = Vec::with_capacity(chunks.count());
    let mut total = ProtocolCost::default();
    for j in 0..chunks.count() {
        // Every slot is present, so position is share index.
        let present = chunks.shards(j).into_iter().flatten();
        let mut shares: Vec<Share> = present
            .enumerate()
            .map(|(i, data)| Share {
                index: (i + 1) as u8,
                data: data.to_vec(),
            })
            .collect();
        total.add(proactive::refresh(rng, &mut shares, threshold)?);
        refreshed.push(shares.into_iter().map(|s| s.data).collect());
    }
    Ok((chunks.join(refreshed), total))
}

/// [`codec::layered`], with its `None` as the typed refusal.
fn layered(policy: &PolicyKind) -> Result<(&[SuiteId], usize, usize), ArchiveError> {
    codec::layered(policy).ok_or(ArchiveError::UnsupportedOperation(
        "re-wrap requires the Cascade policy",
    ))
}

/// What an emergency re-wrap with `new_suite` makes of `policy`: the
/// same cascade over the same code, one layer deeper.
///
/// # Errors
///
/// Returns [`ArchiveError::UnsupportedOperation`] for a policy that is
/// not layered — there is no outer layer to add to.
pub(crate) fn rewrapped_policy(
    policy: &PolicyKind,
    new_suite: SuiteId,
) -> Result<PolicyKind, ArchiveError> {
    let (suites, data, parity) = layered(policy)?;
    Ok(PolicyKind::Cascade {
        suites: suites.iter().copied().chain([new_suite]).collect(),
        data,
        parity,
    })
}

/// Plans an emergency outer re-wrap of a layered object from its
/// fetched shards: gathers each chunk's ciphertext, adds one more AEAD
/// layer under the context and key version that chunk was sealed with,
/// and disperses it again — no plaintext, no inner-layer keys. Returns
/// the new shard set and the policy value describing the deepened stack.
///
/// # Errors
///
/// Returns [`ArchiveError::UnsupportedOperation`] for policies without
/// a layered structure, and shard/crypto errors otherwise.
pub fn plan_rewrap(
    manifest: &Manifest,
    keys: &KeyStore,
    shards: &[Option<impl AsRef<[u8]>>],
    new_suite: SuiteId,
) -> Result<(Vec<Vec<u8>>, PolicyKind), ArchiveError> {
    let layers = layered(&manifest.policy)?;
    let chunks = StoredChunks::parse(manifest.id.as_str(), &manifest.meta, shards)?;
    let rewrapped = (0..chunks.count())
        .map(|j| {
            let key_version = chunks.meta(j).key_version;
            codec::rewrap_chunk(
                layers,
                keys,
                &chunks.context(j),
                key_version,
                &chunks.shards(j),
                new_suite,
            )
        })
        .collect::<Result<_, _>>()?;
    let new_policy = rewrapped_policy(&manifest.policy, new_suite)?;
    Ok((chunks.join(rewrapped), new_policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_integrity::merkle::{leaf_hash, MerkleTree};
    use proptest::prelude::*;

    /// The reference definition: `MerkleTree` over the shard's segments,
    /// the empty shard's root its one empty leaf.
    fn reference(shard: &[u8]) -> [u8; 32] {
        MerkleTree::build(shard.chunks(SEGMENT)).map_or(leaf_hash(b""), |tree| tree.root())
    }

    fn bytes(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) as u8)
            .collect()
    }

    /// Every shard length at a segment or block edge, digested alone and
    /// all in one batch, equals the reference tree's root (run under both
    /// `AEON_FORCE_KERNEL` legs: lanes and one stream at a time).
    #[test]
    fn a_shard_digest_is_the_segment_tree_root() {
        let lens = [
            0,
            1,
            63,
            64,
            SEGMENT - 1,
            SEGMENT,
            SEGMENT + 1,
            16 * SEGMENT + 5,
        ];
        let shards: Vec<Vec<u8>> = (0..).zip(lens).map(|(i, len)| bytes(len, i)).collect();
        let borrowed: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let expect: Vec<[u8; 32]> = borrowed.iter().map(|s| reference(s)).collect();
        assert_eq!(tree_digests(&borrowed), expect);
        for (shard, digest) in borrowed.iter().zip(&expect) {
            assert_eq!(tree_digests(&[shard]), [*digest], "{} bytes", shard.len());
        }
        assert_eq!(tree_digests::<&[u8]>(&[]), Vec::<[u8; 32]>::new());
        assert_eq!(tree_digests(&[b""]), [leaf_hash(b"")]);
        // One segment: the root is the leaf, not SHA-256 of the bytes.
        assert_ne!(tree_digests(&[b"abc"])[0], Sha256::digest(b"abc"));
    }

    proptest! {
        #[test]
        fn shard_digests_equal_the_reference_tree(
            lens in prop::collection::vec(0..(3 * SEGMENT + 200), 0..7),
            salt in any::<u32>(),
        ) {
            let shards: Vec<Vec<u8>> = lens.iter().map(|&len| bytes(len, salt)).collect();
            let borrowed: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
            let expect: Vec<[u8; 32]> = borrowed.iter().map(|s| reference(s)).collect();
            prop_assert_eq!(tree_digests(&borrowed), expect);
        }

        /// A payload fed to the streaming hasher in pieces cut anywhere
        /// has the batch function's root.
        #[test]
        fn the_streaming_hasher_equals_the_batch_digest(
            len in 0..(9 * SEGMENT + 300),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
            salt in any::<u32>(),
        ) {
            let payload = bytes(len, salt);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = SegmentHasher::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                hasher.update(&payload[at..cut]);
                at = cut;
            }
            prop_assert_eq!(hasher.finalize(), tree_digests(&[&payload])[0]);
        }
    }

    /// Every leaf count up to 33 (each carry pattern of the fold), at
    /// and beside each segment edge, equals the reference tree.
    #[test]
    fn the_streaming_hasher_folds_like_the_tree() {
        for leaves in 0..=33 {
            let edge = leaves * SEGMENT;
            for len in [edge.saturating_sub(1), edge, edge + 1] {
                let payload = bytes(len, leaves as u32);
                let mut whole = SegmentHasher::new();
                whole.update(&payload);
                assert_eq!(whole.finalize(), reference(&payload), "{len} bytes");
            }
        }
    }
}
