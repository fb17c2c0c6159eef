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

use crate::archive::{ArchiveError, Manifest, ObjectId};
use crate::codec::{CodecRepair, RepairMethod};
use crate::keys::KeyStore;
use crate::pipeline::{self, ChunkColumns, PipelineConfig};
use crate::policy::{EncodingMeta, PolicyError, PolicyKind};
use aeon_crypto::{CryptoRng, Sha256, SuiteId};
use aeon_secretshare::proactive::{self, ProtocolCost};
use aeon_secretshare::shamir::Share;
use aeon_store::node::NodeId;

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
    /// SHA-256 of each blob, indexed like `shards`.
    pub shard_digests: Vec<[u8; 32]>,
    /// Encode-time metadata for the manifest.
    pub meta: EncodingMeta,
    /// Minimum shards that must land durably for the object to remain
    /// readable (the policy's read threshold).
    pub required: usize,
}

/// A fully determined object read: where the shards live and what
/// their bytes must hash to.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// The object being read.
    pub object: ObjectId,
    /// Node placement, one entry per shard.
    pub placement: Vec<NodeId>,
    /// Expected SHA-256 of each stored blob; mismatching shards are
    /// discarded as bit-rot rather than fed to the decoder.
    pub shard_digests: Vec<[u8; 32]>,
}

impl ReadPlan {
    /// The read plan recorded in a manifest.
    pub fn for_manifest(manifest: &Manifest) -> Self {
        ReadPlan {
            object: manifest.id.clone(),
            placement: manifest.placement.clone(),
            shard_digests: manifest.shard_digests.clone(),
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
    /// The strategy the codec used.
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
    let encoded = pipeline::encode_object(policy, keys, rng, id.as_str(), payload, cfg)?;
    let shard_digests: Vec<[u8; 32]> = encoded
        .shards
        .iter()
        .map(|s| Sha256::digest(s.as_slice()))
        .collect();
    Ok(WritePlan {
        object: id.clone(),
        policy: policy.clone(),
        required: policy.read_threshold(),
        shard_digests,
        shards: encoded.shards,
        meta: encoded.meta,
    })
}

/// Plans the repair of an object's missing shard slots from the
/// digest-filtered snapshot `shards` (`None` = missing). Chunked
/// objects are repaired chunk by chunk — the length-prefix framing is
/// not code material — and the frames are reassembled afterwards. For
/// Shamir this is byte-identical to interpolating the framed blobs
/// whole: every share carries the same framing constants, and Lagrange
/// coefficients sum to 1, so equal constants interpolate to themselves.
///
/// # Errors
///
/// Returns decode errors when too few survivors remain.
pub fn plan_repair(
    manifest: &Manifest,
    shards: &[Option<Vec<u8>>],
    missing: &[usize],
) -> Result<RepairOutcome, ArchiveError> {
    let codec = manifest.policy.codec();
    let (writes, method) = if let Some(chunked) = &manifest.meta.chunked {
        let chunk_count = chunked.chunk_count();
        let columns = ChunkColumns::parse(shards, chunk_count).map_err(ArchiveError::Policy)?;
        // Only the missing slots' rebuilt segments are kept and re-framed.
        let mut rebuilt: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(chunk_count); missing.len()];
        let mut method = RepairMethod::NotNeeded;
        for j in 0..chunk_count {
            match codec.repair_chunk(&columns.chunk(j))? {
                CodecRepair::Rebuilt {
                    shards: chunk_all,
                    method: m,
                } => {
                    method = m;
                    for (column, &slot) in rebuilt.iter_mut().zip(missing) {
                        column.push(chunk_all[slot].clone());
                    }
                }
                CodecRepair::FullReencode => return Ok(RepairOutcome::Reencode),
            }
        }
        let writes = missing
            .iter()
            .zip(&rebuilt)
            .map(|(&m, segments)| (m, pipeline::join_shard_segments(segments)))
            .collect();
        (writes, method)
    } else {
        match codec.repair_chunk(shards)? {
            CodecRepair::Rebuilt { shards, method } => (
                missing.iter().map(|&m| (m, shards[m].clone())).collect(),
                method,
            ),
            CodecRepair::FullReencode => return Ok(RepairOutcome::Reencode),
        }
    };
    Ok(RepairOutcome::Apply(RepairPlan {
        object: manifest.id.clone(),
        writes,
        method,
    }))
}

/// Plans one Herzberg proactive-refresh epoch over a Shamir object's
/// complete share set, returning the re-randomized blobs and the
/// protocol's communication cost. Chunked objects refresh each chunk's
/// share set independently: the zero-sharing delta must land on share
/// payloads only, never on the segment framing.
///
/// # Errors
///
/// Returns framing or secret-sharing protocol errors.
pub fn plan_refresh<R: CryptoRng + ?Sized>(
    threshold: usize,
    meta: &EncodingMeta,
    rng: &mut R,
    stored: Vec<Vec<u8>>,
) -> Result<(Vec<Vec<u8>>, ProtocolCost), ArchiveError> {
    if let Some(chunked) = meta.chunked.clone() {
        let chunk_count = chunked.chunk_count();
        let mut columns: Vec<Vec<Vec<u8>>> = stored
            .iter()
            .map(|b| pipeline::split_shard_segments(b, chunk_count))
            .collect::<Result<_, _>>()
            .map_err(ArchiveError::Policy)?;
        let mut total = ProtocolCost {
            messages: 0,
            bytes: 0,
        };
        for j in 0..chunk_count {
            let mut shares: Vec<Share> = columns
                .iter()
                .enumerate()
                .map(|(i, segments)| Share {
                    index: (i + 1) as u8,
                    data: segments[j].clone(),
                })
                .collect();
            let cost = proactive::refresh(rng, &mut shares, threshold)?;
            total.messages += cost.messages;
            total.bytes += cost.bytes;
            for (column, share) in columns.iter_mut().zip(shares) {
                column[j] = share.data;
            }
        }
        let blobs = columns
            .iter()
            .map(|segments| pipeline::join_shard_segments(segments))
            .collect();
        Ok((blobs, total))
    } else {
        let mut shares: Vec<Share> = stored
            .into_iter()
            .enumerate()
            .map(|(i, data)| Share {
                index: (i + 1) as u8,
                data,
            })
            .collect();
        let cost = proactive::refresh(rng, &mut shares, threshold)?;
        Ok((shares.into_iter().map(|s| s.data).collect(), cost))
    }
}

/// Plans an emergency outer re-wrap of a layered object from its
/// fetched shards: rebuilds each chunk's ciphertext from the erasure
/// code, has the codec apply one more AEAD layer, and re-encodes —
/// no plaintext, no inner-layer keys. Returns the new shard set and
/// the policy value describing the deepened stack.
///
/// # Errors
///
/// Returns [`ArchiveError::UnsupportedOperation`] for policies without
/// a layered structure, and shard/crypto errors otherwise.
pub fn plan_rewrap(
    manifest: &Manifest,
    keys: &KeyStore,
    shards: &[Option<Vec<u8>>],
    new_suite: SuiteId,
) -> Result<(Vec<Vec<u8>>, PolicyKind), ArchiveError> {
    let codec = manifest.policy.codec();
    let Some(new_policy) = codec.rewrapped_policy(new_suite) else {
        return Err(ArchiveError::UnsupportedOperation(
            "re-wrap requires the Cascade policy",
        ));
    };
    let id = manifest.id.as_str();
    let new_shards: Vec<Vec<u8>> = if let Some(chunked) = manifest.meta.chunked.clone() {
        // Chunked objects are re-wrapped chunk by chunk: each chunk was
        // sealed under its own derived context (and possibly key
        // version), and the segment framing must survive untouched.
        let chunk_count = chunked.chunk_count();
        let columns: Vec<Option<Vec<Vec<u8>>>> = shards
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|b| pipeline::split_shard_segments(b, chunk_count))
                    .transpose()
            })
            .collect::<Result<_, _>>()
            .map_err(ArchiveError::Policy)?;
        let mut rebuilt: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(chunk_count); shards.len()];
        for j in 0..chunk_count {
            let chunk_shards: Vec<Option<Vec<u8>>> = columns
                .iter()
                .map(|col| col.as_ref().map(|segments| segments[j].clone()))
                .collect();
            let chunk_id = pipeline::chunk_object_id(id, j);
            let segments = codec
                .rewrap_chunk(
                    keys,
                    &chunk_id,
                    chunked.chunk_metas[j].key_version,
                    &chunk_shards,
                    new_suite,
                )
                .map_err(ArchiveError::Policy)?;
            for (column, segment) in rebuilt.iter_mut().zip(segments) {
                column.push(segment);
            }
        }
        rebuilt
            .iter()
            .map(|segments| pipeline::join_shard_segments(segments))
            .collect()
    } else {
        codec
            .rewrap_chunk(keys, id, manifest.meta.key_version, shards, new_suite)
            .map_err(ArchiveError::Policy)?
    };
    Ok((new_shards, new_policy))
}
