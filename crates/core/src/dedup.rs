//! Content-addressed dedup mode: chunk, encode once, reference forever.
//!
//! The paper's §3.2 prices every campaign per stored byte; ROADMAP
//! item 2's lever is to store each distinct byte run **once**. With
//! [`DedupConfig`] set on the archive, ingest runs above the unchanged
//! Codec→Plan→Executor seam:
//!
//! 1. The payload is cut into content-defined chunks
//!    ([`aeon_cas::Chunker`]) — reproducible, edit-local boundaries.
//! 2. Each chunk's SHA-256 is its identity, and the unit table's block
//!    rows are the only dedup state: a block with a row, or one the
//!    flush has already introduced, is seen. Only *unseen*
//!    blocks are encoded — through the ordinary policy pipeline — and
//!    placed; seen blocks just gain a reference. The same decision,
//!    counted per landed leaf, is [`DedupStats::index`].
//! 3. The chunk hash list becomes a Merkle block tree whose interior
//!    nodes are themselves encoded blocks, so the object (and, via
//!    [`Archive::commit_catalog`], the catalog) is readable from one root
//!    hash — by this archive, whose unit table says where the blocks are.
//!
//! A read with a row goes to its leaves ([`DedupManifest::blocks`]): one
//! fetch of the distinct leaves, decoded unhashed and joined, and the
//! payload digest first — a healthy read hashes its payload once and no
//! block. Only when that root misses, or a block fails to decode, is
//! each block checked against its address, to find the bad one and read
//! it from its other shards — corruption under a shared block fails
//! *every* referencing object. Only a bare root walks the tree, every
//! block checked against its address on the way. Objects are read one
//! at a time, as batching them would reorder the node accesses of a
//! shared block.
//!
//! # Convergent per-block encoding
//!
//! A block's encode context is derived from its **content hash** —
//! `blk-<hex>` — never from the owning object or chunk position (a
//! positional `"{id}#chunk{j}"` derivation would give the same bytes a
//! different ciphertext per object and silently defeat dedup under
//! encryption). The encode DRBG is likewise derived from
//! `(archive seed, "block-encode", context)`, so identical plaintext
//! blocks produce identical shards: convergent encryption within one
//! archive. The standard trade-off applies and is deliberate — an
//! observer of the *stored* shards can tell two objects share content
//! (that is what dedup means) but learns nothing beyond the at-rest
//! guarantees of the policy.
//!
//! # Refcount lifecycle
//!
//! Every leaf occurrence and every interior-node membership of every
//! live object holds one reference on its block. Dedup ingest is the
//! archive's one ingest flush: `Archive::plan_blocks` plans the blocks
//! an object introduces, the flush writes them beside every other unit
//! and rolls back the first failed object and all after it, and only
//! once the landed prefix is anchored are block records filed and, in
//! one infallible pass, the references added — a failed ingest never
//! strands a block or a half-referenced object, and counts nothing.
//! Delete releases one reference per occurrence; a block's shards leave
//! the cluster when its count reaches zero. A committed catalog's
//! references are never released, so its blocks stay for the archive's
//! life.
//!
//! # Maintenance
//!
//! None of it lives here. A block is a stored unit like a classic
//! object (`unit.rs`), with its row in the same unit table: repair,
//! re-encode, refresh, re-wrap, the health probe and the fleet scan run
//! their one body per referenced block. This module owns what only dedup
//! has — chunking, refcounts, the leaf read, the tree walk, the catalog.

use crate::archive::{Archive, ArchiveError, Fetched, Manifest, ObjectId, Retrieved, UnitRead};
use crate::catalog::Row;
use crate::pipeline::{self, PipelineConfig};
use crate::plan::{self, WritePlan};
use crate::policy::{PolicyError, PolicyKind};
use crate::unit::Unit;
use aeon_cas::{build_tree, merkle, BlockHash, Chunker, ChunkerParams};
use aeon_store::cluster::TransferReport;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

/// Groups `hashes` by value, keeping first-occurrence order: the distinct
/// hashes in the order each first appears, and for every entry of
/// `hashes` the index of its distinct hash. One map lookup per entry — a
/// 1 GiB object is ~25 000 leaves, and scanning the earlier ones for each
/// is 3 × 10⁸ hash compares before any I/O.
pub(crate) fn first_occurrence_slots(hashes: &[BlockHash]) -> (Vec<BlockHash>, Vec<usize>) {
    let mut distinct: Vec<BlockHash> = Vec::new();
    let mut slot_of: HashMap<BlockHash, usize> = HashMap::new();
    let slots = hashes
        .iter()
        .map(|hash| {
            *slot_of.entry(*hash).or_insert_with(|| {
                distinct.push(*hash);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

/// One unit per block of `distinct`, each read on behalf of `owner`.
fn block_units<'o>(owner: &'o ObjectId, distinct: &[BlockHash]) -> Vec<(&'o ObjectId, Unit)> {
    distinct.iter().map(|h| (owner, Unit::Block(*h))).collect()
}

/// The checked reads of distinct blocks, the first failing block in
/// their order deciding the error: their bytes and the shard accounting.
fn first_failure(
    reads: Vec<Result<UnitRead, ArchiveError>>,
) -> Result<(Vec<Vec<u8>>, TransferReport), ArchiveError> {
    let mut report = TransferReport::default();
    let mut read = Vec::with_capacity(reads.len());
    for unit in reads {
        let unit = unit?;
        report.attempts.extend(unit.report.attempts);
        read.push(unit.payload);
    }
    Ok((read, report))
}

/// Configuration of the archive's content-addressed dedup mode.
#[derive(Debug, Clone)]
pub struct DedupConfig {
    /// Content-defined chunking parameters (part of the dedup identity:
    /// changing them re-cuts future ingests).
    pub chunker: ChunkerParams,
    /// Fanout of the Merkle block tree (at least 2).
    pub fanout: usize,
}

impl DedupConfig {
    /// Checks the chunker bounds and the tree fanout.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidPolicy`] when the chunker
    /// parameters are not `0 < min <= target <= max` or the fanout is
    /// below 2.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if !self.chunker.is_valid() {
            return Err(PolicyError::InvalidPolicy(format!(
                "dedup chunker needs 0 < min <= target <= max: {:?}",
                self.chunker
            )));
        }
        if self.fanout < 2 {
            return Err(PolicyError::InvalidPolicy(format!(
                "dedup tree fanout {} is below 2",
                self.fanout
            )));
        }
        Ok(())
    }
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunker: ChunkerParams::default(),
            fanout: 64,
        }
    }
}

/// What a stored block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A content-defined chunk of some payload.
    Data,
    /// A serialized Merkle tree node.
    Tree,
}

/// A dedup block's row in the unit table: how many references keep the
/// block alive, what it holds, and its unit record — the same
/// [`Manifest`] an object's row is, so maintenance loads either alike.
#[derive(Debug, Clone)]
pub struct BlockRecord {
    /// Live references (leaf occurrences + tree-node memberships).
    pub refcount: u64,
    /// Data chunk or tree node.
    pub kind: BlockKind,
    /// How the block is encoded and where it lives. `id` is its storage
    /// context `blk-<hash>`, `digest` its address, `logical_len` its
    /// plaintext length; `meta` is never chunked (blocks *are* the
    /// chunks), `name` is empty and `blocks` is `None`.
    pub record: Manifest,
}

/// The dedup side of a [`Manifest`]: the object's Merkle root and its
/// leaf blocks in payload order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupManifest {
    /// Root of the object's Merkle block tree.
    pub root: BlockHash,
    /// Leaf (data) block hashes, in payload order, duplicates included.
    pub blocks: Vec<BlockHash>,
}

/// Aggregate dedup accounting from [`Archive::dedup_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct DedupStats {
    /// Payload bytes of live dedup-ingested objects.
    pub logical_bytes: u64,
    /// Distinct data blocks resident.
    pub unique_data_blocks: usize,
    /// Plaintext bytes of distinct data blocks (the dedup'd size).
    pub unique_data_bytes: u64,
    /// Distinct tree-node blocks resident.
    pub tree_blocks: usize,
    /// Plaintext bytes of tree-node blocks (the index overhead).
    pub tree_bytes: u64,
    /// `unique_data_bytes / logical_bytes` (0 when nothing is stored).
    pub dedup_ratio: f64,
    /// How the leaves of every landed dedup ingest were found in the
    /// unit table. Named `index` for the repo benchmark's traced
    /// `cas.index.hit_ratio`, its one reader.
    pub index: IndexStats,
}

/// Leaf counts of landed dedup ingests: each leaf occurrence is a miss
/// when its ingest filed the leaf's data block, and a hit otherwise —
/// the unit table already held the block, or the flush had already
/// introduced it. A refused or rolled-back ingest counts nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Leaf occurrences whose block was already held.
    pub hits: u64,
    /// Leaf occurrences that filed a new data block.
    pub misses: u64,
}

/// One catalog row, as recovered from a catalog root hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The object's id (hex string).
    pub id: String,
    /// User-supplied name.
    pub name: String,
    /// Payload length in bytes.
    pub logical_len: u64,
    /// The payload digest ([`crate::Manifest::digest`]: the root of the
    /// payload's segment tree).
    pub digest: [u8; 32],
    /// Root of the object's Merkle block tree.
    pub root: BlockHash,
}

/// A block an ingest flush writes and files once its item lands: its
/// address, what it holds, and its plaintext length.
pub(crate) type FreshBlock = (BlockHash, BlockKind, usize);

/// Magic prefix of a serialized catalog payload.
pub const CATALOG_MAGIC: [u8; 8] = *b"AEONCAT1";

/// The storage context (object-id string) of a block: derived from the
/// content hash alone, so identical blocks encode identically no matter
/// which object or position references them.
#[must_use]
pub fn block_object_id(hash: &BlockHash) -> String {
    format!("blk-{hash}")
}

/// Pipeline settings for encoding a single block: blocks are already
/// content-sized, so the policy pipeline must never re-chunk them
/// (`meta.chunked` stays `None` and segment frames never nest).
pub(crate) fn block_pipeline() -> PipelineConfig {
    PipelineConfig {
        chunk_size: usize::MAX,
        workers: 1,
    }
}

/// The fixed bytes of a serialized row: two `u16` lengths, the `u64`
/// length, the digest and the root.
const ROW_FIXED_BYTES: usize = 2 + 2 + 8 + 32 + 32;

/// The catalog payload of every dedup row, or
/// [`ArchiveError::UnsupportedOperation`] when a row's id or name does
/// not fit its `u16` length field — refused whole, so no committed
/// catalog is one [`parse_catalog`] cannot read back.
fn serialize_catalog<'a>(
    manifests: impl Iterator<Item = &'a Manifest>,
) -> Result<Vec<u8>, ArchiveError> {
    let rows: Vec<&Manifest> = manifests.filter(|m| m.blocks.is_some()).collect();
    let mut out = Vec::new();
    out.extend_from_slice(&CATALOG_MAGIC);
    let count = u32::try_from(rows.len()).expect("fewer than 2^32 catalog rows");
    out.extend_from_slice(&count.to_be_bytes());
    for m in rows {
        let d = m.blocks.as_ref().expect("filtered to dedup manifests");
        for field in [m.id.as_str(), m.name.as_str()] {
            let len = u16::try_from(field.len()).map_err(|_| {
                ArchiveError::UnsupportedOperation(
                    "a catalog row's id or name exceeds 65 535 bytes",
                )
            })?;
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(field.as_bytes());
        }
        out.extend_from_slice(&(m.logical_len as u64).to_be_bytes());
        out.extend_from_slice(&m.digest);
        out.extend_from_slice(d.root.as_bytes());
    }
    Ok(out)
}

fn malformed_catalog() -> ArchiveError {
    ArchiveError::Policy(PolicyError::Malformed("malformed catalog payload".into()))
}

fn parse_catalog(bytes: &[u8]) -> Result<Vec<CatalogEntry>, ArchiveError> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], ArchiveError> {
        let slice = bytes.get(pos..pos + n).ok_or_else(malformed_catalog)?;
        pos += n;
        Ok(slice)
    };
    if take(8)? != CATALOG_MAGIC {
        return Err(malformed_catalog());
    }
    let count = u32::from_be_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
    // Capacity from the bytes present, not the claimed count.
    let mut entries = Vec::with_capacity(count.min(bytes.len() / ROW_FIXED_BYTES));
    for _ in 0..count {
        let id_len = u16::from_be_bytes(take(2)?.try_into().expect("2 bytes")) as usize;
        let id = String::from_utf8(take(id_len)?.to_vec()).map_err(|_| malformed_catalog())?;
        let name_len = u16::from_be_bytes(take(2)?.try_into().expect("2 bytes")) as usize;
        let name = String::from_utf8(take(name_len)?.to_vec()).map_err(|_| malformed_catalog())?;
        let logical_len = u64::from_be_bytes(take(8)?.try_into().expect("8 bytes"));
        let digest: [u8; 32] = take(32)?.try_into().expect("32 bytes");
        let root: [u8; 32] = take(32)?.try_into().expect("32 bytes");
        entries.push(CatalogEntry {
            id,
            name,
            logical_len,
            digest,
            root: BlockHash::from_bytes(root),
        });
    }
    if pos != bytes.len() {
        return Err(malformed_catalog());
    }
    Ok(entries)
}

impl Archive {
    fn tree_fanout(&self) -> usize {
        self.config.dedup.as_ref().expect("dedup configured").fanout
    }

    /// Every reference an object holds: one per leaf occurrence, then
    /// one per interior-node membership. The tree build is deterministic
    /// in `(leaves, fanout)`, so recomputing it is cheaper than
    /// persisting the node list.
    pub(crate) fn references(&self, d: &DedupManifest) -> Vec<BlockHash> {
        let nodes = build_tree(&d.blocks, self.tree_fanout()).nodes;
        d.blocks
            .iter()
            .copied()
            .chain(nodes.into_iter().map(|(h, _)| h))
            .collect()
    }

    /// Plans one dedup payload of an ingest flush: cuts it into
    /// content-defined chunks, addresses them, builds the object's tree,
    /// and encodes every data and tree block that neither the archive nor
    /// an earlier item of the flush (`fresh`, which this extends) holds.
    /// Returns the tree and the fresh blocks, data blocks first, each with
    /// its kind and plaintext length; their shard digests are left for the
    /// flush to batch. Nothing is recorded and no node is touched.
    ///
    /// Encodes run across the worker pool. Each block's stream is derived
    /// from its address alone, and contexts carry no position, so the
    /// plans do not depend on worker count or schedule.
    pub(crate) fn plan_blocks(
        &self,
        payload: &[u8],
        policy: &PolicyKind,
        fresh: &mut BTreeSet<BlockHash>,
    ) -> Result<(DedupManifest, Vec<(FreshBlock, WritePlan)>), PolicyError> {
        let dcfg = self.config.dedup.as_ref().expect("dedup configured");
        let mut slices: Vec<&[u8]> = Vec::new();
        let mut prev = 0usize;
        for end in Chunker::new(dcfg.chunker).boundaries(payload) {
            slices.push(&payload[prev..end]);
            prev = end;
        }
        let hashes = BlockHash::of_many(&slices);
        // Interior nodes are blocks too; most are new, but shared
        // subtrees (identical objects) are recognized like any block.
        let tree = build_tree(&hashes, self.tree_fanout());
        let data = hashes
            .iter()
            .zip(slices)
            .map(|(h, s)| (*h, BlockKind::Data, s));
        let nodes = tree
            .nodes
            .iter()
            .map(|(h, b)| (*h, BlockKind::Tree, b.as_slice()));
        let new: Vec<(BlockHash, BlockKind, &[u8])> = data
            .chain(nodes)
            .filter(|(h, ..)| self.manifests.block(h).is_none() && fresh.insert(*h))
            .collect();
        let block_cfg = block_pipeline();
        let plans = pipeline::run_indexed(new.len(), self.config.pipeline.workers.max(1), |k| {
            let ctx = ObjectId::from_raw(block_object_id(&new[k].0));
            let mut rng = self.op_rng("block-encode", ctx.as_str());
            plan::encode_write(policy, &self.keys, &mut rng, &ctx, new[k].2, &block_cfg)
        });
        let fresh_blocks = new
            .iter()
            .zip(plans)
            .map(|(&(hash, kind, bytes), write)| Ok(((hash, kind, bytes.len()), write?)))
            .collect::<Result<_, PolicyError>>()?;
        let tree = DedupManifest {
            root: tree.root,
            blocks: hashes,
        };
        Ok((tree, fresh_blocks))
    }

    /// The read of a leaf list, behind every dedup read: one
    /// [`Archive::fetch_units`] of the distinct leaves (a repeat is read
    /// and accounted once). With the object's `digest`, the payload's
    /// segment-tree root decides: the blocks are decoded unhashed into
    /// the payload ([`Archive::decode_leaves`]), and when every block
    /// decodes and the payload hashes to the digest the read is done,
    /// with no block hashed. Only when that root misses, a block fails to
    /// decode, or no digest is given (a bare root's leaves, the committed
    /// catalog) are the blocks checked against their addresses by
    /// [`Archive::check_units`] — a block that misses read again from the
    /// slots already fetched, the first failing block in distinct order
    /// deciding the error — and the payload joined and checked once more.
    /// Failures are typed against `owner`, the object whose read is in
    /// progress, so corruption of a shared block fails every object that
    /// references it.
    pub(crate) fn read_leaves(
        &self,
        owner: &ObjectId,
        leaves: &[BlockHash],
        digest: Option<&[u8; 32]>,
    ) -> Retrieved {
        let (distinct, slots) = first_occurrence_slots(leaves);
        let units = block_units(owner, &distinct);
        let fetched = self.fetch_units(&units)?;
        let root_holds = |payload: &[u8]| {
            digest.is_none_or(|digest| plan::tree_digests(&[payload])[0] == *digest)
        };
        let decoded = if digest.is_some() {
            let (payload, blocks) = self.decode_leaves(&fetched, &slots);
            if blocks.iter().all(Result::is_ok) && root_holds(&payload) {
                return Ok((payload, fetched.into_report()));
            }
            let block = |range: Range<usize>| payload[range].to_vec();
            blocks.into_iter().map(|b| b.map(block)).collect()
        } else {
            self.decode_fetched(&fetched)
        };
        let (read, report) = first_failure(self.check_units(fetched, decoded))?;
        let payload = slots.iter().map(|&at| read[at].as_slice());
        let payload = payload.collect::<Vec<_>>().concat();
        if !root_holds(&payload) {
            return Err(ArchiveError::IntegrityViolation(owner.clone()));
        }
        Ok((payload, report))
    }

    /// Decodes the fetched distinct blocks, unhashed, straight into the
    /// payload the leaves' `slots` spell: each block appended where it
    /// first occurs and dropped, a repeat copied from there, so at most
    /// one decoded block is held beside the payload and the fetched
    /// shards the fallback may need. Returns the payload
    /// and, per distinct block, its range in the payload or its decode
    /// failure; a failed block's occurrences are left out.
    fn decode_leaves(
        &self,
        fetched: &Fetched<'_, Unit>,
        slots: &[usize],
    ) -> (Vec<u8>, Vec<Result<Range<usize>, ArchiveError>>) {
        let len = slots.iter().map(|&at| fetched.record(at).logical_len).sum();
        let mut payload = Vec::with_capacity(len);
        let mut blocks: Vec<Result<Range<usize>, ArchiveError>> = Vec::with_capacity(fetched.len());
        for &at in slots {
            if at == blocks.len() {
                let block = self.decode_unit(&fetched.unit(at)).map(|block| {
                    payload.extend_from_slice(&block);
                    payload.len() - block.len()..payload.len()
                });
                blocks.push(block);
            } else if let Ok(range) = &blocks[at] {
                payload.extend_from_within(range.clone());
            }
        }
        (payload, blocks)
    }

    /// The leaves under a bare `root`, walked level by level: each level
    /// one [`Archive::read_units`] of its distinct blocks, every node
    /// claiming the level its parent implies. Trees are uniform (all
    /// leaves at level 0), so the breadth-first frontier keeps the leaves
    /// in payload order.
    fn walk(&self, owner: &ObjectId, root: &BlockHash) -> Result<Vec<BlockHash>, ArchiveError> {
        let violation = || ArchiveError::IntegrityViolation(owner.clone());
        let mut frontier = vec![*root];
        // The level the frontier's blocks sit at; `None` = the root's, any.
        let mut expect: Option<u8> = None;
        while expect != Some(0) {
            let (distinct, slots) = first_occurrence_slots(&frontier);
            let (read, _) = first_failure(self.read_units(&block_units(owner, &distinct))?)?;
            let mut next = Vec::new();
            for &at in &slots {
                let node = merkle::decode_node(&read[at]).map_err(|_| violation())?;
                if *expect.get_or_insert(node.level) != node.level {
                    return Err(violation());
                }
                next.extend(node.children);
            }
            // A decoded node claims level 1 or more.
            expect = expect.map(|level| level - 1);
            frontier = next;
        }
        Ok(frontier)
    }

    /// Reassembles and verifies a payload from a Merkle root alone — no
    /// manifest required. Every interior node and data block is checked
    /// against its hash on the way, which is what makes the payload
    /// trustworthy without a recorded digest.
    ///
    /// # Errors
    ///
    /// Typed like a retrieval, against a synthetic `root-<hex>` id.
    pub fn read_object_by_root(&self, root: &BlockHash) -> Result<Vec<u8>, ArchiveError> {
        let owner = ObjectId::from_raw(format!("root-{root}"));
        let leaves = self.walk(&owner, root)?;
        self.read_leaves(&owner, &leaves, None)
            .map(|(payload, _)| payload)
    }

    /// Serializes the catalog (id, name, length, digest, root of every
    /// dedup object), stores it as a flush of one through the ingest
    /// planner and commit — unanchored, and filed as blocks only, with no
    /// manifest — and returns its root hash: the single value from which
    /// this archive recovers [`Archive::catalog_entries`] and then every
    /// object (only this archive: the unit table that locates the blocks
    /// is not stored; ROADMAP 14). Nothing releases a committed catalog's
    /// references, so its blocks are pinned for the archive's life.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`] when dedup mode
    /// is off or a dedup object's id or name is longer than 65 535 bytes
    /// (before any node is touched), and storage errors (typed against
    /// the id `catalog`) otherwise.
    pub fn commit_catalog(&mut self) -> Result<BlockHash, ArchiveError> {
        if self.config.dedup.is_none() {
            return Err(ArchiveError::UnsupportedOperation(
                "catalog commit requires dedup mode",
            ));
        }
        let bytes = serialize_catalog(self.manifests.rows())?;
        let policy = self.config.policy.clone();
        let id = ObjectId::from_raw("catalog".into());
        let mut catalog = self.write_flush(&[id], &[(&bytes, "catalog")], &policy, false)?;
        let manifest = catalog.pop().expect("the one item landed");
        Ok(manifest.blocks.expect("a dedup item").root)
    }

    /// Recovers the catalog rows from a catalog root hash alone.
    ///
    /// # Errors
    ///
    /// Retrieval errors, plus [`PolicyError::Malformed`] when the
    /// recovered payload does not parse as a catalog.
    pub fn catalog_entries(&self, root: &BlockHash) -> Result<Vec<CatalogEntry>, ArchiveError> {
        parse_catalog(&self.read_object_by_root(root)?)
    }

    /// Drops one reference; the block leaves the cluster at zero.
    pub(crate) fn release_block(&mut self, hash: &BlockHash) {
        let Some(rec) = self.manifests.block_mut(hash) else {
            return;
        };
        rec.refcount = rec.refcount.saturating_sub(1);
        if rec.refcount == 0 {
            let unit = Unit::Block(*hash);
            let Manifest { id, placement, .. } =
                self.manifests.remove_unit(&unit).expect("present");
            self.executor().delete(id.as_str(), &placement);
        }
    }

    /// A block's record, for inspection and fault injection in tests.
    #[must_use]
    pub fn block_record(&self, hash: &BlockHash) -> Option<&BlockRecord> {
        self.manifests.block(hash)
    }

    /// Iterates over every resident block.
    pub fn blocks(&self) -> impl Iterator<Item = (&BlockHash, &BlockRecord)> {
        self.manifests.units().filter_map(|row| match row {
            (Unit::Block(hash), Row::Block(block)) => Some((hash, block)),
            _ => None,
        })
    }

    /// Aggregate dedup accounting, in one walk of the unit table; `None`
    /// when dedup mode is off.
    #[must_use]
    pub fn dedup_stats(&self) -> Option<DedupStats> {
        self.config.dedup.as_ref()?;
        let mut stats = DedupStats {
            logical_bytes: 0,
            unique_data_blocks: 0,
            unique_data_bytes: 0,
            tree_blocks: 0,
            tree_bytes: 0,
            dedup_ratio: 0.0,
            index: self.leaf_counts,
        };
        for (_, row) in self.manifests.units() {
            match row {
                Row::Object(m) if m.blocks.is_some() => stats.logical_bytes += m.logical_len as u64,
                Row::Object(_) => {}
                Row::Block(block) => {
                    let (count, bytes) = match block.kind {
                        BlockKind::Data => {
                            (&mut stats.unique_data_blocks, &mut stats.unique_data_bytes)
                        }
                        BlockKind::Tree => (&mut stats.tree_blocks, &mut stats.tree_bytes),
                    };
                    *count += 1;
                    *bytes += block.record.logical_len as u64;
                }
            }
        }
        if stats.logical_bytes > 0 {
            stats.dedup_ratio = stats.unique_data_bytes as f64 / stats.logical_bytes as f64;
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadratic scan `first_occurrence_slots` replaced.
    fn slots_by_scan(hashes: &[BlockHash]) -> (Vec<BlockHash>, Vec<usize>) {
        let mut distinct: Vec<BlockHash> = Vec::new();
        let slots = hashes
            .iter()
            .map(|h| match distinct.iter().position(|d| d == h) {
                Some(at) => at,
                None => {
                    distinct.push(*h);
                    distinct.len() - 1
                }
            })
            .collect();
        (distinct, slots)
    }

    /// `len` hashes drawn from `distinct` values in a fixed scrambled order.
    fn hashes(len: usize, distinct: u64) -> Vec<BlockHash> {
        (0..len as u64)
            .map(|i| {
                let value = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % distinct;
                BlockHash::of(&value.to_le_bytes())
            })
            .collect()
    }

    #[test]
    fn slots_equal_the_scan_on_lists_with_repeats() {
        let [a, b, c] = [b"a", b"b", b"c"].map(|data| BlockHash::of(data));
        let lists: [Vec<BlockHash>; 7] = [
            vec![],
            vec![a],
            vec![a, a, a],
            vec![a, b, c],
            vec![a, b, a, c, b, a],
            hashes(300, 7),
            hashes(300, 1000),
        ];
        for list in &lists {
            assert_eq!(first_occurrence_slots(list), slots_by_scan(list));
        }
        let (distinct, slots) = first_occurrence_slots(&lists[4]);
        assert_eq!(distinct, [a, b, c]);
        assert_eq!(slots, [0, 1, 0, 2, 1, 0]);
    }

    #[test]
    fn slots_equal_the_scan_on_fifty_thousand_leaves() {
        let list = hashes(50_000, 2_000);
        let (distinct, slots) = first_occurrence_slots(&list);
        assert_eq!((distinct.len(), slots.len()), (2_000, list.len()));
        assert_eq!((distinct, slots), slots_by_scan(&list));
    }

    /// Chunker bounds the chunker would panic on, and a fanout below 2,
    /// are refused when the archive is built, not at the first ingest.
    #[test]
    fn an_invalid_dedup_config_is_refused_at_construction() {
        let policy = PolicyKind::ErasureCoded { data: 2, parity: 1 };
        let no_minimum = ChunkerParams {
            min_size: 0,
            ..ChunkerParams::default()
        };
        for (chunker, fanout) in [(no_minimum, 4), (ChunkerParams::default(), 1)] {
            let dedup = DedupConfig { chunker, fanout };
            let config = crate::ArchiveConfig::new(policy.clone()).with_dedup(dedup);
            let refused = Archive::in_memory(config).map(|_| ()).unwrap_err();
            assert!(
                matches!(refused, ArchiveError::Policy(PolicyError::InvalidPolicy(_))),
                "fanout {fanout}: {refused}"
            );
        }
    }

    /// A parse of hostile bytes: the rows, or the one typed refusal.
    fn parses_or_refuses(bytes: &[u8]) -> Option<Vec<CatalogEntry>> {
        match parse_catalog(bytes) {
            Ok(rows) => Some(rows),
            Err(ArchiveError::Policy(PolicyError::Malformed(_))) => None,
            Err(other) => panic!("untyped catalog refusal: {other}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, with and without the magic prefix (without
        /// it nearly every case stops at the prefix), parse or are
        /// refused with a typed error — never a panic.
        #[test]
        fn hostile_catalog_bytes_parse_or_fail_typed(
            magic in proptest::prelude::any::<bool>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            let mut bytes = if magic { CATALOG_MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&tail);
            parses_or_refuses(&bytes);
        }
    }

    /// A real committed catalog, cut at every offset and with every bit
    /// flipped in turn: each cut is refused, each flip parses or is
    /// refused, and nothing panics.
    #[test]
    fn hostile_catalog_cuts_and_flips_parse_or_fail_typed() {
        let dedup = DedupConfig {
            chunker: ChunkerParams {
                min_size: 64,
                target_size: 256,
                max_size: 1024,
                seed: 7,
            },
            fanout: 4,
        };
        let policy = PolicyKind::ErasureCoded { data: 2, parity: 1 };
        let config = crate::ArchiveConfig::new(policy).with_dedup(dedup);
        let mut archive = Archive::in_memory(config).unwrap();
        for (i, name) in ["a", "ünïcode name", &"x".repeat(300)].iter().enumerate() {
            archive.ingest(&vec![i as u8; 700 + i], name).unwrap();
        }
        let root = archive.commit_catalog().unwrap();
        let bytes = archive.read_object_by_root(&root).unwrap();
        assert_eq!(parses_or_refuses(&bytes).map(|rows| rows.len()), Some(3));
        for cut in 0..bytes.len() {
            assert!(
                parses_or_refuses(&bytes[..cut]).is_none(),
                "cut at {cut} parsed"
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            parses_or_refuses(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
