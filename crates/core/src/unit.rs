//! Stored units: the one kind of thing maintenance operates on.
//!
//! A **unit** is an encoded shard set plus the record saying how it is
//! encoded and where it lives (`policy`, `meta`, `placement`,
//! `shard_digests`, payload digest, context string). The record has two
//! homes and one type: it is a [`Manifest`] whether it is a classic
//! object's catalog row or the `record` of a dedup block's block-map
//! entry. [`Archive::load`] clones it and [`Archive::store`] writes the
//! same four fields back into either home, so repair, re-encode,
//! refresh, re-wrap and the health probe are each written **once**
//! against a unit and `Archive::{repair_object,
//! reencode_object, refresh_object, add_cascade_layer}`,
//! [`Archive::scan_fleet`] and [`Archive::verify`] fold that body over
//! [`Archive::units_of`]: a classic object is one unit (itself), a
//! dedup object is the distinct blocks it references.
//!
//! What differs per kind is data, not control flow — the context string,
//! the payload digest, the encode stream and pipeline
//! ([`Archive::plan_unit_write`], the only `match` on kind an op body
//! reaches) and the retry-rng [`Labels`]; DESIGN.md, *Stored units*, has
//! the table.

use crate::archive::{Archive, ArchiveError, Manifest, ObjectId};
use crate::dedup::{block_pipeline, first_occurrence_slots};
use crate::plan::{self, WritePlan};
use crate::policy::{PolicyError, PolicyKind};
use aeon_cas::BlockHash;

/// Names a unit by the home of its record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Unit {
    /// A classic object: the record is its catalog row.
    Object(ObjectId),
    /// A dedup block: the record is its block-map entry.
    Block(BlockHash),
}

/// Retry-jitter rng labels of each op's node-I/O steps, `[fetch, put]`
/// (repair: `[fetch, put, verifying fetch]`; ingest: its one put). The
/// values are part of the replayable behaviour — fault schedules are
/// keyed by them — so each kind keeps the labels it has always drawn
/// under.
pub(crate) struct Labels {
    pub ingest: &'static str,
    pub repair: [&'static str; 3],
    pub reencode: [&'static str; 2],
    pub refresh: [&'static str; 2],
    pub rewrap: [&'static str; 2],
    pub verify: &'static str,
}

pub(crate) const OBJECT: Labels = Labels {
    ingest: "ingest",
    repair: ["repair", "repair-put", "repair-after"],
    reencode: ["retrieve", "reencode"],
    refresh: ["refresh", "refresh"],
    rewrap: ["rewrap", "rewrap"],
    verify: "verify",
};

pub(crate) const BLOCK: Labels = Labels {
    ingest: "block-ingest",
    repair: ["block-repair", "block-repair-put", "block-repair-after"],
    reencode: ["block-read", "block-reencode-put"],
    refresh: ["block-refresh", "block-refresh-put"],
    rewrap: ["block-rewrap", "block-rewrap-put"],
    verify: "block-read",
};

impl Unit {
    pub(crate) fn labels(&self) -> &'static Labels {
        match self {
            Unit::Object(_) => &OBJECT,
            Unit::Block(_) => &BLOCK,
        }
    }
}

impl Archive {
    /// `id`'s catalog row, borrowed.
    pub(crate) fn row(&self, id: &ObjectId) -> Result<&Manifest, ArchiveError> {
        self.manifests
            .row(id)
            .ok_or_else(|| ArchiveError::UnknownObject(id.clone()))
    }

    /// The stored units behind an object: itself, or — for a dedup
    /// object — every distinct block it references, in first-seen order.
    pub(crate) fn units_of(&self, manifest: &Manifest) -> Vec<Unit> {
        match &manifest.blocks {
            None => vec![Unit::Object(manifest.id.clone())],
            Some(d) => {
                let (distinct, ..) = first_occurrence_slots(&self.references(d));
                distinct.into_iter().map(Unit::Block).collect()
            }
        }
    }

    /// Loads a unit's record: a clone of its catalog row or of its
    /// block-map entry's [`Manifest`]. `id` is the context the shards are
    /// stored and encoded under, `digest` what the decoded payload must
    /// hash to (a block is self-verifying — its digest *is* its address).
    pub(crate) fn load(&self, unit: &Unit) -> Result<Manifest, ArchiveError> {
        match unit {
            Unit::Object(id) => self.row(id).cloned(),
            Unit::Block(hash) => self
                .blocks
                .get(hash)
                .map(|b| b.record.clone())
                .ok_or_else(|| {
                    ArchiveError::Policy(PolicyError::Malformed(format!("unknown block {hash}")))
                }),
        }
    }

    /// Stores the encoding of a [`load`](Self::load)ed and since
    /// rewritten record back to the unit's home: the same four fields —
    /// policy, meta, placement, shard digests — into either one.
    pub(crate) fn store(&mut self, unit: &Unit, record: Manifest) {
        let fill = |home: &mut Manifest| {
            (home.policy, home.meta, home.placement, home.shard_digests) = (
                record.policy,
                record.meta,
                record.placement,
                record.shard_digests,
            );
        };
        match unit {
            Unit::Object(id) => self.manifests.update(id, fill),
            Unit::Block(hash) => self.blocks.get_mut(hash).map(|b| fill(&mut b.record)),
        };
    }

    /// Encodes `payload` as `unit` (context `ctx`) under `policy`,
    /// leaving the shard digests to the write-back. An
    /// object draws the archive's encode stream through the configured
    /// pipeline; a block draws the convergent per-context stream — the
    /// same derivation as ingest, so a block re-encoded via object A
    /// matches one re-encoded via B — and is never re-chunked.
    pub(crate) fn plan_unit_write(
        &mut self,
        unit: &Unit,
        policy: &PolicyKind,
        ctx: &ObjectId,
        payload: &[u8],
    ) -> Result<WritePlan, PolicyError> {
        let (mut convergent, block_cfg);
        let (rng, cfg) = match unit {
            Unit::Object(_) => (&mut self.rng, &self.config.pipeline),
            Unit::Block(_) => {
                convergent = self.op_rng("block-encode", ctx.as_str());
                block_cfg = block_pipeline();
                (&mut convergent, &block_cfg)
            }
        };
        plan::encode_write(policy, &self.keys, rng, ctx, payload, cfg)
    }
}
