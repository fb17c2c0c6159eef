//! Stored units: the one kind of thing maintenance operates on.
//!
//! A **unit** is an encoded shard set plus its record: a [`Manifest`]
//! saying how it is encoded and where it lives. Every unit — a classic
//! object, or a dedup block — has one row in the unit table
//! (`catalog.rs`), keyed by [`Unit`]. [`Archive::load`] clones the record
//! and [`Archive::store`] writes it back, each one lookup, so repair,
//! re-encode, refresh, re-wrap and the health probe are each written
//! **once** against a unit, and `Archive::{repair_object,
//! reencode_object, refresh_object, add_cascade_layer}`,
//! [`Archive::scan_fleet`] and [`Archive::verify`] fold that body over
//! [`Archive::units_of`]: a classic object is one unit (itself), a
//! dedup object the distinct blocks it references. What differs per
//! kind is data — context string, payload digest, encode stream and
//! pipeline ([`Archive::plan_unit_write`]), retry-rng [`Labels`]; see
//! DESIGN.md, *Stored units*.

use crate::archive::{Archive, ArchiveError, Manifest, ObjectId};
use crate::dedup::{block_pipeline, first_occurrence_slots};
use crate::plan::{self, WritePlan};
use crate::policy::{PolicyError, PolicyKind};
use aeon_cas::BlockHash;

/// Names a unit: the key of its row in the unit table. Objects order
/// before blocks, so the table's object rows are a prefix.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Unit {
    /// A classic object: its row is its manifest.
    Object(ObjectId),
    /// A dedup block: its row is its [`crate::BlockRecord`].
    Block(BlockHash),
}

/// Retry-jitter rng labels of each op's node-I/O steps, `[fetch, put]`
/// (repair: `[fetch, put, verifying fetch]`; ingest: its one put; read:
/// the decode read behind retrieval, the dedup reads and a re-encode's
/// read; re-encode: its put). The
/// values are part of the replayable behaviour — fault schedules are
/// keyed by them — so each kind keeps the labels it has always drawn
/// under.
pub(crate) struct Labels {
    pub ingest: &'static str,
    pub read: &'static str,
    pub repair: [&'static str; 3],
    pub reencode: &'static str,
    pub refresh: [&'static str; 2],
    pub rewrap: [&'static str; 2],
    pub verify: &'static str,
}

pub(crate) const OBJECT: Labels = Labels {
    ingest: "ingest",
    read: "retrieve",
    repair: ["repair", "repair-put", "repair-after"],
    reencode: "reencode",
    refresh: ["refresh", "refresh"],
    rewrap: ["rewrap", "rewrap"],
    verify: "verify",
};

pub(crate) const BLOCK: Labels = Labels {
    ingest: "block-ingest",
    read: "block-read",
    repair: ["block-repair", "block-repair-put", "block-repair-after"],
    reencode: "block-reencode-put",
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

    /// Loads a unit's record: a clone of its row's [`Manifest`]. `id` is
    /// the context the shards are stored and encoded under, `digest` what
    /// the decoded payload must hash to (a block is self-verifying — its
    /// digest *is* its address).
    pub(crate) fn load(&self, unit: &Unit) -> Result<Manifest, ArchiveError> {
        let record = self.manifests.record(unit).cloned();
        record.ok_or_else(|| PolicyError::Malformed(format!("no row for {unit:?}")).into())
    }

    /// Stores a [`load`](Self::load)ed record, since re-encoded, back as
    /// the unit's record.
    pub(crate) fn store(&mut self, unit: &Unit, record: Manifest) {
        if let Some(row) = self.manifests.record_mut(unit) {
            *row = record;
        }
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
