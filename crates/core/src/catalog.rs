//! The unit table: one ordered map from every stored unit (`Unit`) to its row
//! — an object's [`Manifest`], or a dedup block's [`BlockRecord`].
//!
//! Objects order before blocks, so the object rows are the table's
//! prefix, in id order. Every write happens inside a `&mut Archive`
//! method, so the table is a plain `BTreeMap` whose mutators take
//! `&mut self`: reads borrow rows, and no holder of a shared borrow of
//! the archive ([`crate::Archive::catalog`]) can rewrite one. The public
//! methods are the `ObjectId → Manifest` view; `len` counts objects.

use crate::archive::{Manifest, ObjectId};
use crate::dedup::BlockRecord;
use crate::unit::Unit;
use aeon_cas::BlockHash;
use std::collections::BTreeMap;
use std::fmt;

/// The argument every archive passes to [`FleetCatalog::new`]. Selects
/// nothing: it once counted lock shards, which were deleted. It stays
/// only because the repo benchmark (`bench/src/staged.rs`) passes it;
/// its removal goes with ROADMAP 3(a).
pub const DEFAULT_CATALOG_SHARDS: usize = 16;

/// The unit table: every object's row in id order, then every dedup
/// block's in hash order.
pub struct FleetCatalog {
    units: BTreeMap<Unit, Row>,
}

/// One row of the unit table.
pub(crate) enum Row {
    /// An object's manifest.
    Object(Manifest),
    /// A dedup block's refcount, kind and record.
    Block(BlockRecord),
}

impl fmt::Debug for FleetCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetCatalog")
            .field("objects", &self.len())
            .finish()
    }
}

impl FleetCatalog {
    /// Creates an empty catalog. `_shard_count` selects nothing (see
    /// [`DEFAULT_CATALOG_SHARDS`]); its removal goes with ROADMAP 3(a).
    pub fn new(_shard_count: usize) -> Self {
        FleetCatalog {
            units: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) a manifest, returning the previous entry.
    pub fn insert(&mut self, id: ObjectId, manifest: Manifest) -> Option<Manifest> {
        self.insert_unit(Unit::Object(id), Row::Object(manifest))
    }

    /// Removes a manifest, returning it if present.
    pub fn remove(&mut self, id: &ObjectId) -> Option<Manifest> {
        self.remove_unit(&Unit::Object(id.clone()))
    }

    /// Clones out the manifest for `id`.
    pub fn get(&self, id: &ObjectId) -> Option<Manifest> {
        self.row(id).cloned()
    }

    /// Runs `f` against the manifest for `id`.
    pub fn with<R>(&self, id: &ObjectId, f: impl FnOnce(&Manifest) -> R) -> Option<R> {
        self.row(id).map(f)
    }

    /// Runs `f` against the manifest for `id`, mutably.
    pub fn update<R>(&mut self, id: &ObjectId, f: impl FnOnce(&mut Manifest) -> R) -> Option<R> {
        self.record_mut(&Unit::Object(id.clone())).map(f)
    }

    /// Total number of catalogued objects.
    pub fn len(&self) -> usize {
        self.rows().count()
    }

    /// Whether the catalog holds no object.
    pub fn is_empty(&self) -> bool {
        self.rows().next().is_none()
    }

    /// The row for `id`, borrowed.
    pub(crate) fn row(&self, id: &ObjectId) -> Option<&Manifest> {
        self.record(&Unit::Object(id.clone()))
    }

    /// Every object's row, borrowed, in id order: the table's prefix.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Manifest> {
        self.units.values().map_while(|row| match row {
            Row::Object(m) => Some(m),
            Row::Block(_) => None,
        })
    }

    /// Every row, borrowed, in key order.
    pub(crate) fn units(&self) -> impl Iterator<Item = (&Unit, &Row)> {
        self.units.iter()
    }

    /// A unit's record, borrowed: an object's manifest, a block's `record`.
    pub(crate) fn record(&self, unit: &Unit) -> Option<&Manifest> {
        match self.units.get(unit)? {
            Row::Object(m) | Row::Block(BlockRecord { record: m, .. }) => Some(m),
        }
    }

    /// A unit's record, mutably.
    pub(crate) fn record_mut(&mut self, unit: &Unit) -> Option<&mut Manifest> {
        match self.units.get_mut(unit)? {
            Row::Object(m) | Row::Block(BlockRecord { record: m, .. }) => Some(m),
        }
    }

    /// A block's row, borrowed.
    pub(crate) fn block(&self, hash: &BlockHash) -> Option<&BlockRecord> {
        match self.units.get(&Unit::Block(*hash))? {
            Row::Block(block) => Some(block),
            Row::Object(_) => None,
        }
    }

    /// A block's row, mutably.
    pub(crate) fn block_mut(&mut self, hash: &BlockHash) -> Option<&mut BlockRecord> {
        match self.units.get_mut(&Unit::Block(*hash))? {
            Row::Block(block) => Some(block),
            Row::Object(_) => None,
        }
    }

    /// Files a row under `unit`, returning the record it replaced.
    pub(crate) fn insert_unit(&mut self, unit: Unit, row: Row) -> Option<Manifest> {
        self.units.insert(unit, row).map(Row::into_record)
    }

    /// Takes a unit's row out, returning its record.
    pub(crate) fn remove_unit(&mut self, unit: &Unit) -> Option<Manifest> {
        self.units.remove(unit).map(Row::into_record)
    }
}

impl Row {
    fn into_record(self) -> Manifest {
        match self {
            Row::Object(m) | Row::Block(BlockRecord { record: m, .. }) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EncodingMeta, PolicyKind};

    fn manifest(raw: &str) -> Manifest {
        Manifest {
            id: ObjectId::from_raw(raw.to_string()),
            name: raw.to_string(),
            policy: PolicyKind::Replication { copies: 1 },
            meta: EncodingMeta {
                key_version: 0,
                packed: None,
                entropic_nonce: None,
                chunked: None,
            },
            placement: Vec::new(),
            logical_len: 0,
            digest: [0; 32],
            shard_digests: Vec::new(),
            created_year: 2026,
            refresh_epochs: 0,
            blocks: None,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut cat = FleetCatalog::new(4);
        let id = ObjectId::from_raw("abc".into());
        assert!(cat.get(&id).is_none());
        assert!(cat.insert(id.clone(), manifest("abc")).is_none());
        assert_eq!(cat.get(&id).unwrap().name, "abc");
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.row(&id).map(|m| m.name.as_str()), Some("abc"));
        assert_eq!(cat.remove(&id).unwrap().name, "abc");
        assert!(cat.is_empty());
    }

    #[test]
    fn rows_walk_in_id_order_whatever_the_insertion_order() {
        let mut cat = FleetCatalog::new(1);
        for raw in ["zeta", "alpha", "mmm", "0001"] {
            cat.insert(ObjectId::from_raw(raw.into()), manifest(raw));
        }
        let names: Vec<&str> = cat.rows().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["0001", "alpha", "mmm", "zeta"]);
    }

    #[test]
    fn update_mutates_in_place() {
        let mut cat = FleetCatalog::new(3);
        let id = ObjectId::from_raw("x".into());
        cat.insert(id.clone(), manifest("x"));
        assert_eq!(cat.update(&id, |m| m.refresh_epochs += 1), Some(()));
        assert_eq!(cat.with(&id, |m| m.refresh_epochs), Some(1));
        let missing = ObjectId::from_raw("missing".into());
        assert_eq!(cat.update(&missing, |_| ()), None);
    }
}
