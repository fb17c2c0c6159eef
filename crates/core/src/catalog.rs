//! The manifest catalog: one ordered `ObjectId → Manifest` map.
//!
//! Every catalog write happens inside a `&mut Archive` method and every
//! read runs on the caller's thread, so the catalog is a plain
//! `BTreeMap` whose mutators take `&mut self`. Two things follow:
//!
//! * **Iteration is sorted by id for free** — scans, repair sweeps,
//!   campaigns and the committed dedup catalog walk rows in key order,
//!   whatever order they were inserted in, with no merge or sort.
//! * **Rows are lent, and only `&mut` writes** — walks and retrieval
//!   borrow `&Manifest` rows instead of cloning them out, and no holder
//!   of a shared borrow of the archive (through
//!   [`crate::Archive::catalog`]) can rewrite a row.

use crate::archive::{Manifest, ObjectId};
use std::collections::BTreeMap;
use std::fmt;

/// The argument every archive passes to [`FleetCatalog::new`]. Selects
/// nothing: it once counted lock shards, which were deleted. It stays
/// only because the repo benchmark (`bench/src/staged.rs`) passes it;
/// its removal goes with ROADMAP 3(a).
pub const DEFAULT_CATALOG_SHARDS: usize = 16;

/// An `ObjectId → Manifest` map, iterated in id order.
pub struct FleetCatalog {
    rows: BTreeMap<ObjectId, Manifest>,
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
            rows: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) a manifest, returning the previous entry.
    pub fn insert(&mut self, id: ObjectId, manifest: Manifest) -> Option<Manifest> {
        self.rows.insert(id, manifest)
    }

    /// Removes a manifest, returning it if present.
    pub fn remove(&mut self, id: &ObjectId) -> Option<Manifest> {
        self.rows.remove(id)
    }

    /// Clones out the manifest for `id`.
    pub fn get(&self, id: &ObjectId) -> Option<Manifest> {
        self.rows.get(id).cloned()
    }

    /// Runs `f` against the manifest for `id`.
    pub fn with<R>(&self, id: &ObjectId, f: impl FnOnce(&Manifest) -> R) -> Option<R> {
        self.rows.get(id).map(f)
    }

    /// Runs `f` against the manifest for `id`, mutably.
    pub fn update<R>(&mut self, id: &ObjectId, f: impl FnOnce(&mut Manifest) -> R) -> Option<R> {
        self.rows.get_mut(id).map(f)
    }

    /// Total number of catalogued objects.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row for `id`, borrowed.
    pub(crate) fn row(&self, id: &ObjectId) -> Option<&Manifest> {
        self.rows.get(id)
    }

    /// Every row, borrowed, in id order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Manifest> {
        self.rows.values()
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
