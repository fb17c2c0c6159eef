//! Sharded manifest catalog: the fleet-scale metadata map.
//!
//! The paper's §3.2 maintenance math assumes archives of millions of
//! objects; a single flat `BTreeMap<ObjectId, Manifest>` makes every
//! metadata touch contend on one structure. [`FleetCatalog`] splits the
//! map into N shards keyed by a stable hash of the object id (the same
//! FNV-1a the cluster uses for placement), each behind its own
//! `RwLock`, so independent objects hit independent locks.
//!
//! Two invariants keep the rest of the crate simple:
//!
//! * **Shard choice is a pure function of the id** — the same id lands
//!   in the same shard for any fixed shard count, and results never
//!   depend on insertion order.
//! * **Iteration is always sorted by id** — [`FleetCatalog::snapshot`]
//!   and [`FleetCatalog::ids`] merge the shards and sort, reproducing
//!   the old single-`BTreeMap` iteration order exactly, whatever the
//!   shard count or insertion order (pinned by the tests below; the
//!   insertion-order half is also pinned end to end, through scans,
//!   repair and the clock, in `tests/fleet_ordering.rs`).
//!
//! Lock discipline: accessors clone data out (or run a short closure
//! under the lock); no caller holds a shard lock across node I/O.

use crate::archive::{Manifest, ObjectId};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;

/// Shard count of every archive's [`FleetCatalog`].
pub const DEFAULT_CATALOG_SHARDS: usize = 16;

/// FNV-1a — the same stable hash [`aeon_store::Cluster`] uses for
/// placement, so catalog sharding is stable across runs and platforms.
fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded `ObjectId → Manifest` map with per-shard locks.
pub struct FleetCatalog {
    shards: Vec<RwLock<BTreeMap<ObjectId, Manifest>>>,
}

impl fmt::Debug for FleetCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetCatalog")
            .field("shards", &self.shards.len())
            .field("objects", &self.len())
            .finish()
    }
}

impl FleetCatalog {
    /// Creates an empty catalog with `shard_count` shards (clamped to at
    /// least 1).
    pub fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1);
        FleetCatalog {
            shards: (0..n).map(|_| RwLock::new(BTreeMap::new())).collect(),
        }
    }

    /// Number of shards the id space is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: &ObjectId) -> &RwLock<BTreeMap<ObjectId, Manifest>> {
        let idx = (stable_hash(id.as_str()) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Inserts (or replaces) a manifest, returning the previous entry.
    pub fn insert(&self, id: ObjectId, manifest: Manifest) -> Option<Manifest> {
        self.shard_of(&id).write().insert(id, manifest)
    }

    /// Removes a manifest, returning it if present.
    pub fn remove(&self, id: &ObjectId) -> Option<Manifest> {
        self.shard_of(id).write().remove(id)
    }

    /// Clones out the manifest for `id`.
    pub fn get(&self, id: &ObjectId) -> Option<Manifest> {
        self.shard_of(id).read().get(id).cloned()
    }

    /// Whether `id` is catalogued.
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.shard_of(id).read().contains_key(id)
    }

    /// Runs `f` against the manifest under the shard's read lock —
    /// cheaper than [`FleetCatalog::get`] when only a field is needed.
    /// `f` must not perform node I/O.
    pub fn with<R>(&self, id: &ObjectId, f: impl FnOnce(&Manifest) -> R) -> Option<R> {
        self.shard_of(id).read().get(id).map(f)
    }

    /// Runs `f` against the manifest under the shard's write lock.
    /// `f` must not perform node I/O.
    pub fn update<R>(&self, id: &ObjectId, f: impl FnOnce(&mut Manifest) -> R) -> Option<R> {
        self.shard_of(id).write().get_mut(id).map(f)
    }

    /// Total number of catalogued objects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Clones every manifest out, sorted by id — the exact iteration
    /// order the old single `BTreeMap` produced, for any shard count.
    pub fn snapshot(&self) -> Vec<Manifest> {
        let mut out: Vec<Manifest> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().values().cloned());
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// All object ids, sorted.
    pub fn ids(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out.sort();
        out
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
        let cat = FleetCatalog::new(4);
        let id = ObjectId::from_raw("abc".into());
        assert!(cat.get(&id).is_none());
        assert!(cat.insert(id.clone(), manifest("abc")).is_none());
        assert_eq!(cat.get(&id).unwrap().name, "abc");
        assert_eq!(cat.len(), 1);
        assert!(cat.contains(&id));
        assert_eq!(cat.remove(&id).unwrap().name, "abc");
        assert!(cat.is_empty());
    }

    #[test]
    fn snapshot_sorted_regardless_of_shard_count_and_order() {
        let raws = ["zeta", "alpha", "mmm", "0001", "ffff", "beta"];
        let mut sorted: Vec<&str> = raws.to_vec();
        sorted.sort_unstable();
        for shards in [1, 2, 7, 64] {
            let cat = FleetCatalog::new(shards);
            for raw in raws.iter().rev() {
                cat.insert(ObjectId::from_raw((*raw).into()), manifest(raw));
            }
            let ids: Vec<String> = cat
                .snapshot()
                .iter()
                .map(|m| m.id.as_str().to_string())
                .collect();
            assert_eq!(ids, sorted, "shards={shards}");
            assert_eq!(
                cat.ids(),
                sorted
                    .iter()
                    .map(|r| ObjectId::from_raw((*r).to_string()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn update_mutates_in_place() {
        let cat = FleetCatalog::new(3);
        let id = ObjectId::from_raw("x".into());
        cat.insert(id.clone(), manifest("x"));
        assert_eq!(cat.update(&id, |m| m.refresh_epochs += 1), Some(()));
        assert_eq!(cat.with(&id, |m| m.refresh_epochs), Some(1));
        let missing = ObjectId::from_raw("missing".into());
        assert_eq!(cat.update(&missing, |_| ()), None);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cat = FleetCatalog::new(0);
        assert_eq!(cat.shard_count(), 1);
    }
}
