//! Refcounted block storage and the bounded dedup index.
//!
//! [`MemoryBlockStore`] is the reference content-addressed store: one
//! copy per distinct SHA-256, a reference count per block, and bytes
//! released only when the last reference drops. [`BoundedIndex`] is the
//! memory-bounded recency index an archive consults *before* the
//! authoritative map: dedup state for a petabyte of blocks cannot live
//! unbounded in RAM, so the index keeps only the most recently seen
//! hashes and evicts the oldest past its capacity. An index miss is
//! never an error — the authoritative lookup still decides — it only
//! shows up in [`IndexStats`], which is how the `aeon-exp dedup` experiment
//! measures what a given memory budget costs in recognition rate.

use crate::BlockHash;
use std::collections::BTreeMap;

/// Hit/miss/eviction accounting for a [`BoundedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Lookups that found the hash resident.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded, recency-evicting set of block hashes.
///
/// Determinism note: eviction order is pure LRU over the call sequence
/// (a monotonic sequence number, no clocks), so identical operation
/// streams leave identical residency on every platform.
#[derive(Debug, Clone)]
pub struct BoundedIndex {
    capacity: usize,
    seq: u64,
    by_hash: BTreeMap<BlockHash, u64>,
    by_age: BTreeMap<u64, BlockHash>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BoundedIndex {
    /// An index holding at most `capacity` hashes. Capacity 0 is a
    /// valid degenerate index: every lookup misses, nothing is kept.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedIndex {
            capacity,
            seq: 0,
            by_hash: BTreeMap::new(),
            by_age: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Whether `hash` is resident; refreshes its recency on a hit.
    pub fn lookup(&mut self, hash: &BlockHash) -> bool {
        if let Some(age) = self.by_hash.get(hash).copied() {
            self.hits += 1;
            self.by_age.remove(&age);
            self.seq += 1;
            self.by_hash.insert(*hash, self.seq);
            self.by_age.insert(self.seq, *hash);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Records `hash` as just-seen (inserting or refreshing), evicting
    /// the least recently seen entry if over capacity.
    pub fn record(&mut self, hash: &BlockHash) {
        if self.capacity == 0 {
            return;
        }
        self.seq += 1;
        if let Some(age) = self.by_hash.insert(*hash, self.seq) {
            self.by_age.remove(&age);
        }
        self.by_age.insert(self.seq, *hash);
        while self.by_hash.len() > self.capacity {
            let (&oldest, &victim) = self.by_age.iter().next().expect("index non-empty");
            self.by_age.remove(&oldest);
            self.by_hash.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Drops `hash` from the index (block deleted from the store).
    pub fn remove(&mut self, hash: &BlockHash) {
        if let Some(age) = self.by_hash.remove(hash) {
            self.by_age.remove(&age);
        }
    }

    /// Current accounting.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.by_hash.len(),
        }
    }
}

#[derive(Debug, Clone)]
struct StoredBlock {
    data: Vec<u8>,
    refcount: u64,
}

/// An in-memory content-addressed block store: SHA-256 keyed,
/// refcounted, with a [`BoundedIndex`] in front of the authoritative
/// map.
#[derive(Debug, Clone)]
pub struct MemoryBlockStore {
    blocks: BTreeMap<BlockHash, StoredBlock>,
    index: BoundedIndex,
}

impl MemoryBlockStore {
    /// A store whose dedup index holds at most `index_capacity` hashes.
    #[must_use]
    pub fn new(index_capacity: usize) -> Self {
        MemoryBlockStore {
            blocks: BTreeMap::new(),
            index: BoundedIndex::new(index_capacity),
        }
    }

    /// Stores `data` (or bumps its refcount if already present),
    /// returning its address and whether the bytes were new.
    pub fn put(&mut self, data: &[u8]) -> (BlockHash, bool) {
        let hash = BlockHash::of(data);
        self.index.lookup(&hash);
        self.index.record(&hash);
        if let Some(block) = self.blocks.get_mut(&hash) {
            block.refcount += 1;
            return (hash, false);
        }
        self.blocks.insert(
            hash,
            StoredBlock {
                data: data.to_vec(),
                refcount: 1,
            },
        );
        (hash, true)
    }

    /// The block's bytes, if present.
    #[must_use]
    pub fn get(&self, hash: &BlockHash) -> Option<&[u8]> {
        self.blocks.get(hash).map(|b| b.data.as_slice())
    }

    /// The block's current reference count (0 if absent).
    #[must_use]
    pub fn refcount(&self, hash: &BlockHash) -> u64 {
        self.blocks.get(hash).map_or(0, |b| b.refcount)
    }

    /// Drops one reference; the bytes are deleted when the count hits
    /// zero. Returns the remaining count, or `None` if the block was
    /// not present.
    pub fn release(&mut self, hash: &BlockHash) -> Option<u64> {
        let block = self.blocks.get_mut(hash)?;
        block.refcount -= 1;
        if block.refcount == 0 {
            self.blocks.remove(hash);
            self.index.remove(hash);
            return Some(0);
        }
        Some(block.refcount)
    }

    /// Number of distinct blocks resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no blocks are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes of distinct block payloads (the dedup'd size).
    #[must_use]
    pub fn unique_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.data.len() as u64).sum()
    }

    /// The dedup index's accounting.
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_dedups_and_refcounts() {
        let mut s = MemoryBlockStore::new(16);
        let (h1, new1) = s.put(b"block one");
        let (h2, new2) = s.put(b"block one");
        assert_eq!(h1, h2);
        assert!(new1);
        assert!(!new2);
        assert_eq!(s.refcount(&h1), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.unique_bytes(), 9);
    }

    #[test]
    fn release_deletes_at_zero() {
        let mut s = MemoryBlockStore::new(16);
        let (h, _) = s.put(b"x");
        s.put(b"x");
        assert_eq!(s.release(&h), Some(1));
        assert_eq!(s.release(&h), Some(0));
        assert!(s.get(&h).is_none());
        assert_eq!(s.release(&h), None);
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_index_evicts_lru_but_store_stays_correct() {
        let mut s = MemoryBlockStore::new(2);
        let (ha, _) = s.put(b"a");
        s.put(b"b");
        s.put(b"c"); // evicts "a" from the index
        let stats = s.index_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // The index forgot "a"; the authoritative map did not.
        let (ha2, new) = s.put(b"a");
        assert_eq!(ha, ha2);
        assert!(!new, "authoritative map must still dedup evicted hashes");
        assert_eq!(s.refcount(&ha), 2);
    }

    #[test]
    fn index_hit_miss_accounting() {
        let mut idx = BoundedIndex::new(2);
        let h = BlockHash::of(b"h");
        assert!(!idx.lookup(&h));
        idx.record(&h);
        assert!(idx.lookup(&h));
        let stats = idx.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_refresh_changes_eviction_order() {
        let mut idx = BoundedIndex::new(2);
        let a = BlockHash::of(b"a");
        let b = BlockHash::of(b"b");
        let c = BlockHash::of(b"c");
        idx.record(&a);
        idx.record(&b);
        idx.lookup(&a); // refresh a; b is now oldest
        idx.record(&c); // evicts b
        assert!(idx.lookup(&a));
        assert!(!idx.lookup(&b));
        assert!(idx.lookup(&c));
    }

    #[test]
    fn zero_capacity_index_is_inert() {
        let mut idx = BoundedIndex::new(0);
        let h = BlockHash::of(b"h");
        idx.record(&h);
        assert!(!idx.lookup(&h));
        assert_eq!(idx.stats().entries, 0);
    }
}
