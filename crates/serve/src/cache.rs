//! A bounded, deterministic hot cache for manifests and decoded
//! payloads.
//!
//! Archive reads are expensive on purpose — every retrieve pays seek
//! and transfer charges on the virtual clock — so the serving layer
//! keeps a small hot set in front of the cluster: recently decoded
//! payloads (bounded by bytes) and recently resolved manifests (bounded
//! by slot count). A hit is charged a fixed overhead plus a DRAM-class
//! transfer instead of the full storage path; a manifest miss adds a
//! lookup penalty on top of the storage read.
//!
//! Eviction is LRU over a logical access tick rather than wall time,
//! and the index is `BTreeMap`-based, so the eviction order — and hence
//! every downstream latency sample — is identical across runs and
//! independent of hash seeding.

use std::collections::BTreeMap;

use aeon_core::ObjectId;
use aeon_store::clock::SimDuration;

/// Sizing and cost model for the hot cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Payload capacity in bytes (`0` disables payload caching).
    pub capacity_bytes: u64,
    /// Manifest entries retained (`0` disables manifest caching).
    pub manifest_slots: usize,
    /// Fixed per-hit overhead (index probe, request handling).
    pub hit_overhead: SimDuration,
    /// Transfer rate for serving a hit out of memory, bytes/second.
    pub hit_bytes_per_sec: f64,
    /// Extra charge on a manifest miss (catalog lookup before the
    /// storage read can even start).
    pub manifest_miss_penalty: SimDuration,
}

impl Default for CacheConfig {
    /// 64 MiB of payload, 1024 manifests, 20 µs hit overhead at
    /// 8 GiB/s, 100 µs manifest-miss penalty.
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            manifest_slots: 1024,
            hit_overhead: SimDuration::from_secs_f64(20e-6),
            hit_bytes_per_sec: 8.0 * 1024.0 * 1024.0 * 1024.0,
            manifest_miss_penalty: SimDuration::from_secs_f64(100e-6),
        }
    }
}

/// Hit/miss counters, reported per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Payload reads served from cache.
    pub payload_hits: u64,
    /// Payload reads that went to storage.
    pub payload_misses: u64,
    /// Manifest lookups served from cache.
    pub manifest_hits: u64,
    /// Manifest lookups that paid the catalog penalty.
    pub manifest_misses: u64,
    /// Payload entries evicted to make room.
    pub evictions: u64,
}

/// One LRU list over the logical access tick: `id → (last tick,
/// value)` and its mirror `tick → id`, whose first key is the least
/// recently used entry.
#[derive(Debug, Default)]
struct Recency<V> {
    entries: BTreeMap<ObjectId, (u64, V)>,
    order: BTreeMap<u64, ObjectId>,
}

impl<V: Copy> Recency<V> {
    /// Marks `id` used at `tick` and returns its value, if present.
    fn touch(&mut self, id: &ObjectId, tick: u64) -> Option<V> {
        let (last, value) = self.entries.get_mut(id)?;
        self.order.remove(last);
        *last = tick;
        self.order.insert(tick, id.clone());
        Some(*value)
    }

    /// Adds an absent `id`, used at `tick`.
    fn insert(&mut self, id: &ObjectId, tick: u64, value: V) {
        self.entries.insert(id.clone(), (tick, value));
        self.order.insert(tick, id.clone());
    }

    /// Drops `id`, returning its value.
    fn remove(&mut self, id: &ObjectId) -> Option<V> {
        let (last, value) = self.entries.remove(id)?;
        self.order.remove(&last);
        Some(value)
    }

    /// Drops the least recently used entry, returning its value.
    fn pop_oldest(&mut self) -> Option<V> {
        let (_, victim) = self.order.pop_first()?;
        let (_, value) = self.entries.remove(&victim).expect("maps mirror");
        Some(value)
    }
}

/// The hot cache: LRU payload bytes plus an LRU manifest id set.
#[derive(Debug)]
pub struct HotCache {
    config: CacheConfig,
    /// Cached payload lengths.
    payloads: Recency<u64>,
    payload_bytes: u64,
    manifests: Recency<()>,
    tick: u64,
    stats: CacheStats,
}

impl HotCache {
    /// An empty cache with the given configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        HotCache {
            config,
            payloads: Recency::default(),
            payload_bytes: 0,
            manifests: Recency::default(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The virtual cost of serving `bytes` out of the hot set.
    #[must_use]
    pub fn hit_charge(&self, bytes: u64) -> SimDuration {
        let rate = self.config.hit_bytes_per_sec;
        let transfer = if rate.is_finite() && rate > 0.0 {
            SimDuration::from_secs_f64(bytes as f64 / rate)
        } else {
            SimDuration::ZERO
        };
        self.config.hit_overhead + transfer
    }

    /// The extra charge a manifest miss pays before the storage read.
    #[must_use]
    pub fn manifest_miss_penalty(&self) -> SimDuration {
        self.config.manifest_miss_penalty
    }

    /// Looks up a payload, refreshing recency on hit. Returns the
    /// cached length, which is all the cost model needs.
    pub fn lookup_payload(&mut self, id: &ObjectId) -> Option<u64> {
        let tick = self.next_tick();
        let hit = self.payloads.touch(id, tick);
        match hit {
            Some(_) => self.stats.payload_hits += 1,
            None => self.stats.payload_misses += 1,
        }
        hit
    }

    /// Admits a decoded payload, evicting LRU entries to fit. Payloads
    /// larger than the whole cache are not admitted.
    pub fn admit_payload(&mut self, id: &ObjectId, len: u64) {
        if len > self.config.capacity_bytes {
            return;
        }
        self.invalidate_payload(id);
        while self.payload_bytes + len > self.config.capacity_bytes {
            let Some(victim_len) = self.payloads.pop_oldest() else {
                break;
            };
            self.payload_bytes -= victim_len;
            self.stats.evictions += 1;
        }
        let tick = self.next_tick();
        self.payloads.insert(id, tick, len);
        self.payload_bytes += len;
    }

    /// Drops a payload (after a write invalidates it).
    pub fn invalidate_payload(&mut self, id: &ObjectId) {
        if let Some(len) = self.payloads.remove(id) {
            self.payload_bytes -= len;
        }
    }

    /// Records a manifest lookup, returning whether it hit, and admits
    /// the id on miss (evicting the LRU manifest if full).
    pub fn touch_manifest(&mut self, id: &ObjectId) -> bool {
        let tick = self.next_tick();
        if self.manifests.touch(id, tick).is_some() {
            self.stats.manifest_hits += 1;
            return true;
        }
        self.stats.manifest_misses += 1;
        if self.config.manifest_slots == 0 {
            return false;
        }
        if self.manifests.entries.len() >= self.config.manifest_slots {
            self.manifests.pop_oldest();
        }
        self.manifests.insert(id, tick, ());
        false
    }

    /// Bytes currently cached.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_core::{Archive, ArchiveConfig, PolicyKind};

    fn ids(n: usize) -> Vec<ObjectId> {
        let mut archive =
            Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication { copies: 2 }))
                .expect("archive");
        (0..n)
            .map(|i| {
                archive
                    .ingest(format!("payload {i}").as_bytes(), &format!("o{i}"))
                    .expect("ingest")
            })
            .collect()
    }

    fn tiny_cache(capacity: u64, slots: usize) -> HotCache {
        HotCache::new(CacheConfig {
            capacity_bytes: capacity,
            manifest_slots: slots,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn payload_lru_evicts_oldest_first() {
        let ids = ids(3);
        let mut c = tiny_cache(2048, 8);
        c.admit_payload(&ids[0], 1024);
        c.admit_payload(&ids[1], 1024);
        // Touch 0 so 1 becomes the LRU victim.
        assert_eq!(c.lookup_payload(&ids[0]), Some(1024));
        c.admit_payload(&ids[2], 1024);
        assert_eq!(c.lookup_payload(&ids[0]), Some(1024));
        assert_eq!(c.lookup_payload(&ids[1]), None, "LRU entry evicted");
        assert_eq!(c.lookup_payload(&ids[2]), Some(1024));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.payload_bytes(), 2048);
    }

    #[test]
    fn oversized_payloads_are_not_admitted() {
        let ids = ids(1);
        let mut c = tiny_cache(512, 8);
        c.admit_payload(&ids[0], 4096);
        assert_eq!(c.lookup_payload(&ids[0]), None);
        assert_eq!(c.payload_bytes(), 0);
    }

    #[test]
    fn invalidation_frees_bytes() {
        let ids = ids(1);
        let mut c = tiny_cache(2048, 8);
        c.admit_payload(&ids[0], 1000);
        c.invalidate_payload(&ids[0]);
        assert_eq!(c.payload_bytes(), 0);
        assert_eq!(c.lookup_payload(&ids[0]), None);
    }

    #[test]
    fn manifest_slots_are_bounded() {
        let ids = ids(3);
        let mut c = tiny_cache(0, 2);
        assert!(!c.touch_manifest(&ids[0]));
        assert!(!c.touch_manifest(&ids[1]));
        assert!(c.touch_manifest(&ids[0]), "second lookup hits");
        assert!(!c.touch_manifest(&ids[2]), "fills the last slot");
        // ids[1] was the LRU manifest and got evicted.
        assert!(!c.touch_manifest(&ids[1]));
        let s = c.stats();
        assert_eq!(s.manifest_hits, 1);
        assert_eq!(s.manifest_misses, 4);
    }

    #[test]
    fn hit_charge_scales_with_bytes() {
        let c = tiny_cache(0, 0);
        assert!(c.hit_charge(1 << 20) > c.hit_charge(0));
        assert_eq!(c.hit_charge(0), CacheConfig::default().hit_overhead);
    }
}
