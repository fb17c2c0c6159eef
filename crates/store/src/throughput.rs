//! Throughput-charged storage nodes: the §3.2 cost model on the wire.
//!
//! The paper's central measurement is that maintenance campaigns are
//! **throughput-bound**: re-encrypting an archive takes months because
//! every byte must cross the media's bandwidth, twice. [`ThroughputNode`]
//! makes that cost observable on the real data path — it wraps any
//! [`StorageNode`] and charges `seek + bytes / bandwidth` of virtual
//! time to a shared [`SimClock`] per `get`/`put`, from the same
//! [`MediaProfile`] numbers the closed-form model uses. Campaigns run
//! through the unchanged Codec→Plan→Executor path; the clock reading at
//! the end *is* the measurement.

use crate::batch::{read_frame_len, write_frame_len};
use crate::clock::{SimClock, SimDuration};
use crate::cluster::Cluster;
use crate::media::{ArchiveSite, MediaProfile, MediaType};
use crate::node::{Blob, MemoryNode, NodeError, NodeId, ShardKey, StorageNode};
use std::sync::Arc;

/// The virtual-time price list of one storage device (or one site's
/// aggregate array): a per-operation positioning cost plus a streaming
/// rate per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputProfile {
    /// Charged once per `get`/`put`/`delete`, before any bytes move —
    /// robot load + positioning for tape, head seek for disk, spin-up
    /// for MAID-style archives.
    pub seek: SimDuration,
    /// Sustained read rate in bytes per virtual second. `0.0` means the
    /// device cannot be read (offline); transfers saturate rather than
    /// complete. Prefer [`ThroughputProfile::new`], which normalizes
    /// negative and non-finite rates to this sentinel.
    pub read_bytes_per_sec: f64,
    /// Sustained write rate in bytes per virtual second, with the same
    /// `0.0` = offline semantics as `read_bytes_per_sec`.
    pub write_bytes_per_sec: f64,
}

impl ThroughputProfile {
    /// Builds a profile, sanitizing the rates: a rate that is zero,
    /// negative, or non-finite (a fully offline site, a degenerate
    /// `read_tb_per_day = 0`, a NaN from upstream division) is
    /// normalized to exactly `0.0`, which [`Self::read_charge`] and
    /// [`Self::write_charge`] price as an *unreachable* device — the
    /// transfer saturates at the top of the virtual timeline instead of
    /// completing instantly. Every constructor routes through here.
    #[must_use]
    pub fn new(seek: SimDuration, read_bytes_per_sec: f64, write_bytes_per_sec: f64) -> Self {
        ThroughputProfile {
            seek,
            read_bytes_per_sec: sanitize_rate(read_bytes_per_sec),
            write_bytes_per_sec: sanitize_rate(write_bytes_per_sec),
        }
    }

    /// The price list of a single drive of the given media class. Seek
    /// costs are representative per-op positioning figures for the
    /// class (tape robot + wind, disk seek, spin-up for archival HDD).
    #[must_use]
    pub fn from_media(media: &MediaProfile) -> Self {
        let seek_secs = match media.media {
            MediaType::Tape => 30.0,
            MediaType::Hdd => 0.015,
            MediaType::Ssd => 0.000_1,
            MediaType::Glass => 10.0,
            MediaType::Dna => 3_600.0, // retrieval prep dominates
            MediaType::Film => 60.0,
        };
        ThroughputProfile::new(
            SimDuration::from_secs_f64(seek_secs),
            media.read_mbps_per_drive * 1e6,
            media.write_mbps_per_drive * 1e6,
        )
    }

    /// The aggregate streaming profile of a whole archive site, for
    /// measured §3.2 campaigns: zero per-op seek (a bulk campaign
    /// streams; positioning amortizes to nothing against the transfer)
    /// and the site's total read rate in both directions. Write-back is
    /// provisioned at the aggregate *read* rate because that is exactly
    /// the paper's ×2 write-back factor — re-writing every byte doubles
    /// the campaign against the read-only bound. (The site's separate
    /// `write_tb_per_day` figure models ingest contention in
    /// [`crate::campaign::simulate_campaign`], not this factor.)
    #[must_use]
    pub fn from_site_aggregate(site: &ArchiveSite) -> Self {
        let read = site.read_tb_per_day * 1e12 / 86_400.0;
        ThroughputProfile::new(SimDuration::ZERO, read, read)
    }

    /// Virtual cost of reading `bytes` through this profile.
    #[must_use]
    pub fn read_charge(&self, bytes: usize) -> SimDuration {
        self.seek + transfer(bytes, self.read_bytes_per_sec)
    }

    /// Virtual cost of writing `bytes` through this profile.
    #[must_use]
    pub fn write_charge(&self, bytes: usize) -> SimDuration {
        self.seek + transfer(bytes, self.write_bytes_per_sec)
    }
}

/// Normalizes a configured rate: only a finite, strictly positive rate
/// can move bytes; everything else (zero, negative, NaN, ±inf) means
/// the device is offline and collapses to exactly `0.0`.
fn sanitize_rate(rate: f64) -> f64 {
    if rate.is_finite() && rate > 0.0 {
        rate
    } else {
        0.0
    }
}

fn transfer(bytes: usize, bytes_per_sec: f64) -> SimDuration {
    // The guard must reject NaN as well as zero/negative rates: NaN
    // fails `<= 0.0`, so an unsanitized profile would feed
    // `bytes / NaN = NaN` to `SimDuration::from_secs_f64`, whose
    // non-finite clamp silently prices the transfer at *zero* — an
    // offline site whose reads complete instantly. A rate that cannot
    // move bytes instead saturates at the top of the virtual timeline:
    // the transfer never finishes, and campaign arithmetic sees that.
    if !(bytes_per_sec.is_finite() && bytes_per_sec > 0.0) {
        return if bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(u64::MAX)
        };
    }
    SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
}

/// A decorator that prices every shard operation on the virtual clock.
///
/// Wraps any [`StorageNode`]; bytes pass through untouched (the clock
/// charges time, never changes data), so golden vectors and fault
/// decisions are identical with or without the decorator. Metadata
/// operations (`keys`, `stored_bytes`) are free — they model catalog
/// lookups, not media transfers.
///
/// # Examples
///
/// ```
/// use aeon_store::clock::SimClock;
/// use aeon_store::media::MediaProfile;
/// use aeon_store::node::{MemoryNode, ShardKey, StorageNode};
/// use aeon_store::throughput::{ThroughputNode, ThroughputProfile};
/// use std::sync::Arc;
///
/// let clock = SimClock::new();
/// let profile = ThroughputProfile::from_media(&MediaProfile::tape());
/// let node = ThroughputNode::new(
///     Arc::new(MemoryNode::new(0, "us-east")),
///     profile,
///     clock.clone(),
/// );
/// node.put(&ShardKey::new("obj", 0), &[0u8; 1_000_000])?;
/// // 30 s robot/seek + 1 MB at 300 MB/s of virtual time, no wall time.
/// assert!(clock.now().as_secs_f64() > 30.0);
/// # Ok::<(), aeon_store::node::NodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputNode {
    inner: Arc<dyn StorageNode>,
    profile: ThroughputProfile,
    clock: SimClock,
}

impl ThroughputNode {
    /// Wraps `inner`, charging operations through `profile` to `clock`.
    pub fn new(inner: Arc<dyn StorageNode>, profile: ThroughputProfile, clock: SimClock) -> Self {
        ThroughputNode {
            inner,
            profile,
            clock,
        }
    }

    /// The clock this node charges.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The price list in effect.
    #[must_use]
    pub fn profile(&self) -> &ThroughputProfile {
        &self.profile
    }
}

/// The frame charges shared by the batch and blob forms, so the two
/// price a frame of the same keys and bytes identically.
impl ThroughputNode {
    /// A coalesced write is one positioning operation plus one framed
    /// transfer — the whole point of batching on seek-dominated media.
    /// The frame is charged once, then handed to the inner node's frame
    /// method (NOT to `self.put`, which would re-charge a seek per
    /// entry), so per-key outcomes are exactly the inner node's.
    fn charge_put_frame<D: AsRef<[u8]>>(&self, entries: &[(ShardKey, D)]) {
        let frame = write_frame_len(entries.iter().map(|(k, d)| (k, d.as_ref().len())));
        self.clock.charge(self.profile.write_charge(frame));
    }

    /// One positioning operation plus one framed response transfer,
    /// priced from the response the inner node actually produced (hits
    /// carry their payload, misses a status byte).
    fn charge_get_frame<D: AsRef<[u8]>>(
        &self,
        keys: &[ShardKey],
        results: &[Result<D, NodeError>],
    ) {
        let response = keys.iter().zip(results);
        let frame =
            read_frame_len(response.map(|(k, r)| (k, r.as_ref().ok().map(|d| d.as_ref().len()))));
        self.clock.charge(self.profile.read_charge(frame));
    }
}

impl StorageNode for ThroughputNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn site(&self) -> &str {
        self.inner.site()
    }

    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        // The device does the positioning and the transfer whether or
        // not the write ultimately succeeds, so the charge is
        // unconditional.
        self.clock.charge(self.profile.write_charge(data.len()));
        self.inner.put(key, data)
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        match self.inner.get(key) {
            Ok(data) => {
                self.clock.charge(self.profile.read_charge(data.len()));
                Ok(data)
            }
            Err(e) => {
                // A failed read still paid the positioning cost.
                self.clock.charge(self.profile.seek);
                Err(e)
            }
        }
    }

    fn put_batch(&self, entries: &[(ShardKey, &[u8])]) -> Vec<Result<(), NodeError>> {
        self.charge_put_frame(entries);
        self.inner.put_batch(entries)
    }

    fn get_batch(&self, keys: &[ShardKey]) -> Vec<Result<Vec<u8>, NodeError>> {
        let results = self.inner.get_batch(keys);
        self.charge_get_frame(keys, &results);
        results
    }

    fn put_blobs(&self, entries: Vec<(ShardKey, Blob)>) -> Vec<Result<(), NodeError>> {
        self.charge_put_frame(&entries);
        self.inner.put_blobs(entries)
    }

    fn get_blobs(&self, keys: &[ShardKey]) -> Vec<Result<Blob, NodeError>> {
        let results = self.inner.get_blobs(keys);
        self.charge_get_frame(keys, &results);
        results
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        // Deletion is a catalog update plus positioning; no transfer.
        self.clock.charge(self.profile.seek);
        self.inner.delete(key)
    }

    fn keys(&self) -> Vec<ShardKey> {
        self.inner.keys()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

/// Builds an in-memory cluster whose every node charges `profile` to
/// one shared clock (also installed as the cluster's clock, so retry
/// backoff lands on the same timeline). Returns the cluster and a
/// handle to the clock.
#[must_use]
pub fn throughput_in_memory_cluster(
    sites: &[&str],
    nodes_per_site: usize,
    profile: &ThroughputProfile,
) -> (Cluster, SimClock) {
    let clock = SimClock::new();
    let mut nodes: Vec<Arc<dyn StorageNode>> = Vec::new();
    let mut id = 0;
    for site in sites {
        for _ in 0..nodes_per_site {
            nodes.push(Arc::new(ThroughputNode::new(
                Arc::new(MemoryNode::new(id, *site)),
                *profile,
                clock.clone(),
            )));
            id += 1;
        }
    }
    let cluster = Cluster::new(nodes).with_clock(clock.clone());
    (cluster, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;

    fn flat_profile(bps: f64) -> ThroughputProfile {
        ThroughputProfile {
            seek: SimDuration::from_millis(10),
            read_bytes_per_sec: bps,
            write_bytes_per_sec: bps / 2.0,
        }
    }

    #[test]
    fn charges_seek_plus_transfer() {
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        let key = ShardKey::new("o", 0);
        node.put(&key, &[7u8; 500_000]).unwrap();
        // 10 ms seek + 0.5 MB at 0.5 MB/s = 1.010 s.
        assert_eq!(clock.now().as_millis(), 1_010);
        node.get(&key).unwrap();
        // + 10 ms seek + 0.5 MB at 1 MB/s = 0.510 s.
        assert_eq!(clock.now().as_millis(), 1_520);
    }

    #[test]
    fn failed_get_charges_only_seek() {
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        assert!(node.get(&ShardKey::new("missing", 0)).is_err());
        assert_eq!(clock.now().as_millis(), 10);
    }

    #[test]
    fn metadata_is_free() {
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        let _ = node.keys();
        let _ = node.stored_bytes();
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn batched_put_charges_one_seek_for_the_frame() {
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        let keys: Vec<ShardKey> = (0..8u32).map(|i| ShardKey::new("o", i)).collect();
        let data = [9u8; 1_000];
        let entries: Vec<(ShardKey, &[u8])> = keys.iter().map(|k| (k.clone(), &data[..])).collect();
        let results = node.put_batch(&entries);
        assert!(results.iter().all(|r| r.is_ok()));
        let batched = clock.now();
        // One seek for the whole frame, versus eight for sequential puts.
        let frame = crate::batch::framed_len(&entries);
        let expected = flat_profile(1e6).write_charge(frame);
        assert_eq!(batched, SimTime::ZERO + expected);
        let seq_clock = SimClock::new();
        let seq = ThroughputNode::new(
            Arc::new(MemoryNode::new(1, "a")),
            flat_profile(1e6),
            seq_clock.clone(),
        );
        for k in &keys {
            seq.put(k, &data).unwrap();
        }
        assert!(
            batched < seq_clock.now(),
            "coalesced frame amortizes seeks: {batched:?} vs {:?}",
            seq_clock.now()
        );
        // The stored bytes are identical either way.
        for k in &keys {
            assert_eq!(node.get(k).unwrap(), seq.get(k).unwrap());
        }
    }

    #[test]
    fn get_charges_are_pinned_seek_plus_bytes() {
        // Pin the read price list exactly: a hit costs one seek plus
        // the payload over the read rate; a miss costs the bare seek.
        let profile = flat_profile(1e6);
        let clock = SimClock::new();
        let node = ThroughputNode::new(Arc::new(MemoryNode::new(0, "a")), profile, clock.clone());
        let key = ShardKey::new("o", 0);
        node.put(&key, &[5u8; 250_000]).unwrap();
        let after_put = clock.now();
        node.get(&key).unwrap();
        // 10 ms seek + 250 KB at 1 MB/s = 260 ms.
        assert_eq!(clock.now(), after_put + SimDuration::from_millis(260));
        assert!(node.get(&ShardKey::new("missing", 0)).is_err());
        assert_eq!(
            clock.now(),
            after_put + SimDuration::from_millis(270),
            "a miss pays exactly the 10 ms positioning cost"
        );
    }

    #[test]
    fn batched_get_charges_one_seek_for_the_frame() {
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        let keys: Vec<ShardKey> = (0..8u32).map(|i| ShardKey::new("o", i)).collect();
        let data = [9u8; 1_000];
        for k in &keys {
            node.put(k, &data).unwrap();
        }
        let after_writes = clock.now();
        let results = node.get_batch(&keys);
        assert!(results.iter().all(|r| r.is_ok()));
        let batched = clock.now().since(after_writes);
        // One seek for the whole response frame, versus eight for
        // sequential gets.
        let response: Vec<(ShardKey, Option<&[u8]>)> =
            keys.iter().map(|k| (k.clone(), Some(&data[..]))).collect();
        let frame = crate::batch::read_framed_len(&response);
        assert_eq!(batched, flat_profile(1e6).read_charge(frame));
        let seq_clock = SimClock::new();
        let seq = ThroughputNode::new(
            Arc::new(MemoryNode::new(1, "a")),
            flat_profile(1e6),
            seq_clock.clone(),
        );
        for k in &keys {
            seq.put(k, &data).unwrap();
        }
        let seq_start = seq_clock.now();
        for k in &keys {
            seq.get(k).unwrap();
        }
        let sequential = seq_clock.now().since(seq_start);
        assert!(
            batched < sequential,
            "coalesced response amortizes seeks: {batched:?} vs {sequential:?}"
        );
        // N sequential gets pay exactly N seeks plus N transfers.
        let mut expected_seq = SimDuration::ZERO;
        for _ in 0..keys.len() {
            expected_seq += flat_profile(1e6).read_charge(data.len());
        }
        assert_eq!(sequential, expected_seq);
    }

    /// For the same keys and bytes, hits and misses alike, the blob
    /// forms charge exactly what the batch forms charge, so no virtual
    /// time depends on which form a frame travelled in.
    #[test]
    fn blob_frames_are_charged_like_batch_frames() {
        let node = |clock: &SimClock| {
            ThroughputNode::new(
                Arc::new(MemoryNode::new(0, "a")),
                flat_profile(1e6),
                clock.clone(),
            )
        };
        let (by_batch, by_blobs) = (SimClock::new(), SimClock::new());
        let (batch, blobs) = (node(&by_batch), node(&by_blobs));
        let data: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 100 + 37 * i as usize]).collect();
        let keys: Vec<ShardKey> = (0..5u32)
            .map(|i| ShardKey::new(format!("obj-{i}"), i))
            .collect();
        let lent: Vec<(ShardKey, &[u8])> = keys
            .iter()
            .cloned()
            .zip(data.iter().map(Vec::as_slice))
            .collect();
        let given: Vec<(ShardKey, Blob)> = keys
            .iter()
            .cloned()
            .zip(data.iter().cloned().map(Blob::from))
            .collect();
        assert_eq!(
            batch.put_batch(&lent[..3]),
            blobs.put_blobs(given[..3].to_vec())
        );
        assert_eq!(by_batch.now(), by_blobs.now());
        // Two of the five keys were never written: misses in both frames.
        let read_batch = batch.get_batch(&keys);
        let read_blobs = blobs.get_blobs(&keys);
        assert_eq!(by_batch.now(), by_blobs.now());
        assert!(by_batch.now() > SimTime::ZERO);
        for (a, b) in read_batch.iter().zip(&read_blobs) {
            assert_eq!(a.as_deref(), b.as_deref());
        }
        assert_eq!(read_blobs[4], Err(NodeError::NotFound));
    }

    #[test]
    fn batched_get_prices_misses_as_status_bytes() {
        // A miss in the batch contributes only its entry header to the
        // frame — no payload bytes — and per-key errors pass through.
        let clock = SimClock::new();
        let node = ThroughputNode::new(
            Arc::new(MemoryNode::new(0, "a")),
            flat_profile(1e6),
            clock.clone(),
        );
        let present = ShardKey::new("o", 0);
        node.put(&present, &[1u8; 100]).unwrap();
        let start = clock.now();
        let keys = vec![present.clone(), ShardKey::new("o", 1)];
        let results = node.get_batch(&keys);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(NodeError::NotFound));
        let response: Vec<(ShardKey, Option<&[u8]>)> = vec![
            (present, Some(&[1u8; 100][..])),
            (ShardKey::new("o", 1), None),
        ];
        let frame = crate::batch::read_framed_len(&response);
        assert_eq!(
            clock.now().since(start),
            flat_profile(1e6).read_charge(frame)
        );
    }

    #[test]
    fn zero_rate_saturates_both_directions() {
        // A fully offline site (read_tb_per_day = 0) must price
        // transfers as never-finishing, not free: before the guard, the
        // zero-rate path returned SimDuration::ZERO and a campaign
        // against an offline site measured as instantaneous.
        let mut site = ArchiveSite::hpss();
        site.read_tb_per_day = 0.0;
        let p = ThroughputProfile::from_site_aggregate(&site);
        assert_eq!(p.read_bytes_per_sec, 0.0);
        assert_eq!(
            p.read_charge(1).as_nanos(),
            u64::MAX,
            "offline read saturates"
        );
        assert_eq!(
            p.write_charge(1).as_nanos(),
            u64::MAX,
            "offline write saturates"
        );
        // Zero bytes still cost only the (zero) seek.
        assert_eq!(p.read_charge(0), SimDuration::ZERO);
    }

    #[test]
    fn nan_and_negative_rates_are_sanitized_at_construction() {
        // NaN passes a naive `<= 0.0` guard and used to flow through
        // `bytes / NaN` into `from_secs_f64`'s non-finite clamp,
        // pricing the transfer at zero. Both constructor sanitization
        // and the transfer guard must catch it, in both directions.
        let p = ThroughputProfile::new(SimDuration::ZERO, f64::NAN, -3.0);
        assert_eq!(p.read_bytes_per_sec, 0.0);
        assert_eq!(p.write_bytes_per_sec, 0.0);
        assert_eq!(p.read_charge(1024).as_nanos(), u64::MAX);
        assert_eq!(p.write_charge(1024).as_nanos(), u64::MAX);
        // A literal-constructed profile (pub fields) gets the same
        // protection from the transfer guard itself.
        let literal = ThroughputProfile {
            seek: SimDuration::ZERO,
            read_bytes_per_sec: f64::NAN,
            write_bytes_per_sec: f64::INFINITY,
        };
        assert_eq!(literal.read_charge(1).as_nanos(), u64::MAX);
        assert_eq!(literal.write_charge(1).as_nanos(), u64::MAX);
    }

    #[test]
    fn site_aggregate_profile_matches_closed_form_rate() {
        let site = ArchiveSite::hpss();
        let p = ThroughputProfile::from_site_aggregate(&site);
        // Reading the whole archive must take exactly the closed-form
        // read-only bound: capacity / daily read rate.
        let bytes = site.capacity_tb * 1e12;
        let days = p.read_charge(bytes as usize).as_days_f64();
        assert!((days - site.capacity_tb / site.read_tb_per_day).abs() < 1e-6);
        assert_eq!(p.seek, SimDuration::ZERO);
        assert_eq!(p.read_bytes_per_sec, p.write_bytes_per_sec);
    }

    #[test]
    fn cluster_helper_shares_one_clock() {
        let profile = ThroughputProfile::from_media(&MediaProfile::hdd());
        let (cluster, clock) = throughput_in_memory_cluster(&["a", "b"], 2, &profile);
        assert_eq!(cluster.nodes().len(), 4);
        assert!(clock.same_clock(cluster.clock()));
        cluster.nodes()[0]
            .put(&ShardKey::new("o", 0), &[1u8; 1024])
            .unwrap();
        assert!(clock.now() > SimTime::ZERO);
    }
}
