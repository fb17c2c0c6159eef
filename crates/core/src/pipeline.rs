//! The chunked, parallel encode/decode pipeline.
//!
//! The paper's §3.2 prices a re-encryption campaign in *months* because
//! the data path is throughput-bound; the ROADMAP's north star is an
//! encode path that runs "as fast as the hardware allows". This module
//! supplies that path: objects larger than a configurable chunk size
//! (default 1 MiB) are split into fixed-size chunks, each chunk is
//! encoded independently under the object's policy across a
//! `std::thread` worker pool, and the per-chunk shards are batched into
//! one framed blob per storage node so cluster placement and node I/O
//! still happen **once per object**, not once per chunk.
//!
//! # Chunk format
//!
//! An object of `L` bytes with chunk size `C` produces
//! `ceil(L / C)` chunks; chunk `j` is encoded exactly as a standalone
//! object would be, under the derived object context `"{id}#chunk{j}"`
//! (so AEAD keys and nonces are domain-separated per chunk). The shard
//! shipped to storage node `s` is the concatenation over chunks of
//! length-prefixed segments:
//!
//! ```text
//! shard[s] = [u32 BE len(seg_0_s)] seg_0_s  [u32 BE len(seg_1_s)] seg_1_s  ...
//! ```
//!
//! where `seg_j_s` is shard `s` of chunk `j`'s encoding. All segments of
//! a chunk have equal length (every policy produces equal-length
//! shards), so framing offsets are identical across nodes. Per-chunk
//! decode metadata lives in [`ChunkedMeta::chunk_metas`].
//!
//! Objects that fit in a single chunk bypass the framing entirely: the
//! pipeline output is byte-identical to the legacy whole-buffer
//! [`PolicyKind::encode`] path and `meta.chunked` stays `None`.
//!
//! # One reader of the layout
//!
//! [`encode_object`] is the one place the layout is *decided*
//! (`payload.len() <= chunk_size`); the crate-private `StoredChunks`
//! view is the one place it is *read*. Every consumer of a fetched
//! shard set — [`decode_object`], and the repair, refresh and re-wrap
//! planners in [`crate::plan`] — sees a list of chunks, each with its
//! context string, its [`EncodingMeta`] and its column of `Option`
//! segments, and hands per-chunk outputs back to be joined into one
//! blob per slot. An unframed set is a list of one chunk, borrowed as
//! is; nothing outside this module knows the `[u32 BE len][segment]`
//! framing, the `#chunk{j}` contexts or where per-chunk metadata lives.
//!
//! # Determinism and worker-pool sizing
//!
//! Per-chunk DRBG seeds are drawn **serially** from the caller's RNG
//! before any worker starts, and workers re-seed a private [`ChaChaDrbg`]
//! per chunk. The encoded bytes are therefore a pure function of
//! `(rng state, policy, object id, payload, chunk size)` — independent
//! of the worker count and of thread scheduling. `workers = 1` runs
//! inline on the calling thread; `workers = N` spawns `min(N, chunks)`
//! scoped threads that pull chunk indices from a shared atomic counter.

use crate::keys::KeyStore;
use crate::policy::{Encoded, EncodingMeta, PolicyError, PolicyKind};
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default chunk size: 1 MiB.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// Tuning knobs for the chunked pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Objects larger than this are split into chunks of this many bytes.
    pub chunk_size: usize,
    /// Worker threads for per-chunk encode/decode. `1` means fully
    /// serial (no threads spawned).
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_size: DEFAULT_CHUNK_SIZE,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl PipelineConfig {
    /// A fully serial configuration (one worker, default chunk size).
    pub fn serial() -> Self {
        PipelineConfig {
            workers: 1,
            ..PipelineConfig::default()
        }
    }

    /// Overrides the chunk size.
    pub fn with_chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = bytes;
        self
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Decode metadata for a chunked object: the chunk size used at encode
/// time plus each chunk's own [`EncodingMeta`] (entropic nonces, packed
/// parameters, key versions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedMeta {
    /// Chunk size in effect when the object was encoded.
    pub chunk_size: usize,
    /// One metadata record per chunk, in payload order.
    pub chunk_metas: Vec<EncodingMeta>,
}

impl ChunkedMeta {
    /// Number of chunks in the object.
    pub fn chunk_count(&self) -> usize {
        self.chunk_metas.len()
    }
}

/// One fetched shard set seen as a list of chunks — the only reader of
/// the stored layout. A set that fit one chunk (`meta.chunked == None`)
/// is its own single chunk under the object's own context and metadata;
/// a framed set has each present blob frame-walked once, keeping only
/// segment *offsets* into it. Either way [`StoredChunks::shards`] hands
/// a chunk's segments out **borrowed** from the fetched blobs: no byte
/// is copied before the codec reads it.
pub(crate) struct StoredChunks<'a> {
    object_id: &'a str,
    meta: &'a EncodingMeta,
    shards: &'a [Option<Vec<u8>>],
    framed: Option<Framing<'a>>,
}

/// A framed set's per-chunk metadata and, per present blob, its
/// per-chunk segment byte ranges.
struct Framing<'a> {
    chunked: &'a ChunkedMeta,
    ranges: Vec<Option<Vec<Range<usize>>>>,
}

impl<'a> StoredChunks<'a> {
    /// # Errors
    ///
    /// Returns [`PolicyError::Malformed`] for corrupt framing.
    pub(crate) fn parse(
        object_id: &'a str,
        meta: &'a EncodingMeta,
        shards: &'a [Option<Vec<u8>>],
    ) -> Result<Self, PolicyError> {
        let framed = match &meta.chunked {
            None => None,
            Some(chunked) => {
                let walk = |blob: &Vec<u8>| split_shard_ranges(blob, chunked.chunk_count());
                let ranges = shards.iter().map(|s| s.as_ref().map(walk).transpose());
                let ranges = ranges.collect::<Result<_, _>>()?;
                Some(Framing { chunked, ranges })
            }
        };
        Ok(StoredChunks {
            object_id,
            meta,
            shards,
            framed,
        })
    }

    /// Number of chunks in the set: one for an unframed set.
    pub(crate) fn count(&self) -> usize {
        self.framed.as_ref().map_or(1, |f| f.chunked.chunk_count())
    }

    /// The context string chunk `j` was encoded under.
    pub(crate) fn context(&self, j: usize) -> Cow<'a, str> {
        match self.framed {
            None => Cow::Borrowed(self.object_id),
            Some(_) => Cow::Owned(chunk_object_id(self.object_id, j)),
        }
    }

    /// Chunk `j`'s decode metadata.
    pub(crate) fn meta(&self, j: usize) -> &'a EncodingMeta {
        match &self.framed {
            None => self.meta,
            Some(framing) => &framing.chunked.chunk_metas[j],
        }
    }

    /// Chunk `j`'s shard set as ranges of the fetched blobs, absent slots
    /// staying absent.
    pub(crate) fn shards(&self, j: usize) -> Vec<Option<&'a [u8]>> {
        let blobs = self.shards.iter().map(Option::as_deref);
        let Some(Framing { ranges, .. }) = &self.framed else {
            return blobs.collect();
        };
        let segment = |(blob, ranges): (Option<&'a [u8]>, &Option<Vec<Range<usize>>>)| {
            Some(&blob?[ranges.as_ref()?[j].clone()])
        };
        blobs.zip(ranges).map(segment).collect()
    }

    /// Reassembles per-chunk outputs — `chunks[j][s]` is the new bytes
    /// of chunk `j` for the caller's `s`-th slot — into one stored blob
    /// per slot, in this set's layout.
    pub(crate) fn join(&self, chunks: Vec<Vec<Vec<u8>>>) -> Vec<Vec<u8>> {
        if self.framed.is_none() {
            return chunks.into_iter().next().unwrap_or_default();
        }
        let slots = chunks.first().map_or(0, Vec::len);
        (0..slots)
            .map(|s| join_shard_segments(chunks.iter().map(|chunk| chunk[s].as_slice())))
            .collect()
    }
}

/// The derived object context for chunk `j` of `object_id` — the string
/// under which per-chunk keys and nonces are derived.
pub fn chunk_object_id(object_id: &str, chunk: usize) -> String {
    format!("{object_id}#chunk{chunk}")
}

/// Runs `job(0..count)` across `workers` scoped threads and yields the
/// results in index order. `workers <= 1` (or a single item) runs inline
/// on the calling thread, **lazily**: each job runs when its result is
/// asked for, so a caller that folds the results as they come holds one
/// at a time rather than all `count`.
pub(crate) fn run_indexed<'a, T, F>(
    count: usize,
    workers: usize,
    job: F,
) -> Box<dyn Iterator<Item = T> + 'a>
where
    T: Send + 'a,
    F: Fn(usize) -> T + Sync + 'a,
{
    if workers <= 1 || count <= 1 {
        return Box::new((0..count).map(job));
    }
    let workers = workers.min(count);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= count {
                    break;
                }
                let out = job(j);
                *slots[j].lock() = Some(out);
            });
        }
    });
    Box::new(
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker filled every claimed slot")),
    )
}

/// Encodes a payload through the chunked pipeline.
///
/// Payloads of at most `cfg.chunk_size` bytes take the legacy
/// whole-buffer path and return bit-identical output to
/// [`PolicyKind::encode`]; larger payloads are chunk-encoded in
/// parallel and assembled into framed per-node shards (see the module
/// docs for the format). Output is independent of `cfg.workers`.
///
/// # Errors
///
/// Returns [`PolicyError`] from validation or any chunk's encode.
pub fn encode_object<R: CryptoRng + ?Sized>(
    policy: &PolicyKind,
    keys: &KeyStore,
    rng: &mut R,
    object_id: &str,
    payload: &[u8],
    cfg: &PipelineConfig,
) -> Result<Encoded, PolicyError> {
    policy.validate()?;
    let chunk_size = cfg.chunk_size.max(1);
    if payload.len() <= chunk_size {
        return policy.encode(rng, keys, object_id, payload);
    }
    let chunks: Vec<&[u8]> = payload.chunks(chunk_size).collect();
    // Seeds are drawn serially from the caller's RNG *before* any worker
    // runs: shard bytes do not depend on worker count or scheduling.
    let seeds: Vec<[u8; 32]> = chunks
        .iter()
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect();
    let ids: Vec<String> = (0..chunks.len())
        .map(|j| chunk_object_id(object_id, j))
        .collect();

    let results = run_indexed(chunks.len(), cfg.workers.max(1), |j| {
        let mut chunk_rng = ChaChaDrbg::from_seed(seeds[j]);
        policy.encode(&mut chunk_rng, keys, &ids[j], chunks[j])
    });

    let shard_count = policy.shard_count();
    let mut shards: Vec<Vec<u8>> = vec![Vec::new(); shard_count];
    let mut chunk_metas = Vec::with_capacity(chunks.len());
    for encoded in results {
        let encoded = encoded?;
        debug_assert_eq!(encoded.shards.len(), shard_count);
        for (out, segment) in shards.iter_mut().zip(&encoded.shards) {
            if out.is_empty() {
                // No later chunk is longer than the first: one
                // allocation holds the whole framed shard.
                out.reserve_exact((4 + segment.len()) * chunks.len());
            }
            out.extend_from_slice(&(segment.len() as u32).to_be_bytes());
            out.extend_from_slice(segment);
        }
        chunk_metas.push(encoded.meta);
    }
    Ok(Encoded {
        shards,
        meta: EncodingMeta {
            key_version: keys.current_version(),
            packed: None,
            entropic_nonce: None,
            chunked: Some(ChunkedMeta {
                chunk_size,
                chunk_metas,
            }),
        },
    })
}

/// Decodes an object encoded by [`encode_object`]: every chunk of the
/// stored set is decoded under its own context and metadata across
/// `workers` threads, and the payload is their concatenation. An object
/// that fit one chunk is that chunk's decode, returned as the codec
/// produced it.
///
/// # Errors
///
/// Returns [`PolicyError::Malformed`] for corrupt framing and any
/// per-chunk decode failure.
pub fn decode_object(
    policy: &PolicyKind,
    keys: &KeyStore,
    object_id: &str,
    shards: &[Option<Vec<u8>>],
    meta: &EncodingMeta,
    workers: usize,
) -> Result<Vec<u8>, PolicyError> {
    let chunks = StoredChunks::parse(object_id, meta, shards)?;
    let count = chunks.count();
    let decode =
        |j| policy.decode_slices(keys, &chunks.context(j), &chunks.shards(j), chunks.meta(j));
    if count == 1 {
        return decode(0);
    }
    let mut payload = Vec::new();
    for chunk in run_indexed(count, workers.max(1), decode) {
        let chunk = chunk?;
        if payload.is_empty() {
            // As above: the first chunk is a full one.
            payload.reserve_exact(chunk.len() * count);
        }
        payload.extend_from_slice(&chunk);
    }
    Ok(payload)
}

/// Parses one framed shard's layout into `chunk_count` per-chunk byte
/// ranges without copying segment bodies.
///
/// # Errors
///
/// Returns [`PolicyError::Malformed`] if the framing is truncated or
/// leaves trailing bytes.
fn split_shard_ranges(shard: &[u8], chunk_count: usize) -> Result<Vec<Range<usize>>, PolicyError> {
    let mut ranges = Vec::with_capacity(chunk_count);
    let mut pos = 0usize;
    for _ in 0..chunk_count {
        let Some(header) = shard.get(pos..pos + 4) else {
            return Err(PolicyError::Malformed(
                "chunked shard truncated inside a segment header".into(),
            ));
        };
        let len = u32::from_be_bytes(header.try_into().expect("4-byte slice")) as usize;
        pos += 4;
        if shard.get(pos..pos + len).is_none() {
            return Err(PolicyError::Malformed(
                "chunked shard truncated inside a segment body".into(),
            ));
        }
        ranges.push(pos..pos + len);
        pos += len;
    }
    if pos != shard.len() {
        return Err(PolicyError::Malformed(
            "chunked shard has trailing bytes after the last segment".into(),
        ));
    }
    Ok(ranges)
}

/// Parses one framed shard into its `chunk_count` per-chunk segments
/// as owned copies. The archive's own reads keep offsets only (the
/// crate-private chunk view); this is for callers outside the crate.
///
/// # Errors
///
/// Returns [`PolicyError::Malformed`] if the framing is truncated or
/// leaves trailing bytes.
pub fn split_shard_segments(shard: &[u8], chunk_count: usize) -> Result<Vec<Vec<u8>>, PolicyError> {
    let ranges = split_shard_ranges(shard, chunk_count)?;
    Ok(ranges.into_iter().map(|r| shard[r].to_vec()).collect())
}

/// Reassembles per-chunk segments (one per chunk, in order) into a
/// framed shard — the inverse of [`split_shard_segments`].
fn join_shard_segments<'s>(segments: impl Iterator<Item = &'s [u8]> + Clone) -> Vec<u8> {
    let total: usize = segments.clone().map(|s| s.len() + 4).sum();
    let mut out = Vec::with_capacity(total);
    for segment in segments {
        out.extend_from_slice(&(segment.len() as u32).to_be_bytes());
        out.extend_from_slice(segment);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::all_policies;

    fn fixtures() -> (ChaChaDrbg, KeyStore) {
        (ChaChaDrbg::from_u64_seed(77), KeyStore::new([3u8; 32]))
    }

    fn test_payload(len: usize) -> Vec<u8> {
        // High-entropy-ish but deterministic (Entropic needs no gate at
        // this layer, but keep it realistic).
        let mut rng = ChaChaDrbg::from_u64_seed(0xC0FFEE);
        let mut p = vec![0u8; len];
        rng.fill_bytes(&mut p);
        p
    }

    #[test]
    fn one_worker_runs_each_job_when_its_result_is_taken() {
        let ran = AtomicUsize::new(0);
        let mut results = run_indexed(3, 1, |j| {
            ran.fetch_add(1, Ordering::Relaxed);
            j * 10
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(results.next(), Some(0));
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(results.collect::<Vec<_>>(), [10, 20]);
        // Several workers finish every job first, still in index order.
        let eager: Vec<usize> = run_indexed(5, 3, |j| j * 10).collect();
        assert_eq!(eager, [0, 10, 20, 30, 40]);
    }

    #[test]
    fn small_objects_match_legacy_encode_exactly() {
        let payload = test_payload(900);
        let cfg = PipelineConfig::serial().with_chunk_size(1024);
        for policy in all_policies() {
            let (mut rng_a, keys) = fixtures();
            let mut rng_b = ChaChaDrbg::from_u64_seed(77);
            let legacy = policy.encode(&mut rng_a, &keys, "obj", &payload).unwrap();
            let piped = encode_object(&policy, &keys, &mut rng_b, "obj", &payload, &cfg).unwrap();
            assert_eq!(legacy.shards, piped.shards, "{policy:?}");
            assert!(piped.meta.chunked.is_none(), "{policy:?}");
        }
    }

    #[test]
    fn chunked_roundtrip_every_policy() {
        let payload = test_payload(10_000);
        let cfg = PipelineConfig::serial()
            .with_chunk_size(1024)
            .with_workers(3);
        for policy in all_policies() {
            let (mut rng, keys) = fixtures();
            let enc = encode_object(&policy, &keys, &mut rng, "obj", &payload, &cfg).unwrap();
            let chunked = enc.meta.chunked.as_ref().expect("multi-chunk object");
            assert_eq!(chunked.chunk_count(), 10, "{policy:?}");
            assert_eq!(enc.shards.len(), policy.shard_count(), "{policy:?}");
            let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let dec = decode_object(&policy, &keys, "obj", &shards, &enc.meta, 3).unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let payload = test_payload(8_192);
        for policy in all_policies() {
            let mut outputs = Vec::new();
            for workers in [1usize, 2, 5] {
                let (mut rng, keys) = fixtures();
                let cfg = PipelineConfig::serial()
                    .with_chunk_size(1000)
                    .with_workers(workers);
                let enc = encode_object(&policy, &keys, &mut rng, "det", &payload, &cfg).unwrap();
                outputs.push((enc.shards, enc.meta));
            }
            assert_eq!(outputs[0], outputs[1], "{policy:?}: 1 vs 2 workers");
            assert_eq!(outputs[0], outputs[2], "{policy:?}: 1 vs 5 workers");
        }
    }

    #[test]
    fn chunked_survives_maximum_loss() {
        let payload = test_payload(5_000);
        let cfg = PipelineConfig::serial()
            .with_chunk_size(512)
            .with_workers(2);
        for policy in all_policies() {
            let (mut rng, keys) = fixtures();
            let enc = encode_object(&policy, &keys, &mut rng, "loss", &payload, &cfg).unwrap();
            let n = policy.shard_count();
            let t = policy.read_threshold();
            let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            for s in shards.iter_mut().take(n - t) {
                *s = None;
            }
            let dec = decode_object(&policy, &keys, "loss", &shards, &enc.meta, 2).unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn corrupt_framing_is_a_typed_error() {
        let payload = test_payload(4_096);
        let policy = PolicyKind::ErasureCoded { data: 2, parity: 1 };
        let (mut rng, keys) = fixtures();
        let cfg = PipelineConfig::serial().with_chunk_size(1024);
        let enc = encode_object(&policy, &keys, &mut rng, "bad", &payload, &cfg).unwrap();
        // Truncate one shard mid-segment.
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let blob = shards[0].as_mut().unwrap();
        blob.truncate(blob.len() - 3);
        assert!(matches!(
            decode_object(&policy, &keys, "bad", &shards, &enc.meta, 1),
            Err(PolicyError::Malformed(_))
        ));
    }

    #[test]
    fn segment_framing_roundtrip() {
        let segments: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 300]];
        let framed = join_shard_segments(segments.iter().map(Vec::as_slice));
        assert_eq!(split_shard_segments(&framed, 3).unwrap(), segments);
        assert!(split_shard_segments(&framed, 4).is_err());
        assert!(split_shard_segments(&framed[..framed.len() - 1], 3).is_err());
    }

    #[test]
    fn a_one_chunk_set_is_its_own_single_chunk_borrowed() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Entropic { data: 2, parity: 1 };
        let cfg = PipelineConfig::serial().with_chunk_size(1024);
        let enc = encode_object(&policy, &keys, &mut rng, "one", &test_payload(900), &cfg).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[1] = None;
        let view = StoredChunks::parse("one", &enc.meta, &shards).unwrap();
        assert_eq!(view.count(), 1);
        assert!(matches!(view.context(0), Cow::Borrowed("one")));
        assert!(std::ptr::eq(view.meta(0), &enc.meta));
        // The caller's own blobs, not copies of them.
        for (seen, blob) in view.shards(0).iter().zip(&shards) {
            assert_eq!(
                seen.map(<[u8]>::as_ptr),
                blob.as_deref().map(<[u8]>::as_ptr)
            );
        }
        // Joining one chunk's outputs hands them back as they are.
        assert_eq!(view.join(vec![enc.shards.clone()]), enc.shards);
    }

    #[test]
    fn a_framed_set_is_a_list_of_chunks_that_joins_back() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Entropic { data: 2, parity: 1 };
        let cfg = PipelineConfig::serial().with_chunk_size(1024);
        let payload = test_payload(2_500);
        let enc = encode_object(&policy, &keys, &mut rng, "big", &payload, &cfg).unwrap();
        let chunked = enc.meta.chunked.as_ref().expect("three chunks");
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let view = StoredChunks::parse("big", &enc.meta, &shards).unwrap();
        assert_eq!(view.count(), 3);
        let mut columns = Vec::new();
        for j in 0..3 {
            assert_eq!(view.context(j), format!("big#chunk{j}"));
            assert!(std::ptr::eq(view.meta(j), &chunked.chunk_metas[j]));
            // Each chunk decodes on its own, as the standalone object it
            // was encoded as.
            let chunk = policy
                .decode_slices(&keys, &view.context(j), &view.shards(j), view.meta(j))
                .unwrap();
            assert_eq!(chunk, payload.chunks(1024).nth(j).unwrap());
            // Each segment is a range of its fetched blob.
            for (segment, blob) in view.shards(j).iter().zip(&shards) {
                let blob = blob.as_deref().unwrap().as_ptr_range();
                assert!(blob.contains(&segment.unwrap().as_ptr()));
            }
            columns.push(
                view.shards(j)
                    .iter()
                    .flatten()
                    .map(|s| s.to_vec())
                    .collect(),
            );
        }
        assert_eq!(view.join(columns), enc.shards);
        // An absent blob is absent from every chunk's column.
        let mut degraded = shards.clone();
        degraded[2] = None;
        let view = StoredChunks::parse("big", &enc.meta, &degraded).unwrap();
        assert!((0..3).all(|j| view.shards(j)[2].is_none() && view.shards(j)[0].is_some()));
        // Corrupt framing is refused when the set is parsed.
        shards[0].as_mut().unwrap().push(0);
        assert!(matches!(
            StoredChunks::parse("big", &enc.meta, &shards),
            Err(PolicyError::Malformed(_))
        ));
    }

    /// A real framed set: RS(2, 1) under the entropic seal, three chunks
    /// of a 2 500-byte payload.
    fn framed_set() -> Encoded {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Entropic { data: 2, parity: 1 };
        let cfg = PipelineConfig::serial().with_chunk_size(1024);
        encode_object(&policy, &keys, &mut rng, "big", &test_payload(2_500), &cfg).unwrap()
    }

    /// A parse of hostile blobs under a real [`ChunkedMeta`]: whether it
    /// parsed (every chunk's segments then handed out), or the one typed
    /// refusal.
    fn parses_or_refuses(meta: &EncodingMeta, shards: &[Option<Vec<u8>>]) -> bool {
        match StoredChunks::parse("big", meta, shards) {
            Ok(view) => {
                for j in 0..view.count() {
                    assert_eq!(view.shards(j).len(), shards.len());
                }
                true
            }
            Err(PolicyError::Malformed(_)) => false,
            Err(other) => panic!("untyped chunk-set refusal: {other}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// An arbitrary blob in one slot of a real framed set, with and
        /// without a real first segment in front of it (without it most
        /// cases stop at the first header), parses or is refused with
        /// `Malformed` — never a panic.
        #[test]
        fn hostile_chunk_set_bytes_parse_or_fail_typed(
            slot in 0usize..3,
            segment in proptest::prelude::any::<bool>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            let enc = framed_set();
            let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let real = &enc.shards[slot];
            let first = if segment {
                4 + u32::from_be_bytes(real[..4].try_into().unwrap()) as usize
            } else {
                0
            };
            shards[slot] = Some([&real[..first], &tail].concat());
            parses_or_refuses(&enc.meta, &shards);
        }
    }

    /// Each blob of a real framed set cut at every offset and with every
    /// bit flipped in turn: each cut is refused, each flip parses or is
    /// refused, and nothing panics.
    #[test]
    fn hostile_chunk_set_cuts_and_flips_parse_or_fail_typed() {
        let enc = framed_set();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        assert!(parses_or_refuses(&enc.meta, &shards), "a real set parses");
        for (slot, blob) in enc.shards.iter().enumerate() {
            for cut in 0..blob.len() {
                shards[slot] = Some(blob[..cut].to_vec());
                assert!(
                    !parses_or_refuses(&enc.meta, &shards),
                    "slot {slot} cut at {cut} parsed"
                );
            }
            let mut flipped = blob.clone();
            for bit in 0..blob.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                shards[slot] = Some(flipped.clone());
                parses_or_refuses(&enc.meta, &shards);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            shards[slot] = Some(blob.clone());
        }
    }

    #[test]
    fn chunk_ids_are_domain_separated() {
        assert_eq!(chunk_object_id("abc", 0), "abc#chunk0");
        assert_ne!(chunk_object_id("abc", 1), chunk_object_id("abc", 2));
    }
}
