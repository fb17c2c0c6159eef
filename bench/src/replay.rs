//! Leaf-layer replays for the traced run.
//!
//! The staged composition stops at `plan_write` / `decode_object` /
//! `plan_repair`: what happens below them (codec, AEAD, erasure code,
//! secret sharing, GF kernels, DRBG, shard digests, batch frames) and
//! everything inside a dedup archive (chunker, block hashes, Merkle
//! tree) is private to the program. This module feeds the *same
//! generated inputs* to those layers' public functions, call for call
//! in the shape the program uses them, under one `replay.<phase>` root
//! span per phase. Replay spans are estimates of where the time inside
//! the opaque calls goes; they are never added to an op span's
//! children, except on `dedup-versions` where they are the only view
//! there is (see `unattributed_share` in the README).

use crate::gen::Object;
use crate::trace::{in_span, span};
use crate::workload::{Workload, NODES};
use aeon_cas::{build_tree, collect_leaves, BlockHash, Chunker};
use aeon_core::keys::KeyStore;
use aeon_core::pipeline::{chunk_object_id, encode_object, split_shard_segments};
use aeon_core::{block_object_id, DedupConfig, Encoded, EncodingMeta, ObjectId, PolicyKind};
use aeon_crypto::aead::derive_nonce;
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256, SuiteId, SuiteRegistry};
use aeon_erasure::ReedSolomon;
use aeon_gf::slice::{gf16_mul_add_rows, mul_add_rows};
use aeon_gf::{Gf16, Gf256};
use aeon_secretshare::packed::{self, PackedParams};
use aeon_secretshare::shamir::{self, Share};
use aeon_store::batch::{
    decode_batch_frame, decode_read_frame, encode_batch_frame, encode_read_frame,
};
use aeon_store::node::{NodeId, ShardKey};
use aeon_store::Cluster;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;

type Slots = Vec<Option<Vec<u8>>>;

struct Replayer<'a> {
    w: &'a Workload,
    keys: KeyStore,
    rng: ChaChaDrbg,
    cluster: &'a Cluster,
    wiped: NodeId,
}

/// Runs the re-run of a span's inner layers under a `replay.detail`
/// span, so a sum over a replay root's direct children counts each
/// stretch of work once: the outer layer's span, not its parts again.
fn detail<T>(f: impl FnOnce() -> T) -> T {
    in_span(crate::trace::DETAIL, 0, f)
}

fn sha256(data: &[u8]) {
    black_box(in_span("crypto.sha256", data.len() as u64, || {
        Sha256::digest(data)
    }));
}

/// `calls` fused GF(2^8) row passes of `rows` sources into `len` bytes —
/// the shape `mul_add_rows` is called in by RS and Shamir.
fn gf_kernel(src: &[u8], len: usize, rows: usize, calls: usize) {
    if len == 0 || rows == 0 || src.len() < len {
        return;
    }
    let sources: Vec<(Gf256, &[u8])> = (0..rows)
        .map(|r| (Gf256::new(r as u8 + 2), &src[..len]))
        .collect();
    let mut dst = vec![0u8; len];
    for _ in 0..calls {
        in_span("gf.kernel", (len * rows) as u64, || {
            mul_add_rows(&mut dst, &sources)
        });
    }
    black_box(dst);
}

/// The RS payload framing (`u64` length prefix, zero padding) that
/// `ReedSolomon::encode` applies before striping.
fn rs_frame(payload: &[u8], data: usize) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 8 + data);
    framed.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    framed.extend_from_slice(payload);
    framed.resize(framed.len().div_ceil(data) * data, 0);
    framed
}

fn rs_encode(data: usize, parity: usize, payload: &[u8]) {
    let framed = rs_frame(payload, data);
    let shard_len = framed.len() / data;
    let stripes: Vec<&[u8]> = framed.chunks(shard_len).collect();
    let rs = ReedSolomon::new(data, parity).expect("validated policy");
    black_box(in_span("erasure.encode", framed.len() as u64, || {
        rs.encode_shards(&stripes)
    }))
    .expect("equal-length stripes");
    detail(|| gf_kernel(&framed, shard_len, data, parity));
}

/// `reconstruct_shards` as RS decode and RS repair both call it; returns
/// the framed payload (the data shards, concatenated).
fn rs_reconstruct(data: usize, parity: usize, shards: &Slots) -> Vec<u8> {
    let rs = ReedSolomon::new(data, parity).expect("validated policy");
    let bytes: u64 = shards.iter().flatten().map(|s| s.len() as u64).sum();
    let all = in_span("erasure.reconstruct", bytes, || {
        rs.reconstruct_shards(shards)
    })
    .expect("enough shards survive");
    // One fused pass per recovered data shard, then parity regenerated.
    detail(|| gf_kernel(&all[0], all[0].len(), data, data + parity));
    all[..data].concat()
}

impl Replayer<'_> {
    fn seal(&self, suite: SuiteId, layer: u32, ctx: &str, data: &[u8]) -> Vec<u8> {
        let cipher = SuiteRegistry::new()
            .instantiate(suite, &self.keys.object_key(ctx, layer))
            .expect("AEAD suite");
        let nonce = derive_nonce(ctx.as_bytes());
        in_span("crypto.aead.seal", data.len() as u64, || {
            cipher.seal(&nonce, ctx.as_bytes(), data)
        })
    }

    /// One codec encode of `chunk` under `ctx`, then (as detail) the leaf
    /// calls that encode is made of.
    fn encode_leaves(&mut self, policy: &PolicyKind, ctx: &str, chunk: &[u8]) {
        black_box(in_span("core.codec.encode", chunk.len() as u64, || {
            policy.encode(&mut self.rng, &self.keys, ctx, chunk)
        }))
        .expect("policy encodes generated input");
        detail(|| self.encode_parts(policy, ctx, chunk));
    }

    fn encode_parts(&mut self, policy: &PolicyKind, ctx: &str, chunk: &[u8]) {
        match policy {
            PolicyKind::Encrypted {
                suite,
                data,
                parity,
            } => {
                let ct = self.seal(*suite, 0, ctx, chunk);
                rs_encode(*data, *parity, &ct);
            }
            PolicyKind::Cascade {
                suites,
                data,
                parity,
            } => {
                let mut layered = chunk.to_vec();
                for (i, suite) in suites.iter().enumerate() {
                    layered = self.seal(*suite, i as u32, ctx, &layered);
                }
                rs_encode(*data, *parity, &layered);
            }
            PolicyKind::ErasureCoded { data, parity } => rs_encode(*data, *parity, chunk),
            PolicyKind::Shamir { threshold, shares } => {
                let mut coefficients = vec![0u8; chunk.len() * (threshold - 1)];
                in_span("crypto.drbg", coefficients.len() as u64, || {
                    self.rng.fill_bytes(&mut coefficients)
                });
                black_box(in_span("secretshare.split", chunk.len() as u64, || {
                    shamir::split(&mut self.rng, chunk, *threshold, *shares)
                }))
                .expect("validated policy");
                detail(|| gf_kernel(chunk, chunk.len(), threshold - 1, *shares));
            }
            PolicyKind::PackedShamir {
                privacy,
                pack,
                shares,
            } => {
                let params = PackedParams::new(*privacy, *pack, *shares).expect("validated policy");
                let rows = chunk.len().div_ceil(2).div_ceil(*pack).max(1);
                // One `next_u64` per privacy anchor per row.
                let mut anchors = vec![0u8; rows * privacy * 8];
                in_span("crypto.drbg", anchors.len() as u64, || {
                    self.rng.fill_bytes(&mut anchors)
                });
                black_box(in_span("secretshare.split", chunk.len() as u64, || {
                    packed::split(&mut self.rng, params, chunk)
                }))
                .expect("validated policy");
                // The fused GF(2^16) pass each share ends with.
                let column = vec![0x1234u16; rows];
                let sources: Vec<(Gf16, &[u16])> = (0..pack + privacy - 1)
                    .map(|k| (Gf16::new(k as u16 + 2), column.as_slice()))
                    .collect();
                let mut acc = vec![0u16; rows];
                detail(|| {
                    for _ in 0..*shares {
                        in_span("gf.kernel", (rows * 2 * sources.len()) as u64, || {
                            gf16_mul_add_rows(&mut acc, &sources)
                        });
                    }
                });
                black_box(acc);
            }
            _ => {}
        }
    }

    /// One codec decode of a chunk's shard set, then (as detail) its
    /// leaf calls. Returns the decoded bytes.
    fn decode_leaves(
        &self,
        policy: &PolicyKind,
        ctx: &str,
        shards: &Slots,
        meta: &EncodingMeta,
    ) -> Vec<u8> {
        let bytes: u64 = shards.iter().flatten().map(|s| s.len() as u64).sum();
        let plain = in_span("core.codec.decode", bytes, || {
            policy.decode(&self.keys, ctx, shards, meta)
        })
        .expect("policy decodes what it encoded");
        detail(|| match policy {
            PolicyKind::Encrypted {
                suite,
                data,
                parity,
            } => {
                let framed = rs_reconstruct(*data, *parity, shards);
                let len = u64::from_be_bytes(framed[..8].try_into().expect("8 bytes")) as usize;
                let ct = &framed[8..8 + len];
                let cipher = SuiteRegistry::new()
                    .instantiate(*suite, &self.keys.object_key(ctx, 0))
                    .expect("AEAD suite");
                let nonce = derive_nonce(ctx.as_bytes());
                black_box(in_span("crypto.aead.open", ct.len() as u64, || {
                    cipher.open(&nonce, ctx.as_bytes(), ct)
                }))
                .expect("replayed ciphertext authenticates");
            }
            PolicyKind::ErasureCoded { data, parity } => {
                black_box(rs_reconstruct(*data, *parity, shards));
            }
            PolicyKind::Shamir { threshold, .. } => {
                self.shamir_combine(shards, *threshold, Gf256::ZERO);
            }
            _ => {}
        });
        plain
    }

    fn shamir_combine(&self, shards: &Slots, threshold: usize, at: Gf256) {
        let survivors: Vec<Share> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref().map(|bytes| Share {
                    index: (i + 1) as u8,
                    data: bytes.clone(),
                })
            })
            .take(threshold)
            .collect();
        let len = survivors[0].data.len();
        black_box(in_span(
            "secretshare.combine",
            (len * threshold) as u64,
            || shamir::reconstruct_at(&survivors, threshold, at),
        ))
        .expect("threshold shares survive");
        detail(|| gf_kernel(&survivors[0].data, len, threshold, 1));
    }

    /// The leaf calls of `Codec::repair_chunk` for a chunk's shard set.
    fn repair_leaves(&self, policy: &PolicyKind, shards: &Slots) {
        match policy {
            PolicyKind::Encrypted { data, parity, .. }
            | PolicyKind::ErasureCoded { data, parity } => {
                black_box(rs_reconstruct(*data, *parity, shards));
            }
            PolicyKind::Shamir { threshold, .. } => {
                for (i, slot) in shards.iter().enumerate() {
                    if slot.is_none() {
                        self.shamir_combine(shards, *threshold, Gf256::new((i + 1) as u8));
                    }
                }
            }
            _ => {}
        }
    }

    /// Which shard slot of `ctx` sat on the wiped node.
    fn wiped_slot(&self, ctx: &str, shards: usize) -> Option<usize> {
        let placement = self
            .cluster
            .place(ctx, shards)
            .expect("fleet fits the policy");
        placement.iter().position(|n| *n == self.wiped)
    }

    /// Encodes one object through the pipeline, then replays the leaves
    /// of every pipeline chunk and the shard digests `plan_write` takes.
    fn encode_object_leaves(&mut self, policy: &PolicyKind, ctx: &str, payload: &[u8]) -> Encoded {
        let cfg = self.w.pipeline();
        let encoded = in_span("core.pipeline.encode", payload.len() as u64, || {
            encode_object(policy, &self.keys, &mut self.rng, ctx, payload, &cfg)
        })
        .expect("pipeline encodes generated input");
        detail(|| {
            if payload.len() > cfg.chunk_size {
                for (j, chunk) in payload.chunks(cfg.chunk_size).enumerate() {
                    self.encode_leaves(policy, &chunk_object_id(ctx, j), chunk);
                }
            } else {
                self.encode_leaves(policy, ctx, payload);
            }
        });
        for shard in &encoded.shards {
            sha256(shard);
        }
        encoded
    }
}

/// An object's stored form as per-chunk shard sets, with `missing`
/// knocked out: what `decode_object` hands the codec chunk by chunk.
fn chunk_sets(
    ctx: &str,
    encoded: &Encoded,
    missing: Option<usize>,
) -> Vec<(String, Slots, EncodingMeta)> {
    let masked = |i: usize, bytes: Vec<u8>| (Some(i) != missing).then_some(bytes);
    match &encoded.meta.chunked {
        None => vec![(
            ctx.to_string(),
            encoded
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| masked(i, s.clone()))
                .collect(),
            encoded.meta.clone(),
        )],
        Some(chunked) => {
            let columns: Vec<Vec<Vec<u8>>> = encoded
                .shards
                .iter()
                .map(|s| split_shard_segments(s, chunked.chunk_count()).expect("own framing"))
                .collect();
            (0..chunked.chunk_count())
                .map(|j| {
                    (
                        chunk_object_id(ctx, j),
                        columns
                            .iter()
                            .enumerate()
                            .map(|(i, col)| masked(i, col[j].clone()))
                            .collect(),
                        chunked.chunk_metas[j].clone(),
                    )
                })
                .collect()
        }
    }
}

fn present_shards(encoded: &Encoded, missing: Option<usize>) -> impl Iterator<Item = &Vec<u8>> {
    encoded
        .shards
        .iter()
        .enumerate()
        .filter(move |(i, _)| Some(*i) != missing)
        .map(|(_, s)| s)
}

/// Replays every leaf layer for `objects`, phase by phase. Call with
/// recording on, after the traced round; `wiped` is the node the round
/// wiped.
pub fn replay_layers(
    w: &Workload,
    objects: &[Object],
    ids: &[ObjectId],
    cluster: &Cluster,
    wiped: usize,
) {
    let mut r = Replayer {
        w,
        keys: KeyStore::new([0x42; 32]),
        rng: ChaChaDrbg::from_u64_seed(1),
        cluster,
        wiped: NodeId(wiped as u32),
    };
    if w.dedup {
        r.dedup(objects);
    } else {
        r.classic(objects, ids);
    }
}

impl Replayer<'_> {
    fn classic(&mut self, objects: &[Object], ids: &[ObjectId]) {
        let policy = self.w.policy.clone();
        let target = self.w.reencode_to.clone();
        let ctxs: Vec<&str> = ids.iter().map(ObjectId::as_str).collect();

        let root = span("replay.ingest", 0);
        let encoded: Vec<Encoded> = objects
            .iter()
            .zip(&ctxs)
            .map(|(o, ctx)| self.encode_object_leaves(&policy, ctx, &o.payload))
            .collect();
        if self.w.batch > 1 {
            self.batch_frames(&ctxs, &encoded, false);
        }
        drop(root);
        let missing: Vec<Option<usize>> = ctxs
            .iter()
            .map(|ctx| self.wiped_slot(ctx, policy.shard_count()))
            .collect();

        for (name, degraded) in [
            ("replay.retrieve", false),
            ("replay.degraded_retrieve", true),
        ] {
            let root = span(name, 0);
            for ((ctx, enc), miss) in ctxs.iter().zip(&encoded).zip(&missing) {
                let miss = if degraded { *miss } else { None };
                present_shards(enc, miss).for_each(|s| sha256(s));
                for (chunk_ctx, slots, meta) in chunk_sets(ctx, enc, miss) {
                    black_box(self.decode_leaves(&policy, &chunk_ctx, &slots, &meta));
                }
            }
            if self.w.batch > 1 && !degraded {
                self.batch_frames(&ctxs, &encoded, true);
            }
            drop(root);
        }

        let root = span("replay.repair", 0);
        for ((ctx, enc), miss) in ctxs.iter().zip(&encoded).zip(&missing) {
            present_shards(enc, *miss).for_each(|s| sha256(s));
            let Some(slot) = miss else { continue };
            for (_, slots, _) in chunk_sets(ctx, enc, *miss) {
                self.repair_leaves(&policy, &slots);
            }
            sha256(&enc.shards[*slot]);
            enc.shards.iter().for_each(|s| sha256(s));
        }
        drop(root);

        let root = span("replay.reencode", 0);
        for ((o, ctx), enc) in objects.iter().zip(&ctxs).zip(&encoded) {
            enc.shards.iter().for_each(|s| sha256(s));
            for (chunk_ctx, slots, meta) in chunk_sets(ctx, enc, None) {
                black_box(self.decode_leaves(&policy, &chunk_ctx, &slots, &meta));
            }
            self.encode_object_leaves(&target, ctx, &o.payload);
        }
        drop(root);
    }

    /// The per-node frames a batched commit (`response == false`) or a
    /// batched fetch's answer (`response == true`) is priced as, encoded
    /// and decoded once each.
    fn batch_frames(&self, ctxs: &[&str], encoded: &[Encoded], response: bool) {
        for (group_ctx, group_enc) in ctxs.chunks(self.w.batch).zip(encoded.chunks(self.w.batch)) {
            let mut per_node: Vec<Vec<(ShardKey, &[u8])>> = vec![Vec::new(); NODES];
            for (ctx, enc) in group_ctx.iter().zip(group_enc) {
                let placement = self
                    .cluster
                    .place(ctx, enc.shards.len())
                    .expect("fleet fits");
                for (s, node) in placement.iter().enumerate() {
                    per_node[node.0 as usize].push((ShardKey::new(*ctx, s as u32), &enc.shards[s]));
                }
            }
            for entries in per_node.iter().filter(|e| !e.is_empty()) {
                let bytes = entries.iter().map(|(_, d)| d.len() as u64).sum();
                if response {
                    let hits: Vec<(ShardKey, Option<&[u8]>)> =
                        entries.iter().map(|(k, d)| (k.clone(), Some(*d))).collect();
                    let frame = in_span("store.frame.encode", bytes, || encode_read_frame(&hits));
                    black_box(in_span("store.frame.decode", bytes, || {
                        decode_read_frame(&frame)
                    }))
                    .expect("own frame");
                } else {
                    let frame =
                        in_span("store.frame.encode", bytes, || encode_batch_frame(entries));
                    black_box(in_span("store.frame.decode", bytes, || {
                        decode_batch_frame(&frame)
                    }))
                    .expect("own frame");
                }
            }
        }
    }

    fn dedup(&mut self, objects: &[Object]) {
        let cfg = DedupConfig::default();
        let chunker = Chunker::new(cfg.chunker);
        let policy = self.w.policy.clone();
        let target = self.w.reencode_to.clone();
        let mut blocks: HashMap<BlockHash, Encoded> = HashMap::new();
        let mut tree_bytes: HashMap<BlockHash, Vec<u8>> = HashMap::new();
        // Per object: root, tree-node hashes, leaf hashes in payload order.
        let mut shapes: Vec<(BlockHash, Vec<BlockHash>, Vec<BlockHash>)> = Vec::new();

        let root = span("replay.ingest", 0);
        for o in objects {
            let chunks = in_span("cas.chunker", o.payload.len() as u64, || {
                chunker.chunks(&o.payload)
            });
            let leaves: Vec<BlockHash> = chunks
                .iter()
                .map(|c| in_span("crypto.sha256", c.len() as u64, || BlockHash::of(c)))
                .collect();
            for (hash, chunk) in leaves.iter().zip(&chunks) {
                if !blocks.contains_key(hash) {
                    let enc = self.encode_object_leaves(&policy, &block_object_id(hash), chunk);
                    blocks.insert(*hash, enc);
                }
            }
            let tree = in_span("cas.merkle.build", (leaves.len() * 32) as u64, || {
                build_tree(&leaves, cfg.fanout)
            });
            for (hash, bytes) in &tree.nodes {
                if !blocks.contains_key(hash) {
                    let enc = self.encode_object_leaves(&policy, &block_object_id(hash), bytes);
                    blocks.insert(*hash, enc);
                    tree_bytes.insert(*hash, bytes.clone());
                }
            }
            sha256(&o.payload);
            shapes.push((
                tree.root,
                tree.nodes.iter().map(|(h, _)| *h).collect(),
                leaves,
            ));
        }
        drop(root);

        for (name, degraded) in [
            ("replay.retrieve", false),
            ("replay.degraded_retrieve", true),
        ] {
            let root = span(name, 0);
            for (o, (tree_root, nodes, _)) in objects.iter().zip(&shapes) {
                let bytes: u64 = nodes.iter().map(|h| tree_bytes[h].len() as u64).sum();
                let leaves = in_span("cas.merkle.walk", bytes, || {
                    collect_leaves(tree_root, |h| tree_bytes.get(h).cloned())
                })
                .expect("own tree");
                for hash in nodes.iter().chain(&leaves) {
                    self.read_block(&policy, hash, &blocks[hash], degraded);
                }
                sha256(&o.payload);
            }
            drop(root);
        }

        let root = span("replay.reencode", 0);
        let mut migrated: HashSet<BlockHash> = HashSet::new();
        for (_, nodes, leaves) in &shapes {
            for hash in nodes.iter().chain(leaves) {
                if migrated.insert(*hash) {
                    let plain = self.read_block(&policy, hash, &blocks[hash], false);
                    self.encode_object_leaves(&target, &block_object_id(hash), &plain);
                }
            }
        }
        drop(root);
    }

    /// One `read_block`: shard digests, codec decode, block-hash check.
    fn read_block(
        &self,
        policy: &PolicyKind,
        hash: &BlockHash,
        enc: &Encoded,
        degraded: bool,
    ) -> Vec<u8> {
        let ctx = block_object_id(hash);
        let miss = degraded
            .then(|| self.wiped_slot(&ctx, enc.shards.len()))
            .flatten();
        present_shards(enc, miss).for_each(|s| sha256(s));
        let (_, slots, meta) = chunk_sets(&ctx, enc, miss)
            .pop()
            .expect("blocks are one chunk");
        let plain = self.decode_leaves(policy, &ctx, &slots, &meta);
        in_span("crypto.sha256", plain.len() as u64, || {
            black_box(BlockHash::of(&plain))
        });
        plain
    }
}
