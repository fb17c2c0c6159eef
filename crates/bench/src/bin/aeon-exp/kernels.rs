//! Kernel-throughput baseline: GB/s for every GF(2^8) / GF(2^16) and
//! crypto dispatch tier.
//!
//! Measures each supported [`Kernel`] tier (scalar, SWAR, and — when the
//! host has them — SSSE3/AVX2) on the three GF(2^8) slice operations the
//! archive hot paths use: `mul_slice`, `mul_add_slice`, and the fused
//! `mul_add_rows`, and on the GF(2^16) fused `gf16_mul_add_rows` packed
//! sharing runs on, at 4 KiB / 64 KiB / 1 MiB buffers; then each supported
//! [`CryptoKernel`] (scalar, and SHA-NI / AES-NI / AVX2 / AVX-512 where
//! the host has them) on its four slots, `sha256`, `aes256-ctr`,
//! `chacha20` and `poly1305`, and on what the last two compose into,
//! `chacha20-poly1305 seal` / `open` (labelled `<chacha20 tier>+<poly1305
//! tier>`), at 64 B / 4 KiB / 44 KiB (a dedup block) / 1 MiB, plus the
//! time of one 32-byte SHA-256 digest —
//! the shape of every Merkle node, HMAC finish and signature chain step —
//! and the fifth slot, `sha256-x16`, as the aggregate GB/s of sixteen
//! 1 MiB lanes per call beside the single-stream `sha256` row (their
//! ratio sets `Sha256::digest_many`'s break-even), then `shard-digest`:
//! five 1 MiB shards per call, SHA-256 of each whole shard (`flat`)
//! against the segment-tree roots the archive records (`tree`), per
//! kernel, and their ratio on the active one; `payload-digest`, the same
//! two digests of one 1 MiB and one 4 MiB payload, as every read checks
//! one; then `digest_many` per
//! kernel over three real message sets: one 2 MiB version's dedup blocks,
//! one 32-object small-files flush (payloads and RS(4, 2) shards) and
//! the same 32 payloads alone, as one small-files `retrieve_many`
//! verifies them;
//! and, on the active kernels, what sits on the two dispatched layers:
//! a 1 MiB `ChaChaDrbg` fill, Shamir 3-of-5 split of 1 MiB, packed
//! sharing (t=2, k=2, n=6) of 1 MiB, split and reconstruct, and a 1 MiB RS(4, 2) chunk decoded whole,
//! decoded with a data shard lost, and repaired one row. Emits
//! `BENCH_kernels.json` so future PRs diff kernel throughput against a
//! pinned baseline instead of a feeling.
//!
//! Timing is min-of-N over repeated sweeps: on a shared host the
//! *minimum* is the reproducible number — every slower sample is the
//! kernel plus someone else's noise. `--quick` (CI) cuts the per-cell
//! byte budget and repetitions; `--rows N` changes the fused-row fan-in
//! (default 8, a typical RS data width).

use std::hint::black_box;
use std::time::Instant;

use aeon_bench::{f2, f3, lcg_payload, reference_payload, CliArgs, Json, Table};
use aeon_cas::{Chunker, ChunkerParams};
use aeon_core::plan::SEGMENT;
use aeon_crypto::aead::ChaCha20Poly1305;
use aeon_crypto::aes::Aes;
use aeon_crypto::chacha::ChaCha20;
use aeon_crypto::kernel::{Kernel as CryptoKernel, Tier};
use aeon_crypto::poly1305::Poly1305;
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use aeon_erasure::{ErasureCode, ReedSolomon};
use aeon_gf::slice::{gf16_mul_add_rows_on, mul_add_rows_on, Gf16MulTable, Gf256MulTable};
use aeon_gf::{Gf16, Gf256, Kernel, KernelTier};
use aeon_integrity::merkle::{fold_root, MerkleTree};
use aeon_secretshare::packed::{self, PackedParams};
use aeon_secretshare::shamir;

/// Buffer sizes every GF cell is measured at.
const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];

/// Buffer sizes every crypto cell is measured at: one SHA-256 block (a
/// Merkle node, a WOTS chain step), a small object, a dedup block, a bulk
/// shard.
const CRYPTO_SIZES: [usize; 4] = [64, 4 * 1024, 44 * 1024, 1024 * 1024];

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const SHA256_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A generic odd scalar (not 0, 1, or a power of two) so no tier hits a
/// degenerate fast path.
const SCALAR: u8 = 0xB7;

struct Cell {
    kernel: String,
    op: &'static str,
    size: usize,
    gbs: f64,
}

/// Times `work` (which processes `bytes_per_call` bytes per invocation)
/// and returns GB/s from the fastest of `reps` timed sweeps.
fn best_gbs(bytes_per_call: usize, budget: usize, reps: usize, mut work: impl FnMut()) -> f64 {
    let iters = (budget / bytes_per_call).max(1);
    // Warmup sweep: faults pages, warms caches and the branch predictor.
    for _ in 0..iters.min(16) {
        work();
    }
    let best = (0..reps)
        .map(|_| sweep(iters, &mut work))
        .fold(f64::INFINITY, f64::min);
    (iters * bytes_per_call) as f64 / best / 1e9
}

/// [`best_gbs`] of two calls timed interleaved — a sweep of `a`, then
/// one of `b`, `reps` times each — so that both see the same host phase.
fn best_gbs_pair(
    bytes_per_call: usize,
    budget: usize,
    reps: usize,
    a: &mut dyn FnMut(),
    b: &mut dyn FnMut(),
) -> (f64, f64) {
    let iters = (budget / bytes_per_call).max(1);
    for _ in 0..iters.min(16) {
        a();
        b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(sweep(iters, a));
        best_b = best_b.min(sweep(iters, b));
    }
    let gbs = |best: f64| (iters * bytes_per_call) as f64 / best / 1e9;
    (gbs(best_a), gbs(best_b))
}

/// Seconds one sweep of `iters` calls of `work` takes.
fn sweep(iters: usize, work: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        work();
    }
    start.elapsed().as_secs_f64()
}

/// SHA-256 of a 32-byte message on `kernel`'s block function: the one
/// padded block built by hand, the same work `Sha256::digest` does.
fn digest32_on(kernel: &CryptoKernel, msg: &[u8; 32]) -> [u8; 32] {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(msg);
    block[32] = 0x80;
    block[56..].copy_from_slice(&256u64.to_be_bytes());
    let mut state = SHA256_H0;
    kernel.sha256_blocks(&mut state, &block);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The keys and input every crypto call runs on.
struct CryptoInputs<'a> {
    src: &'a [u8],
    aes: Aes,
    chacha: ChaCha20,
    aead: ChaCha20Poly1305,
}

impl<'a> CryptoInputs<'a> {
    fn new(src: &'a [u8]) -> Self {
        CryptoInputs {
            src,
            aes: Aes::new_256(&[0x42; 32]),
            chacha: ChaCha20::new(&[0x42; 32], &[0x24; 12]),
            aead: ChaCha20Poly1305::new(&[0x42; 32]),
        }
    }
}

/// One crypto call on one kernel: the op, its tier label, the divisor of
/// the byte budget it is timed over, and the call.
type CryptoCall<'a> = (&'static str, String, usize, Box<dyn FnMut() + 'a>);

/// The crypto calls measured on `kernel` at `size` bytes, in table order:
/// `sha256`, `aes256-ctr`, `chacha20`, `poly1305` and the library's
/// ChaCha20-Poly1305 `seal` / `open` on this kernel (allocation of the
/// output included). The in-place ciphers each overwrite a copy of the
/// input of their own.
fn crypto_calls<'a>(
    kernel: &'a CryptoKernel,
    inputs: &'a CryptoInputs<'_>,
    size: usize,
) -> Vec<CryptoCall<'a>> {
    let src = &inputs.src[..size];
    let (iv, nonce, aad) = ([0x24u8; 16], [0x24u8; 12], b"aeon-object-context");
    let aead_tier = format!(
        "{}+{}",
        kernel.chacha20_tier().name(),
        kernel.poly1305_tier().name()
    );
    let (mut aes_buf, mut chacha_buf) = (src.to_vec(), src.to_vec());
    let sealed = inputs.aead.seal_on(kernel, &nonce, aad, src);
    vec![
        (
            "sha256",
            kernel.sha256_tier().name().into(),
            1,
            Box::new(move || {
                let mut state = SHA256_H0;
                kernel.sha256_blocks(&mut state, black_box(src));
                black_box(state);
            }),
        ),
        (
            "aes256-ctr",
            kernel.aes_ctr_tier().name().into(),
            4,
            Box::new(move || kernel.aes_ctr(&inputs.aes, &iv, black_box(&mut aes_buf))),
        ),
        (
            "chacha20",
            kernel.chacha20_tier().name().into(),
            1,
            Box::new(move || kernel.chacha20_xor(&inputs.chacha, 1, black_box(&mut chacha_buf))),
        ),
        (
            "poly1305",
            kernel.poly1305_tier().name().into(),
            1,
            Box::new(move || {
                let mut mac = Poly1305::new(&[0x42; 32]);
                mac.update_on(kernel, black_box(src));
                black_box(mac.finalize());
            }),
        ),
        (
            "chacha20-poly1305 seal",
            aead_tier.clone(),
            1,
            Box::new(move || {
                black_box(inputs.aead.seal_on(kernel, &nonce, aad, black_box(src)));
            }),
        ),
        (
            "chacha20-poly1305 open",
            aead_tier,
            1,
            Box::new(move || {
                let opened = inputs.aead.open_on(kernel, &nonce, aad, black_box(&sealed));
                black_box(opened.expect("the tag verifies"));
            }),
        ),
    ]
}

/// The crypto rows: every tier of every slot the supported kernels hold
/// (a tier two kernels share is measured once) × `CRYPTO_SIZES` — the
/// calls of [`crypto_calls`] — and per SHA-256 tier the nanoseconds of
/// one 32-byte digest.
fn crypto_cells(budget: usize, reps: usize, src: &[u8]) -> (Vec<Cell>, Vec<(&'static str, f64)>) {
    let inputs = CryptoInputs::new(src);
    let msg: [u8; 32] = src[..32].try_into().expect("32 bytes");
    assert_eq!(
        digest32_on(CryptoKernel::active(), &msg),
        Sha256::digest(&msg)
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut digest_ns: Vec<(&'static str, f64)> = Vec::new();
    for kernel in CryptoKernel::supported() {
        for size in CRYPTO_SIZES {
            // Small buffers get a smaller byte budget: the scalar AES tier
            // runs at tens of MB/s.
            let budget = budget.min(size << 8);
            // A 64-byte sweep lasts microseconds: sixteen times the
            // sweeps, so the fastest is not one a neighbour interrupted.
            let reps = if size < 1024 { 16 * reps } else { reps };
            for (op, tier, share, work) in crypto_calls(kernel, &inputs, size) {
                let measured = |c: &Cell| c.op == op && c.kernel == tier && c.size == size;
                if !cells.iter().any(measured) {
                    let gbs = best_gbs(size, budget / share, reps, work);
                    cells.push(Cell {
                        kernel: tier,
                        op,
                        size,
                        gbs,
                    });
                }
            }
        }
        // Sixteen 1 MiB lanes per call (the same source in each), as the
        // aggregate over all of them.
        let x16 = kernel.sha256_x16_tier().name();
        if !cells
            .iter()
            .any(|c| c.op == "sha256-x16" && c.kernel == x16)
        {
            let bulk = 1 << 20;
            let lanes = [&src[..bulk]; 16];
            cells.push(Cell {
                kernel: x16.into(),
                op: "sha256-x16",
                size: bulk,
                gbs: best_gbs(16 * bulk, budget, reps, || {
                    let mut states = SHA256_H0.map(|word| [word; 16]);
                    kernel.sha256_x16(&mut states, black_box(&lanes));
                    black_box(states);
                }),
            });
        }
        let tier = kernel.sha256_tier().name();
        if !digest_ns.iter().any(|(measured, _)| *measured == tier) {
            let per_call = best_gbs(1, 1 << 16, reps, || {
                black_box(digest32_on(kernel, black_box(&msg)));
            });
            // `best_gbs` of a one-"byte" call is calls per nanosecond.
            digest_ns.push((tier, 1.0 / per_call));
        }
    }
    (cells, digest_ns)
}

/// A kernel's two SHA-256 slots, `<sha256 tier>+<sha256-x16 tier>`.
fn sha256_label(kernel: &CryptoKernel) -> String {
    format!(
        "{}+{}",
        kernel.sha256_tier().name(),
        kernel.sha256_x16_tier().name()
    )
}

/// The segment-tree digest of every blob in `shards` as the archive
/// records it for a shard or a payload (`aeon_core::plan::SEGMENT`-byte
/// segments, their RFC 6962 leaves in one `digest_many_tagged` batch on
/// `kernel`, each blob's tree folded).
fn segment_roots(kernel: &CryptoKernel, shards: &[&[u8]]) -> Vec<[u8; 32]> {
    let cut = |shard: &&[u8]| shard.len().div_ceil(SEGMENT).max(1);
    let segments: Vec<&[u8]> = shards
        .iter()
        .flat_map(|shard| {
            (0..cut(shard)).map(|i| &shard[i * SEGMENT..shard.len().min((i + 1) * SEGMENT)])
        })
        .collect();
    let mut leaves = Sha256::digest_many_tagged_on(kernel, 0x00, &segments);
    let mut at = 0;
    shards
        .iter()
        .map(|shard| {
            let level = &mut leaves[at..at + cut(shard)];
            at += level.len();
            fold_root(level).expect("a shard has a segment")
        })
        .collect()
}

/// The `shard-digest` rows: aggregate GB/s of the digests of one Shamir
/// 3-of-5 unit's five 1 MiB shards on every kernel, `flat` (SHA-256 of
/// each whole shard, one `digest_many` of five messages: one stream at a
/// time, below the lanes' break-even) against `tree` (the segment-tree
/// root the archive records, every segment of the five in one lane
/// batch). Each tree root is checked against `MerkleTree` first.
fn shard_digest_cells(budget: usize, reps: usize) -> Vec<Cell> {
    const MIB: usize = 1 << 20;
    let unit = reference_payload(5 * MIB, 0xAE5);
    let shards: Vec<&[u8]> = unit.chunks(MIB).collect();
    let mut cells: Vec<Cell> = Vec::new();
    for kernel in CryptoKernel::supported() {
        let label = sha256_label(kernel);
        if cells.iter().any(|c| c.kernel == label) {
            continue;
        }
        let roots = segment_roots(kernel, &shards);
        for (shard, root) in shards.iter().zip(&roots) {
            let tree = MerkleTree::build(shard.chunks(SEGMENT)).expect("segments");
            assert_eq!(
                *root,
                tree.root(),
                "{label}: the shard digest is the tree root"
            );
        }
        let flat = best_gbs(5 * MIB, budget, reps, || {
            black_box(Sha256::digest_many_on(kernel, black_box(&shards)));
        });
        let tree = best_gbs(5 * MIB, budget, reps, || {
            black_box(segment_roots(kernel, black_box(&shards)));
        });
        for (op, gbs) in [("shard-digest flat", flat), ("shard-digest tree", tree)] {
            cells.push(Cell {
                kernel: label.clone(),
                op,
                size: MIB,
                gbs,
            });
        }
    }
    cells
}

/// The `payload-digest` rows: GB/s of one payload's digest on every
/// kernel, at 1 MiB and at 4 MiB, `flat` (SHA-256 of the whole payload,
/// one stream) against `tree` (the segment-tree root the archive records
/// and every read checks: 64 or 256 lane messages). Each tree root is
/// checked against `MerkleTree` first.
fn payload_digest_cells(budget: usize, reps: usize) -> Vec<Cell> {
    const MIB: usize = 1 << 20;
    let mut cells: Vec<Cell> = Vec::new();
    for size in [MIB, 4 * MIB] {
        let payload = reference_payload(size, 0xAE6);
        let one = [payload.as_slice()];
        let tree = MerkleTree::build(payload.chunks(SEGMENT)).expect("segments");
        for kernel in CryptoKernel::supported() {
            let label = sha256_label(kernel);
            if cells.iter().any(|c| c.kernel == label && c.size == size) {
                continue;
            }
            assert_eq!(
                segment_roots(kernel, &one),
                [tree.root()],
                "{label}: the payload digest is the tree root"
            );
            let flat = best_gbs(size, budget, reps, || {
                black_box(Sha256::digest_many_on(kernel, black_box(&one)));
            });
            let tree = best_gbs(size, budget, reps, || {
                black_box(segment_roots(kernel, black_box(&one)));
            });
            for (op, gbs) in [("payload-digest flat", flat), ("payload-digest tree", tree)] {
                cells.push(Cell {
                    kernel: label.clone(),
                    op,
                    size,
                    gbs,
                });
            }
        }
    }
    cells
}

/// `Sha256::digest_many` over one message set on one kernel.
struct SetRow {
    set: &'static str,
    kernel: String,
    messages: usize,
    bytes: usize,
    ms: f64,
}

/// The message sets `digest_many` serves in the archive, each timed on
/// every kernel (labelled `<sha256 tier>+<sha256-x16 tier>`; a `+scalar`
/// kernel hashes one message at a time): the dedup blocks of one 2 MiB
/// version (default chunker), which is also what a dedup read's leaf
/// level verifies; the messages of one small-files flush — 32 payloads
/// of 4–32 KiB plus six RS(4, 2)-sized shards each — as one batch (the
/// flush itself hashes the payloads and the shards' one-segment leaves
/// as two); and one small-files `retrieve_many`'s
/// payload check — the same 32 payloads alone.
fn digest_set_rows(reps: usize) -> Vec<SetRow> {
    let version = reference_payload(2 << 20, 0xAE2);
    let blocks = Chunker::new(ChunkerParams::default()).chunks(&version);
    let payloads: Vec<Vec<u8>> = (0..32)
        .map(|i| {
            let len = (4 << 10) + (lcg_payload(0xAE3, i, 2)[0] as usize) * (28 << 10) / 255;
            reference_payload(len, 0xAE4 + i as u64)
        })
        .collect();
    let retrieve: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut flush = retrieve.clone();
    for payload in &payloads {
        let shard = payload.len().div_ceil(4);
        flush.extend((0..6).map(|s| &version[s * shard..(s + 1) * shard]));
    }
    let mut rows: Vec<SetRow> = Vec::new();
    for kernel in CryptoKernel::supported() {
        let label = sha256_label(kernel);
        for (set, msgs) in [
            ("dedup blocks", &blocks),
            ("small-files flush", &flush),
            ("small-files retrieve", &retrieve),
        ] {
            if rows.iter().any(|r| r.set == set && r.kernel == label) {
                continue;
            }
            let expect: Vec<[u8; 32]> = msgs.iter().map(|m| Sha256::digest(m)).collect();
            assert_eq!(Sha256::digest_many_on(kernel, msgs), expect);
            let bytes = msgs.iter().map(|m| m.len()).sum();
            let gbs = best_gbs(bytes, 16 * bytes, reps, || {
                black_box(Sha256::digest_many_on(kernel, black_box(msgs)));
            });
            rows.push(SetRow {
                set,
                kernel: label.clone(),
                messages: msgs.len(),
                bytes,
                ms: bytes as f64 / gbs / 1e6,
            });
        }
    }
    rows
}

/// What the two dispatched layers add up to for secret sharing, on the
/// active kernels: GB/s of a 1 MiB `ChaChaDrbg` fill, and MiB/s of user
/// data through Shamir 3-of-5 `split` of 1 MiB (2 MiB of coefficients
/// drawn through two sub-streams, five GF(2^8) share passes), and
/// through packed sharing (t=2, k=2, n=6) of 1 MiB — `split`, which
/// draws 4 MiB of anchors and runs 24 GF(2^16) column passes, and
/// `reconstruct` from the last four shares.
fn sharing_rows(reps: usize, src: &[u8]) -> [(&'static str, f64); 4] {
    const MIB: usize = 1 << 20;
    // `best_gbs` is bytes per nanosecond; a MiB/s figure rescales it.
    let mibs = |gbs: f64| gbs * 1e9 / MIB as f64;
    let budget = 4 * MIB;
    let mut rng = ChaChaDrbg::from_u64_seed(0xAE0);
    let mut buf = vec![0u8; MIB];
    let drbg = best_gbs(MIB, budget, reps, || rng.fill_bytes(black_box(&mut buf)));
    let secret = &src[..MIB];
    let shamir = best_gbs(MIB, budget, reps, || {
        black_box(shamir::split(&mut rng, black_box(secret), 3, 5)).expect("split");
    });
    let params = PackedParams::new(2, 2, 6).expect("valid parameters");
    let split = best_gbs(MIB, budget, reps, || {
        black_box(packed::split(&mut rng, params, black_box(secret))).expect("split");
    });
    let shares = packed::split(&mut rng, params, secret).expect("split");
    let reconstruct = best_gbs(MIB, budget, reps, || {
        let rec = packed::reconstruct(params, black_box(&shares[2..])).expect("reconstruct");
        assert_eq!(rec[..64], secret[..64]);
    });
    [
        ("drbg_fill_1m_gbs", drbg),
        ("shamir_split_1m_mibs", mibs(shamir)),
        ("packed_split_1m_mibs", mibs(split)),
        ("packed_reconstruct_1m_mibs", mibs(reconstruct)),
    ]
}

/// What the GF(2^8) tier adds up to for a Reed–Solomon read, on the
/// active kernel: MiB/s of one RS(4, 2) chunk of 1 MiB through the
/// borrowed decode with every shard present (the data shards copied
/// once), with data shard 0 lost (one row computed from four
/// survivors), and through a repair rebuilding that one row.
fn erasure_rows(reps: usize, src: &[u8]) -> [(&'static str, f64); 3] {
    const MIB: usize = 1 << 20;
    let mibs = |gbs: f64| gbs * 1e9 / MIB as f64;
    let budget = 16 * MIB;
    let rs = ReedSolomon::new(4, 2).expect("valid parameters");
    let chunk = &src[..MIB];
    let shards = rs.encode(chunk).expect("encode");
    let healthy: Vec<Option<&[u8]>> = shards.iter().map(|s| Some(s.as_slice())).collect();
    let mut degraded = healthy.clone();
    degraded[0] = None;
    // Timed interleaved: the floor `run` asserts is their ratio.
    let decode = |set: &[Option<&[u8]>]| {
        let payload = rs.decode_slices(black_box(set)).expect("decode");
        assert_eq!(payload.len(), MIB);
    };
    let (mut whole, mut lost_one) = (|| decode(&healthy), || decode(&degraded));
    let (whole, lost_one) = best_gbs_pair(MIB, budget, reps, &mut whole, &mut lost_one);
    let repair = best_gbs(MIB, budget, reps, || {
        let rows = rs
            .reconstruct_rows(black_box(&degraded), &[0])
            .expect("repair");
        assert_eq!(rows[0], shards[0]);
    });
    [
        ("rs_decode_1m_mibs", mibs(whole)),
        ("rs_decode_degraded_1m_mibs", mibs(lost_one)),
        ("rs_repair_row_1m_mibs", mibs(repair)),
    ]
}

fn cells_json(cells: &[Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("kernel".into(), Json::Str(c.kernel.clone())),
                    ("op".into(), Json::Str(c.op.into())),
                    ("size".into(), Json::Num(c.size as f64)),
                    ("gbs".into(), Json::Num(c.gbs)),
                ])
            })
            .collect(),
    )
}

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let row_count = args.usize_value("--rows", 8);
    let budget = if quick { 8 << 20 } else { 32 << 20 };
    let reps = if quick { 3 } else { 7 };

    let table = Gf256MulTable::new(Gf256::new(SCALAR));
    let max = *SIZES.last().expect("sizes");
    let src = reference_payload(max, 0xAE0);
    let rows_data: Vec<Vec<u8>> = (0..row_count)
        .map(|r| reference_payload(max, 0xAE1 + r as u64))
        .collect();
    // Row coefficients cycle through distinct non-trivial scalars.
    let row_tables: Vec<Gf256MulTable> = (0..row_count)
        .map(|r| Gf256MulTable::new(Gf256::new(SCALAR.wrapping_add(2 * r as u8 + 2))))
        .collect();
    let mut dst = vec![0u8; max];
    // The same rows as GF(2^16) symbols, under generic 16-bit scalars.
    let rows_data16: Vec<Vec<u16>> = rows_data
        .iter()
        .map(|d| {
            let pairs = d.chunks_exact(2);
            pairs.map(|p| u16::from_le_bytes([p[0], p[1]])).collect()
        })
        .collect();
    let row_tables16: Vec<Gf16MulTable> = (0..row_count)
        .map(|r| Gf16MulTable::new(Gf16::new(0xB7C5u16.wrapping_add(2 * r as u16 + 2))))
        .collect();
    let mut dst16 = vec![0u16; max / 2];

    let mut cells: Vec<Cell> = Vec::new();
    let mut out = Table::new(
        "GF(2^8) / GF(2^16) kernel throughput (GB/s, min-of-N)",
        &["kernel", "op", "size", "GB/s"],
    );
    for kernel in Kernel::supported() {
        let name = kernel.tier().name();
        for size in SIZES {
            let gbs = best_gbs(size, budget, reps, || {
                kernel.mul_slice(&table, black_box(&src[..size]), black_box(&mut dst[..size]));
            });
            cells.push(Cell {
                kernel: name.into(),
                op: "mul_slice",
                size,
                gbs,
            });

            let gbs = best_gbs(size, budget, reps, || {
                kernel.mul_add_slice(&table, black_box(&src[..size]), black_box(&mut dst[..size]));
            });
            cells.push(Cell {
                kernel: name.into(),
                op: "mul_add_slice",
                size,
                gbs,
            });

            let trows: Vec<(&Gf256MulTable, &[u8])> = row_tables
                .iter()
                .zip(&rows_data)
                .map(|(t, d)| (t, &d[..size]))
                .collect();
            let gbs = best_gbs(size * row_count, budget, reps, || {
                mul_add_rows_on(kernel, black_box(&mut dst[..size]), black_box(&trows));
            });
            cells.push(Cell {
                kernel: name.into(),
                op: "mul_add_rows",
                size,
                gbs,
            });

            let symbols = size / 2;
            let trows16: Vec<(&Gf16MulTable, &[u16])> = row_tables16
                .iter()
                .zip(&rows_data16)
                .map(|(t, d)| (t, &d[..symbols]))
                .collect();
            let gbs = best_gbs(size * row_count, budget, reps, || {
                gf16_mul_add_rows_on(
                    kernel,
                    black_box(&mut dst16[..symbols]),
                    black_box(&trows16),
                );
            });
            cells.push(Cell {
                kernel: name.into(),
                op: "gf16_mul_add_rows",
                size,
                gbs,
            });
        }
    }
    for c in &cells {
        out.row(&[
            c.kernel.to_string(),
            c.op.to_string(),
            format!("{}KiB", c.size / 1024),
            f2(c.gbs),
        ]);
    }
    out.print();

    let lookup = |kernel: &str, op: &str, size: usize| {
        cells
            .iter()
            .find(|c| c.kernel == kernel && c.op == op && c.size == size)
            .map(|c| c.gbs)
            .expect("cell measured")
    };
    // The acceptance ratio: the portable wide tier must beat per-byte
    // scalar by 2x on the canonical RS inner-loop shape.
    let ratio =
        lookup("swar", "mul_add_slice", 64 * 1024) / lookup("scalar", "mul_add_slice", 64 * 1024);
    let active = Kernel::active().tier().name();
    println!("active kernel: {active}");
    println!(
        "swar/scalar mul_add_slice @64KiB: {}x (target >= 2x)",
        f2(ratio)
    );
    // GF(2^16) rows: the shuffle tier must beat the byte-table loop by
    // 2.5x at 1 MiB (measured ~3.8x), so the floor only trips on a
    // broken dispatch. The two calls are timed interleaved, so a host
    // phase that slows one slows both, and over 16x the cells' sweeps:
    // one call of eight 1 MiB rows is the whole quick budget.
    let gf16_avx2 = Kernel::for_tier(KernelTier::Avx2).map(|avx2| {
        let bulk = 1024 * 1024;
        let trows16: Vec<(&Gf16MulTable, &[u16])> = row_tables16
            .iter()
            .zip(&rows_data16)
            .map(|(t, d)| (t, &d[..bulk / 2]))
            .collect();
        let scalar = Kernel::for_tier(KernelTier::Scalar).expect("scalar tier");
        let mut dst_scalar = vec![0u16; bulk / 2];
        let (wide, narrow) = best_gbs_pair(
            bulk * row_count,
            budget,
            16 * reps,
            &mut || gf16_mul_add_rows_on(avx2, black_box(&mut dst16), black_box(&trows16)),
            &mut || gf16_mul_add_rows_on(scalar, black_box(&mut dst_scalar), black_box(&trows16)),
        );
        let r = wide / narrow;
        println!(
            "avx2/scalar gf16_mul_add_rows @1MiB: {}x (floor 2.5x)",
            f2(r)
        );
        assert!(
            r >= 2.5,
            "gf16_mul_add_rows: avx2 is only {r:.2}x scalar at 1MiB"
        );
        r
    });

    let (mut crypto, digest_ns) = crypto_cells(budget, reps, &src);
    crypto.extend(shard_digest_cells(budget, reps));
    crypto.extend(payload_digest_cells(budget, reps));
    let mut crypto_out = Table::new(
        "SHA-256 / AES-256-CTR / ChaCha20 / Poly1305 kernel throughput (GB/s, min-of-N)",
        &["tier", "op", "size", "GB/s"],
    );
    for c in &crypto {
        let size = match c.size {
            s if s < 1024 => format!("{s}B"),
            s => format!("{}KiB", s / 1024),
        };
        crypto_out.row(&[c.kernel.to_string(), c.op.to_string(), size, f3(c.gbs)]);
    }
    crypto_out.print();
    for (tier, ns) in &digest_ns {
        println!("sha256 32-byte digest, {tier}: {} ns", f2(*ns));
    }
    // Sixteen lanes against the fastest single stream: below 16 / ratio
    // busy lanes a shared pass loses, which is `digest_many`'s break-even.
    let best = |op: &str| {
        crypto
            .iter()
            .filter(|c| c.op == op && c.size == 1 << 20)
            .map(|c| c.gbs)
            .fold(0.0, f64::max)
    };
    let x16_ratio = best("sha256-x16") / best("sha256");
    println!(
        "sha256-x16 / sha256 @16x1MiB: {}x (break-even {} busy lanes)",
        f2(x16_ratio),
        f2(16.0 / x16_ratio)
    );
    // The shard digest as the archive computes it, against SHA-256 of
    // each whole shard, on the active kernel's label.
    let active_label = sha256_label(CryptoKernel::active());
    let active_gbs = |op: &str, size: usize| {
        crypto
            .iter()
            .find(|c| c.op == op && c.size == size && c.kernel == active_label)
            .map(|c| c.gbs)
            .expect("digest rows on the active kernel")
    };
    let shard_ratio =
        active_gbs("shard-digest tree", 1 << 20) / active_gbs("shard-digest flat", 1 << 20);
    println!(
        "shard-digest tree / flat @5x1MiB, {active_label}: {}x ({SEGMENT} B segments)",
        f2(shard_ratio)
    );
    // The payload digest every read checks, tree against flat.
    let payload_ratios = [(1, "1m"), (4, "4m")].map(|(mib, key)| {
        let size = mib << 20;
        let r = active_gbs("payload-digest tree", size) / active_gbs("payload-digest flat", size);
        println!(
            "payload-digest tree / flat @{mib}MiB, {active_label}: {}x",
            f2(r)
        );
        (key, r)
    });
    let sets = digest_set_rows(reps);
    let mut sets_out = Table::new(
        "Sha256::digest_many per message set (ms, min-of-N)",
        &["set", "kernel", "messages", "bytes", "ms"],
    );
    for r in &sets {
        sets_out.row(&[
            r.set.to_string(),
            r.kernel.clone(),
            r.messages.to_string(),
            r.bytes.to_string(),
            f3(r.ms),
        ]);
    }
    sets_out.print();
    let active_kernel = CryptoKernel::active();
    let active_crypto = [
        ("sha256", active_kernel.sha256_tier().name()),
        ("sha256-x16", active_kernel.sha256_x16_tier().name()),
        ("aes256-ctr", active_kernel.aes_ctr_tier().name()),
        ("chacha20", active_kernel.chacha20_tier().name()),
        ("poly1305", active_kernel.poly1305_tier().name()),
    ];
    println!(
        "active crypto kernel: {}",
        active_crypto
            .map(|(op, tier)| format!("{op}={tier}"))
            .join(" ")
    );
    let crypto_gbs = |tier: Tier, op: &str, size: usize| {
        crypto
            .iter()
            .find(|c| c.kernel == tier.name() && c.op == op && c.size == size)
            .map(|c| c.gbs)
    };
    // The acceptance ratios: wherever the host has a tier beyond another,
    // it must beat it on a bulk buffer — `ni` by 2x scalar (measured
    // margins are ~6x and ~100x), `avx2` ChaCha20 by 3x (measured ~5x),
    // `avx2` Poly1305 by 2.5x and still by 2x at 4 KiB (measured ~4x),
    // `avx512` ChaCha20 by 1.5x `avx2` (measured ~2x) — so a floor only
    // trips on a broken dispatch.
    let (small, bulk) = (4 * 1024, 1024 * 1024);
    let floors = [
        ("sha256", Tier::Ni, Tier::Scalar, bulk, 2.0),
        ("aes256-ctr", Tier::Ni, Tier::Scalar, bulk, 2.0),
        ("chacha20", Tier::Avx2, Tier::Scalar, bulk, 3.0),
        ("poly1305", Tier::Avx2, Tier::Scalar, bulk, 2.5),
        ("poly1305", Tier::Avx2, Tier::Scalar, small, 2.0),
        ("chacha20", Tier::Avx512, Tier::Avx2, bulk, 1.5),
    ];
    // (JSON key, op, ratio), e.g. `avx2_vs_scalar_1m`; a key's floors are
    // adjacent above.
    let mut tier_ratios: Vec<(String, &str, f64)> = Vec::new();
    for (op, tier, base, size, floor) in floors {
        let (Some(wide), Some(narrow)) = (crypto_gbs(tier, op, size), crypto_gbs(base, op, size))
        else {
            continue;
        };
        let (name, base, r) = (tier.name(), base.name(), wide / narrow);
        let (at, suffix) = if size == bulk {
            ("1MiB", "1m")
        } else {
            ("4KiB", "4k")
        };
        println!("{name}/{base} {op} @{at}: {}x (floor {floor}x)", f2(r));
        assert!(r >= floor, "{op}: {name} is only {r:.2}x {base} at {at}");
        tier_ratios.push((format!("{name}_vs_{base}_{suffix}"), op, r));
    }
    // A call shorter than a wide tier's shortest pass takes the scalar
    // path on that tier too — short AEAD messages and 8-byte draws do not
    // pay for a wide pass — so no tier may be slower than scalar at 64
    // bytes. The floor is 0.8x: the same code measured twice on a shared
    // host differs by 10 %, a wide pass wrongly taken costs two scalar
    // blocks or more.
    // Each wide call is timed interleaved with the scalar one (the same
    // sweeps, the fastest of each kept), so a host phase that slows one
    // slows both.
    let all_scalar = |label: &str| label.split('+').all(|tier| tier == Tier::Scalar.name());
    let inputs = CryptoInputs::new(&src);
    let mut checked: Vec<(&str, String)> = Vec::new();
    for kernel in CryptoKernel::supported() {
        let scalar_calls = crypto_calls(CryptoKernel::scalar(), &inputs, 64);
        for ((op, tier, share, mut wide), (_, base, _, mut base_call)) in
            crypto_calls(kernel, &inputs, 64)
                .into_iter()
                .zip(scalar_calls)
        {
            if all_scalar(&tier) || checked.iter().any(|(o, t)| *o == op && *t == tier) {
                continue;
            }
            let budget = budget.min(64 << 8) / share;
            let (wide_gbs, scalar_gbs) =
                best_gbs_pair(64, budget, 16 * reps, &mut wide, &mut base_call);
            checked.push((op, tier.clone()));
            let cell = Cell {
                kernel: tier,
                op,
                size: 64,
                gbs: wide_gbs,
            };
            let scalar = Cell {
                kernel: base,
                op,
                size: 64,
                gbs: scalar_gbs,
            };
            println!(
                "{} @64B: {} {} GB/s, {} {} GB/s",
                cell.op,
                cell.kernel,
                f3(cell.gbs),
                scalar.kernel,
                f3(scalar.gbs)
            );
            assert!(
                cell.gbs >= 0.8 * scalar.gbs,
                "{}: {} is slower than {} on a 64-byte call",
                cell.op,
                cell.kernel,
                scalar.kernel
            );
        }
    }
    let sharing = sharing_rows(reps, &src);
    let erasure = erasure_rows(reps, &src);
    for (name, value) in sharing.iter().chain(&erasure) {
        println!("{name}: {}", f2(*value));
    }
    // A healthy decode copies the data shards and computes nothing; a
    // degraded one adds a four-source GF row pass over a quarter of the
    // chunk. At `avx2` GF speed that is ~2x the copy (measured 2.0x), so
    // the floor is 1.5x: it trips when the healthy path computes rows
    // again (regenerating parity made it ~15x slower than it is now).
    let [(_, whole), (_, lost_one), _] = erasure;
    let r = whole / lost_one;
    println!("rs decode healthy/degraded @1MiB: {}x (floor 1.5x)", f2(r));
    assert!(
        r >= 1.5,
        "rs decode: healthy is only {r:.2}x degraded at 1MiB"
    );

    let mut fields = vec![
        ("experiment".into(), Json::Str("kernels".into())),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        ("rows".into(), Json::Num(row_count as f64)),
        ("active_kernel".into(), Json::Str(active.into())),
        (
            "tiers".into(),
            Json::Arr(
                Kernel::supported()
                    .iter()
                    .map(|k| Json::Str(k.tier().name().into()))
                    .collect(),
            ),
        ),
        ("cells".into(), cells_json(&cells)),
        ("swar_vs_scalar_mul_add_64k".into(), Json::Num(ratio)),
        // `null` on a host without AVX2.
        (
            "avx2_vs_scalar_gf16_rows_1m".into(),
            Json::Num(gf16_avx2.unwrap_or(f64::NAN)),
        ),
        (
            "active_crypto".into(),
            Json::Obj(
                active_crypto
                    .iter()
                    .map(|(op, tier)| ((*op).into(), Json::Str((*tier).into())))
                    .collect(),
            ),
        ),
        ("crypto_cells".into(), cells_json(&crypto)),
        ("sha256_x16_vs_single_1m".into(), Json::Num(x16_ratio)),
        (
            "shard_digest_tree_vs_flat_5x1m".into(),
            Json::Num(shard_ratio),
        ),
        (
            "payload_digest_tree_vs_flat".into(),
            Json::Obj(
                payload_ratios
                    .iter()
                    .map(|(key, r)| ((*key).into(), Json::Num(*r)))
                    .collect(),
            ),
        ),
        (
            "digest_many_sets".into(),
            Json::Arr(
                sets.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("set".into(), Json::Str(r.set.into())),
                            ("kernel".into(), Json::Str(r.kernel.clone())),
                            ("messages".into(), Json::Num(r.messages as f64)),
                            ("bytes".into(), Json::Num(r.bytes as f64)),
                            ("ms".into(), Json::Num(r.ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sha256_digest32_ns".into(),
            Json::Obj(
                digest_ns
                    .iter()
                    .map(|(tier, ns)| ((*tier).into(), Json::Num(*ns)))
                    .collect(),
            ),
        ),
    ];
    // One object per floor kind: `ni_vs_scalar_1m`, `avx2_vs_scalar_1m`,
    // `avx2_vs_scalar_4k`, `avx512_vs_avx2_1m` — op → ratio.
    let mut ratio_keys: Vec<&String> = tier_ratios.iter().map(|(key, _, _)| key).collect();
    ratio_keys.dedup();
    for key in ratio_keys {
        let of_key = tier_ratios.iter().filter(|(k, _, _)| k == key);
        let ratios = of_key.map(|(_, op, r)| ((*op).to_string(), Json::Num(*r)));
        fields.push((key.clone(), Json::Obj(ratios.collect())));
    }
    fields.extend(
        (sharing.iter().chain(&erasure))
            .map(|(name, value)| ((*name).to_string(), Json::Num(*value))),
    );
    let json = Json::Obj(fields);
    json.write_artifact("BENCH_kernels.json", "wrote");
}
