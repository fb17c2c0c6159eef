//! The allocation ledger: heap allocations, bytes allocated and peak
//! live bytes per archive operation, over the four benchmark workload
//! shapes at reduced size, asserted against the committed [`PINNED`]
//! table.
//!
//! The wall clock on a shared host moves by tens of percent between
//! identical runs; an allocation count repeats to the byte. So this is
//! the deterministic ruler for what a data-path change does to copies
//! and materialised shards. A change that lowers a row rewrites it
//! here; a change that raises one says why in CHANGES.md.
//!
//! One test in its own binary: the counting allocator is global, so it
//! counts only on a thread that has switched it on (the test's own;
//! the pipeline runs serial and dispatch sequential, so every
//! operation runs there). Each shape runs twice and only the second
//! pass is recorded, so lazily built tables and probed kernels are not
//! charged to whichever operation first touched them.
//!
//! Print the table: `cargo test --release -p aeon-core --test
//! alloc_ledger -- --nocapture`.

use aeon_cas::ChunkerParams;
use aeon_core::dedup::DedupConfig;
use aeon_core::{
    Archive, ArchiveConfig, DispatchPolicy, IntegrityMode, ObjectId, PipelineConfig, PolicyKind,
};
use aeon_crypto::kernel::{Kernel, Tier};
use aeon_crypto::SuiteId;
use aeon_integrity::timestamp::SigBreakSchedule;
use aeon_store::node::{MemoryNode, StorageNode};
use aeon_store::Cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

/// `(shape, op, allocations, bytes allocated, peak live bytes)`: the
/// ceiling each measured row must stay at or under, with the sixteen-lane
/// SHA-256 slot on its `avx512` tier.
const PINNED: &[Pin] = &[
    ("bulk-aead", "ingest", 289, 156705, 72228),
    ("bulk-aead", "ingest_many", 282, 149552, 72228),
    ("bulk-aead", "retrieve", 228, 79564, 43208),
    ("bulk-aead", "retrieve_many", 428, 158912, 76840),
    ("bulk-aead", "degraded_retrieve", 228, 79564, 43208),
    ("bulk-aead", "repair", 191, 28729, 18301),
    ("bulk-aead", "verify", 237, 81017, 43389),
    ("bulk-aead", "reencode", 635, 267493, 105443),
    ("bulk-aead", "delete", 7, 224, 32),
    ("bulk-sharing", "ingest", 95, 110941, 99184),
    ("bulk-sharing", "ingest_many", 90, 104700, 99184),
    ("bulk-sharing", "retrieve", 55, 19633, 17861),
    ("bulk-sharing", "retrieve_many", 87, 39090, 35073),
    ("bulk-sharing", "degraded_retrieve", 55, 19633, 17861),
    ("bulk-sharing", "repair", 108, 71342, 66402),
    ("bulk-sharing", "verify", 58, 19914, 17626),
    ("bulk-sharing", "reencode", 183, 105970, 99425),
    ("bulk-sharing", "delete", 7, 224, 32),
    ("small-files", "ingest", 123, 20072, 14616),
    ("small-files", "ingest_many", 553, 77111, 49719),
    ("small-files", "retrieve", 65, 4792, 2632),
    ("small-files", "retrieve_many", 294, 47296, 26976),
    ("small-files", "degraded_retrieve", 65, 4792, 2632),
    ("small-files", "repair", 124, 7531, 1983),
    ("small-files", "verify", 68, 5157, 2301),
    ("small-files", "reencode", 144, 11345, 4064),
    ("small-files", "delete", 7, 224, 32),
    ("dedup-versions", "ingest", 926, 181607, 82821),
    ("dedup-versions", "ingest_many", 516, 81447, 34442),
    ("dedup-versions", "retrieve", 463, 104206, 40100),
    ("dedup-versions", "retrieve_many", 1388, 318906, 101140),
    ("dedup-versions", "degraded_retrieve", 519, 109422, 40428),
    ("dedup-versions", "repair", 1581, 112705, 10914),
    ("dedup-versions", "verify", 1003, 98052, 7736),
    ("dedup-versions", "reencode", 2803, 294980, 19574),
    ("dedup-versions", "delete", 29, 2783, 32),
];

/// The rows that differ when the sixteen-lane SHA-256 slot runs its
/// `scalar` tier (`AEON_FORCE_KERNEL=scalar`, or a host without
/// AVX-512): `Sha256::digest_many` then hashes one message at a time and
/// allocates no lane schedule.
const PINNED_SCALAR_X16: &[Pin] = &[
    ("small-files", "ingest_many", 552, 76775, 49719),
    ("dedup-versions", "ingest", 924, 180903, 82821),
    ("dedup-versions", "ingest_many", 513, 80999, 34442),
];

type Pin = (&'static str, &'static str, u64, u64, u64);

/// One thread's running tally. `live` and `peak` are relative to the
/// start of the operation being measured.
#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

const OFF: Tally = Tally {
    on: false,
    allocs: 0,
    bytes: 0,
    live: 0,
    peak: 0,
};

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(OFF) };
}

/// Adds one allocation of `grown` bytes (`freed` released with it) to
/// this thread's tally, if counting is on.
fn record(grown: usize, freed: usize) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            if grown > 0 {
                t.allocs += 1;
                t.bytes += grown as u64;
            }
            t.live += grown as i64 - freed as i64;
            t.peak = t.peak.max(t.live);
            cell.set(t);
        }
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

/// Runs `op` with counting on and returns its result and cost.
fn measure<T>(op: impl FnOnce() -> T) -> (T, Cost) {
    TALLY.with(|t| t.set(Tally { on: true, ..OFF }));
    let out = op();
    let t = TALLY.with(|t| t.replace(OFF));
    let cost = Cost {
        allocs: t.allocs,
        bytes: t.bytes,
        peak: t.peak.max(0) as u64,
    };
    (out, cost)
}

/// One benchmark workload at reduced size: its policies and archive
/// settings, and the objects it stores (the first is the one the
/// single-object operations act on).
struct Shape {
    name: &'static str,
    policy: PolicyKind,
    reencode_to: PolicyKind,
    integrity: IntegrityMode,
    chunk_size: Option<usize>,
    dedup: Option<DedupConfig>,
    objects: Vec<Vec<u8>>,
}

/// A splitmix64 byte stream: payloads that no compressor or dedup
/// window finds structure in, from a seed alone.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn cascade() -> PolicyKind {
    PolicyKind::Cascade {
        suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
        data: 4,
        parity: 2,
    }
}

/// `bench/`'s four workloads, each cut to tens of KiB.
fn shapes() -> Vec<Shape> {
    // Three versions of one document, each inserting 1 KiB into the last.
    let mut versions = vec![bytes(40, 24 << 10)];
    for v in 1..3u64 {
        let mut next = versions[versions.len() - 1].clone();
        let at = (v as usize * 7919) % next.len();
        next.splice(at..at, bytes(40 + v, 1 << 10));
        versions.push(next);
    }
    vec![
        Shape {
            name: "bulk-aead",
            policy: PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            },
            reencode_to: cascade(),
            integrity: IntegrityMode::DigestOnly,
            // Four chunks per object, as the full-size workload has.
            chunk_size: Some(8 << 10),
            dedup: None,
            objects: (0..2).map(|i| bytes(10 + i, 32 << 10)).collect(),
        },
        Shape {
            name: "bulk-sharing",
            policy: PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
            reencode_to: PolicyKind::PackedShamir {
                privacy: 2,
                pack: 2,
                shares: 6,
            },
            integrity: IntegrityMode::DigestOnly,
            chunk_size: None,
            dedup: None,
            objects: (0..2).map(|i| bytes(20 + i, 16 << 10)).collect(),
        },
        Shape {
            name: "small-files",
            policy: PolicyKind::ErasureCoded { data: 4, parity: 2 },
            reencode_to: PolicyKind::ErasureCoded { data: 3, parity: 3 },
            integrity: IntegrityMode::HashChain,
            chunk_size: None,
            dedup: None,
            objects: (0..8)
                .map(|i| bytes(30 + i, (1 << 10) + (i as usize * 389) % (3 << 10)))
                .collect(),
        },
        Shape {
            name: "dedup-versions",
            policy: PolicyKind::Encrypted {
                suite: SuiteId::ChaCha20Poly1305,
                data: 4,
                parity: 2,
            },
            reencode_to: cascade(),
            integrity: IntegrityMode::DigestOnly,
            chunk_size: None,
            dedup: Some(DedupConfig {
                chunker: ChunkerParams {
                    min_size: 1 << 10,
                    target_size: 4 << 10,
                    max_size: 16 << 10,
                    ..ChunkerParams::default()
                },
                fanout: 8,
            }),
            objects: versions,
        },
    ]
}

/// One ledger row.
struct Row {
    shape: &'static str,
    op: &'static str,
    payload: usize,
    cost: Cost,
}

/// Runs one shape's operations on a fresh six-node archive: ingest of
/// the first object, `ingest_many` of the rest, retrieve, `retrieve_many`
/// of all, then (with every shard on node 0 gone) a degraded retrieve,
/// repair, verify, re-encode and delete of the first.
fn run(shape: &Shape) -> Vec<Row> {
    let nodes: Vec<Arc<MemoryNode>> = (0..6u32)
        .map(|i| Arc::new(MemoryNode::new(i, format!("site-{i}"))))
        .collect();
    let cluster = Cluster::new(
        nodes
            .iter()
            .map(|n| n.clone() as Arc<dyn StorageNode>)
            .collect(),
    );
    let mut pipeline = PipelineConfig::serial();
    if let Some(bytes) = shape.chunk_size {
        pipeline = pipeline.with_chunk_size(bytes);
    }
    let mut config = ArchiveConfig::new(shape.policy.clone())
        .with_pipeline(pipeline)
        .with_integrity(shape.integrity)
        .with_dispatch(DispatchPolicy::Sequential);
    if let Some(dedup) = shape.dedup.clone() {
        config = config.with_dedup(dedup);
    }
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    let (first, rest) = shape.objects.split_first().expect("one object");
    let all: usize = shape.objects.iter().map(Vec::len).sum();
    let mut rows = Vec::new();
    let mut row = |op, payload, cost| {
        rows.push(Row {
            shape: shape.name,
            op,
            payload,
            cost,
        })
    };

    let (id, cost) = measure(|| archive.ingest(first, "first").expect("ingest"));
    row("ingest", first.len(), cost);
    let items: Vec<(&[u8], &str)> = rest.iter().map(|o| (o.as_slice(), "rest")).collect();
    let (more, cost) = measure(|| archive.ingest_many(&items).expect("ingest_many"));
    row("ingest_many", all - first.len(), cost);
    let ids: Vec<ObjectId> = std::iter::once(id.clone()).chain(more).collect();

    let (read, cost) = measure(|| archive.retrieve(&id));
    assert_eq!(read.as_ref().ok(), Some(first), "{}: retrieve", shape.name);
    row("retrieve", first.len(), cost);
    let (reads, cost) = measure(|| archive.retrieve_many(&ids));
    for (read, object) in reads.iter().zip(&shape.objects) {
        assert_eq!(
            read.as_ref().ok(),
            Some(object),
            "{}: retrieve_many",
            shape.name
        );
    }
    row("retrieve_many", all, cost);

    for key in nodes[0].keys() {
        nodes[0].delete(&key).expect("wipe node 0");
    }
    let (read, cost) = measure(|| archive.retrieve(&id));
    assert_eq!(read.as_ref().ok(), Some(first), "{}: degraded", shape.name);
    row("degraded_retrieve", first.len(), cost);
    let (repaired, cost) = measure(|| archive.repair_object(&id));
    repaired.expect("repair");
    row("repair", first.len(), cost);
    let schedule = SigBreakSchedule::default();
    let (health, cost) = measure(|| archive.verify(&id, &schedule));
    assert!(health.expect("verify").intact, "{}: verify", shape.name);
    row("verify", first.len(), cost);
    let (moved, cost) = measure(|| archive.reencode_object(&id, shape.reencode_to.clone()));
    moved.expect("re-encode");
    row("reencode", first.len(), cost);
    let (deleted, cost) = measure(|| archive.delete(&id));
    deleted.expect("delete");
    row("delete", first.len(), cost);
    rows
}

fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<18} {:>8} {:>10} {:>9} {:>8} {:>7}\n",
        "shape", "op", "allocs", "bytes", "peak", "bytes/B", "peak/B"
    );
    for r in rows {
        let per = |v: u64| v as f64 / r.payload.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<15} {:<18} {:>8} {:>10} {:>9} {:>8.2} {:>7.2}",
            r.shape,
            r.op,
            r.cost.allocs,
            r.cost.bytes,
            r.cost.peak,
            per(r.cost.bytes),
            per(r.cost.peak)
        );
    }
    out
}

#[test]
fn allocations_stay_under_the_pinned_table() {
    let shapes = shapes();
    let rows: Vec<Row> = shapes
        .iter()
        .flat_map(|shape| {
            run(shape);
            run(shape)
        })
        .collect();
    println!("{}", table(&rows));
    let scalar_x16 = Kernel::active().sha256_x16_tier() == Tier::Scalar;
    let pinned = |r: &Row| {
        let tier = PINNED_SCALAR_X16.iter().filter(|_| scalar_x16);
        let p = tier.chain(PINNED).find(|p| (p.0, p.1) == (r.shape, r.op))?;
        Some(Cost {
            allocs: p.2,
            bytes: p.3,
            peak: p.4,
        })
    };
    let risen: Vec<String> = rows
        .iter()
        .filter_map(|r| match pinned(r) {
            Some(p)
                if r.cost.allocs <= p.allocs
                    && r.cost.bytes <= p.bytes
                    && r.cost.peak <= p.peak =>
            {
                None
            }
            p => Some(format!("{} {}: {:?} over {:?}", r.shape, r.op, r.cost, p)),
        })
        .collect();
    assert!(
        risen.is_empty(),
        "rows over the pinned table:\n{}",
        risen.join("\n")
    );
}
