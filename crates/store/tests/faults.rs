//! Fault-injection integration tests: the [`FaultyNode`] determinism
//! contract exercised over real file-backed nodes, plus direct
//! [`FileNode`] failure-mode coverage (torn writes, offline windows,
//! I/O error propagation).

use aeon_store::faults::{FaultKind, FaultPlan, FaultyNode};
use aeon_store::node::{FileNode, NodeError, ShardKey, StorageNode};
use aeon_store::retry::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh scratch directory per test (no tempfile crate in the tree).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aeon-faults-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn faulty_file_node(dir: &Path, plan: FaultPlan) -> (Arc<FileNode>, FaultyNode) {
    let inner = Arc::new(FileNode::create(0, "dc", dir.to_path_buf()).unwrap());
    let node = FaultyNode::new(inner.clone(), plan);
    (inner, node)
}

/// A torn write leaves only a prefix on the medium and reports failure;
/// a retried write overwrites the prefix with the full blob. The test
/// scans seeds for a (torn, clean) first/second draw — the scan itself
/// is deterministic, so the chosen seed never changes run to run.
#[test]
fn file_node_torn_write_recovers_on_retry() {
    let dir = scratch("torn");
    let data = b"sixteen byte blob".to_vec();
    let key = ShardKey::new("obj", 0);
    let mut exercised = false;
    for seed in 0..500u64 {
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new(seed).with_torn_write_rate(0.5);
        let (inner, node) = faulty_file_node(&dir, plan);
        let first = node.put(&key, &data);
        if first.is_ok() {
            continue;
        }
        // The medium holds a strict prefix matching the logged event.
        let events = node.events();
        let Some(FaultKind::TornWrite { kept }) = events.last().map(|e| e.fault.clone()) else {
            panic!("failed put without a torn-write event");
        };
        let on_disk = inner.get(&key).unwrap();
        assert_eq!(on_disk.len(), kept);
        assert!(data.starts_with(&on_disk), "medium holds a torn prefix");
        let second = node.put(&key, &data);
        if second.is_err() {
            continue; // second draw torn too under this seed; keep scanning
        }
        assert_eq!(
            inner.get(&key).unwrap(),
            data,
            "retry overwrites the prefix"
        );
        assert_eq!(node.get(&key).unwrap(), data);
        exercised = true;
        break;
    }
    assert!(exercised, "no seed in 0..500 gave a (torn, clean) sequence");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scheduled offline windows block every operation with
/// [`NodeError::Offline`], which classifies as retryable, and leave
/// nothing on disk; once the epoch clock leaves the window the node
/// serves normally.
#[test]
fn file_node_offline_window_blocks_then_heals() {
    let dir = scratch("offline-window");
    let plan = FaultPlan::new(7).with_offline_window(0, 3);
    let (inner, node) = faulty_file_node(&dir, plan);
    let key = ShardKey::new("obj", 0);

    assert!(node.is_offline_now());
    assert!(matches!(
        node.put(&key, b"blocked"),
        Err(NodeError::Offline)
    ));
    let err = node.get(&key).unwrap_err();
    assert!(matches!(err, NodeError::Offline));
    assert!(RetryPolicy::is_retryable(&err));
    assert!(
        matches!(inner.get(&key), Err(NodeError::NotFound)),
        "nothing reached the medium during the window"
    );

    node.set_epoch(3); // window is half-open: [0, 3)
    assert!(!node.is_offline_now());
    node.put(&key, b"landed").unwrap();
    assert_eq!(node.get(&key).unwrap(), b"landed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Filesystem-level failures surface as [`NodeError::Io`] (retryable),
/// distinct from [`NodeError::NotFound`] (permanent). A directory
/// squatting on the shard's file path makes both reads and writes fail
/// with a real I/O error.
#[test]
fn file_node_io_error_propagates() {
    let dir = scratch("io-error");
    let node = FileNode::create(0, "dc", dir.clone()).unwrap();
    let key = ShardKey::new("obj", 0);

    // Missing shard: permanent.
    let missing = node.get(&key).unwrap_err();
    assert!(matches!(missing, NodeError::NotFound));
    assert!(!RetryPolicy::is_retryable(&missing));

    // Shard path occupied by a directory: genuine I/O failure.
    std::fs::create_dir_all(dir.join("obj.0")).unwrap();
    let read_err = node.get(&key).unwrap_err();
    assert!(matches!(read_err, NodeError::Io(_)), "got {read_err:?}");
    assert!(RetryPolicy::is_retryable(&read_err));
    let write_err = node.put(&key, b"displaced").unwrap_err();
    assert!(matches!(write_err, NodeError::Io(_)), "got {write_err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism contract holds on file-backed nodes: the same seed
/// and operation sequence replay the exact same fault events, on a
/// completely separate directory.
#[test]
fn faulty_file_node_replays_identically() {
    let run = |dir: &Path| {
        let plan = FaultPlan::new(0xC4A05)
            .with_transient_io_rate(0.3)
            .with_bit_flip_rate(0.2)
            .with_torn_write_rate(0.2)
            .with_mean_latency_ms(4);
        let (_inner, node) = faulty_file_node(dir, plan);
        let mut outcomes = Vec::new();
        for round in 0..20u32 {
            let key = ShardKey::new(format!("o{}", round % 3), round % 2);
            outcomes.push(node.put(&key, &[round as u8; 24]).is_ok());
            outcomes.push(node.get(&key).is_ok());
        }
        (node.events(), node.clock().now(), outcomes)
    };
    let dir_a = scratch("replay-a");
    let dir_b = scratch("replay-b");
    let (events_a, clock_a, outcomes_a) = run(&dir_a);
    let (events_b, clock_b, outcomes_b) = run(&dir_b);
    assert!(!events_a.is_empty(), "plan with 30% rates injected nothing");
    assert_eq!(events_a, events_b, "same seed must replay the same faults");
    assert_eq!(clock_a, clock_b, "same seed, same virtual elapsed time");
    assert_eq!(outcomes_a, outcomes_b);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Different seeds decorrelate: the whole point of the per-node seed
/// derivation is that sibling nodes don't fault in lockstep.
#[test]
fn different_seeds_diverge() {
    let run = |seed: u64, dir: &Path| {
        let plan = FaultPlan::new(seed)
            .with_transient_io_rate(0.3)
            .with_torn_write_rate(0.3);
        let (_inner, node) = faulty_file_node(dir, plan);
        let mut outcomes = Vec::new();
        for round in 0..30u32 {
            let key = ShardKey::new("o", round % 4);
            outcomes.push(node.put(&key, b"payload-bytes").is_ok());
        }
        outcomes
    };
    let dir_a = scratch("diverge-a");
    let dir_b = scratch("diverge-b");
    let a = run(11, &dir_a);
    let b = run(12, &dir_b);
    assert_ne!(a, b, "distinct seeds should give distinct fault patterns");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
