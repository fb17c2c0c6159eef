//! Degraded read: one framed fetch per node, with a node offline and a
//! shard silently bit-rotted, then the repair that heals the rot.
//!
//! ```sh
//! cargo run --example degraded_read
//! ```
//!
//! A 3+2 erasure-coded object survives the loss of any two shards. Here
//! one source node is inside an offline window (typed failure, retried
//! up to the budget) and one shard has a bit flipped on its node's
//! medium (the returned bytes fail the manifest digest and are
//! discarded). Nodes only store bytes: the outage comes from a
//! [`FaultyNode`] wrapper and the rot is the flipped bytes written back
//! in place, so it stays there until a repair rewrites the shard. The
//! read path coalesces the fetches into one framed request per node and
//! the per-shard attempt accounting in the [`TransferReport`] shows
//! exactly what each slot cost. Once the node is back, one repair
//! rebuilds the rotted shard.
//!
//! The second half re-runs the same read over seek-charged
//! nodes under both dispatch policies: sequential dispatch pays the
//! sum of the per-node transfers in virtual time, parallel lanes pay
//! only the critical path — same bytes, same report, one seek instead
//! of five.
//!
//! [`FaultyNode`]: aeon::store::FaultyNode
//! [`TransferReport`]: aeon::core::TransferReport

use std::sync::Arc;

use aeon::core::{Archive, ArchiveConfig, DispatchPolicy, IntegrityMode, PolicyKind, RetryPolicy};
use aeon::store::clock::SimDuration;
use aeon::store::node::{MemoryNode, ShardKey, StorageNode};
use aeon::store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
use aeon::store::{Cluster, FaultPlan, FaultyNode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five single-shard sites behind a shared cluster. Each node has
    // its own epoch clock and is scheduled offline over epoch 1.
    let handles: Vec<Arc<FaultyNode>> = (0..5)
        .map(|i| {
            let inner = Arc::new(MemoryNode::new(i, format!("site-{i}")));
            let plan = FaultPlan::new(0).with_offline_window(1, 2);
            Arc::new(FaultyNode::new(inner, plan))
        })
        .collect();
    let cluster = Cluster::new(
        handles
            .iter()
            .map(|h| Arc::clone(h) as Arc<dyn StorageNode>)
            .collect(),
    );
    let node = |id| handles.iter().find(|h| h.id() == id).unwrap();
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly)
        .with_retry(RetryPolicy::default().with_attempts(3));
    let mut archive = Archive::with_cluster(config, cluster)?;

    let payload = b"county deed book, volume 12, 1897-1903".to_vec();
    let id = archive.ingest(&payload, "deed-book-12")?;
    let placement = archive.manifest(&id).expect("manifest").placement.clone();
    println!("ingested {id}; placement {placement:?}");

    // Shard 1's node enters its offline window: every read attempt
    // fails with a typed error until the retry budget is exhausted.
    let dark = placement[1];
    node(dark).set_epoch(1);
    println!("node {dark} (shard 1) is offline");

    // Shard 3 rots in place: one bit flips on the medium. The node
    // happily serves the flipped bytes, which the digest filter must
    // catch and discard.
    let rotted = placement[3];
    let key = ShardKey::new(id.as_str(), 3);
    let mut shard = node(rotted).get(&key)?;
    shard[0] ^= 0x10;
    node(rotted).put(&key, &shard)?;
    println!("shard 3 on node {rotted} is bit-rotted");

    // One framed fetch per node; offline slots burn their retry budget,
    // the rotted slot is fetched once and rejected by its digest.
    let (bytes, report) = archive.retrieve_with_report(&id)?;
    assert_eq!(bytes, payload);
    println!("\nrecovered {} bytes despite both faults\n", bytes.len());

    println!("per-shard attempt accounting (one framed fetch per node):");
    for a in &report.attempts {
        println!(
            "  shard {} @ node {}: {} attempt(s), {}",
            a.shard,
            a.node,
            a.attempts,
            match &a.error {
                Some(e) => format!("failed: {e}"),
                None => "ok".to_string(),
            }
        );
    }
    println!(
        "total attempts {}, failed shards {:?} (shard 3 returned bytes but \
         failed its digest check)",
        report.total_attempts(),
        report.failed_shards()
    );

    // The node comes back and a repair rebuilds the rotted shard from
    // the survivors: the rot stayed on the medium until now.
    node(dark).set_epoch(2);
    let repair = archive.repair_object(&id)?;
    assert_eq!((repair.missing_before, repair.missing_after), (1, 0));
    assert_ne!(node(rotted).get(&key)?, shard, "the rot is rewritten");
    println!(
        "\nnode {dark} is back; repair rebuilt {} shard ({:?}), {} missing after",
        repair.missing_before, repair.method, repair.missing_after
    );

    // Part two: the same read priced on the virtual clock,
    // under both dispatch policies. Five cold-HDD sites, 40 ms
    // positioning each; the healthy read touches all five.
    println!("\ndispatch comparison (cold-HDD sites, 40 ms positioning):");
    let mut elapsed = Vec::new();
    for (name, dispatch) in [
        ("sequential", DispatchPolicy::Sequential),
        ("parallel", DispatchPolicy::parallel()),
    ] {
        let profile = ThroughputProfile::new(SimDuration::from_millis(40), 20e6, 20e6);
        let (cluster, clock) =
            throughput_in_memory_cluster(&["s0", "s1", "s2", "s3", "s4"], 1, &profile);
        let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
            .with_integrity(IntegrityMode::DigestOnly)
            .with_dispatch(dispatch);
        let mut archive = Archive::with_cluster(config, cluster)?;
        let id = archive.ingest(&payload, "deed-book-12")?;
        let t0 = clock.now();
        let (bytes, _) = archive.retrieve_with_report(&id)?;
        assert_eq!(bytes, payload);
        let dt = clock.now().since(t0);
        println!(
            "  {name:10} dispatch: {:.1} ms virtual",
            dt.as_secs_f64() * 1e3
        );
        elapsed.push(dt);
    }
    assert!(
        elapsed[1] < elapsed[0],
        "parallel lanes must beat sequential dispatch on a multi-node read"
    );
    println!(
        "  parallel lanes pay the critical path: {:.1}x faster on this read",
        elapsed[0].as_secs_f64() / elapsed[1].as_secs_f64()
    );
    Ok(())
}
