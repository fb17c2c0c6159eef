//! Quickstart: ingest, retrieve, verify, refresh.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use aeon::core::{Archive, ArchiveConfig, PolicyKind};
use aeon::integrity::timestamp::SigBreakSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-of-5 secret-shared archive: information-theoretic
    // confidentiality at rest, tolerant of 2 lost sites. A policy is a
    // parameter value; `info()` reads off where it sits on Figure 1.
    let policy = PolicyKind::Shamir {
        threshold: 3,
        shares: 5,
    };
    let info = policy.info();
    println!(
        "policy family {:?}: {} shards, read threshold {}, analytic expansion {}x",
        info.family, info.shard_count, info.read_threshold, info.expansion
    );
    let mut archive = Archive::in_memory(ArchiveConfig::new(policy))?;

    let id = archive.ingest(b"the 1921 land registry, digitized", "registry-1921")?;
    println!("ingested object {id}");

    let data = archive.retrieve(&id)?;
    println!(
        "retrieved {} bytes: {:?}",
        data.len(),
        String::from_utf8_lossy(&data)
    );

    let health = archive.verify(&id, &SigBreakSchedule::new())?;
    println!(
        "health: {}/{} shards, intact={}, timestamp-chain-valid={:?}",
        health.shards_available, health.shards_required, health.intact, health.chain_valid
    );

    // One proactive-refresh epoch: every share is re-randomized, stolen
    // old shares are now useless, the object is unchanged.
    let cost = archive.refresh_object(&id)?;
    println!(
        "refreshed: {} messages, {} bytes of protocol traffic",
        cost.messages, cost.bytes
    );
    assert_eq!(archive.retrieve(&id)?, b"the 1921 land registry, digitized");

    let stats = archive.stats();
    println!(
        "archive: {} object(s), {}x storage expansion",
        stats.objects, stats.expansion
    );
    Ok(())
}
