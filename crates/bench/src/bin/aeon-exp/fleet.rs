//! E-fleet — durability under a repair-bandwidth budget.
//!
//! The paper's maintenance arithmetic (§3.2) says repair is a
//! bandwidth-metered campaign, not a free background activity. This
//! experiment races the loss process against a budgeted repair drain on
//! the virtual clock: each swept configuration injects whole-node wipes
//! and latent per-shard losses epoch by epoch, then drains the repair
//! queue under an explicit bytes-moved budget whose bandwidth is shared
//! with foreground traffic through the repair campaign's reserved
//! windows. Every configuration runs twice — once with the
//! most-degraded-first priority queue and once FIFO — at the identical
//! budget, so the sweep measures what the *queue discipline alone* buys
//! in durability (objects lost, time to first loss).
//!
//! The run asserts that priority ordering loses fewer objects than FIFO
//! in at least one tight-budget configuration. Results land in
//! `BENCH_fleet.json`.

use aeon_bench::{f2, CliArgs, Json, Table};
use aeon_core::{
    Archive, ArchiveConfig, FleetSimConfig, FleetSimReport, IntegrityMode, PolicyKind,
    RepairQueueOrder,
};
use aeon_store::clock::{SimDuration, SimTime};
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};

const SITES: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "s5"];
const SWEEP_SEED: u64 = 0xF1EE7;

/// A loss regime: how hostile the environment is per 30-day epoch.
struct Regime {
    name: &'static str,
    node_wipe_prob: f64,
    shard_loss_prob: f64,
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            name: "calm",
            node_wipe_prob: 0.01,
            shard_loss_prob: 0.02,
        },
        Regime {
            name: "harsh",
            node_wipe_prob: 0.05,
            shard_loss_prob: 0.10,
        },
    ]
}

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("rep-3", PolicyKind::Replication { copies: 3 }),
        ("rs-2+2", PolicyKind::ErasureCoded { data: 2, parity: 2 }),
        ("rs-4+2", PolicyKind::ErasureCoded { data: 4, parity: 2 }),
    ]
}

fn order_name(order: RepairQueueOrder) -> &'static str {
    match order {
        RepairQueueOrder::Priority => "priority",
        RepairQueueOrder::Fifo => "fifo",
    }
}

/// Builds a fresh archive over a throughput-charged cluster (archival
/// disk figures: 4 ms positioning, 60 MB/s sustained) and ingests the
/// shared corpus, so every run starts from the identical fleet state.
fn build_fleet(policy: &PolicyKind, objects: usize) -> Archive {
    let profile = ThroughputProfile::new(SimDuration::from_millis(4), 60e6, 60e6);
    let (cluster, _clock) = throughput_in_memory_cluster(&SITES, 1, &profile);
    let config = ArchiveConfig::new(policy.clone())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_year(2031);
    let mut archive = Archive::with_cluster(config, cluster).expect("archive");
    for i in 0..objects {
        let payload = vec![(i % 250) as u8 + 1; 1024 + i * 173];
        archive
            .ingest(&payload, &format!("fleet-{i:03}"))
            .expect("ingest");
    }
    archive
}

fn run_one(
    policy: &PolicyKind,
    objects: usize,
    epochs: usize,
    regime: &Regime,
    budget: u64,
    order: RepairQueueOrder,
) -> FleetSimReport {
    let mut archive = build_fleet(policy, objects);
    let cfg = FleetSimConfig {
        seed: SWEEP_SEED,
        epochs,
        epoch: SimDuration::from_days(30),
        node_wipe_prob: regime.node_wipe_prob,
        shard_loss_prob: regime.shard_loss_prob,
        repair_bytes_per_epoch: budget,
        reserved_foreground: 0.2,
        order,
    };
    archive.run_fleet_sim(&cfg)
}

fn days(t: SimTime) -> f64 {
    t.since(SimTime::ZERO).as_days_f64()
}

pub fn run(args: &CliArgs) {
    let quick = args.flag("--quick");
    let (objects, epochs) = if quick { (20, 6) } else { (40, 12) };
    // Tight: roughly two object repairs' worth of moved bytes per
    // epoch, far under the harsh-regime degradation rate. Open: drain
    // everything every epoch.
    let budgets: [(&str, u64); 2] = [("tight", 24_000), ("open", u64::MAX)];

    let mut table = Table::new(
        "fleet durability: loss regime x repair budget x queue order (virtual clock)",
        &[
            "regime",
            "policy",
            "budget",
            "order",
            "lost",
            "first loss(d)",
            "repaired",
            "fails",
            "moved(KiB)",
            "fg(s)",
        ],
    );
    let mut entries: Vec<Json> = Vec::new();
    let mut priority_wins = 0usize;
    let mut tight_pairs = 0usize;

    for regime in regimes() {
        for (policy_name, policy) in policies() {
            for (budget_name, budget) in budgets {
                let mut pair: Vec<(RepairQueueOrder, FleetSimReport)> = Vec::new();
                for order in [RepairQueueOrder::Priority, RepairQueueOrder::Fifo] {
                    let report = run_one(&policy, objects, epochs, &regime, budget, order);
                    table.row(&[
                        regime.name.to_string(),
                        policy_name.to_string(),
                        budget_name.to_string(),
                        order_name(order).to_string(),
                        format!("{}/{}", report.objects_lost, report.objects),
                        report
                            .first_loss_time
                            .map_or_else(|| "-".to_string(), |t| f2(days(t))),
                        report.repaired.to_string(),
                        report.repair_failures.to_string(),
                        f2(report.bytes_moved as f64 / 1024.0),
                        f2(report.foreground_time.as_secs_f64()),
                    ]);
                    entries.push(Json::Obj(vec![
                        ("regime".into(), Json::Str(regime.name.into())),
                        ("policy".into(), Json::Str(policy_name.into())),
                        ("budget".into(), Json::Str(budget_name.into())),
                        (
                            "budget_bytes".into(),
                            Json::Num(if budget == u64::MAX {
                                -1.0
                            } else {
                                budget as f64
                            }),
                        ),
                        ("order".into(), Json::Str(order_name(order).into())),
                        ("objects".into(), Json::Num(report.objects as f64)),
                        ("objects_lost".into(), Json::Num(report.objects_lost as f64)),
                        (
                            "first_loss_epoch".into(),
                            Json::Num(report.first_loss_epoch.map_or(-1.0, |e| e as f64)),
                        ),
                        (
                            "first_loss_days".into(),
                            Json::Num(report.first_loss_time.map_or(-1.0, days)),
                        ),
                        ("repaired".into(), Json::Num(report.repaired as f64)),
                        (
                            "repair_failures".into(),
                            Json::Num(report.repair_failures as f64),
                        ),
                        ("bytes_moved".into(), Json::Num(report.bytes_moved as f64)),
                        (
                            "foreground_s".into(),
                            Json::Num(report.foreground_time.as_secs_f64()),
                        ),
                        ("elapsed_days".into(), Json::Num(days(report.elapsed))),
                    ]));
                    pair.push((order, report));
                }
                if budget != u64::MAX {
                    tight_pairs += 1;
                    let lost_of = |o: RepairQueueOrder| {
                        pair.iter().find(|(q, _)| *q == o).unwrap().1.objects_lost
                    };
                    if lost_of(RepairQueueOrder::Priority) < lost_of(RepairQueueOrder::Fifo) {
                        priority_wins += 1;
                    }
                }
            }
        }
    }

    table.print();
    assert!(
        priority_wins >= 1,
        "most-degraded-first must beat FIFO in at least one tight-budget \
         configuration ({priority_wins}/{tight_pairs} wins)"
    );
    println!(
        "Priority queue beat FIFO at the same budget in {priority_wins}/{tight_pairs} \
         tight-budget configurations"
    );

    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::Str("fleet".into())),
        ("seed".into(), Json::Num(SWEEP_SEED as f64)),
        ("quick".into(), Json::Num(if quick { 1.0 } else { 0.0 })),
        ("objects".into(), Json::Num(objects as f64)),
        ("epochs".into(), Json::Num(epochs as f64)),
        ("reserved_foreground".into(), Json::Num(0.2)),
        ("priority_wins".into(), Json::Num(priority_wins as f64)),
        ("tight_pairs".into(), Json::Num(tight_pairs as f64)),
        ("runs".into(), Json::Arr(entries)),
    ]);
    artifact.write_artifact("BENCH_fleet.json", "results written to");
}
