//! The campaign stepper's own suite — what `dispatch_equivalence` is to
//! the I/O path. Every fleet sweep is one [`Campaign`]: a work list × a
//! per-object op × the reserved-window rule. These tests pin that
//! `run` is nothing but `step` + "advance the clock across the window",
//! for all three ops, several reservations and both dispatch pricings;
//! that the byte cap, the repair order and the per-op failure rule
//! behave as the loops this type replaced did; and the window
//! arithmetic itself, with the figures the deleted bandwidth scheduler
//! was pinned to.

use aeon_core::{
    Archive, ArchiveConfig, Campaign, CampaignOp, DispatchPolicy, IntegrityMode, ObjectId,
    PolicyKind, RepairQueueOrder, SimClock, SimDuration, SimTime, MAX_RESERVED_FRACTION,
};
use aeon_crypto::SuiteId;
use aeon_store::node::{MemoryNode, NodeError, NodeId, ShardKey, StorageNode};
use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
use aeon_store::Cluster;
use std::sync::Arc;

const SHAMIR: PolicyKind = PolicyKind::Shamir {
    threshold: 3,
    shares: 5,
};
const RS: PolicyKind = PolicyKind::ErasureCoded { data: 3, parity: 2 };

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (j * 31 + i * 7) as u8).collect()
}

fn drop_shard(archive: &Archive, id: &ObjectId, shard: usize) {
    let placement = archive.manifest(id).unwrap().placement;
    let node = archive.cluster().node(placement[shard]).unwrap();
    node.delete(&ShardKey::new(id.as_str(), shard as u32))
        .unwrap();
}

/// Seven objects of ragged sizes on six priced nodes, Shamir and RS
/// alternating, four of them degraded (one by two shards) — something
/// for each op to do, and seeks so that dispatch pricing matters.
fn mixed_fleet(dispatch: DispatchPolicy) -> (Archive, SimClock, Vec<ObjectId>) {
    let profile = ThroughputProfile::new(SimDuration::from_millis(5), 20e6, 10e6);
    let (cluster, clock) =
        throughput_in_memory_cluster(&["s0", "s1", "s2", "s3", "s4", "s5"], 1, &profile);
    let config = ArchiveConfig::new(RS)
        .with_integrity(IntegrityMode::DigestOnly)
        .with_dispatch(dispatch);
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let ids: Vec<ObjectId> = (0..7)
        .map(|i| {
            let policy = if i % 2 == 0 { SHAMIR } else { RS };
            archive
                .ingest_with_policy(&payload(i, 900 + 1700 * i), &format!("obj-{i}"), policy)
                .unwrap()
        })
        .collect();
    for (i, shards) in [(0, &[1][..]), (1, &[0]), (2, &[0, 3]), (5, &[4])] {
        for &shard in shards {
            drop_shard(&archive, &ids[i], shard);
        }
    }
    (archive, clock, ids)
}

fn ops() -> [CampaignOp; 3] {
    [
        CampaignOp::Reencode(PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 4,
            parity: 2,
        }),
        CampaignOp::Repair(RepairQueueOrder::Priority),
        CampaignOp::Refresh,
    ]
}

/// (a) `run` ≡ an engine-style loop of `step` + `advance_to(next_eligible)`:
/// same final clock, same report — and what the report says happened,
/// happened.
#[test]
fn run_is_step_plus_waiting_out_the_window() {
    for dispatch in [DispatchPolicy::Sequential, DispatchPolicy::parallel()] {
        for op in ops() {
            for r in [0.0, 0.25, 0.5] {
                let case = format!("{op:?} r={r} {dispatch:?}");

                let fleet = || {
                    let (mut archive, clock, ids) = mixed_fleet(dispatch);
                    if op == CampaignOp::Refresh {
                        // Refresh needs every shareholder online.
                        archive.repair_all();
                    }
                    (archive, clock, ids)
                };

                let (mut ran, ran_clock, ids) = fleet();
                let start = ran_clock.now();
                let mut campaign = Campaign::new(&ran, op.clone(), r);
                let report = campaign.run(&mut ran, u64::MAX).unwrap();
                assert!(campaign.is_done(), "{case}");
                assert_eq!(report, campaign.report(), "{case}");

                let (mut stepped, stepped_clock, _) = fleet();
                let mut engine = Campaign::new(&stepped, op.clone(), r);
                assert_eq!(engine.next_eligible(), SimTime::ZERO, "{case}");
                while let Some((_, outcome)) = engine.step(&mut stepped) {
                    outcome.unwrap();
                    stepped_clock.advance_to(engine.next_eligible());
                }
                assert_eq!(ran_clock.now(), stepped_clock.now(), "{case}: final clock");
                assert_eq!(report, engine.report(), "{case}: report");

                // The report is the clock's own account of the run.
                assert_eq!(report.elapsed(), ran_clock.now() - start, "{case}");
                assert!(report.background_time > SimDuration::ZERO, "{case}");
                assert_eq!(report.objects_done, report.objects_total, "{case}");
                assert!(report.all_ok(), "{case}");
                if r == 0.0 {
                    assert_eq!(report.foreground_time, SimDuration::ZERO, "{case}");
                }
                if r == 0.5 {
                    assert_eq!(report.foreground_time, report.background_time, "{case}");
                }

                let epochs =
                    |archive: &Archive, id: &ObjectId| archive.manifest(id).unwrap().refresh_epochs;
                match op {
                    CampaignOp::Reencode(ref to) => {
                        assert_eq!(report.objects_total, 7, "{case}");
                        assert_eq!(
                            report.read_time + report.write_time,
                            report.background_time,
                            "{case}"
                        );
                        assert!(ran.manifests().all(|m| &m.policy == to), "{case}");
                    }
                    CampaignOp::Repair(_) => {
                        assert_eq!((report.objects_total, report.repaired), (4, 4), "{case}");
                        assert!(ran.scan_fleet().tickets.is_empty(), "{case}");
                    }
                    CampaignOp::Refresh => {
                        // Only the Shamir objects, one epoch each.
                        assert_eq!(report.objects_total, 4, "{case}");
                        for (i, id) in ids.iter().enumerate() {
                            let expected = if i % 2 == 0 { 1 } else { 0 };
                            assert_eq!(epochs(&ran, id), expected, "{case}: obj-{i}");
                        }
                    }
                }
                for (i, id) in ids.iter().enumerate() {
                    let expected = payload(i, 900 + 1700 * i);
                    assert_eq!(ran.retrieve(id).unwrap(), expected, "{case}: obj-{i}");
                }
            }
        }
    }
}

/// A campaign stepped by an engine charges nothing of its own: the
/// clock moves by the steps' device time only, and each window is left
/// open for whoever drives it.
#[test]
fn step_alone_leaves_the_windows_open() {
    let (mut archive, clock, _) = mixed_fleet(DispatchPolicy::Sequential);
    let mut campaign = Campaign::new(&archive, ops()[0].clone(), 0.5);
    let start = clock.now();
    let mut steps = 0;
    while let Some((_, outcome)) = campaign.step(&mut archive) {
        steps += 1;
        assert!(outcome.unwrap() > 0);
        // r = 0.5: the window is as long as the step that opened it.
        assert!(campaign.next_eligible() > clock.now());
    }
    let report = campaign.report();
    assert_eq!(
        (steps, report.objects_done, report.objects_total),
        (7, 7, 7)
    );
    assert_eq!(clock.now() - start, report.background_time);
    assert_eq!(report.foreground_time, report.background_time);
}

/// RS(2, 2) over four free in-memory nodes, as the fleet unit tests use.
fn small_fleet(objects: usize, len: usize) -> (Archive, Vec<ObjectId>) {
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 });
    let mut archive =
        Archive::with_cluster(config, Cluster::in_memory(&["a", "b", "c", "d"], 1)).unwrap();
    let ids = (0..objects)
        .map(|i| archive.ingest(&vec![7u8; len], &format!("o{i}")).unwrap())
        .collect();
    (archive, ids)
}

fn repair_campaign(archive: &Archive, order: RepairQueueOrder) -> Campaign {
    Campaign::new(archive, CampaignOp::Repair(order), 0.0)
}

/// (b) The byte cap stops after the step that crosses it, the rest stay
/// queued, and a second `run` resumes where the first stopped.
#[test]
fn run_respects_byte_cap_and_resumes() {
    let (mut archive, ids) = small_fleet(4, 256);
    for id in &ids {
        drop_shard(&archive, id, 0);
    }
    let mut campaign = repair_campaign(&archive, RepairQueueOrder::Priority);
    assert_eq!(campaign.report().objects_total, 4);

    // Exhausted by the first repair.
    let first = campaign.run(&mut archive, 1).unwrap();
    assert_eq!(first.repaired, 1);
    assert!(!campaign.is_done(), "unrepaired tickets stay queued");
    assert_eq!(archive.scan_fleet().tickets.len(), 3);

    let all = campaign.run(&mut archive, u64::MAX).unwrap();
    assert_eq!(all.repaired - first.repaired, 3);
    assert!(campaign.is_done());
    assert!(archive.scan_fleet().tickets.is_empty());

    // Nothing left: a further run is a no-op.
    assert_eq!(campaign.run(&mut archive, u64::MAX).unwrap(), all);
}

/// (c) `step` walks the scan's tickets most-degraded-first: the
/// margin-0 object is healed before the margin-1 one, whatever their
/// ids. (`FleetScan::repair_order` itself is pinned beside it, in
/// `fleet.rs`.)
#[test]
fn repair_campaign_steps_most_degraded_first() {
    let (mut archive, ids) = small_fleet(3, 96);
    // o1 loses two shards (margin 0), o0 loses one (margin 1).
    drop_shard(&archive, &ids[0], 0);
    drop_shard(&archive, &ids[1], 1);
    drop_shard(&archive, &ids[1], 3);

    let mut campaign = repair_campaign(&archive, RepairQueueOrder::Priority);
    assert_eq!(campaign.report().objects_total, 2);
    let (first, outcome) = campaign.step(&mut archive).unwrap();
    assert!(outcome.unwrap() > 0);
    assert_eq!(first, ids[1]);
    let (second, _) = campaign.step(&mut archive).unwrap();
    assert_eq!(second, ids[0]);
    assert!(campaign.is_done());
    assert!(campaign.step(&mut archive).is_none());

    let report = campaign.report();
    assert_eq!(
        (report.objects_done, report.repaired, report.healthy),
        (2, 2, 0)
    );
    assert!(report.bytes_written > 0);
    let scan = archive.scan_fleet();
    assert_eq!(scan.healthy, 3);
    assert!(scan.tickets.is_empty() && scan.lost.is_empty());
}

/// (c) Why the order matters: two identical fleets, same damage — two
/// objects at margin 0 (ids sorting *last*, so FIFO reaches them last)
/// and several at margin 1 — and a cap covering roughly the two
/// most-fragile repairs. After a second loss wave hits every
/// still-degraded object, priority has rescued the margin-0 objects;
/// FIFO spent its cap on safe ones and loses data.
#[test]
fn priority_saves_fragile_objects_fifo_loses() {
    let run = |order: RepairQueueOrder| {
        let (mut archive, ids) = small_fleet(6, 512);
        let mut sorted = ids.clone();
        sorted.sort();
        // The two ids FIFO reaches last become the fragile ones.
        for id in &sorted[4..] {
            drop_shard(&archive, id, 0);
            drop_shard(&archive, id, 1);
        }
        for id in &sorted[..4] {
            drop_shard(&archive, id, 0);
        }
        // One repair calibrates the cap; the cap then buys one more.
        let mut campaign = repair_campaign(&archive, order);
        let (_, probe) = campaign.step(&mut archive).unwrap();
        campaign.run(&mut archive, probe.unwrap()).unwrap();
        assert_eq!(campaign.report().repaired, 2);
        // Second loss wave: one more shard off every still-degraded
        // object.
        for ticket in archive.scan_fleet().tickets {
            let manifest = archive.manifest(&ticket.id).unwrap();
            let present = (0..manifest.placement.len())
                .find(|&shard| {
                    let node = archive.cluster().node(manifest.placement[shard]).unwrap();
                    node.get(&ShardKey::new(ticket.id.as_str(), shard as u32))
                        .is_ok()
                })
                .unwrap();
            drop_shard(&archive, &ticket.id, present);
        }
        archive.scan_fleet().lost.len()
    };
    let priority_lost = run(RepairQueueOrder::Priority);
    let fifo_lost = run(RepairQueueOrder::Fifo);
    assert!(
        priority_lost < fifo_lost,
        "most-degraded-first must lose fewer objects at the same budget \
         (priority {priority_lost} vs fifo {fifo_lost})"
    );
    assert_eq!(priority_lost, 0, "priority rescued every margin-0 object");
}

/// Three RS(2, 2) objects on four priced nodes; the middle one (in id
/// order) has a shard missing and two more overwritten with garbage, so
/// a scan tickets it at margin 1 but nothing can decode or repair it.
fn fleet_with_a_doomed_object() -> (Archive, SimClock, ObjectId) {
    let profile = ThroughputProfile::new(SimDuration::from_millis(5), 10e6, 10e6);
    let (cluster, clock) = throughput_in_memory_cluster(&["a", "b", "c", "d"], 1, &profile);
    let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 })
        .with_integrity(IntegrityMode::DigestOnly);
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    let mut ids: Vec<ObjectId> = (0..3)
        .map(|i| archive.ingest(&payload(i, 2048), &format!("o{i}")).unwrap())
        .collect();
    ids.sort();
    for id in &ids {
        drop_shard(&archive, id, 0);
    }
    let doomed = ids.swap_remove(1);
    let placement = archive.manifest(&doomed).unwrap().placement;
    for shard in [1, 2] {
        let node = archive.cluster().node(placement[shard]).unwrap();
        node.put(&ShardKey::new(doomed.as_str(), shard as u32), b"garbage")
            .unwrap();
    }
    (archive, clock, doomed)
}

/// (d) One unrecoverable object: a re-encode `run` stops at it and
/// returns the error, a repair `run` records it and goes on — and both
/// account the failed step's device time and open its window.
#[test]
fn failure_stops_reencode_and_not_repair() {
    let (mut archive, clock, doomed) = fleet_with_a_doomed_object();
    let start = clock.now();
    let to = PolicyKind::ErasureCoded { data: 2, parity: 1 };
    let mut reencode = Campaign::new(&archive, CampaignOp::Reencode(to), 0.5);
    assert!(reencode.run(&mut archive, u64::MAX).is_err());
    let report = reencode.report();
    assert_eq!((report.objects_done, report.failed), (2, 1));
    assert!(!reencode.is_done(), "the third object stays queued");
    assert!(reencode.failures().is_empty(), "the error was returned");
    // Both steps — the failed one too — cost device time and were
    // followed by an equal window.
    assert_eq!(report.foreground_time, report.background_time);
    assert_eq!(clock.now() - start, report.elapsed());
    assert_eq!(reencode.next_eligible(), clock.now());

    let (mut archive, clock, doomed_again) = fleet_with_a_doomed_object();
    assert_eq!(doomed, doomed_again);
    let start = clock.now();
    let mut repair = Campaign::new(&archive, CampaignOp::Repair(RepairQueueOrder::Fifo), 0.5);
    let report = repair.run(&mut archive, u64::MAX).unwrap();
    assert!(repair.is_done());
    assert_eq!(
        (report.objects_done, report.repaired, report.failed),
        (3, 2, 1)
    );
    assert!(!report.all_ok());
    let [(failed, _)] = repair.failures() else {
        panic!("one failure kept: {:?}", repair.failures());
    };
    assert_eq!(failed, &doomed);
    assert_eq!(report.foreground_time, report.background_time);
    assert_eq!(clock.now() - start, report.elapsed());
    let left = archive.scan_fleet().tickets;
    assert_eq!(left.len(), 1);
    assert_eq!(left[0].id, doomed);
}

/// A node whose every read frame costs `toll` of virtual time and
/// whose other calls are free, so a one-object re-encode on a one-node
/// cluster occupies the device for exactly `toll`.
#[derive(Debug)]
struct TollNode {
    inner: MemoryNode,
    clock: SimClock,
    toll: SimDuration,
}

impl StorageNode for TollNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn site(&self) -> &str {
        self.inner.site()
    }
    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        self.inner.put(key, data)
    }
    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        self.clock.charge(self.toll);
        self.inner.get(key)
    }
    fn get_batch(&self, keys: &[ShardKey]) -> Vec<Result<Vec<u8>, NodeError>> {
        self.clock.charge(self.toll);
        self.inner.get_batch(keys)
    }
    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        self.inner.delete(key)
    }
    fn keys(&self) -> Vec<ShardKey> {
        self.inner.keys()
    }
    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

const ONE_COPY: PolicyKind = PolicyKind::Replication { copies: 1 };

/// One object on one [`TollNode`].
fn toll_archive(toll: SimDuration) -> (Archive, SimClock) {
    let clock = SimClock::new();
    let node = TollNode {
        inner: MemoryNode::new(0, "solo"),
        clock: clock.clone(),
        toll,
    };
    let cluster =
        Cluster::new(vec![Arc::new(node) as Arc<dyn StorageNode>]).with_clock(clock.clone());
    let config = ArchiveConfig::new(ONE_COPY).with_integrity(IntegrityMode::DigestOnly);
    let mut archive = Archive::with_cluster(config, cluster).unwrap();
    archive.ingest(b"one object, one read", "solo").unwrap();
    (archive, clock)
}

/// (e) Runs a one-step campaign whose step takes `background`, and
/// returns the window it opened and the run's wall-to-wall duration.
fn window_after(background: SimDuration, r: f64) -> (SimDuration, SimDuration) {
    let (mut archive, clock) = toll_archive(background);
    let start = clock.now();
    let report = Campaign::new(&archive, CampaignOp::Reencode(ONE_COPY), r)
        .run(&mut archive, u64::MAX)
        .unwrap();
    assert_eq!(report.background_time, background);
    (report.foreground_time, clock.now() - start)
}

#[test]
fn half_reservation_doubles_elapsed() {
    let (fg, elapsed) = window_after(SimDuration::from_secs(10), 0.5);
    // r = 0.5: foreground equals background, elapsed doubles.
    assert_eq!(fg, SimDuration::from_secs(10));
    assert_eq!(elapsed, SimDuration::from_secs(20));
}

#[test]
fn zero_reservation_charges_nothing() {
    let (fg, elapsed) = window_after(SimDuration::from_secs(7), 0.0);
    assert_eq!(fg, SimDuration::ZERO);
    assert_eq!(elapsed.as_secs_f64(), 7.0);
}

#[test]
fn quarter_reservation_stretches_by_a_third() {
    let (fg, elapsed) = window_after(SimDuration::from_secs(9), 0.25);
    // 9 s background ⇒ 3 s foreground: 12 s total = 9 / (1 − 0.25).
    assert_eq!(fg, SimDuration::from_secs(3));
    assert_eq!(elapsed.as_secs_f64(), 12.0);
}

#[test]
#[should_panic(expected = "reserved fraction")]
fn full_reservation_is_rejected() {
    let (archive, _) = toll_archive(SimDuration::ZERO);
    let _ = Campaign::new(&archive, CampaignOp::Refresh, 1.0);
}

#[test]
#[should_panic(expected = "reserved fraction")]
fn near_unity_reservation_is_rejected() {
    // r = 0.999999 passed the old `[0, 1)` check but amplifies
    // every background interval by ~1e6× through Δ·r/(1−r), where
    // a single f64 ulp of (1−r) is already minutes of foreground
    // time per background second.
    let (archive, _) = toll_archive(SimDuration::ZERO);
    let _ = Campaign::new(&archive, CampaignOp::Reencode(ONE_COPY), 0.999999);
}

#[test]
fn bound_is_inclusive_at_the_documented_maximum() {
    // 1 s background ⇒ 99 s foreground at the cap.
    let (fg, _) = window_after(SimDuration::from_secs(1), MAX_RESERVED_FRACTION);
    assert!((fg.as_secs_f64() - 99.0).abs() < 1e-6);
}
