//! Fleet-scale health scanning, prioritized repair, and durability
//! simulation.
//!
//! An archive fleet loses media continuously; whether objects survive
//! is a *race* between the loss rate and the repair bandwidth (Baker et
//! al.'s framing, which the paper inherits). This module supplies the
//! fleet-side machinery for running that race on the virtual clock:
//!
//! * [`FleetScan`] — a catalog-wide health inventory built from one
//!   free `keys()` sweep per node (a catalog lookup, not a media
//!   transfer), classifying every object as healthy, degraded (a
//!   [`RepairTicket`]), or lost (below its read threshold).
//! * [`RepairQueue`] — tickets ordered **most-degraded-first**
//!   ([`RepairQueueOrder::Priority`]: smallest surviving-minus-required
//!   margin, object id as the tie-break) or in catalog order
//!   ([`RepairQueueOrder::Fifo`]) for the baseline comparison.
//! * [`RepairBudget`] + [`Archive::drain_repairs`] — drains the queue
//!   under an explicit bytes-moved budget, charging reserved foreground
//!   capacity through the same [`BandwidthScheduler`] the campaign
//!   engine uses, so repair and foreground traffic share one bandwidth
//!   model.
//! * [`FleetSimConfig`] + [`Archive::run_fleet_sim`] — the durability
//!   experiment: seeded node wipes and latent shard losses per epoch,
//!   scan → queue → budgeted drain, with expected-objects-lost and
//!   time-to-first-loss in the [`FleetSimReport`].
//!
//! Fault *injection* here deliberately touches nodes directly (deleting
//! keys, as the chaos suites do): it models the adversary/environment,
//! not archive I/O, which still flows exclusively through the
//! `PlanExecutor` seam inside every repair.

use crate::archive::{Archive, ArchiveError, Manifest, ObjectId};
use crate::campaign::{check_reserved_fraction, BandwidthScheduler, CampaignProgress};
use crate::codec::RepairMethod;
use crate::repair::{FleetRepairOutcome, RepairReport};
use crate::unit::Unit;
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use aeon_store::clock::{SimDuration, SimTime};
use aeon_store::node::ShardKey;
use std::collections::{HashMap, HashSet};

/// One degraded object awaiting repair: how close it is to the loss
/// threshold decides its place in a [`RepairQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairTicket {
    /// The degraded object.
    pub id: ObjectId,
    /// Shards currently present on their placed nodes (of a dedup
    /// object's weakest block; [`Archive::repair_object`] heals them
    /// all).
    pub surviving: usize,
    /// The policy's read threshold: fall below this and the object is
    /// lost.
    pub required: usize,
    /// Total shard slots in the placement.
    pub total: usize,
}

impl RepairTicket {
    /// Shards the object can still lose before it is unreadable. Zero
    /// means one more loss destroys it.
    pub fn margin(&self) -> usize {
        self.surviving.saturating_sub(self.required)
    }
}

/// Catalog-wide health inventory from one free node-metadata sweep.
///
/// Built by [`Archive::scan_fleet`] from each node's `keys()` listing —
/// the scan detects *missing* shards (wiped nodes, deleted keys), which
/// is the fleet-level loss signal; bit-rot inside surviving bytes is
/// the per-object digest check's job during repair itself. A dedup
/// object is judged by the weakest block it references (smallest
/// surviving-minus-required margin): one block below threshold loses
/// every object referencing it.
#[derive(Debug, Clone)]
pub struct FleetScan {
    /// Objects examined.
    pub objects: usize,
    /// Objects with every placed shard (of every referenced block)
    /// present.
    pub healthy: usize,
    /// Degraded but repairable objects, in ascending id order.
    pub tickets: Vec<RepairTicket>,
    /// Objects below their read threshold — permanently lost, in
    /// ascending id order.
    pub lost: Vec<ObjectId>,
}

/// How a [`RepairQueue`] orders its tickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairQueueOrder {
    /// Most-degraded-first: smallest [`RepairTicket::margin`], object
    /// id as the tie-break. Spends scarce repair bandwidth where the
    /// next loss would destroy data.
    Priority,
    /// Catalog (ascending id) order — the baseline a priority queue is
    /// measured against.
    Fifo,
}

/// A drainable queue of repair tickets.
#[derive(Debug, Clone)]
pub struct RepairQueue {
    order: RepairQueueOrder,
    tickets: Vec<RepairTicket>,
}

impl RepairQueue {
    /// An empty queue with the given discipline.
    pub fn new(order: RepairQueueOrder) -> Self {
        RepairQueue {
            order,
            tickets: Vec::new(),
        }
    }

    /// A queue seeded with a scan's tickets.
    pub fn from_scan(scan: &FleetScan, order: RepairQueueOrder) -> Self {
        let mut queue = RepairQueue::new(order);
        for t in &scan.tickets {
            queue.push(t.clone());
        }
        queue
    }

    /// The discipline in effect.
    pub fn order(&self) -> RepairQueueOrder {
        self.order
    }

    /// Adds a ticket.
    pub fn push(&mut self, ticket: RepairTicket) {
        self.tickets.push(ticket);
    }

    /// Removes and returns the next ticket under the queue's
    /// discipline, or `None` when drained.
    pub fn pop(&mut self) -> Option<RepairTicket> {
        if self.tickets.is_empty() {
            return None;
        }
        let best = match self.order {
            RepairQueueOrder::Priority => self
                .tickets
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.margin().cmp(&b.margin()).then(a.id.cmp(&b.id)))
                .map(|(i, _)| i)
                .expect("non-empty"),
            RepairQueueOrder::Fifo => self
                .tickets
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.id.cmp(&b.id))
                .map(|(i, _)| i)
                .expect("non-empty"),
        };
        Some(self.tickets.remove(best))
    }

    /// Tickets still waiting.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }
}

/// How much a repair drain may spend before yielding to foreground
/// work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairBudget {
    /// Stop draining once repairs have moved at least this many bytes
    /// (read + written). `u64::MAX` drains everything.
    pub bytes: u64,
    /// Fraction of device capacity reserved for foreground traffic,
    /// charged through [`BandwidthScheduler`] after every repaired
    /// object — the same reservation model the campaign engine uses.
    pub reserved_foreground: f64,
}

impl RepairBudget {
    /// A budget with no byte cap and no foreground reservation.
    pub fn unlimited() -> Self {
        RepairBudget {
            bytes: u64::MAX,
            reserved_foreground: 0.0,
        }
    }
}

/// Configuration for [`Archive::run_fleet_sim`]: the loss process and
/// the repair response, both on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimConfig {
    /// Seed for the loss process DRBG (independent of the archive's
    /// encode stream).
    pub seed: u64,
    /// Epochs to simulate.
    pub epochs: usize,
    /// Virtual time per epoch.
    pub epoch: SimDuration,
    /// Per-node, per-epoch probability of a whole-node wipe (media
    /// death: every shard on the node is gone).
    pub node_wipe_prob: f64,
    /// Per-shard, per-epoch probability of a latent loss (an
    /// unreadable sector discovered at scrub time).
    pub shard_loss_prob: f64,
    /// Repair bandwidth per epoch, as a bytes-moved budget.
    pub repair_bytes_per_epoch: u64,
    /// Fraction of capacity reserved for foreground traffic during
    /// repair drains.
    pub reserved_foreground: f64,
    /// Queue discipline for the repair drain.
    pub order: RepairQueueOrder,
}

impl FleetSimConfig {
    /// A small default loss race: 12 monthly epochs, 1% node wipes,
    /// 0.5% latent shard losses, priority repair with an unlimited
    /// budget and no reservation.
    pub fn new(seed: u64) -> Self {
        FleetSimConfig {
            seed,
            epochs: 12,
            epoch: SimDuration::from_days(30),
            node_wipe_prob: 0.01,
            shard_loss_prob: 0.005,
            repair_bytes_per_epoch: u64::MAX,
            reserved_foreground: 0.0,
            order: RepairQueueOrder::Priority,
        }
    }
}

/// What a fleet durability simulation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimReport {
    /// Objects tracked by the simulation.
    pub objects: usize,
    /// Objects that fell below their read threshold at any point.
    pub objects_lost: usize,
    /// Epoch (0-based) of the first permanent loss, if any.
    pub first_loss_epoch: Option<usize>,
    /// Virtual-clock reading when the first loss was detected.
    pub first_loss_time: Option<SimTime>,
    /// Objects repaired across all epochs.
    pub repaired: usize,
    /// Repairs that failed (e.g. raced below threshold mid-epoch).
    pub repair_failures: usize,
    /// Bytes moved by repair across all epochs.
    pub bytes_moved: u64,
    /// Foreground time charged by the bandwidth scheduler across all
    /// drains.
    pub foreground_time: SimDuration,
    /// Final virtual-clock reading.
    pub elapsed: SimTime,
}

impl Archive {
    /// Scans fleet health from node metadata: one free `keys()` call
    /// per node, then catalog membership checks for every stored unit
    /// behind every object. See [`FleetScan`] for what the scan can and
    /// cannot see.
    pub fn scan_fleet(&self) -> FleetScan {
        let mut inventory: HashMap<aeon_store::node::NodeId, HashSet<ShardKey>> = HashMap::new();
        for node in self.cluster().nodes() {
            inventory.insert(node.id(), node.keys().into_iter().collect());
        }
        // Shards of `record` still listed by the nodes they were placed on.
        let present = |record: &Manifest| {
            (0..record.placement.len())
                .filter(|&shard| {
                    let key = ShardKey::new(record.id.as_str(), shard as u32);
                    inventory
                        .get(&record.placement[shard])
                        .is_some_and(|keys| keys.contains(&key))
                })
                .count()
        };
        // (surviving, required, total) per unit: a block shared by many
        // objects is looked up once per scan, not once per referencer.
        let mut counts: HashMap<Unit, (usize, usize, usize)> = HashMap::new();
        let mut scan = FleetScan {
            objects: 0,
            healthy: 0,
            tickets: Vec::new(),
            lost: Vec::new(),
        };
        for manifest in self.manifests() {
            scan.objects += 1;
            // The weakest incomplete unit speaks for the object.
            let weakest = self
                .units_of(&manifest)
                .into_iter()
                .map(|unit| {
                    *counts
                        .entry(unit)
                        .or_insert_with_key(|unit| match self.load(unit) {
                            Ok(record) => (
                                present(&record),
                                record.policy.read_threshold(),
                                record.placement.len(),
                            ),
                            // A referenced block with no record is gone.
                            Err(_) => (0, 1, 1),
                        })
                })
                .filter(|&(surviving, _, total)| surviving < total)
                .min_by_key(|&(surviving, required, _)| surviving as isize - required as isize);
            match weakest {
                None => scan.healthy += 1,
                Some((surviving, required, _)) if surviving < required => {
                    scan.lost.push(manifest.id);
                }
                Some((surviving, required, total)) => scan.tickets.push(RepairTicket {
                    id: manifest.id,
                    surviving,
                    required,
                    total,
                }),
            }
        }
        scan
    }

    /// Drains `queue` under `budget`: pops tickets (most degraded first
    /// under [`RepairQueueOrder::Priority`]), repairs each object, and
    /// stops once the bytes-moved budget is spent — remaining tickets
    /// stay queued for the next cycle. After every repaired object the
    /// drain charges the reserved foreground fraction through
    /// [`BandwidthScheduler`], so on media-priced clusters repair
    /// competes with foreground traffic for the same virtual bandwidth.
    /// Returns the per-object outcomes plus the foreground time
    /// charged.
    pub fn drain_repairs(
        &mut self,
        queue: &mut RepairQueue,
        budget: &RepairBudget,
    ) -> (FleetRepairOutcome, SimDuration) {
        let mut scheduler =
            BandwidthScheduler::new(self.cluster().clock().clone(), budget.reserved_foreground);
        let mut outcome = FleetRepairOutcome {
            repaired: Vec::new(),
            failed: Vec::new(),
            healthy: 0,
        };
        let mut spent = 0u64;
        while spent < budget.bytes {
            let Some(ticket) = queue.pop() else { break };
            match self.repair_object(&ticket.id) {
                Ok(report) if report.method == RepairMethod::NotNeeded => outcome.healthy += 1,
                Ok(report) => {
                    spent = spent.saturating_add(report.bytes_moved());
                    outcome.repaired.push((ticket.id, report));
                }
                Err(e) => outcome.failed.push((ticket.id, e)),
            }
            scheduler.reserve_foreground();
        }
        (outcome, scheduler.foreground_total())
    }

    /// Runs the fleet durability race: per epoch, inject seeded node
    /// wipes and latent shard losses, advance the virtual clock, scan,
    /// and drain repairs under the configured budget and discipline.
    /// Deterministic in `(archive seed, cfg.seed)`; the report is the
    /// durability measurement (`objects_lost`, time-to-first-loss) the
    /// `exp_fleet` experiment sweeps.
    pub fn run_fleet_sim(&mut self, cfg: &FleetSimConfig) -> FleetSimReport {
        let clock = self.cluster().clock().clone();
        let start = clock.now();
        let mut lost: HashSet<ObjectId> = HashSet::new();
        let mut report = FleetSimReport {
            objects: self.scan_fleet().objects,
            objects_lost: 0,
            first_loss_epoch: None,
            first_loss_time: None,
            repaired: 0,
            repair_failures: 0,
            bytes_moved: 0,
            foreground_time: SimDuration::ZERO,
            elapsed: start,
        };
        for epoch in 0..cfg.epochs {
            // The loss process: a fresh DRBG per epoch keyed off the
            // config seed, so epochs are independent and the whole run
            // replays bit-for-bit.
            let mut rng = ChaChaDrbg::from_u64_seed(cfg.seed.wrapping_add(epoch as u64));
            self.inject_epoch_losses(cfg, &mut rng);
            clock.advance_to(start + cfg.epoch.mul_f64((epoch + 1) as f64));

            let scan = self.scan_fleet();
            for id in &scan.lost {
                if lost.insert(id.clone()) && report.first_loss_epoch.is_none() {
                    report.first_loss_epoch = Some(epoch);
                    report.first_loss_time = Some(clock.now());
                }
            }
            let mut queue = RepairQueue::from_scan(&scan, cfg.order);
            let budget = RepairBudget {
                bytes: cfg.repair_bytes_per_epoch,
                reserved_foreground: cfg.reserved_foreground,
            };
            let (outcome, foreground) = self.drain_repairs(&mut queue, &budget);
            report.repaired += outcome.repaired.len();
            report.repair_failures += outcome.failed.len();
            report.bytes_moved += outcome.bytes_moved();
            report.foreground_time += foreground;
        }
        report.objects_lost = lost.len();
        report.elapsed = clock.now();
        report
    }

    /// One epoch of the loss process: whole-node wipes first, then
    /// latent per-shard losses on what remains. Environment-side fault
    /// injection — node I/O on the archive's behalf still goes through
    /// the executor seam.
    fn inject_epoch_losses<R: CryptoRng + ?Sized>(&self, cfg: &FleetSimConfig, rng: &mut R) {
        const SCALE: u64 = 1_000_000;
        let wipe = (cfg.node_wipe_prob.clamp(0.0, 1.0) * SCALE as f64) as u64;
        let latent = (cfg.shard_loss_prob.clamp(0.0, 1.0) * SCALE as f64) as u64;
        for node in self.cluster().nodes() {
            // `keys()` order is implementation-defined (hash maps);
            // sort so each key's probability draw is reproducible.
            let mut keys = node.keys();
            keys.sort_by(|a, b| a.object.cmp(&b.object).then(a.shard.cmp(&b.shard)));
            if wipe > 0 && rng.gen_range(SCALE) < wipe {
                for key in keys {
                    let _ = node.delete(&key);
                }
                continue;
            }
            if latent == 0 {
                continue;
            }
            for key in keys {
                if rng.gen_range(SCALE) < latent {
                    let _ = node.delete(&key);
                }
            }
        }
    }
}

/// A fleet repair campaign broken into single-object steps, for
/// interleaving with live foreground traffic — the repair analog of
/// [`crate::ReencodeCampaignDriver`]. Construction scans the fleet and
/// enqueues every repairable ticket under the chosen queue discipline;
/// each [`step`](Self::step) repairs one object through the
/// plan path (occupying the shared device for some background interval
/// `Δ` on the cluster clock), then marks the driver ineligible until
/// `now + Δ·r/(1−r)` — the reserved-foreground window in which the
/// request engine serves real traffic instead of a synthetic charge.
#[derive(Debug)]
pub struct RepairCampaignDriver {
    queue: RepairQueue,
    reserved_fraction: f64,
    fg_factor: f64,
    next_eligible: SimTime,
    objects_total: usize,
    objects_done: usize,
    already_healthy: usize,
    bytes_read: u64,
    bytes_written: u64,
    background_time: SimDuration,
}

impl RepairCampaignDriver {
    /// Plans a repair campaign over every currently-degraded object,
    /// throttled so each background step is followed by a `Δ·r/(1−r)`
    /// window reserved for foreground work. The driver is eligible
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= reserved_fraction <= `[`crate::MAX_RESERVED_FRACTION`]
    /// (same contract as [`BandwidthScheduler::new`]).
    pub fn new(archive: &Archive, order: RepairQueueOrder, reserved_fraction: f64) -> Self {
        check_reserved_fraction(reserved_fraction);
        let queue = RepairQueue::from_scan(&archive.scan_fleet(), order);
        RepairCampaignDriver {
            objects_total: queue.len(),
            queue,
            reserved_fraction,
            fg_factor: reserved_fraction / (1.0 - reserved_fraction),
            next_eligible: SimTime::ZERO,
            objects_done: 0,
            already_healthy: 0,
            bytes_read: 0,
            bytes_written: 0,
            background_time: SimDuration::ZERO,
        }
    }

    /// Whether every ticket has been drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest instant the next background step may start — the
    /// end of the reserved-foreground window opened by the previous
    /// step.
    #[must_use]
    pub fn next_eligible(&self) -> SimTime {
        self.next_eligible
    }

    /// The reserved fraction in effect.
    #[must_use]
    pub fn reserved_fraction(&self) -> f64 {
        self.reserved_fraction
    }

    /// Tickets that turned out to already be healthy when their repair
    /// ran (someone else fixed them, or the scan raced a write).
    #[must_use]
    pub fn already_healthy(&self) -> usize {
        self.already_healthy
    }

    /// Repairs the next queued object through the plan path,
    /// occupying the device for the step's duration, and opens the
    /// following reserved-foreground window. Returns `None` when the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// Propagates the per-object failure; the ticket is consumed (a
    /// fleet campaign does not retry a failed repair in place).
    pub fn step(&mut self, archive: &mut Archive) -> Result<Option<RepairReport>, ArchiveError> {
        let Some(ticket) = self.queue.pop() else {
            return Ok(None);
        };
        let clock = archive.cluster().clock().clone();
        let start = clock.now();
        let report = archive.repair_object(&ticket.id)?;
        let end = clock.now();
        let background = end - start;
        self.next_eligible = end + background.mul_f64(self.fg_factor);
        self.objects_done += 1;
        if report.method == RepairMethod::NotNeeded {
            self.already_healthy += 1;
        }
        self.bytes_read += report.bytes_read;
        self.bytes_written += report.bytes_written;
        self.background_time += background;
        Ok(Some(report))
    }

    /// Where the campaign stands, in the same shape the re-encode
    /// driver reports so request engines can surface either uniformly.
    #[must_use]
    pub fn progress(&self) -> CampaignProgress {
        CampaignProgress {
            objects_done: self.objects_done,
            objects_total: self.objects_total,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            background_time: self.background_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveConfig, PolicyKind};
    use aeon_store::node::{MemoryNode, StorageNode};
    use aeon_store::Cluster;
    use std::sync::Arc;

    fn archive_with_handles(n: usize) -> (Archive, Vec<MemoryNode>) {
        let handles: Vec<MemoryNode> = (0..n as u32)
            .map(|i| MemoryNode::new(i, format!("site-{i}")))
            .collect();
        let cluster = Cluster::new(
            handles
                .iter()
                .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
                .collect(),
        );
        let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 });
        (Archive::with_cluster(config, cluster).unwrap(), handles)
    }

    fn delete_shard(handles: &[MemoryNode], archive: &Archive, id: &ObjectId, shard: usize) {
        let manifest = archive.manifest(id).unwrap();
        let node = handles
            .iter()
            .find(|h| h.id() == manifest.placement[shard])
            .unwrap();
        node.delete(&ShardKey::new(id.as_str(), shard as u32))
            .unwrap();
    }

    #[test]
    fn scan_classifies_healthy_degraded_lost() {
        let (mut archive, handles) = archive_with_handles(4);
        let a = archive.ingest(b"healthy", "a").unwrap();
        let b = archive.ingest(b"degraded", "b").unwrap();
        let c = archive.ingest(b"lost", "c").unwrap();
        delete_shard(&handles, &archive, &b, 1);
        for shard in 0..3 {
            delete_shard(&handles, &archive, &c, shard);
        }
        let scan = archive.scan_fleet();
        assert_eq!(scan.objects, 3);
        assert_eq!(scan.healthy, 1);
        assert_eq!(scan.tickets.len(), 1);
        assert_eq!(scan.tickets[0].id, b);
        assert_eq!(scan.tickets[0].surviving, 3);
        assert_eq!(scan.tickets[0].required, 2);
        assert_eq!(scan.tickets[0].margin(), 1);
        assert_eq!(scan.lost, vec![c]);
        let _ = a;
    }

    #[test]
    fn priority_queue_pops_most_degraded_first() {
        let ticket = |id: &str, surviving: usize| RepairTicket {
            id: ObjectId::from_raw(id.to_string()),
            surviving,
            required: 2,
            total: 4,
        };
        let mut q = RepairQueue::new(RepairQueueOrder::Priority);
        q.push(ticket("bbb", 3));
        q.push(ticket("aaa", 3));
        q.push(ticket("zzz", 2));
        assert_eq!(q.pop().unwrap().id.as_str(), "zzz", "margin 0 first");
        assert_eq!(q.pop().unwrap().id.as_str(), "aaa", "then id tie-break");
        assert_eq!(q.pop().unwrap().id.as_str(), "bbb");
        assert!(q.pop().is_none());

        let mut q = RepairQueue::new(RepairQueueOrder::Fifo);
        q.push(ticket("bbb", 3));
        q.push(ticket("aaa", 3));
        q.push(ticket("zzz", 2));
        assert_eq!(q.pop().unwrap().id.as_str(), "aaa", "fifo = id order");
        assert_eq!(q.pop().unwrap().id.as_str(), "bbb");
        assert_eq!(q.pop().unwrap().id.as_str(), "zzz");
    }

    #[test]
    fn drain_respects_byte_budget() {
        let (mut archive, handles) = archive_with_handles(4);
        let ids: Vec<ObjectId> = (0..4)
            .map(|i| archive.ingest(&[7u8; 256], &format!("o{i}")).unwrap())
            .collect();
        for id in &ids {
            delete_shard(&handles, &archive, id, 0);
        }
        let scan = archive.scan_fleet();
        assert_eq!(scan.tickets.len(), 4);
        let mut queue = RepairQueue::from_scan(&scan, RepairQueueOrder::Priority);
        let budget = RepairBudget {
            bytes: 1, // exhausted after the first repair
            reserved_foreground: 0.0,
        };
        let (outcome, _fg) = archive.drain_repairs(&mut queue, &budget);
        assert_eq!(outcome.repaired.len(), 1);
        assert_eq!(queue.len(), 3, "unrepaired tickets stay queued");
        let (outcome, _fg) = archive.drain_repairs(&mut queue, &RepairBudget::unlimited());
        assert_eq!(outcome.repaired.len(), 3);
        assert!(queue.is_empty());
        assert!(archive.scan_fleet().tickets.is_empty());
    }

    #[test]
    fn priority_saves_fragile_objects_fifo_loses() {
        // Two identical archives, same damage: two objects at margin 0
        // (ids sorting *last*, so FIFO reaches them last) and several at
        // margin 1. Budget covers roughly the two most-fragile repairs.
        // After a second loss wave hits every still-degraded object,
        // priority has rescued the margin-0 objects; FIFO spent its
        // budget on safe ones and loses data.
        let build = || {
            let (mut archive, handles) = archive_with_handles(4);
            let ids: Vec<ObjectId> = (0..6)
                .map(|i| archive.ingest(&[3u8; 512], &format!("o{i}")).unwrap())
                .collect();
            (archive, handles, ids)
        };
        let damage = |archive: &Archive, handles: &[MemoryNode], ids: &[ObjectId]| {
            let mut sorted = ids.to_vec();
            sorted.sort();
            // The two ids FIFO reaches last become the fragile ones.
            for id in &sorted[4..] {
                delete_shard(handles, archive, id, 0);
                delete_shard(handles, archive, id, 1);
            }
            for id in &sorted[..4] {
                delete_shard(handles, archive, id, 0);
            }
        };
        let run = |order: RepairQueueOrder| {
            let (mut archive, handles, ids) = build();
            damage(&archive, &handles, &ids);
            // Budget: two margin-0 repairs move ~2 reads + 2 writes of a
            // 4-shard object each; measure one repair to calibrate.
            let scan = archive.scan_fleet();
            let mut queue = RepairQueue::from_scan(&scan, order);
            let probe = queue.pop().unwrap();
            let probe_report = archive.repair_object(&probe.id).unwrap();
            let budget = RepairBudget {
                bytes: probe_report.bytes_moved(),
                reserved_foreground: 0.0,
            };
            let (_outcome, _fg) = archive.drain_repairs(&mut queue, &budget);
            // Second loss wave: one more shard off every still-degraded
            // object.
            for ticket in archive.scan_fleet().tickets {
                let manifest = archive.manifest(&ticket.id).unwrap();
                for shard in 0..manifest.placement.len() {
                    let node = handles
                        .iter()
                        .find(|h| h.id() == manifest.placement[shard])
                        .unwrap();
                    if node
                        .get(&ShardKey::new(ticket.id.as_str(), shard as u32))
                        .is_ok()
                    {
                        node.delete(&ShardKey::new(ticket.id.as_str(), shard as u32))
                            .unwrap();
                        break;
                    }
                }
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

    #[test]
    fn fleet_sim_is_deterministic_and_tracks_losses() {
        let run = || {
            let (mut archive, _handles) = archive_with_handles(6);
            for i in 0..8 {
                archive.ingest(&[i as u8; 128], &format!("o{i}")).unwrap();
            }
            let cfg = FleetSimConfig {
                seed: 42,
                epochs: 6,
                epoch: SimDuration::from_days(30),
                node_wipe_prob: 0.3,
                shard_loss_prob: 0.05,
                repair_bytes_per_epoch: 2_000,
                reserved_foreground: 0.1,
                order: RepairQueueOrder::Priority,
            };
            archive.run_fleet_sim(&cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seeds, same report");
        assert_eq!(a.objects, 8);
        assert!(a.elapsed.as_days_f64() >= 180.0 - 1e-9);
        if a.objects_lost > 0 {
            assert!(a.first_loss_epoch.is_some());
            assert!(a.first_loss_time.is_some());
        }
    }

    #[test]
    fn unlimited_repair_keeps_everything_alive_under_latent_losses() {
        // Latent single-shard losses per epoch with unlimited repair
        // bandwidth: margin-2 objects never accumulate enough damage to
        // die between scans.
        let (mut archive, _handles) = archive_with_handles(6);
        for i in 0..6 {
            archive.ingest(&[9u8; 64], &format!("o{i}")).unwrap();
        }
        let cfg = FleetSimConfig {
            seed: 7,
            epochs: 12,
            epoch: SimDuration::from_days(30),
            node_wipe_prob: 0.0,
            shard_loss_prob: 0.08,
            repair_bytes_per_epoch: u64::MAX,
            reserved_foreground: 0.0,
            order: RepairQueueOrder::Priority,
        };
        let report = archive.run_fleet_sim(&cfg);
        assert_eq!(report.objects_lost, 0);
        assert!(report.repaired > 0, "losses occurred and were repaired");
    }

    #[test]
    fn repair_campaign_driver_drains_most_degraded_first() {
        let (mut archive, handles) = archive_with_handles(4);
        let ids: Vec<ObjectId> = (0..3)
            .map(|i| {
                archive
                    .ingest(&[i as u8 + 1; 96], &format!("o{i}"))
                    .unwrap()
            })
            .collect();
        // o1 loses two shards (margin 0), o0 loses one (margin 1).
        delete_shard(&handles, &archive, &ids[0], 0);
        delete_shard(&handles, &archive, &ids[1], 1);
        delete_shard(&handles, &archive, &ids[1], 3);

        let mut driver = RepairCampaignDriver::new(&archive, RepairQueueOrder::Priority, 0.25);
        assert_eq!(driver.progress().objects_total, 2);
        assert!(!driver.is_done());

        // Most degraded first: o1, then o0.
        driver.step(&mut archive).unwrap().unwrap();
        assert_eq!(archive.scan_fleet().tickets.len(), 1);
        assert_eq!(archive.scan_fleet().tickets[0].id, ids[0]);
        driver.step(&mut archive).unwrap().unwrap();
        assert!(driver.is_done());
        assert!(driver.step(&mut archive).unwrap().is_none());

        let progress = driver.progress();
        assert_eq!(progress.objects_done, 2);
        assert!(progress.bytes_written > 0);
        assert_eq!(driver.already_healthy(), 0);
        let scan = archive.scan_fleet();
        assert_eq!(scan.healthy, 3);
        assert!(scan.tickets.is_empty() && scan.lost.is_empty());
    }

    #[test]
    fn repair_campaign_driver_opens_reserved_windows_on_priced_media() {
        use aeon_store::throughput::{throughput_in_memory_cluster, ThroughputProfile};
        let profile =
            ThroughputProfile::new(SimDuration::from_millis(5), 10_000_000.0, 10_000_000.0);
        let (cluster, clock) = throughput_in_memory_cluster(&["a", "b", "c", "d"], 1, &profile);
        let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 2 });
        let mut archive = Archive::with_cluster(config, cluster).unwrap();
        let id = archive.ingest(&[7u8; 4096], "w").unwrap();
        let placement = archive.manifest(&id).unwrap().placement;
        let node = archive.cluster().node(placement[2]).unwrap();
        node.delete(&ShardKey::new(id.as_str(), 2)).unwrap();

        let r = 0.5;
        let mut driver = RepairCampaignDriver::new(&archive, RepairQueueOrder::Priority, r);
        assert_eq!(driver.next_eligible(), SimTime::ZERO);
        let before = clock.now();
        driver.step(&mut archive).unwrap().unwrap();
        let background = clock.now() - before;
        assert!(background > SimDuration::ZERO, "priced media charges time");
        // r = 0.5 reserves a window exactly as long as the step.
        assert_eq!(driver.next_eligible(), clock.now() + background);
        assert!(driver.is_done());
    }
}
