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
//! * [`FleetScan::repair_order`] — the scan's tickets ordered
//!   **most-degraded-first** ([`RepairQueueOrder::Priority`]: smallest
//!   surviving-minus-required margin, object id as the tie-break) or in
//!   catalog order ([`RepairQueueOrder::Fifo`]) for the baseline
//!   comparison: the work list of a repair [`Campaign`], which heals it
//!   under a bytes-moved cap and the same reserved-foreground rule as
//!   every other sweep.
//! * [`FleetSimConfig`] + [`Archive::run_fleet_sim`] — the durability
//!   experiment: seeded node wipes and latent shard losses per epoch,
//!   scan → one capped repair campaign, with expected-objects-lost
//!   and time-to-first-loss in the [`FleetSimReport`].
//!
//! Fault *injection* here deliberately touches nodes directly (deleting
//! keys, as the chaos suites do): it models the adversary/environment,
//! not archive I/O, which still flows exclusively through the
//! `PlanExecutor` seam inside every repair.

use crate::archive::{Archive, Manifest, ObjectId};
use crate::campaign::{Campaign, CampaignOp};
use crate::unit::Unit;
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use aeon_store::clock::{SimDuration, SimTime};
use aeon_store::node::ShardKey;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// One degraded object awaiting repair: how close it is to the loss
/// threshold decides its place in [`FleetScan::repair_order`].
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

/// The order a repair campaign visits a scan's tickets in.
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

impl FleetScan {
    /// The degraded objects in the order a repair campaign heals them.
    #[must_use]
    pub fn repair_order(&self, order: RepairQueueOrder) -> Vec<ObjectId> {
        let mut tickets: Vec<&RepairTicket> = self.tickets.iter().collect();
        tickets.sort_by(|a, b| {
            let by_margin = match order {
                RepairQueueOrder::Priority => a.margin().cmp(&b.margin()),
                RepairQueueOrder::Fifo => Ordering::Equal,
            };
            by_margin.then_with(|| a.id.cmp(&b.id))
        });
        tickets.into_iter().map(|t| t.id.clone()).collect()
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
    /// Repair bandwidth per epoch, as a bytes-moved cap on the epoch's
    /// repair campaign.
    pub repair_bytes_per_epoch: u64,
    /// Fraction of capacity reserved for foreground traffic during
    /// repair campaigns.
    pub reserved_foreground: f64,
    /// Order the repair campaign visits degraded objects in.
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
    /// Foreground windows the repair campaigns left open, across all
    /// epochs.
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
        for manifest in self.manifests.rows() {
            scan.objects += 1;
            // The weakest incomplete unit speaks for the object.
            let weakest = self
                .units_of(manifest)
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
                    scan.lost.push(manifest.id.clone());
                }
                Some((surviving, required, total)) => scan.tickets.push(RepairTicket {
                    id: manifest.id.clone(),
                    surviving,
                    required,
                    total,
                }),
            }
        }
        scan
    }

    /// Runs the fleet durability race: per epoch, inject seeded node
    /// wipes and latent shard losses, advance the virtual clock, scan,
    /// and run one repair [`Campaign`] over the scan's tickets under the
    /// configured byte cap, order and reservation.
    /// Deterministic in `(archive seed, cfg.seed)`; the report is the
    /// durability measurement (`objects_lost`, time-to-first-loss) the
    /// `aeon-exp fleet` experiment sweeps.
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
            let repairs = Campaign::over(
                scan.repair_order(cfg.order),
                CampaignOp::Repair(cfg.order),
                cfg.reserved_foreground,
            )
            .run(self, cfg.repair_bytes_per_epoch)
            .expect("a repair campaign keeps failures and goes on");
            report.repaired += repairs.repaired;
            report.repair_failures += repairs.failed;
            report.bytes_moved += repairs.bytes_moved();
            report.foreground_time += repairs.foreground_time;
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
    fn repair_order_is_most_degraded_first_or_catalog_order() {
        let ticket = |id: &str, surviving: usize| RepairTicket {
            id: ObjectId::from_raw(id.to_string()),
            surviving,
            required: 2,
            total: 4,
        };
        let scan = FleetScan {
            objects: 3,
            healthy: 0,
            tickets: vec![ticket("bbb", 3), ticket("aaa", 3), ticket("zzz", 2)],
            lost: Vec::new(),
        };
        let order = |order| -> Vec<String> {
            let ids = scan.repair_order(order);
            ids.iter().map(|id| id.as_str().to_string()).collect()
        };
        // Margin 0 first, then the id tie-break.
        assert_eq!(order(RepairQueueOrder::Priority), ["zzz", "aaa", "bbb"]);
        // Fifo = id order.
        assert_eq!(order(RepairQueueOrder::Fifo), ["aaa", "bbb", "zzz"]);
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
}
