//! Shard repair: rebuilding lost shards from survivors.
//!
//! Archives lose media continuously; what keeps them alive is the repair
//! loop. For MDS-coded policies a lost shard is recomputed from any `k`
//! survivors without touching the plaintext; for Shamir policies the
//! missing share is *re-derived at its evaluation point* from `t`
//! survivors (Lagrange at `x = missing index`) — the secret never leaves
//! the math. Policies without partial-repair structure (LRSS wrappers)
//! fall back to a full re-encode, which costs a
//! whole-object read+write and fresh randomness. So does packed sharing
//! today, though not for want of structure: any `privacy + pack` shares
//! fix every row's polynomial, so a lost share is one Lagrange row over
//! the survivors, as for Shamir — `Dispersal::Packed` does not implement
//! it yet.
//!
//! The body is written against a stored unit (`unit.rs`);
//! [`Archive::repair_object`] sums it over the units behind an object —
//! one for a classic object, every referenced block for a dedup one.

use crate::archive::{Archive, ArchiveError, ObjectId};
use crate::campaign::{Campaign, CampaignOp};
use crate::executor::WriteMode;
use crate::fleet::RepairQueueOrder;
use crate::maintenance::Decoded;
use crate::plan::{self, ReadPlan, RepairOutcome};
use crate::policy::PolicyError;
use crate::unit::Unit;
use aeon_store::clock::SimDuration;
use aeon_store::cluster::TransferReport;
use aeon_store::node::Blob;

pub use crate::codec::RepairMethod;

/// Report from a repair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Shards that were missing before the repair.
    pub missing_before: usize,
    /// Shards missing after (0 unless nodes are offline).
    pub missing_after: usize,
    /// The strategy used.
    pub method: RepairMethod,
    /// Stored bytes fetched while diagnosing and rebuilding, counted
    /// over the shards that passed their check: the survivors plus the
    /// post-repair re-read's.
    pub bytes_read: u64,
    /// Rebuilt bytes written back to nodes.
    pub bytes_written: u64,
}

impl RepairReport {
    /// Total bytes this repair moved over node I/O (read + written).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl Archive {
    /// Repairs an object's missing shards: every stored unit behind it,
    /// summed. Requires at least the policy's read threshold of shards
    /// to survive in each. Healing a shared dedup block here heals
    /// **every** object that references it.
    ///
    /// # Errors
    ///
    /// Returns decode errors if too few shards survive, and cluster
    /// errors if the rebuilt shards cannot be written back.
    pub fn repair_object(&mut self, id: &ObjectId) -> Result<RepairReport, ArchiveError> {
        let units = self.units_of(self.row(id)?);
        let mut total = RepairReport {
            missing_before: 0,
            missing_after: 0,
            method: RepairMethod::NotNeeded,
            bytes_read: 0,
            bytes_written: 0,
        };
        for unit in &units {
            let report = self.repair_unit(id, unit)?;
            total.missing_before += report.missing_before;
            total.missing_after += report.missing_after;
            total.bytes_read += report.bytes_read;
            total.bytes_written += report.bytes_written;
            if report.method != RepairMethod::NotNeeded {
                total.method = report.method;
            }
        }
        Ok(total)
    }

    /// Repairs one unit's missing or rotted shards from survivors, on
    /// behalf of `owner` (the object failures are typed against).
    ///
    /// The old shards are fetched once, every slot checked against its
    /// recorded digest; the survivors feed the rebuild. A partial repair
    /// rebuilds exactly the bytes the record already hashes (an RS row,
    /// the same Shamir share at its own `x`, a replica, a framed join of
    /// such chunks), so the record is never rewritten: each written
    /// slot's digest must equal the recorded one, or the repair fails with
    /// [`ArchiveError::IntegrityViolation`] and the record stays as it was.
    /// The full re-encode fallback decodes the same survivors and writes
    /// through the re-encode's write-back, which hands back its blobs.
    /// Then a re-read checks every slot by byte equality with what the
    /// repair holds for it — a survivor, a rebuilt or a re-encoded shard —
    /// accepting exactly what a digest check would without hashing again.
    /// Each slot that fails counts toward `missing_after`.
    fn repair_unit(&mut self, owner: &ObjectId, unit: &Unit) -> Result<RepairReport, ArchiveError> {
        let record = self.load(unit)?;
        let [fetch, put, after] = unit.labels().repair;
        // Digest-filtered fetch: a bit-rotted shard is as lost as a
        // deleted one, and must be rebuilt rather than trusted.
        let mut snap = self.fetch_shards(&record, fetch);
        // A repair reports no attempt accounting: free it now.
        snap.report = TransferReport::default();
        let shards = &snap.shards;
        let mut bytes_read = snap.bytes();
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(RepairReport {
                missing_before: 0,
                missing_after: 0,
                method: RepairMethod::NotNeeded,
                bytes_read,
                bytes_written: 0,
            });
        }

        // The codec decides *how* (pure, per-chunk); the executor
        // decides *where* (retrying node puts). Repair is the one
        // maintenance path that rewrites individual slots rather than
        // whole shard sets, so it carries the rebuilt bytes as an
        // explicit plan.
        let outcome = plan::plan_repair(&record, shards, &missing)?;
        // Each arm owns the fetch, so it is gone before the re-read.
        let (method, record, held, bytes_written) = match (outcome, snap) {
            (RepairOutcome::Apply(repair), snap) => {
                // A slot the manifest records no digest for could never
                // be read back, and a slot that is neither a survivor nor
                // rebuilt leaves the re-read nothing to compare: either
                // way the record is malformed, and that is said before
                // any node is touched.
                let malformed = |why: &str| ArchiveError::from(PolicyError::Malformed(why.into()));
                if (repair.writes.iter()).any(|(m, _)| *m >= record.shard_digests.len()) {
                    return Err(malformed("repair slot has no recorded digest"));
                }
                // The rebuilt shards move into their nodes; the repair
                // keeps a share of each, and of each survivor, to check
                // the re-read against.
                let writes: Vec<(usize, Blob)> = (repair.writes.into_iter())
                    .map(|(m, data)| (m, Blob::from(data)))
                    .collect();
                let rebuilt = |s: usize| {
                    let write = writes.iter().find(|(m, _)| *m == s);
                    write.map(|(_, data)| data.clone())
                };
                let held: Option<Vec<Blob>> = (snap.shards.into_iter().enumerate())
                    .map(|(s, survivor)| survivor.or_else(|| rebuilt(s)))
                    .collect();
                let held = held.ok_or_else(|| malformed("repair leaves a slot unwritten"))?;
                let written = writes.iter().map(|(_, data)| data.len() as u64).sum();
                let ctx = record.id.as_str();
                let units = [(ctx, &record.placement[..], WriteMode::InPlace, writes)];
                let rngs = &mut [self.op_rng(put, ctx)];
                let rewritten = self.executor().write_units(&units, rngs).pop();
                let rewritten = rewritten.expect("one result per unit");
                rewritten.result?;
                let mut slots = units[0].3.iter().map(|(m, _)| *m).zip(rewritten.digests);
                if slots.any(|(m, d)| record.shard_digests[m] != d) {
                    return Err(ArchiveError::IntegrityViolation(owner.clone()));
                }
                (repair.method, record, held, written)
            }
            (RepairOutcome::Reencode, snap) => {
                // No per-shard repair structure: decode and re-encode.
                let payload = self.decode_verified(owner, unit, &record, &snap)?;
                let policy = record.policy.clone();
                let read = Decoded {
                    record,
                    bytes_read,
                    payload,
                    read_time: SimDuration::ZERO,
                };
                let (reencoded, held) = self.reencode_write(owner, unit, read, &policy)?;
                let written = reencoded.bytes_written;
                (RepairMethod::FullReencode, self.load(unit)?, held, written)
            }
        };
        let plan = ReadPlan::for_manifest(&record);
        let mut rng = self.op_rng(after, plan.object.as_str());
        let snap = self.executor().reread(&plan, &held, &mut rng);
        bytes_read += snap.bytes();
        Ok(RepairReport {
            missing_before: missing.len(),
            missing_after: snap.shards.len() - snap.valid,
            method,
            bytes_read,
            bytes_written,
        })
    }

    /// Repairs every object that is missing shards: a repair
    /// [`Campaign`] over the whole catalog (not only what a scan can
    /// see — the per-object digest check also finds rot) with nothing
    /// reserved. One object failing (too few survivors, write errors
    /// past the retry budget) does not stop the sweep; the finished
    /// campaign carries the totals and every per-object failure.
    pub fn repair_all(&mut self) -> Campaign {
        let op = CampaignOp::Repair(RepairQueueOrder::Fifo);
        let ids = self.manifests.rows().map(|m| m.id.clone()).collect();
        let mut sweep = Campaign::over(ids, op, 0.0);
        sweep
            .run(self, u64::MAX)
            .expect("a repair campaign keeps failures and goes on");
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveConfig, PolicyKind};
    use aeon_crypto::SuiteId;
    use aeon_integrity::timestamp::SigBreakSchedule;
    use aeon_store::node::{MemoryNode, NodeError, NodeId, ShardKey, StorageNode};
    use aeon_store::Cluster;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    fn archive_with_handles(policy: PolicyKind, n: usize) -> (Archive, Vec<MemoryNode>) {
        let handles: Vec<MemoryNode> = (0..n as u32)
            .map(|i| MemoryNode::new(i, format!("site-{i}")))
            .collect();
        let cluster = Cluster::new(
            handles
                .iter()
                .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
                .collect(),
        );
        (
            Archive::with_cluster(ArchiveConfig::new(policy), cluster).unwrap(),
            handles,
        )
    }

    fn delete_shard(handles: &[MemoryNode], archive: &Archive, id: &ObjectId, shard: usize) {
        let manifest = archive.manifest(id).unwrap();
        let node_id = manifest.placement[shard];
        let node = handles.iter().find(|h| h.id() == node_id).unwrap();
        node.delete(&ShardKey::new(id.as_str(), shard as u32))
            .unwrap();
    }

    #[test]
    fn erasure_partial_repair() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive.ingest(b"repairable payload", "r").unwrap();
        delete_shard(&handles, &archive, &id, 1);
        delete_shard(&handles, &archive, &id, 4);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.missing_before, 2);
        assert_eq!(report.missing_after, 0);
        assert_eq!(report.method, RepairMethod::PartialErasure);
        assert_eq!(archive.retrieve(&id).unwrap(), b"repairable payload");
    }

    #[test]
    fn shamir_partial_repair_restores_same_polynomial() {
        let (mut archive, handles) = archive_with_handles(
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
            5,
        );
        let id = archive.ingest(b"derive my shares back", "r").unwrap();
        let manifest = archive.manifest(&id).unwrap();
        let before = archive
            .cluster()
            .get_shards(id.as_str(), &manifest.placement);
        delete_shard(&handles, &archive, &id, 2);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::PartialShamir);
        assert_eq!(report.missing_after, 0);
        let manifest = archive.manifest(&id).unwrap();
        let after = archive
            .cluster()
            .get_shards(id.as_str(), &manifest.placement);
        // The rebuilt share equals the original (same polynomial).
        assert_eq!(before[2], after[2]);
        assert_eq!(archive.retrieve(&id).unwrap(), b"derive my shares back");
    }

    #[test]
    fn encrypted_repair_does_not_touch_plaintext_keys() {
        let (mut archive, handles) = archive_with_handles(
            PolicyKind::Encrypted {
                suite: SuiteId::ChaCha20Poly1305,
                data: 2,
                parity: 2,
            },
            4,
        );
        let id = archive.ingest(b"ciphertext-level repair", "r").unwrap();
        delete_shard(&handles, &archive, &id, 0);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::PartialErasure);
        assert_eq!(archive.retrieve(&id).unwrap(), b"ciphertext-level repair");
    }

    #[test]
    fn lrss_falls_back_to_reencode() {
        let (mut archive, handles) = archive_with_handles(
            PolicyKind::LeakageResilientShamir {
                threshold: 2,
                shares: 4,
                source_len: 32,
            },
            4,
        );
        let id = archive.ingest(b"rewrap me", "r").unwrap();
        delete_shard(&handles, &archive, &id, 3);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::FullReencode);
        assert_eq!(report.missing_after, 0);
        assert_eq!(archive.retrieve(&id).unwrap(), b"rewrap me");
    }

    /// The full re-encode fallback decodes from the survivors its first
    /// fetch checked, so it reads the old shards once: `bytes_read` is
    /// those survivors plus the re-read of the new shards.
    #[test]
    fn a_reencode_fallback_reads_the_old_shards_once() {
        let (mut archive, handles) = archive_with_handles(
            PolicyKind::LeakageResilientShamir {
                threshold: 2,
                shares: 4,
                source_len: 32,
            },
            4,
        );
        let id = archive.ingest(b"read the survivors once", "r").unwrap();
        let stored = |handles: &[MemoryNode]| -> u64 {
            let shards = handles.iter().flat_map(|h| {
                let keys = h.keys().into_iter().filter(|k| k.object == id.as_str());
                keys.map(|k| h.get(&k).unwrap().len() as u64)
            });
            shards.sum()
        };
        delete_shard(&handles, &archive, &id, 3);
        let survivors = stored(&handles);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::FullReencode);
        assert_eq!(report.missing_after, 0);
        assert_eq!(report.bytes_read, survivors + stored(&handles));
    }

    #[test]
    fn replication_repair() {
        let (mut archive, handles) = archive_with_handles(PolicyKind::Replication { copies: 3 }, 3);
        let id = archive.ingest(b"copy repair", "r").unwrap();
        delete_shard(&handles, &archive, &id, 0);
        delete_shard(&handles, &archive, &id, 2);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.missing_before, 2);
        assert_eq!(report.missing_after, 0);
        assert_eq!(archive.retrieve(&id).unwrap(), b"copy repair");
    }

    #[test]
    fn repair_beyond_threshold_fails() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 1 }, 4);
        let id = archive.ingest(b"gone", "r").unwrap();
        delete_shard(&handles, &archive, &id, 0);
        delete_shard(&handles, &archive, &id, 1);
        assert!(archive.repair_object(&id).is_err());
    }

    /// A placement slot the manifest records no digest for is unreadable
    /// (the fetch counts it corrupt), and repairing it is refused as a
    /// malformed record before any node is written — not "repaired" into
    /// a slot whose digest is then silently dropped.
    #[test]
    fn a_slot_without_a_recorded_digest_is_malformed_not_repaired() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive.ingest(b"five slots, four digests", "r").unwrap();
        archive.manifests.update(&id, |m| m.shard_digests.pop());
        let stored = |h: &MemoryNode| h.get(&ShardKey::new(id.as_str(), 4)).ok();
        let before: Vec<_> = handles.iter().map(stored).collect();
        match archive.repair_object(&id) {
            Err(ArchiveError::Policy(PolicyError::Malformed(why))) => {
                assert_eq!(why, "repair slot has no recorded digest");
            }
            other => panic!("expected a malformed record, got {other:?}"),
        }
        assert_eq!(handles.iter().map(stored).collect::<Vec<_>>(), before);
    }

    /// A framed record of zero chunks rebuilds nothing, so its repair
    /// would leave the missing slot unwritten, with nothing to compare
    /// that slot's re-read against. The record is malformed, and that is
    /// said before any node is written.
    #[test]
    fn a_repair_that_rebuilds_nothing_is_malformed() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive.ingest(b"no chunk to rebuild", "r").unwrap();
        let placement = archive.manifest(&id).unwrap().placement;
        for (s, node) in placement.iter().enumerate() {
            let node = handles.iter().find(|h| h.id() == *node).unwrap();
            node.put(&ShardKey::new(id.as_str(), s as u32), b"")
                .unwrap();
        }
        delete_shard(&handles, &archive, &id, 4);
        archive.manifests.update(&id, |m| {
            m.shard_digests = vec![aeon_crypto::Sha256::digest(b""); 5];
            m.meta.chunked = Some(crate::pipeline::ChunkedMeta {
                chunk_size: 1,
                chunk_metas: Vec::new(),
            });
        });
        let keys = |h: &MemoryNode| h.keys();
        let before: Vec<_> = handles.iter().map(keys).collect();
        match archive.repair_object(&id) {
            Err(ArchiveError::Policy(PolicyError::Malformed(why))) => {
                assert_eq!(why, "repair leaves a slot unwritten");
            }
            other => panic!("expected a malformed record, got {other:?}"),
        }
        assert_eq!(handles.iter().map(keys).collect::<Vec<_>>(), before);
    }

    /// A partial repair rebuilds the bytes the record hashes, so it
    /// checks them against the record instead of recording them. A lost
    /// slot whose recorded digest was altered rebuilds to bytes that
    /// differ from it: the repair is refused as an integrity violation
    /// and the record stays as it was, altered digest and all.
    #[test]
    fn a_rebuild_that_differs_from_the_record_is_refused() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive.ingest(b"rebuilt bytes must match", "r").unwrap();
        delete_shard(&handles, &archive, &id, 1);
        archive
            .manifests
            .update(&id, |m| m.shard_digests[1] = [0xAB; 32]);
        let before = format!("{:?}", archive.manifest(&id).unwrap());
        match archive.repair_object(&id) {
            Err(ArchiveError::IntegrityViolation(bad)) => assert_eq!(bad, id),
            other => panic!("expected an integrity violation, got {other:?}"),
        }
        assert_eq!(format!("{:?}", archive.manifest(&id).unwrap()), before);
    }

    #[test]
    fn repair_noop_when_healthy() {
        let (mut archive, _handles) =
            archive_with_handles(PolicyKind::Replication { copies: 2 }, 2);
        let id = archive.ingest(b"fine", "r").unwrap();
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::NotNeeded);
        let outcome = archive.repair_all().report();
        assert_eq!(outcome.repaired, 0);
        assert!(outcome.all_ok());
        assert_eq!(outcome.healthy, 1);
    }

    #[test]
    fn repair_all_sweeps_fleet() {
        let (mut archive, handles) =
            archive_with_handles(PolicyKind::ErasureCoded { data: 2, parity: 2 }, 4);
        let ids: Vec<_> = (0..3)
            .map(|i| archive.ingest(b"sweep", &format!("o{i}")).unwrap())
            .collect();
        delete_shard(&handles, &archive, &ids[0], 1);
        delete_shard(&handles, &archive, &ids[2], 0);
        let outcome = archive.repair_all().report();
        assert_eq!(outcome.repaired, 2);
        assert!(outcome.all_ok());
        assert_eq!(outcome.healthy, 1);
        for id in &ids {
            assert_eq!(archive.retrieve(id).unwrap(), b"sweep");
        }
    }

    /// A node that misbehaves once armed. A lying `put` stores the shard
    /// with its first byte flipped and still reports success. A rotting
    /// key serves its first read clean and flips a stored byte just
    /// before its second, so a repair's first fetch trusts the survivor
    /// and its re-read finds it changed.
    #[derive(Debug)]
    struct Misbehaving {
        inner: MemoryNode,
        lying_put: AtomicBool,
        /// The rotting key and how many times it has been read.
        rot: Mutex<Option<(ShardKey, u32)>>,
    }

    impl StorageNode for Misbehaving {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn site(&self) -> &str {
            self.inner.site()
        }
        fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
            if !self.lying_put.load(Ordering::SeqCst) {
                return self.inner.put(key, data);
            }
            let mut wrong = data.to_vec();
            wrong[0] ^= 1;
            self.inner.put(key, &wrong)
        }
        fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
            if let Some((rotting, reads)) = self.rot.lock().unwrap().as_mut() {
                if rotting == key {
                    *reads += 1;
                    if *reads == 2 {
                        let mut bytes = self.inner.get(key)?;
                        bytes[0] ^= 1;
                        self.inner.put(key, &bytes)?;
                    }
                }
            }
            self.inner.get(key)
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

    /// An archive over `n` fresh [`Misbehaving`] nodes, none armed.
    fn misbehaving_archive(policy: PolicyKind, n: usize) -> (Archive, Vec<Arc<Misbehaving>>) {
        let nodes: Vec<Arc<Misbehaving>> = (0..n as u32)
            .map(|i| {
                Arc::new(Misbehaving {
                    inner: MemoryNode::new(i, format!("site-{i}")),
                    lying_put: AtomicBool::new(false),
                    rot: Mutex::new(None),
                })
            })
            .collect();
        let cluster = Cluster::new(
            (nodes.iter())
                .map(|node| Arc::clone(node) as Arc<dyn StorageNode>)
                .collect(),
        );
        let archive = Archive::with_cluster(ArchiveConfig::new(policy), cluster).unwrap();
        (archive, nodes)
    }

    /// The node holding `id`'s shard `slot`.
    fn holder<'n>(
        nodes: &'n [Arc<Misbehaving>],
        archive: &Archive,
        id: &ObjectId,
        slot: usize,
    ) -> &'n Misbehaving {
        let node = archive.manifest(id).unwrap().placement[slot];
        nodes.iter().find(|n| n.id() == node).unwrap()
    }

    /// A node that stores a rebuilt shard wrongly but reports success
    /// leaves that slot missing after the repair, and `verify` agrees.
    #[test]
    fn reread_rejects_a_rebuilt_shard_stored_wrong() {
        let (mut archive, nodes) =
            misbehaving_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive
            .ingest(b"a rebuilt shard stored wrong", "r")
            .unwrap();
        let node = holder(&nodes, &archive, &id, 1);
        node.inner.delete(&ShardKey::new(id.as_str(), 1)).unwrap();
        node.lying_put.store(true, Ordering::SeqCst);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::PartialErasure);
        assert_eq!((report.missing_before, report.missing_after), (1, 1));
        let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert_eq!(health.shards_available, 4);
    }

    /// A survivor that changes between the repair's first fetch and its
    /// re-read is not what the repair holds: that slot is missing after.
    #[test]
    fn reread_rejects_a_survivor_rotted_since_the_fetch() {
        let (mut archive, nodes) =
            misbehaving_archive(PolicyKind::ErasureCoded { data: 3, parity: 2 }, 5);
        let id = archive
            .ingest(b"a survivor that rots mid-repair", "r")
            .unwrap();
        holder(&nodes, &archive, &id, 0)
            .inner
            .delete(&ShardKey::new(id.as_str(), 0))
            .unwrap();
        let rotting = ShardKey::new(id.as_str(), 2);
        *holder(&nodes, &archive, &id, 2).rot.lock().unwrap() = Some((rotting, 0));
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::PartialErasure);
        assert_eq!((report.missing_before, report.missing_after), (1, 1));
        let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert_eq!(health.shards_available, 4);
    }

    /// The full re-encode fallback re-reads by byte equality with the
    /// shards its write-back handed back: a node that lies about storing
    /// its new shard still shows as one slot missing.
    #[test]
    fn reread_after_an_lrss_reencode_reports_the_bad_slot() {
        let (mut archive, nodes) = misbehaving_archive(
            PolicyKind::LeakageResilientShamir {
                threshold: 2,
                shares: 4,
                source_len: 32,
            },
            4,
        );
        let id = archive
            .ingest(b"re-encoded under a lying put", "r")
            .unwrap();
        holder(&nodes, &archive, &id, 3)
            .inner
            .delete(&ShardKey::new(id.as_str(), 3))
            .unwrap();
        holder(&nodes, &archive, &id, 0)
            .lying_put
            .store(true, Ordering::SeqCst);
        let report = archive.repair_object(&id).unwrap();
        assert_eq!(report.method, RepairMethod::FullReencode);
        assert_eq!((report.missing_before, report.missing_after), (1, 1));
    }

    /// A shard digest is a segment-tree root with RFC 6962 domain tags,
    /// so a stored blob built from the tree's own hashes is no preimage
    /// of it: not the concatenated leaf digests (which a flat hash over
    /// the leaves would accept), not `0x01 ‖ left ‖ right` (which a tree
    /// with untagged leaves would accept). Either forgery on a
    /// multi-segment shard is counted corrupt by `verify` and rewritten
    /// by `repair_object`.
    #[test]
    fn a_preimage_built_from_the_tree_is_a_corrupt_shard() {
        use crate::plan::{tree_digests, SEGMENT};
        use aeon_integrity::merkle::{leaf_hash, node_hash};
        let shamir = PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        };
        let payload: Vec<u8> = (0..3 * SEGMENT + 100).map(|i| (i * 7 + 3) as u8).collect();
        let (mut archive, handles) = archive_with_handles(shamir, 5);
        let id = archive.ingest(&payload, "forged").unwrap();
        let manifest = archive.manifest(&id).unwrap();
        let key = ShardKey::new(id.as_str(), 1);
        let node = handles
            .iter()
            .find(|h| h.id() == manifest.placement[1])
            .unwrap();
        let shard = node.get(&key).unwrap();
        let leaves: Vec<[u8; 32]> = shard.chunks(SEGMENT).map(leaf_hash).collect();
        assert_eq!(leaves.len(), 4, "the shard spans four segments");
        let (left, right) = (
            node_hash(&leaves[0], &leaves[1]),
            node_hash(&leaves[2], &leaves[3]),
        );
        assert_eq!(manifest.shard_digests[1], node_hash(&left, &right));
        let concatenated: Vec<u8> = leaves.concat();
        let untagged: Vec<u8> = [&[0x01][..], &left, &right].concat();
        for forged in [concatenated, untagged] {
            assert_ne!(tree_digests(&[&forged])[0], manifest.shard_digests[1]);
            node.put(&key, &forged).unwrap();
            let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!((health.shards_available, health.intact), (4, true));
            let report = archive.repair_object(&id).unwrap();
            assert_eq!((report.missing_before, report.missing_after), (1, 0));
            assert_eq!(
                node.get(&key).unwrap(),
                shard,
                "the forged slot is rewritten"
            );
            let health = archive.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.shards_available, 5);
        }
    }
}
