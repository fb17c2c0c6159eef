//! Maintenance campaigns: proactive refresh, re-encode, emergency
//! re-wrap.
//!
//! These are the operations the paper prices in §3.2 — the work an
//! archive must keep doing for a century. Each follows the same shape:
//! fetch via a [`crate::plan::ReadPlan`], compute the replacement
//! bytes in the pure plan layer, write back through the
//! [`crate::executor::PlanExecutor`] — written once, against a stored
//! unit (`unit.rs`: a classic object or a dedup block, loaded as a
//! manifest). The public `*_object` entry points fold that body over
//! the units behind an object and hold the rules that exist only
//! because blocks are shared (which blocks to skip).

use crate::archive::{
    count_bytes, entropy_gate, gates, Archive, ArchiveError, Manifest, ObjectId, UnitRead,
};
use crate::campaign::{Campaign, CampaignOp, CampaignReport};
use crate::executor::WriteMode;
use crate::plan;
use crate::policy::PolicyKind;
use crate::unit::Unit;
use aeon_cas::BlockHash;
use aeon_crypto::SuiteId;
use aeon_secretshare::proactive::ProtocolCost;
use aeon_store::clock::SimDuration;
use aeon_store::node::Blob;
use std::collections::HashMap;

/// Byte and virtual-time accounting from one object's re-encode, read
/// off the cluster's [`SimClock`](aeon_store::clock::SimClock) at the
/// phase boundaries (there is no parallel time accounting: the clock is
/// the only ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectReencode {
    /// Stored bytes fetched under the old encoding: every shard the
    /// fetch returned, a corrupt one included (the read discards it only
    /// after fetching it).
    pub bytes_read: u64,
    /// Stored bytes written under the new encoding.
    pub bytes_written: u64,
    /// Virtual time the read phase took (fetch + injected stalls +
    /// retry backoff; zero on clusters whose nodes charge nothing).
    pub read_time: SimDuration,
    /// Virtual time the write phase took (delete + write-back).
    pub write_time: SimDuration,
}

/// One unit's re-encode between its read and its write: the record as
/// loaded, the stored bytes its fetch returned (the campaign's bytes
/// read), the verified payload, and how long the read took.
pub(crate) struct Decoded {
    pub(crate) record: Manifest,
    pub(crate) bytes_read: u64,
    pub(crate) payload: Vec<u8>,
    pub(crate) read_time: SimDuration,
}

/// What a write-back reports: a share of each blob it wrote, or `Err`,
/// the shortfall of a unit stored with fewer landed shards than its
/// policy reads from.
type Landed = Result<Vec<Blob>, ArchiveError>;

impl Archive {
    /// Runs one proactive-refresh epoch on a Shamir-encoded object:
    /// reads every share of every stored unit behind it, applies a
    /// Herzberg refresh round, writes the re-randomized shares back.
    /// Returns the protocol communication cost. A dedup block shared by
    /// several objects is re-randomized once per referencing object's
    /// call; extra epochs are harmless (each is an independent
    /// zero-sharing).
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`] for non-Shamir
    /// policies and cluster/share errors otherwise.
    pub fn refresh_object(&mut self, id: &ObjectId) -> Result<ProtocolCost, ArchiveError> {
        let (policy, units) = self.row(id).map(|m| (m.policy.clone(), self.units_of(m)))?;
        if !matches!(policy, PolicyKind::Shamir { .. }) {
            return Err(ArchiveError::UnsupportedOperation(
                "proactive refresh requires the Shamir policy",
            ));
        }
        let mut total = ProtocolCost::default();
        let mut replaced = false;
        let outcome = units.iter().try_for_each(|unit| {
            let Some((cost, landed)) = self.refresh_unit(id, unit)? else {
                return Ok(());
            };
            replaced = true;
            total.add(cost);
            landed.map(drop)
        });
        // The epoch advances whenever digests were replaced, even when
        // the write-back then fell short: the old epoch's shares are
        // stale either way.
        if replaced {
            self.manifests.update(id, |m| m.refresh_epochs += 1);
        }
        outcome.map(|()| total)
    }

    /// One Herzberg epoch on one unit, on behalf of `owner`: the
    /// protocol cost and whether enough fresh shares landed, or `None`
    /// for a unit not on Shamir — a block a half-finished campaign
    /// already moved off it. An `Err` is raised before any digest is
    /// replaced.
    fn refresh_unit(
        &mut self,
        owner: &ObjectId,
        unit: &Unit,
    ) -> Result<Option<(ProtocolCost, Landed)>, ArchiveError> {
        let record = self.load(unit)?;
        let PolicyKind::Shamir { threshold, .. } = record.policy else {
            return Ok(None);
        };
        let [fetch, put] = unit.labels().refresh;
        // The Herzberg round needs every shareholder's current share;
        // a corrupt share would poison the whole next epoch, so the
        // digest filter treats it as absent.
        let snap = self.fetch_shards(&record, fetch);
        let (blobs, cost) = plan::plan_refresh(&record, threshold, &mut self.rng, &snap.shards)?;
        // Any share that fails to land is stale (previous epoch) and is
        // filtered on read — `threshold` fresh shares still reconstruct,
        // so the unit survives a degraded write.
        let landed = self.write_back(owner, unit, record, blobs, put);
        Ok(Some((cost, landed)))
    }

    /// Re-encodes an object under a new policy (the unit of a
    /// re-encryption campaign), with per-phase byte and virtual-time
    /// accounting: the cluster clock is snapshotted at the read/write
    /// phase boundary, so throughput-charged clusters measure exactly
    /// the §3.2 read and write-back costs. Each unit's shards are
    /// fetched **once**, through the one decode read (`read_units`, the
    /// read behind [`Archive::retrieve`]): the unit
    /// decodes from its first `k` present shards unhashed and its payload
    /// digest decides, because the old shards are deleted once the new
    /// ones are written. Only a failed decode digest-filters the shards
    /// already fetched and decodes again, failing as a scrub would. The
    /// same fetch is the campaign's bytes read: every stored byte it
    /// returned, so on a unit with a corrupt shard the figure counts that
    /// shard too. No accounting read double-charges the clock.
    ///
    /// A classic object always re-encodes, with fresh randomness (key
    /// rotation and repair's full-re-encode fallback depend on it). A
    /// dedup block already on `new_policy` — an earlier object's
    /// campaign step moved it — is skipped: a block shared by many
    /// objects migrates **once**, the §3.2 saving `aeon-exp dedup` measures.
    ///
    /// # Errors
    ///
    /// Propagates retrieval and ingest errors; onto
    /// [`PolicyKind::Entropic`], an object whose payload fails ingest's
    /// entropy gate is [`ArchiveError::LowEntropy`]. A dedup object's
    /// payload is gated as its leaf occurrences spell it, one byte
    /// histogram summed over them (tree blocks are hash lists, not
    /// payload); a leaf already on `new_policy` is not read again and
    /// not counted. Every unit is read and the payload gated before the
    /// first old placement is deleted, so a refused re-encode moves
    /// nothing: every unit keeps its old record and shards.
    pub fn reencode_object(
        &mut self,
        id: &ObjectId,
        new_policy: PolicyKind,
    ) -> Result<ObjectReencode, ArchiveError> {
        new_policy.validate()?;
        let units = self.units_of(self.row(id)?);
        // A dedup block already on `new_policy` stays where it is.
        let moves = |a: &Archive, unit: &Unit| {
            let migrated = a
                .manifests
                .record(unit)
                .is_some_and(|r| r.policy == new_policy);
            !(matches!(unit, Unit::Block(_)) && migrated)
        };
        let mut total = ObjectReencode {
            bytes_read: 0,
            bytes_written: 0,
            read_time: SimDuration::ZERO,
            write_time: SimDuration::ZERO,
        };
        let mut add = |o: ObjectReencode| {
            total.bytes_read += o.bytes_read;
            total.bytes_written += o.bytes_written;
            total.read_time += o.read_time;
            total.write_time += o.write_time;
        };
        if gates(&new_policy) {
            // Held decoded until every unit has passed the gate.
            let read: Vec<(&Unit, Decoded)> = units
                .iter()
                .filter(|unit| moves(self, unit))
                .map(|unit| Ok((unit, self.reencode_read(id, unit)?)))
                .collect::<Result<_, ArchiveError>>()?;
            entropy_gate(&new_policy, &self.payload_counts(id, &read)?)?;
            for (unit, read) in read {
                add(self.reencode_write(id, unit, read, &new_policy)?.0);
            }
        } else {
            for unit in &units {
                if moves(self, unit) {
                    let read = self.reencode_read(id, unit)?;
                    add(self.reencode_write(id, unit, read, &new_policy)?.0);
                }
            }
        }
        self.manifests.update(id, |m| m.policy = new_policy);
        Ok(total)
    }

    /// The read half of a unit's re-encode: its record and its payload
    /// through the one decode read [`Archive::read_units`]. Nothing is
    /// written.
    fn reencode_read(&self, owner: &ObjectId, unit: &Unit) -> Result<Decoded, ArchiveError> {
        let start = self.cluster().clock().now();
        let record = self.load(unit)?;
        let mut read = self.read_units(&[(owner, unit)])?;
        let UnitRead {
            payload, fetched, ..
        } = read.pop().expect("one read per unit")?;
        Ok(Decoded {
            record,
            bytes_read: fetched,
            payload,
            read_time: self.cluster().clock().now() - start,
        })
    }

    /// The byte histogram of the payload `read` spells for object `id`:
    /// a classic object's one unit counted once, a dedup block once per
    /// occurrence among the row's leaves — a tree block is no leaf and
    /// counts nothing — so no payload is joined to be gated.
    fn payload_counts(
        &self,
        id: &ObjectId,
        read: &[(&Unit, Decoded)],
    ) -> Result<[u64; 256], ArchiveError> {
        let mut occurrences: HashMap<&BlockHash, u64> = HashMap::new();
        for leaf in self.row(id)?.blocks.iter().flat_map(|d| &d.blocks) {
            *occurrences.entry(leaf).or_default() += 1;
        }
        let mut counts = [0; 256];
        for (unit, decoded) in read {
            let times = match unit {
                Unit::Object(_) => 1,
                Unit::Block(hash) => occurrences.get(hash).copied().unwrap_or(0),
            };
            count_bytes(&mut counts, &decoded.payload, times);
        }
        Ok(counts)
    }

    /// The write half of a unit's re-encode and of repair's fallback:
    /// encodes the decoded payload under `new_policy`, deletes the old
    /// placement and writes the new shards back, handing back a share.
    pub(crate) fn reencode_write(
        &mut self,
        owner: &ObjectId,
        unit: &Unit,
        read: Decoded,
        new_policy: &PolicyKind,
    ) -> Result<(ObjectReencode, Vec<Blob>), ArchiveError> {
        let clock = self.cluster().clock().clone();
        let write_start = clock.now();
        let Decoded {
            mut record,
            bytes_read,
            payload,
            read_time,
        } = read;
        let write = self.plan_unit_write(unit, new_policy, &record.id, &payload)?;
        let bytes_written: u64 = write.shards.iter().map(|s| s.len() as u64).sum();
        let ctx = record.id.as_str();
        let placement = self.executor().place(ctx, write.shards.len())?;
        self.executor().delete(ctx, &record.placement);
        (record.policy, record.meta, record.placement) = (write.policy, write.meta, placement);
        let put = unit.labels().reencode;
        let written = self.write_back(owner, unit, record, write.shards, put)?;
        let reencoded = ObjectReencode {
            bytes_read,
            bytes_written,
            read_time,
            write_time: clock.now() - write_start,
        };
        Ok((reencoded, written))
    }

    /// Re-encodes every object under `new_policy` — the campaign the
    /// paper prices in §3.2, as a [`Campaign`] with nothing reserved.
    ///
    /// # Errors
    ///
    /// Propagates the first per-object failure.
    pub fn reencode_all(&mut self, new_policy: PolicyKind) -> Result<CampaignReport, ArchiveError> {
        Campaign::new(self, CampaignOp::Reencode(new_policy), 0.0).run(self, u64::MAX)
    }

    /// Adds an outer cascade layer to a Cascade-encoded object *without
    /// decrypting the inner layers* — ArchiveSafeLT's emergency re-wrap.
    /// The shards are read, the layered ciphertext is rebuilt from the
    /// erasure code, one more AEAD layer is applied, and the result is
    /// re-dispersed. Unlike [`Archive::reencode_object`], no plaintext and
    /// no inner-layer keys are touched.
    ///
    /// Only units still on the object's recorded policy are wrapped, so
    /// a dedup block shared with a neighbour whose re-wrap already
    /// deepened it gains exactly one layer, not one per referencer.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`] for non-Cascade
    /// objects, and shard/crypto errors otherwise.
    pub fn add_cascade_layer(
        &mut self,
        id: &ObjectId,
        new_suite: SuiteId,
    ) -> Result<(), ArchiveError> {
        let (policy, units) = self.row(id).map(|m| (m.policy.clone(), self.units_of(m)))?;
        // Reject non-layered policies before touching any node.
        let deepened = plan::rewrapped_policy(&policy, new_suite)?;
        for unit in &units {
            self.rewrap_unit(id, unit, &policy, new_suite)?;
        }
        self.manifests.update(id, |m| m.policy = deepened);
        Ok(())
    }

    /// Wraps one unit in one more layer if it is still on `from`, on
    /// behalf of `owner` (the object failures are typed against).
    fn rewrap_unit(
        &mut self,
        owner: &ObjectId,
        unit: &Unit,
        from: &PolicyKind,
        new_suite: SuiteId,
    ) -> Result<(), ArchiveError> {
        let mut record = self.load(unit)?;
        if record.policy != *from {
            return Ok(());
        }
        let [fetch, put] = unit.labels().rewrap;
        let snap = self.fetch_shards(&record, fetch);
        let (new_shards, new_policy) =
            plan::plan_rewrap(&record, &self.keys, &snap.shards, new_suite)?;
        // Shards that miss the rewrap hold the old layering; the new
        // digests make reads treat them as stale until repaired.
        record.policy = new_policy;
        self.write_back(owner, unit, record, new_shards, put)
            .map(drop)
    }

    /// The one write-back of refresh, re-wrap and re-encode: overwrites
    /// `record`'s placement with `shards`, handed over by value (retry
    /// jitter from the `put` label's per-unit rng), records the shard
    /// digests the write took, and stores `record` to `unit`'s home
    /// whether or not every shard landed, since a shard that missed the
    /// retry budget holds stale bytes the new digests filter on read.
    /// Then fails, typed against `owner`, if fewer shards landed than
    /// the record's policy reads from; or hands back the blobs' shares.
    fn write_back(
        &mut self,
        owner: &ObjectId,
        unit: &Unit,
        mut record: Manifest,
        shards: Vec<Vec<u8>>,
        put: &str,
    ) -> Landed {
        let ctx = record.id.as_str();
        let slots = shards.into_iter().map(Blob::from).enumerate().collect();
        let units = [(ctx, &record.placement[..], WriteMode::Overwrite, slots)];
        let rngs = &mut [self.op_rng(put, ctx)];
        let written = self.executor().write_units(&units, rngs).pop();
        let written = written.expect("one result per unit");
        let [(.., slots)] = units;
        let blobs = slots.into_iter().map(|(_, blob)| blob).collect();
        record.shard_digests = written.digests;
        let required = record.policy.read_threshold();
        self.store(unit, record);
        if written.outcome.written < required {
            let available = written.outcome.written;
            return Err(ArchiveError::degraded(owner.clone(), available, required));
        }
        Ok(blobs)
    }
}
