//! Maintenance campaigns: proactive refresh, re-encode, emergency
//! re-wrap.
//!
//! These are the operations the paper prices in §3.2 — the work an
//! archive must keep doing for a century. Each follows the same shape:
//! fetch via a [`crate::plan::ReadPlan`], compute the replacement
//! bytes in the pure plan layer, write back through the
//! [`crate::executor::PlanExecutor`].

use crate::archive::{Archive, ArchiveError, ObjectId};
use crate::plan;
use crate::policy::PolicyKind;
use aeon_crypto::{Sha256, SuiteId};
use aeon_secretshare::proactive::ProtocolCost;
use aeon_store::clock::SimDuration;

/// Byte and virtual-time accounting from one object's re-encode, read
/// off the cluster's [`SimClock`](aeon_store::clock::SimClock) at the
/// phase boundaries (there is no parallel time accounting: the clock is
/// the only ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectReencode {
    /// Stored bytes fetched under the old encoding.
    pub bytes_read: u64,
    /// Stored bytes written under the new encoding.
    pub bytes_written: u64,
    /// Virtual time the read phase took (fetch + injected stalls +
    /// retry backoff; zero on clusters whose nodes charge nothing).
    pub read_time: SimDuration,
    /// Virtual time the write phase took (delete + write-back).
    pub write_time: SimDuration,
}

impl Archive {
    /// Runs one proactive-refresh epoch on a Shamir-encoded object:
    /// reads every share, applies a Herzberg refresh round, writes the
    /// re-randomized shares back. Returns the protocol communication
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`] for non-Shamir
    /// policies and cluster/share errors otherwise.
    pub fn refresh_object(&mut self, id: &ObjectId) -> Result<ProtocolCost, ArchiveError> {
        let manifest = self
            .manifests
            .get(id)
            .ok_or_else(|| ArchiveError::UnknownObject(id.clone()))?;
        if manifest.blocks.is_some() {
            return self.refresh_dedup_object(id, &manifest);
        }
        let PolicyKind::Shamir { threshold, .. } = manifest.policy else {
            return Err(ArchiveError::UnsupportedOperation(
                "proactive refresh requires the Shamir policy",
            ));
        };
        // The Herzberg round needs every shareholder's current share;
        // a corrupt share would poison the whole next epoch, so the
        // digest filter treats it as absent.
        let snap = self.fetch_shards(&manifest, "refresh");
        let mut stored: Vec<Vec<u8>> = Vec::with_capacity(snap.shards.len());
        for s in &snap.shards {
            let Some(bytes) = s else {
                return Err(ArchiveError::UnsupportedOperation(
                    "refresh requires all shareholders online",
                ));
            };
            stored.push(bytes.clone());
        }
        let (blobs, cost) = plan::plan_refresh(threshold, &manifest.meta, &mut self.rng, stored)?;
        let digests: Vec<[u8; 32]> = blobs.iter().map(|b| Sha256::digest(b.as_slice())).collect();
        let mut put_rng = self.op_rng("refresh", id.as_str());
        let outcome =
            self.executor()
                .write_shards(id.as_str(), &manifest.placement, &blobs, &mut put_rng);
        // Record the new epoch's digests unconditionally: any share
        // that failed to land is stale (previous epoch) and must be
        // filtered on read — `threshold` fresh shares still
        // reconstruct, so the object survives a degraded write.
        self.manifests
            .update(id, |entry| {
                entry.shard_digests = digests;
                entry.refresh_epochs += 1;
            })
            .expect("manifest exists");
        if outcome.written < threshold {
            return Err(ArchiveError::DegradedBeyondBudget {
                id: id.clone(),
                available: outcome.written,
                required: threshold,
                corrupt: 0,
            });
        }
        Ok(cost)
    }

    /// Re-encodes an object under a new policy (the unit of a
    /// re-encryption campaign), with per-phase byte and virtual-time
    /// accounting: the cluster clock is snapshotted at the read/write
    /// phase boundary, so throughput-charged clusters measure exactly
    /// the §3.2 read and write-back costs. The object's shards are
    /// fetched **once** — the same digest-filtered fetch is both the
    /// decode's data source and the campaign's bytes-read figure, so
    /// no accounting read double-charges the clock.
    ///
    /// # Errors
    ///
    /// Propagates retrieval and ingest errors.
    pub fn reencode_object(
        &mut self,
        id: &ObjectId,
        new_policy: PolicyKind,
    ) -> Result<ObjectReencode, ArchiveError> {
        new_policy.validate()?;
        if self
            .manifests
            .with(id, |m| m.blocks.is_some())
            .unwrap_or(false)
        {
            return self.reencode_dedup_object(id, new_policy);
        }
        let clock = self.cluster().clock().clone();
        let read_start = clock.now();
        let manifest = self
            .manifests
            .get(id)
            .ok_or_else(|| ArchiveError::UnknownObject(id.clone()))?;
        let snap = self.fetch_shards(&manifest, "retrieve");
        let payload = self.decode_manifest(&manifest, &snap)?;
        let bytes_read: u64 = snap.shards.iter().flatten().map(|s| s.len() as u64).sum();
        let write_start = clock.now();
        // Encode fresh under the new policy (through the chunked
        // pipeline, so campaigns inherit its parallelism).
        let write = plan::plan_write(
            &new_policy,
            &self.keys,
            &mut self.rng,
            id,
            &payload,
            &self.config.pipeline,
        )?;
        let bytes_written: u64 = write.shards.iter().map(|s| s.len() as u64).sum();
        let placement = self.executor().place(id.as_str(), write.shards.len())?;
        self.executor().delete(id.as_str(), &manifest.placement);
        let mut put_rng = self.op_rng("reencode", id.as_str());
        let outcome =
            self.executor()
                .write_shards(id.as_str(), &placement, &write.shards, &mut put_rng);
        self.manifests
            .update(id, |entry| {
                entry.policy = write.policy.clone();
                entry.meta = write.meta.clone();
                entry.placement = placement.clone();
                entry.shard_digests = write.shard_digests.clone();
            })
            .expect("manifest exists");
        if outcome.written < write.required {
            return Err(ArchiveError::DegradedBeyondBudget {
                id: id.clone(),
                available: outcome.written,
                required: write.required,
                corrupt: 0,
            });
        }
        Ok(ObjectReencode {
            bytes_read,
            bytes_written,
            read_time: write_start - read_start,
            write_time: clock.now() - write_start,
        })
    }

    /// Re-encodes every object under `new_policy`, returning total
    /// objects migrated and bytes (read, written) — the campaign the
    /// paper prices in §3.2.
    ///
    /// # Errors
    ///
    /// Propagates the first per-object failure.
    pub fn reencode_all(
        &mut self,
        new_policy: PolicyKind,
    ) -> Result<(usize, u64, u64), ArchiveError> {
        let ids: Vec<ObjectId> = self.manifests.ids();
        let mut read = 0u64;
        let mut written = 0u64;
        for id in &ids {
            let o = self.reencode_object(id, new_policy.clone())?;
            read += o.bytes_read;
            written += o.bytes_written;
        }
        Ok((ids.len(), read, written))
    }

    /// Adds an outer cascade layer to a Cascade-encoded object *without
    /// decrypting the inner layers* — ArchiveSafeLT's emergency re-wrap.
    /// The shards are read, the layered ciphertext is rebuilt from the
    /// erasure code, one more AEAD layer is applied, and the result is
    /// re-dispersed. Unlike [`Archive::reencode_object`], no plaintext and
    /// no inner-layer keys are touched.
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
        let manifest = self
            .manifests
            .get(id)
            .ok_or_else(|| ArchiveError::UnknownObject(id.clone()))?;
        // A dedup object's layers live per-block and blocks are shared:
        // wrapping one object's blocks would silently re-wrap every
        // object referencing them. Campaigns handle this case.
        if manifest.blocks.is_some() {
            return Err(ArchiveError::UnsupportedOperation(
                "re-wrap of dedup objects is not supported; run a re-encode campaign instead",
            ));
        }
        // Reject non-layered policies before touching any node.
        if manifest
            .policy
            .codec()
            .rewrapped_policy(new_suite)
            .is_none()
        {
            return Err(ArchiveError::UnsupportedOperation(
                "re-wrap requires the Cascade policy",
            ));
        }
        let snap = self.fetch_shards(&manifest, "rewrap");
        let (new_shards, new_policy) =
            plan::plan_rewrap(&manifest, &self.keys, &snap.shards, new_suite)?;
        let shard_digests: Vec<[u8; 32]> = new_shards
            .iter()
            .map(|s| Sha256::digest(s.as_slice()))
            .collect();
        let required = new_policy.read_threshold();
        let mut put_rng = self.op_rng("rewrap", id.as_str());
        let outcome = self.executor().write_shards(
            id.as_str(),
            &manifest.placement,
            &new_shards,
            &mut put_rng,
        );
        self.manifests
            .update(id, |entry| {
                entry.policy = new_policy;
                // Shards that missed the rewrap hold the old layering;
                // the new digests make reads treat them as stale until
                // repaired.
                entry.shard_digests = shard_digests;
            })
            .expect("manifest exists");
        if outcome.written < required {
            return Err(ArchiveError::DegradedBeyondBudget {
                id: id.clone(),
                available: outcome.written,
                required,
                corrupt: 0,
            });
        }
        Ok(())
    }
}
