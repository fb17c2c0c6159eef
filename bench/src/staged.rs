//! The traced run's engine: each archive operation replayed as the
//! staged composition of the public calls it is made of, with a span
//! around each.
//!
//! `Archive::ingest` and friends are single opaque calls from outside
//! the program. The same work is available piecewise through public
//! functions — `plan::plan_write`, `PlanExecutor::{place, commit_write,
//! commit_many, read, read_many, apply_repair, write_shards, delete}`,
//! `pipeline::decode_object`, `plan::plan_repair`, `FleetCatalog`,
//! `DocumentChain::create` — and this engine calls them in the order the
//! archive does, drawing the same DRBG streams, so it stores the same
//! bytes and charges the same virtual time (the traced run checks
//! both). Dedup archives cannot be staged this way: `ingest_dedup` and
//! the tree walk are private, so `dedup-versions` keeps the real
//! `Archive` behind its op spans.

use crate::gen::Object;
use crate::lifecycle::Engine;
use crate::trace::in_span;
use crate::workload::{Workload, ARCHIVE_SEED};
use aeon_core::keys::KeyStore;
use aeon_core::pipeline::decode_object;
use aeon_core::plan::{plan_repair, plan_write, RepairOutcome};
use aeon_core::{
    FleetCatalog, IntegrityMode, Manifest, ObjectId, PlanExecutor, PolicyKind, ReadPlan,
    RetryPolicy, ShardsSnapshot, TransferReport, WritePlan, DEFAULT_CATALOG_SHARDS,
};
use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::ledger::Ledger;
use aeon_integrity::timestamp::AnchorMode;
use aeon_integrity::{DocumentChain, TimestampAuthority};
use aeon_num::pedersen::Committer;
use aeon_num::ModpGroup;
use aeon_store::node::NodeId;
use aeon_store::Cluster;

/// `ArchiveConfig::new`'s calendar year and master key, which the
/// benchmark leaves at their defaults.
const YEAR: u32 = 2026;
const MASTER_KEY: [u8; 32] = [0x42; 32];

pub struct StagedEngine<'a> {
    w: &'a Workload,
    cluster: Cluster,
    retry: RetryPolicy,
    keys: KeyStore,
    rng: ChaChaDrbg,
    tsa: TimestampAuthority,
    committer: Committer,
    ledger: Ledger,
    chains: Vec<DocumentChain>,
    catalog: FleetCatalog,
    /// Ids a real archive handed out for the same names in the same
    /// order (`ObjectId` has no public constructor).
    ids: Vec<ObjectId>,
    next_id: usize,
    /// Node attempts made and shard slots addressed, from every
    /// `TransferReport` the executor returned.
    pub attempts: u64,
    pub shard_slots: u64,
}

fn stored_len(shards: &[Vec<u8>]) -> u64 {
    shards.iter().map(|s| s.len() as u64).sum()
}

fn snapshot_len(snap: &ShardsSnapshot) -> u64 {
    snap.shards.iter().flatten().map(|s| s.len() as u64).sum()
}

impl<'a> StagedEngine<'a> {
    pub fn new(w: &'a Workload, cluster: Cluster, ids: Vec<ObjectId>) -> Self {
        let mut rng = ChaChaDrbg::from_u64_seed(ARCHIVE_SEED);
        let tsa = TimestampAuthority::new(&mut rng, "wots-v1", YEAR, 6);
        StagedEngine {
            w,
            // `Archive::with_cluster` applies the configured dispatch.
            cluster: cluster.with_dispatch(w.dispatch),
            retry: RetryPolicy::default(),
            keys: KeyStore::new(MASTER_KEY),
            rng,
            tsa,
            committer: Committer::new(ModpGroup::rfc3526_2048()),
            ledger: Ledger::new(1),
            chains: Vec::new(),
            catalog: FleetCatalog::new(DEFAULT_CATALOG_SHARDS),
            ids,
            next_id: 0,
            attempts: 0,
            shard_slots: 0,
        }
    }

    /// The archive's per-operation retry-jitter stream.
    fn op_rng(label: &str, id: &ObjectId) -> ChaChaDrbg {
        let mut h = Sha256::new();
        h.update(&ARCHIVE_SEED.to_le_bytes());
        h.update(label.as_bytes());
        h.update(id.as_str().as_bytes());
        ChaChaDrbg::from_seed(h.finalize())
    }

    fn count(&mut self, report: &TransferReport) {
        self.attempts += u64::from(report.total_attempts());
        self.shard_slots += report.attempts.len() as u64;
    }

    fn anchor(&mut self, payload: &[u8]) -> Result<(), String> {
        if self.w.integrity == IntegrityMode::DigestOnly {
            return Ok(());
        }
        in_span("integrity.anchor", payload.len() as u64, || {
            if self.tsa.remaining() == 0 {
                let scheme = format!("{}+", self.tsa.scheme());
                self.tsa.rotate(&mut self.rng, &scheme, 6);
            }
            let chain = DocumentChain::create(
                &mut self.rng,
                &mut self.tsa,
                &self.committer,
                AnchorMode::HashDigest,
                payload,
            )
            .map_err(|e| e.to_string())?;
            self.ledger.append(YEAR, chain.anchor().to_vec());
            self.chains.push(chain);
            Ok(())
        })
    }

    fn read(&mut self, manifest: &Manifest, label: &str) -> ShardsSnapshot {
        let executor = PlanExecutor::new(&self.cluster, &self.retry);
        let span = crate::trace::span("core.executor.read", 0);
        let snap = executor.read(
            &ReadPlan::for_manifest(manifest),
            &mut Self::op_rng(label, &manifest.id),
        );
        span.set_bytes(snapshot_len(&snap));
        drop(span);
        self.count(&snap.report);
        snap
    }

    fn manifest(&self, id: &ObjectId) -> Result<Manifest, String> {
        in_span("core.catalog", 0, || self.catalog.get(id))
            .ok_or_else(|| format!("unknown object {id}"))
    }

    /// The shared decode tail of every read: threshold, decode, digest.
    fn finish_retrieve(
        &self,
        manifest: &Manifest,
        snap: &ShardsSnapshot,
    ) -> Result<Vec<u8>, String> {
        if snap.valid < manifest.policy.read_threshold() {
            return Err(format!("only {} valid shards", snap.valid));
        }
        let payload = in_span("core.pipeline.decode", manifest.logical_len as u64, || {
            decode_object(
                &manifest.policy,
                &self.keys,
                manifest.id.as_str(),
                &snap.shards,
                &manifest.meta,
                self.w.pipeline_workers,
            )
        })
        .map_err(|e| e.to_string())?;
        let digest = in_span("crypto.sha256", payload.len() as u64, || {
            Sha256::digest(&payload)
        });
        if digest != manifest.digest {
            return Err("payload digest mismatch".into());
        }
        Ok(payload)
    }

    fn plan_write(
        &mut self,
        policy: &PolicyKind,
        id: &ObjectId,
        payload: &[u8],
    ) -> Result<WritePlan, String> {
        in_span("core.plan.write", payload.len() as u64, || {
            plan_write(
                policy,
                &self.keys,
                &mut self.rng,
                id,
                payload,
                &self.w.pipeline(),
            )
        })
        .map_err(|e| e.to_string())
    }
}

impl Engine for StagedEngine<'_> {
    fn ingest(&mut self, items: &[&Object]) -> Result<Vec<ObjectId>, String> {
        let policy = self.w.policy.clone();
        let ids: Vec<ObjectId> = self.ids[self.next_id..self.next_id + items.len()].to_vec();
        self.next_id += items.len();
        let mut plans = Vec::with_capacity(items.len());
        let mut placements: Vec<Vec<NodeId>> = Vec::with_capacity(items.len());
        let mut digests = Vec::with_capacity(items.len());
        for (item, id) in items.iter().zip(&ids) {
            let write = self.plan_write(&policy, id, &item.payload)?;
            placements.push(
                PlanExecutor::new(&self.cluster, &self.retry)
                    .place(id.as_str(), write.shards.len())
                    .map_err(|e| e.to_string())?,
            );
            plans.push(write);
            digests.push(in_span("crypto.sha256", item.payload.len() as u64, || {
                Sha256::digest(&item.payload)
            }));
            self.anchor(&item.payload)?;
        }
        let mut rngs: Vec<ChaChaDrbg> = ids.iter().map(|id| Self::op_rng("ingest", id)).collect();
        let bytes = plans.iter().map(|p| stored_len(&p.shards)).sum();
        let executor = PlanExecutor::new(&self.cluster, &self.retry);
        let outcomes = in_span("core.executor.commit", bytes, || {
            if self.w.batch == 1 {
                vec![executor.commit_write(&plans[0], &placements[0], &mut rngs[0])]
            } else {
                executor.commit_many(&plans, &placements, &mut rngs)
            }
        });
        for (((write, placement), (item, id)), (digest, outcome)) in plans
            .into_iter()
            .zip(placements)
            .zip(items.iter().zip(&ids))
            .zip(digests.into_iter().zip(outcomes))
        {
            let outcome = outcome.map_err(|o| format!("only {} shards landed", o.written))?;
            self.count(&outcome.report);
            let manifest = Manifest {
                id: id.clone(),
                name: item.name.clone(),
                policy: policy.clone(),
                meta: write.meta,
                placement,
                logical_len: item.payload.len(),
                digest,
                shard_digests: write.shard_digests,
                created_year: YEAR,
                refresh_epochs: 0,
                blocks: None,
            };
            in_span("core.catalog", 0, || {
                self.catalog.insert(id.clone(), manifest)
            });
        }
        Ok(ids)
    }

    fn retrieve(&mut self, ids: &[ObjectId]) -> Vec<Result<Vec<u8>, String>> {
        if self.w.batch == 1 {
            return ids
                .iter()
                .map(|id| {
                    let manifest = self.manifest(id)?;
                    let snap = self.read(&manifest, "retrieve");
                    self.finish_retrieve(&manifest, &snap)
                })
                .collect();
        }
        let manifests: Vec<Manifest> = match ids.iter().map(|id| self.manifest(id)).collect() {
            Ok(m) => m,
            Err(e) => return ids.iter().map(|_| Err(e.clone())).collect(),
        };
        let plans: Vec<ReadPlan> = manifests.iter().map(ReadPlan::for_manifest).collect();
        let mut rngs: Vec<ChaChaDrbg> = ids.iter().map(|id| Self::op_rng("retrieve", id)).collect();
        let span = crate::trace::span("core.executor.read", 0);
        let snaps = PlanExecutor::new(&self.cluster, &self.retry).read_many(&plans, &mut rngs);
        span.set_bytes(snaps.iter().map(snapshot_len).sum());
        drop(span);
        manifests
            .iter()
            .zip(&snaps)
            .map(|(manifest, snap)| {
                self.count(&snap.report);
                self.finish_retrieve(manifest, snap)
            })
            .collect()
    }

    fn repair(&mut self, id: &ObjectId) -> Result<(), String> {
        let manifest = self.manifest(id)?;
        let shards = self.read(&manifest, "repair").shards;
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        let outcome = in_span("core.plan.repair", manifest.logical_len as u64, || {
            plan_repair(&manifest, &shards, &missing)
        })
        .map_err(|e| e.to_string())?;
        let RepairOutcome::Apply(repair) = outcome else {
            return Err("policy has no partial repair".into());
        };
        let bytes = repair.writes.iter().map(|(_, d)| d.len() as u64).sum();
        let digests = in_span("core.executor.commit", bytes, || {
            PlanExecutor::new(&self.cluster, &self.retry).apply_repair(
                id.as_str(),
                &manifest.placement,
                &repair.writes,
                &mut Self::op_rng("repair-put", id),
            )
        })
        .map_err(|e| e.to_string())?;
        self.attempts += digests.len() as u64;
        self.shard_slots += digests.len() as u64;
        in_span("core.catalog", 0, || {
            self.catalog.update(id, |m| {
                for (slot, digest) in digests {
                    m.shard_digests[slot] = digest;
                }
            })
        });
        let manifest = self.manifest(id)?;
        let after = self.read(&manifest, "repair-after");
        match after.shards.len() - after.valid {
            0 => Ok(()),
            n => Err(format!("{n} shards still missing")),
        }
    }

    fn reencode(&mut self, id: &ObjectId, policy: &PolicyKind) -> Result<(), String> {
        let manifest = self.manifest(id)?;
        let snap = self.read(&manifest, "retrieve");
        let payload = self.finish_retrieve(&manifest, &snap)?;
        let write = self.plan_write(policy, id, &payload)?;
        let executor = PlanExecutor::new(&self.cluster, &self.retry);
        let placement = executor
            .place(id.as_str(), write.shards.len())
            .map_err(|e| e.to_string())?;
        let outcome = in_span("core.executor.commit", stored_len(&write.shards), || {
            executor.delete(id.as_str(), &manifest.placement);
            executor.write_shards(
                id.as_str(),
                &placement,
                &write.shards,
                &mut Self::op_rng("reencode", id),
            )
        });
        self.count(&outcome.report);
        if outcome.written < write.required {
            return Err(format!("only {} shards landed", outcome.written));
        }
        in_span("core.catalog", 0, || {
            self.catalog.update(id, |m| {
                m.policy = write.policy;
                m.meta = write.meta;
                m.placement = placement;
                m.shard_digests = write.shard_digests;
            })
        });
        Ok(())
    }

    fn policy_of(&self, id: &ObjectId) -> Option<PolicyKind> {
        self.catalog.with(id, |m| m.policy.clone())
    }
}
