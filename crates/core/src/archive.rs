//! The archive: policy-driven ingest, retrieval, verification,
//! maintenance.

use crate::catalog::{FleetCatalog, Row, DEFAULT_CATALOG_SHARDS};
use crate::codec::RepairError;
use crate::dedup::{BlockRecord, DedupConfig, DedupManifest};
use crate::executor::{PlanExecutor, ShardsSnapshot};
use crate::keys::KeyStore;
use crate::pipeline::{self, PipelineConfig};
use crate::plan::{self, ReadPlan, WritePlan};
use crate::policy::{EncodingMeta, PolicyError, PolicyKind};
use crate::unit::{Unit, BLOCK, OBJECT};
use aeon_cas::BoundedIndex;
use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::ledger::Ledger;
use aeon_integrity::timestamp::{AnchorMode, DocumentChain, SigBreakSchedule, TimestampAuthority};
use aeon_num::pedersen::Committer;
use aeon_num::ModpGroup;
use aeon_store::cluster::{ClusterError, TransferReport};
use aeon_store::node::NodeId;
use aeon_store::retry::RetryPolicy;
use aeon_store::{Cluster, DispatchPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifies an archived object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(String);

impl ObjectId {
    /// The identifier as a string (hex digest).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Wraps a raw identifier string. Block and root contexts in dedup
    /// mode are ids in their own right (`blk-<hex>`, `root-<hex>`).
    pub(crate) fn from_raw(raw: String) -> Self {
        ObjectId(raw)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// How ingests are anchored for long-term integrity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No timestamping (digest check only).
    DigestOnly,
    /// Hash-anchored renewable timestamp chain.
    HashChain,
    /// Pedersen-anchored (information-theoretically hiding) chain —
    /// the LINCOS construction.
    PedersenChain,
}

/// Archive configuration.
#[derive(Clone)]
pub struct ArchiveConfig {
    /// Default encoding policy for ingested objects.
    pub policy: PolicyKind,
    /// Site names for the simulated cluster.
    pub sites: Vec<String>,
    /// Nodes per site.
    pub nodes_per_site: usize,
    /// Simulated calendar year at creation.
    pub year: u32,
    /// Master key (version 0).
    pub master_key: [u8; 32],
    /// Seed for the archive's deterministic RNG.
    pub rng_seed: u64,
    /// Integrity anchoring mode.
    pub integrity: IntegrityMode,
    /// Chunked-pipeline tuning (chunk size, worker threads).
    pub pipeline: PipelineConfig,
    /// Bounded-retry policy for node I/O (reads, ingest writes,
    /// repairs). Backoff is simulated; jitter is drawn from a DRBG
    /// derived from `rng_seed`, so runs replay identically.
    pub retry: RetryPolicy,
    /// Content-addressed dedup mode: `Some` makes ingest chunk payloads
    /// with a content-defined chunker, store each distinct block once,
    /// and record objects as Merkle block trees. `None` (the default)
    /// keeps the classic one-object-one-shard-set layout.
    pub dedup: Option<DedupConfig>,
    /// How the cluster prices the per-node legs of every shard
    /// fan-out. `None` (the default) keeps whatever the cluster was
    /// built with — sequential dispatch unless the
    /// `AEON_FORCE_DISPATCH` environment override is set. `Some`
    /// overrides the cluster, including one supplied to
    /// [`Archive::with_cluster`].
    pub dispatch: Option<DispatchPolicy>,
}

/// Every field but the master key, so a configuration can be logged.
impl std::fmt::Debug for ArchiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ArchiveConfig {
            policy,
            sites,
            nodes_per_site,
            year,
            master_key: _,
            rng_seed,
            integrity,
            pipeline,
            retry,
            dedup,
            dispatch,
        } = self;
        f.debug_struct("ArchiveConfig")
            .field("policy", policy)
            .field("sites", sites)
            .field("nodes_per_site", nodes_per_site)
            .field("year", year)
            .field("rng_seed", rng_seed)
            .field("integrity", integrity)
            .field("pipeline", pipeline)
            .field("retry", retry)
            .field("dedup", dedup)
            .field("dispatch", dispatch)
            .finish_non_exhaustive()
    }
}

impl ArchiveConfig {
    /// Creates a configuration with enough sites for the policy's shard
    /// count (one node per site — full dispersal) and sensible defaults.
    pub fn new(policy: PolicyKind) -> Self {
        let shard_count = policy.shard_count().max(1);
        ArchiveConfig {
            policy,
            sites: (0..shard_count).map(|i| format!("site-{i}")).collect(),
            nodes_per_site: 1,
            year: 2026,
            master_key: [0x42; 32],
            rng_seed: 0xAE0_0AE0,
            integrity: IntegrityMode::HashChain,
            pipeline: PipelineConfig::default(),
            retry: RetryPolicy::default(),
            dedup: None,
            dispatch: None,
        }
    }

    /// Overrides the node-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the integrity mode.
    pub fn with_integrity(mut self, mode: IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// Overrides the chunked-pipeline tuning.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Overrides the simulated year.
    pub fn with_year(mut self, year: u32) -> Self {
        self.year = year;
        self
    }

    /// Enables content-addressed dedup mode.
    pub fn with_dedup(mut self, dedup: DedupConfig) -> Self {
        self.dedup = Some(dedup);
        self
    }

    /// Overrides the cluster's dispatch policy
    /// ([`DispatchPolicy::Parallel`] overlaps per-node transfers on
    /// virtual lanes; payloads and failures stay byte-identical, only
    /// virtual timing changes).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = Some(dispatch);
        self
    }
}

/// Errors from archive operations.
#[derive(Debug)]
pub enum ArchiveError {
    /// Policy-layer failure.
    Policy(PolicyError),
    /// Cluster-layer failure.
    Cluster(ClusterError),
    /// The object does not exist.
    UnknownObject(ObjectId),
    /// Retrieved data failed its digest check.
    IntegrityViolation(ObjectId),
    /// Too few healthy shards remain (or landed, for writes) to stay
    /// within the policy's `(n, k)` redundancy budget.
    DegradedBeyondBudget {
        /// The affected object.
        id: ObjectId,
        /// Healthy shards available (read) or durably written (write).
        available: usize,
        /// The policy's read threshold `k`.
        required: usize,
        /// Shards discarded because their bytes failed the per-shard
        /// digest check.
        corrupt: usize,
    },
    /// The operation does not apply to the object's policy.
    UnsupportedOperation(&'static str),
    /// An Entropic-policy ingest with insufficient payload entropy.
    LowEntropy {
        /// Estimated bits of entropy per byte.
        bits_per_byte: f64,
    },
    /// Timestamping failure.
    Timestamp(String),
    /// Channel-layer failure during a shard shipment.
    Channel(String),
    /// Secret-sharing protocol failure.
    Share(aeon_secretshare::ShareError),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Policy(e) => write!(f, "policy: {e}"),
            ArchiveError::Cluster(e) => write!(f, "cluster: {e}"),
            ArchiveError::UnknownObject(id) => write!(f, "unknown object {id}"),
            ArchiveError::IntegrityViolation(id) => write!(f, "integrity violation on {id}"),
            ArchiveError::DegradedBeyondBudget {
                id,
                available,
                required,
                corrupt,
            } => write!(
                f,
                "object {id} degraded beyond budget: {available} healthy shards \
                 (need {required}, {corrupt} corrupt)"
            ),
            ArchiveError::UnsupportedOperation(why) => write!(f, "unsupported operation: {why}"),
            ArchiveError::LowEntropy { bits_per_byte } => write!(
                f,
                "entropic policy requires high-entropy payloads (got {bits_per_byte:.2} bits/byte)"
            ),
            ArchiveError::Timestamp(why) => write!(f, "timestamping: {why}"),
            ArchiveError::Channel(why) => write!(f, "channel: {why}"),
            ArchiveError::Share(e) => write!(f, "secret sharing: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<PolicyError> for ArchiveError {
    fn from(e: PolicyError) -> Self {
        ArchiveError::Policy(e)
    }
}

impl From<ClusterError> for ArchiveError {
    fn from(e: ClusterError) -> Self {
        ArchiveError::Cluster(e)
    }
}

impl From<aeon_secretshare::ShareError> for ArchiveError {
    fn from(e: aeon_secretshare::ShareError) -> Self {
        ArchiveError::Share(e)
    }
}

impl From<RepairError> for ArchiveError {
    fn from(e: RepairError) -> Self {
        match e {
            RepairError::Policy(e) => ArchiveError::Policy(e),
            RepairError::Share(e) => ArchiveError::Share(e),
        }
    }
}

/// Per-object record kept by the archive.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Object identifier.
    pub id: ObjectId,
    /// User-supplied name.
    pub name: String,
    /// The policy the object is encoded under.
    pub policy: PolicyKind,
    /// Encode-time metadata.
    pub meta: EncodingMeta,
    /// Node placement, one entry per shard.
    pub placement: Vec<NodeId>,
    /// Payload length in bytes.
    pub logical_len: usize,
    /// SHA-256 of the payload.
    pub digest: [u8; 32],
    /// SHA-256 of each stored shard blob, indexed like `placement`.
    /// Degraded reads and repair use these to discard bit-rotted
    /// shards instead of feeding them to the decoder.
    pub shard_digests: Vec<[u8; 32]>,
    /// Year of ingest.
    pub created_year: u32,
    /// Refresh epochs completed (proactive policies).
    pub refresh_epochs: u64,
    /// Dedup-mode record: the object's Merkle root and leaf blocks.
    /// `None` for classic (non-dedup) objects, whose shards live under
    /// `placement` above.
    pub blocks: Option<DedupManifest>,
}

/// Health report from [`Archive::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Shards currently readable.
    pub shards_available: usize,
    /// Shards the policy needs.
    pub shards_required: usize,
    /// Whether a decode + digest check succeeded.
    pub intact: bool,
    /// Whether the timestamp chain (if any) verifies.
    pub chain_valid: Option<bool>,
}

/// Aggregate statistics from [`Archive::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveStats {
    /// Number of live objects.
    pub objects: usize,
    /// Sum of payload sizes.
    pub logical_bytes: u64,
    /// Bytes physically stored across the cluster.
    pub stored_bytes: u64,
    /// Measured expansion (stored / logical).
    pub expansion: f64,
}

/// One read's outcome: the payload and its per-shard accounting.
pub(crate) type Retrieved = Result<(Vec<u8>, TransferReport), ArchiveError>;

/// One unit of a read, as [`Archive::decode_many`] takes it: the object
/// its failures are typed against, its loaded record (a manifest, or a
/// stored unit's) and its fetched shards.
pub(crate) type Decode<'a> = (&'a ObjectId, &'a Manifest, &'a ShardsSnapshot);

/// A secure long-term archive over a simulated geo-dispersed cluster.
///
/// # Examples
///
/// ```
/// use aeon_core::{Archive, ArchiveConfig, PolicyKind};
///
/// let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
///     threshold: 3,
///     shares: 5,
/// }))?;
/// let id = archive.ingest(b"the long-term secret", "doc-1")?;
/// assert_eq!(archive.retrieve(&id)?, b"the long-term secret");
/// # Ok::<(), aeon_core::ArchiveError>(())
/// ```
pub struct Archive {
    pub(crate) config: ArchiveConfig,
    cluster: Cluster,
    pub(crate) keys: KeyStore,
    pub(crate) rng: ChaChaDrbg,
    /// The unit table: every object's and every dedup block's row.
    pub(crate) manifests: FleetCatalog,
    /// Dedup mode: the bounded recency index consulted before the table.
    pub(crate) dedup_index: BoundedIndex,
    chains: BTreeMap<ObjectId, DocumentChain>,
    ledger: Ledger,
    tsa: TimestampAuthority,
    committer: Committer,
    year: u32,
    counter: u64,
}

impl fmt::Debug for Archive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Archive")
            .field("policy", &self.config.policy)
            .field("objects", &self.manifests.len())
            .field("year", &self.year)
            .finish_non_exhaustive()
    }
}

impl Archive {
    /// Creates an archive over an in-memory cluster of
    /// `config.nodes_per_site` nodes at each of `config.sites`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::Policy`] for invalid default policies.
    pub fn in_memory(config: ArchiveConfig) -> Result<Self, ArchiveError> {
        let sites: Vec<&str> = config.sites.iter().map(|s| s.as_str()).collect();
        let cluster = Cluster::in_memory(&sites, config.nodes_per_site);
        Archive::with_cluster(config, cluster)
    }

    /// Creates an archive over a caller-supplied, **empty** cluster (e.g.
    /// file-backed nodes or nodes shared with an adversary simulation).
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::Policy`] for invalid default policies, and
    /// [`ArchiveError::UnsupportedOperation`] when a node already holds a
    /// shard: over another archive's shards, or its own after a restart,
    /// a new archive would mint the same ids, overwrite those shards and
    /// reuse their keys and nonces.
    pub fn with_cluster(config: ArchiveConfig, cluster: Cluster) -> Result<Self, ArchiveError> {
        config.policy.validate()?;
        if cluster.nodes().iter().any(|node| !node.keys().is_empty()) {
            return Err(ArchiveError::UnsupportedOperation(
                "the cluster already holds shards",
            ));
        }
        let cluster = match config.dispatch {
            Some(dispatch) => cluster.with_dispatch(dispatch),
            None => cluster,
        };
        let mut rng = ChaChaDrbg::from_u64_seed(config.rng_seed);
        let tsa = TimestampAuthority::new(&mut rng, "wots-v1", config.year, 6);
        let dedup_index = BoundedIndex::new(config.dedup.as_ref().map_or(0, |d| d.index_capacity));
        Ok(Archive {
            keys: KeyStore::new(config.master_key),
            rng,
            cluster,
            manifests: FleetCatalog::new(DEFAULT_CATALOG_SHARDS),
            dedup_index,
            chains: BTreeMap::new(),
            ledger: Ledger::new(1),
            tsa,
            committer: Committer::new(ModpGroup::rfc3526_2048()),
            year: config.year,
            counter: 0,
            config,
        })
    }

    /// The current simulated year.
    pub fn year(&self) -> u32 {
        self.year
    }

    /// Advances the simulated clock.
    ///
    /// # Panics
    ///
    /// Panics if `year` is in the past.
    pub fn advance_year(&mut self, year: u32) {
        assert!(year >= self.year, "time does not run backwards");
        self.year = year;
        self.tsa.advance_to(year);
    }

    /// The archive's cluster (for adversary simulations).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The archive's key store (for key-compromise simulations).
    pub fn keys(&self) -> &KeyStore {
        &self.keys
    }

    /// The public ledger of manifest digests.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The default policy.
    pub fn policy(&self) -> &PolicyKind {
        &self.config.policy
    }

    /// Ingests a payload under the default policy.
    ///
    /// # Errors
    ///
    /// See [`Archive::ingest_with_policy`].
    pub fn ingest(&mut self, payload: &[u8], name: &str) -> Result<ObjectId, ArchiveError> {
        self.ingest_with_policy(payload, name, self.config.policy.clone())
    }

    /// Ingests a payload under an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::LowEntropy`] for entropic policies on
    /// compressible payloads, or policy/cluster errors.
    pub fn ingest_with_policy(
        &mut self,
        payload: &[u8],
        name: &str,
        policy: PolicyKind,
    ) -> Result<ObjectId, ArchiveError> {
        let mut ids = self.ingest_flush(&[(payload, name)], &policy)?;
        Ok(ids.pop().expect("one id per item"))
    }

    /// Ingests a batch of payloads under the default policy as **one
    /// flush**: every object is planned in submission order (drawing the
    /// archive's encode stream exactly as sequential [`Archive::ingest`]
    /// calls would), all shard writes go out in one cross-object pass
    /// that groups first attempts by target node — one framed transfer
    /// per node per batch on media-priced clusters — and only then is the
    /// batch anchored: **one** authority signature over the Merkle root
    /// of the landed objects' timestamp links
    /// ([`DocumentChain::create_many`]), one ledger entry per object.
    ///
    /// What is and is not batch-invariant: the anchor's own draws from
    /// the archive's stream (a Pedersen blinding per object, an
    /// authority-key rotation) come after every encode here, where `N`
    /// single ingests interleave them, and `N` singles consume `N`
    /// signatures where one flush consumes one. So object ids, manifests
    /// and stored bytes are byte-identical to ingesting one by one —
    /// under deterministic fault injection the per-key attempt schedules
    /// (and so outcomes) match too — until an authority-key rotation
    /// falls inside the sequence (and, in `PedersenChain` mode, for
    /// policies whose encode draws nothing). Integrity evidence is per
    /// flush by design: each chain's first link carries an inclusion
    /// path to the flush's signed root.
    ///
    /// Dedup archives flush the same way: every object's fresh blocks —
    /// a block new to several objects of the flush is written once, by
    /// the first — go out in the one pass, the objects are anchored under
    /// one signature, and only then do block records and references go in.
    /// Block encodes are convergent and never draw the archive's stream,
    /// so ids, blocks and stored bytes equal one-by-one ingest here too.
    ///
    /// # Errors
    ///
    /// A planning error (low entropy, encode, placement) fails the call
    /// before any node is touched. Otherwise returns the first per-object
    /// write failure in submission order (a dedup object fails when any
    /// block it introduces does, typed against the object): objects
    /// earlier in the batch remain ingested and anchored, the failing
    /// object **and every object after it** are rolled back, and nothing
    /// of them reaches the chains, the ledger or the unit table. If the
    /// token cannot be issued the whole flush is rolled back — no manifest
    /// without its chain.
    pub fn ingest_many(&mut self, items: &[(&[u8], &str)]) -> Result<Vec<ObjectId>, ArchiveError> {
        let policy = self.config.policy.clone();
        self.ingest_flush(items, &policy)
    }

    /// Admits a flush of objects, mints their ids, and writes, anchors
    /// and files it.
    fn ingest_flush(
        &mut self,
        items: &[(&[u8], &str)],
        policy: &PolicyKind,
    ) -> Result<Vec<ObjectId>, ArchiveError> {
        policy.validate()?;
        for (payload, _) in items {
            entropy_gate(policy, payload)?;
        }
        let ids: Vec<ObjectId> = items.iter().map(|(_, name)| self.next_id(name)).collect();
        self.write_flush(&ids, items, policy, true)?;
        Ok(ids)
    }

    /// The one ingest path, for classic objects and dedup blocks alike.
    /// Every item plans its stored units in submission order: a classic
    /// object is one shard set drawn from the archive's encode stream, a
    /// dedup object the blocks fresh to the archive and to the flush
    /// ([`Archive::plan_blocks`]). Every payload and shard is then
    /// digested in one batch, and every unit committed in one
    /// cross-object pass under its kind's ingest label. Item *i* lands
    /// iff every unit it owns landed; the first item that did not, and
    /// every item after it, are rolled back. Only after the landed prefix
    /// is anchored — once, and only when `anchored` — are block records,
    /// references and manifests filed. A catalog commit is not anchored
    /// and files no manifest: the landed manifests not filed are returned.
    ///
    /// # Errors
    ///
    /// A planning error (encode, placement) before any node is touched;
    /// otherwise the first failed item's, typed against that item.
    pub(crate) fn write_flush(
        &mut self,
        ids: &[ObjectId],
        items: &[(&[u8], &str)],
        policy: &PolicyKind,
        anchored: bool,
    ) -> Result<Vec<Manifest>, ArchiveError> {
        let mut manifests = Vec::with_capacity(items.len());
        // Per unit: the item that owns it, and the record a block files.
        let (mut owners, mut blocks, mut plans) = (Vec::new(), Vec::new(), Vec::new());
        let mut fresh = BTreeSet::new();
        for (item, (id, (payload, name))) in ids.iter().zip(items).enumerate() {
            let (tree, units) = if self.config.dedup.is_some() {
                let (tree, new) = self.plan_blocks(payload, policy, &mut fresh)?;
                (
                    Some(tree),
                    new.into_iter().map(|(b, w)| (Some(b), w)).collect(),
                )
            } else {
                let cfg = &self.config.pipeline;
                let write =
                    plan::encode_write(policy, &self.keys, &mut self.rng, id, payload, cfg)?;
                (None, vec![(None, write)])
            };
            for (block, write) in units {
                owners.push(item);
                blocks.push(block);
                plans.push(write);
            }
            manifests.push(Manifest {
                id: id.clone(),
                name: name.to_string(),
                policy: policy.clone(),
                meta: EncodingMeta::plain(self.keys.current_version()),
                placement: Vec::new(),
                logical_len: payload.len(),
                digest: [0; 32],
                shard_digests: Vec::new(),
                created_year: self.year,
                refresh_epochs: 0,
                blocks: tree,
            });
        }
        let placements = plans
            .iter()
            .map(|w: &WritePlan| self.executor().place(w.object.as_str(), w.shards.len()))
            .collect::<Result<Vec<_>, _>>()?;
        // The bounded index answers first (statistics); the unit table
        // decided what is fresh (correctness). Recording waits until
        // planning can no longer fail, so the only entries a failed flush
        // leaves to take back are its rolled-back items' fresh blocks.
        for leaf in manifests
            .iter()
            .flat_map(|m| m.blocks.iter().flat_map(|d| &d.blocks))
        {
            let _resident = self.dedup_index.lookup(leaf);
            self.dedup_index.record(leaf);
        }

        let shards = plans
            .iter()
            .flat_map(|w| w.shards.iter().map(Vec::as_slice));
        let messages: Vec<&[u8]> = items.iter().map(|(p, _)| *p).chain(shards).collect();
        let mut batch = Sha256::digest_many(&messages).into_iter();
        for (manifest, digest) in manifests.iter_mut().zip(batch.by_ref().take(items.len())) {
            manifest.digest = digest;
        }
        for write in &mut plans {
            write.shard_digests = batch.by_ref().take(write.shards.len()).collect();
        }
        let mut rngs: Vec<ChaChaDrbg> = plans
            .iter()
            .zip(&blocks)
            .map(|(write, block)| {
                let labels = if block.is_some() { &BLOCK } else { &OBJECT };
                self.op_rng(labels.ingest, write.object.as_str())
            })
            .collect();
        // Too few shards landing durably means a unit could never be read
        // back: the executor has already rolled that unit back.
        let results = self.executor().commit_many(&plans, &placements, &mut rngs);
        let failed = results
            .iter()
            .enumerate()
            .find_map(|(k, result)| Some((k, result.as_ref().err()?.written)));
        let landed = failed.map_or(items.len(), |(k, _)| owners[k]);
        let failure = failed.map(|(k, written)| ArchiveError::DegradedBeyondBudget {
            id: ids[owners[k]].clone(),
            available: written,
            required: plans[k].required,
            corrupt: 0,
        });
        // Takes back every unit that item `from` or a later one owns: the
        // shards that landed, and a fresh block's index entry.
        let mut roll_back = |archive: &mut Self, from: usize| {
            for k in owners.partition_point(|&item| item < from)..owners.len() {
                if results[k].is_ok() {
                    let object = plans[k].object.as_str();
                    archive
                        .executor()
                        .roll_back(object, &placements[k], &mut rngs[k]);
                }
                if let Some((hash, ..)) = &blocks[k] {
                    archive.dedup_index.remove(hash);
                }
            }
        };
        roll_back(self, landed);
        manifests.truncate(landed);
        if anchored {
            let digests: Vec<[u8; 32]> = manifests.iter().map(|m| m.digest).collect();
            if let Err(e) = self.anchor(&ids[..landed], &digests) {
                roll_back(self, 0);
                return Err(e);
            }
        }

        let filed = owners.partition_point(|&item| item < landed);
        let units = owners.into_iter().zip(blocks).zip(plans).zip(placements);
        for (((item, block), write), placement) in units.take(filed) {
            let Some((hash, kind, len)) = block else {
                let m = &mut manifests[item];
                (m.meta, m.placement, m.shard_digests) =
                    (write.meta, placement, write.shard_digests);
                continue;
            };
            let block = BlockRecord {
                refcount: 0,
                kind,
                record: Manifest {
                    id: write.object,
                    name: String::new(),
                    policy: write.policy,
                    meta: write.meta,
                    placement,
                    logical_len: len,
                    digest: *hash.as_bytes(),
                    shard_digests: write.shard_digests,
                    created_year: self.year,
                    refresh_epochs: 0,
                    blocks: None,
                },
            };
            self.manifests
                .insert_unit(Unit::Block(hash), Row::Block(block));
        }
        // The references go in last, in one infallible pass.
        let refs = manifests.iter().flat_map(|m| m.blocks.iter());
        for h in refs.flat_map(|d| self.references(d)).collect::<Vec<_>>() {
            self.manifests.block_mut(&h).expect("block filed").refcount += 1;
        }
        if anchored {
            for manifest in manifests.drain(..) {
                self.manifests.insert(manifest.id.clone(), manifest);
            }
        }
        failure.map_or(Ok(manifests), Err)
    }

    /// Anchors one flush of landed objects in the configured integrity
    /// machinery: no-op for `DigestOnly` (and for an empty flush),
    /// otherwise one timestamp over all of them — a document chain per
    /// object, given the payload digests the manifests already need —
    /// and each chain's anchor appended to the public ledger.
    pub(crate) fn anchor(
        &mut self,
        ids: &[ObjectId],
        digests: &[[u8; 32]],
    ) -> Result<(), ArchiveError> {
        let mode = match self.config.integrity {
            IntegrityMode::DigestOnly => return Ok(()),
            IntegrityMode::HashChain => AnchorMode::HashDigest,
            IntegrityMode::PedersenChain => AnchorMode::PedersenHiding,
        };
        if ids.is_empty() {
            return Ok(());
        }
        self.ensure_tsa_capacity();
        let chains = DocumentChain::create_many(
            &mut self.rng,
            &mut self.tsa,
            &self.committer,
            mode,
            digests,
        )
        .map_err(|e| ArchiveError::Timestamp(e.to_string()))?;
        for (id, chain) in ids.iter().zip(chains) {
            self.ledger.append(self.year, chain.anchor().to_vec());
            self.chains.insert(id.clone(), chain);
        }
        Ok(())
    }

    fn ensure_tsa_capacity(&mut self) {
        if self.tsa.remaining() == 0 {
            // Rotate to a fresh key under the same scheme family with a
            // bumped generation tag.
            let scheme = format!("{}+", self.tsa.scheme());
            self.tsa.rotate(&mut self.rng, &scheme, 6);
        }
    }

    /// Derives a per-operation DRBG seed. Keyed by the archive seed, an
    /// operation label, and the object id, so `&self` read paths stay
    /// deterministic without perturbing the archive's main encode
    /// stream. Dedup block encodes are keyed this way too (label
    /// `"block-encode"`, object `blk-<hash>`), which is what makes
    /// identical blocks encode identically regardless of which object —
    /// or which pipeline worker — reaches them first.
    pub(crate) fn op_seed(&self, label: &str, object: &str) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.config.rng_seed.to_le_bytes());
        h.update(label.as_bytes());
        h.update(object.as_bytes());
        h.finalize()
    }

    /// Derives a per-operation DRBG for retry jitter (see [`Archive::op_seed`]).
    pub(crate) fn op_rng(&self, label: &str, object: &str) -> ChaChaDrbg {
        ChaChaDrbg::from_seed(self.op_seed(label, object))
    }

    /// The configured node-I/O retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.config.retry
    }

    /// A plan executor over this archive's cluster and retry budget —
    /// the only path to node I/O for every module in this crate.
    pub(crate) fn executor(&self) -> PlanExecutor<'_> {
        PlanExecutor::new(&self.cluster, &self.config.retry)
    }

    /// Fetches an object's shards with bounded retry (one framed
    /// request per node holding them), then discards any whose bytes
    /// fail the per-shard digest check.
    pub(crate) fn fetch_shards(&self, manifest: &Manifest, label: &str) -> ShardsSnapshot {
        let mut rng = self.op_rng(label, manifest.id.as_str());
        self.executor()
            .read(&ReadPlan::for_manifest(manifest), &mut rng)
    }

    /// Retrieves and verifies an object.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnknownObject`],
    /// [`ArchiveError::IntegrityViolation`],
    /// [`ArchiveError::DegradedBeyondBudget`], or decode errors.
    pub fn retrieve(&self, id: &ObjectId) -> Result<Vec<u8>, ArchiveError> {
        self.retrieve_with_report(id).map(|(payload, _)| payload)
    }

    /// Retrieves an object in degraded mode, also returning the
    /// per-shard retry accounting. Every shard is fetched under the
    /// configured [`RetryPolicy`]; erroring nodes are retried up to the
    /// attempt cap. Shards are then verified against their per-shard
    /// digests in slot order — bit-rotted ones discarded — until the
    /// read threshold `k` are valid, and the decode proceeds from those
    /// `k`. Shards past them are not hashed: a latent error there is
    /// found by [`Archive::verify`] or a repair, not by a read. The read
    /// fails only when fewer than `k` valid shards remain: with
    /// corruption in evidence that is an
    /// [`ArchiveError::IntegrityViolation`], otherwise an
    /// [`ArchiveError::DegradedBeyondBudget`].
    ///
    /// # Errors
    ///
    /// See [`Archive::retrieve`].
    pub fn retrieve_with_report(
        &self,
        id: &ObjectId,
    ) -> Result<(Vec<u8>, TransferReport), ArchiveError> {
        self.retrieve_each(std::slice::from_ref(id))
            .pop()
            .expect("one result per id")
    }

    /// Retrieves many objects in one cross-object fan-in: every classic
    /// object's shard fetches are grouped by source node and each node
    /// serves **one** framed batch request for the whole call (then
    /// per-key retries with the remaining budget, drawing jitter from
    /// each object's own rng), and every decoded payload is checked
    /// against its digest in **one** [`Sha256::digest_many`] batch: one
    /// decode read of every unit. Per-object outcomes — payload bytes and
    /// typed failures — are exactly what [`Archive::retrieve`] would
    /// return for each id; one unreadable object does not fail its
    /// neighbors. Dedup objects are walked one at a time, in call order,
    /// each through the level-batched tree walk: batching them across the
    /// call would reorder the node accesses — and so the injected faults —
    /// of a block two objects share.
    pub fn retrieve_many(&self, ids: &[ObjectId]) -> Vec<Result<Vec<u8>, ArchiveError>> {
        self.retrieve_each(ids)
            .into_iter()
            .map(|r| r.map(|(payload, _)| payload))
            .collect()
    }

    /// The one retrieval path: [`Archive::retrieve`] and
    /// [`Archive::retrieve_with_report`] are its one-id case,
    /// [`Archive::retrieve_many`] its payload projection.
    fn retrieve_each(&self, ids: &[ObjectId]) -> Vec<Retrieved> {
        let classic: Vec<(&ObjectId, Unit)> = ids
            .iter()
            .filter(|id| self.row(id).is_ok_and(|m| m.blocks.is_none()))
            .map(|id| (id, Unit::Object(id.clone())))
            .collect();
        let read = self.read_units(&classic);
        let mut read = read.expect("every classic id has a row").into_iter();
        ids.iter()
            .map(|id| {
                let m = self.row(id)?;
                match &m.blocks {
                    Some(d) => self.walk(id, &d.root, Some(m)),
                    None => read.next().expect("one read per classic id"),
                }
            })
            .collect()
    }

    /// The one decode read, over any list of units: each unit's
    /// [`ReadPlan::for_decode`], retry jitter drawn under its kind's read
    /// label, every shard fetched in one [`PlanExecutor::read_many`]
    /// fan-in, and every payload decoded and checked against its record's
    /// digest in one [`Archive::decode_many`]. `out[i]` is unit `i`'s
    /// payload and shard accounting, or its failure typed against its
    /// owner, independent of its neighbours.
    ///
    /// # Errors
    ///
    /// Before any node is touched, when a unit has no row:
    /// [`ArchiveError::UnknownObject`] for an object, and
    /// [`PolicyError::Malformed`] for a block its owner references.
    pub(crate) fn read_units(
        &self,
        units: &[(&ObjectId, Unit)],
    ) -> Result<Vec<Retrieved>, ArchiveError> {
        let records = units.iter().map(|(owner, unit)| {
            self.manifests.record(unit).ok_or_else(|| match unit {
                Unit::Object(id) => ArchiveError::UnknownObject(id.clone()),
                Unit::Block(hash) => {
                    let why = format!("object {owner} references unknown block {hash}");
                    PolicyError::Malformed(why).into()
                }
            })
        });
        let records = records.collect::<Result<Vec<&Manifest>, _>>()?;
        let plans: Vec<ReadPlan> = records.iter().map(|r| ReadPlan::for_decode(r)).collect();
        let mut rngs: Vec<ChaChaDrbg> = units
            .iter()
            .zip(&records)
            .map(|((_, unit), r)| self.op_rng(unit.labels().read, r.id.as_str()))
            .collect();
        let snaps = self.executor().read_many(&plans, &mut rngs);
        let decodes: Vec<Decode<'_>> = units
            .iter()
            .zip(&records)
            .zip(&snaps)
            .map(|(((owner, _), record), snap)| (*owner, *record, snap))
            .collect();
        let decoded = self.decode_many(&decodes);
        Ok(decoded
            .into_iter()
            .zip(snaps)
            .map(|(payload, snap)| payload.map(|payload| (payload, snap.report)))
            .collect())
    }

    /// The tail of a one-unit read ([`Archive::verify`], re-encode, a
    /// repair's fallback): [`Archive::decode_many`] over a batch of one
    /// loaded record (a manifest, or a stored unit's), decoded under the
    /// record's context and verified against its payload digest, failures
    /// typed against `owner`.
    pub(crate) fn decode_verified(
        &self,
        owner: &ObjectId,
        record: &Manifest,
        snap: &ShardsSnapshot,
    ) -> Result<Vec<u8>, ArchiveError> {
        self.decode_many(&[(owner, record, snap)])
            .pop()
            .expect("one result per unit")
    }

    /// The shared tail of every read: each unit's threshold check and
    /// policy decode, then every decoded payload's digest check in
    /// **one** [`Sha256::digest_many`] batch. `out[i]` is unit `i`'s
    /// payload or its typed failure, independent of its neighbours, so
    /// a caller that stops at the first failure sees what a
    /// unit-at-a-time read would: a decode failure on unit `i` and a
    /// digest mismatch on unit `j` both stand at their own index.
    /// Failures are typed against the unit's `owner` — for a shared
    /// dedup block that is the object whose read is in progress, so
    /// corruption of the block surfaces in every referencing object.
    pub(crate) fn decode_many(&self, units: &[Decode<'_>]) -> Vec<Result<Vec<u8>, ArchiveError>> {
        let mut decoded: Vec<Result<Vec<u8>, ArchiveError>> =
            units.iter().map(|unit| self.decode_unit(unit)).collect();
        let payloads: Vec<&[u8]> = decoded.iter().filter_map(|r| r.as_deref().ok()).collect();
        let mut digests = Sha256::digest_many(&payloads).into_iter();
        for (result, (owner, record, _)) in decoded.iter_mut().zip(units) {
            if result.is_ok() && digests.next() != Some(record.digest) {
                *result = Err(ArchiveError::IntegrityViolation((*owner).clone()));
            }
        }
        decoded
    }

    /// The first step of [`Archive::decode_many`] for one unit: the
    /// threshold check, then the policy decode under the unit's context.
    fn decode_unit(&self, &(owner, record, snap): &Decode<'_>) -> Result<Vec<u8>, ArchiveError> {
        let required = record.policy.read_threshold();
        if snap.valid < required {
            if snap.corrupt > 0 {
                return Err(ArchiveError::IntegrityViolation(owner.clone()));
            }
            return Err(ArchiveError::DegradedBeyondBudget {
                id: owner.clone(),
                available: snap.valid,
                required,
                corrupt: snap.corrupt,
            });
        }
        Ok(pipeline::decode_object(
            &record.policy,
            &self.keys,
            record.id.as_str(),
            &snap.shards,
            &record.meta,
            self.config.pipeline.workers,
        )?)
    }

    /// Deletes an object and its shards.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnknownObject`].
    pub fn delete(&mut self, id: &ObjectId) -> Result<(), ArchiveError> {
        let manifest = self
            .manifests
            .remove(id)
            .ok_or_else(|| ArchiveError::UnknownObject(id.clone()))?;
        match &manifest.blocks {
            // A block's shards leave the cluster with its last reference.
            Some(d) => self
                .references(d)
                .iter()
                .for_each(|h| self.release_block(h)),
            None => self.executor().delete(id.as_str(), &manifest.placement),
        }
        self.chains.remove(id);
        Ok(())
    }

    /// Checks an object's health without mutating anything.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnknownObject`].
    pub fn verify(
        &self,
        id: &ObjectId,
        sig_schedule: &SigBreakSchedule,
    ) -> Result<HealthReport, ArchiveError> {
        let manifest = self.row(id)?;
        let chain_valid = self
            .chains
            .get(id)
            .map(|c| c.verify(sig_schedule, self.year).is_ok());
        // The weakest stored unit speaks for the object: fewest valid
        // shards, against the largest read threshold among them.
        let walked = manifest.blocks.is_some();
        let mut available = usize::MAX;
        let mut required = 0usize;
        let mut intact = true;
        for unit in self.units_of(manifest) {
            let Ok(record) = self.load(&unit) else {
                (available, intact) = (0, false);
                continue;
            };
            let snap = self.fetch_shards(&record, unit.labels().verify);
            available = available.min(snap.valid);
            required = required.max(record.policy.read_threshold());
            intact &= walked || self.decode_verified(id, &record, &snap).is_ok();
        }
        // A dedup object's decode check is its tree walk, which also
        // covers what no single block can: leaf order and the
        // whole-payload digest.
        if let Some(d) = &manifest.blocks {
            intact &= self.walk(id, &d.root, Some(manifest)).is_ok();
        }
        Ok(HealthReport {
            shards_available: available,
            shards_required: required,
            intact,
            chain_valid,
        })
    }

    /// Renews an object's timestamp chain with the authority's current
    /// scheme (call after rotating the TSA to a stronger scheme): the
    /// one-id case of [`Archive::renew_timestamps`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`] if the object has no
    /// chain.
    pub fn renew_timestamp(&mut self, id: &ObjectId) -> Result<(), ArchiveError> {
        self.renew_timestamps(std::slice::from_ref(id))
    }

    /// Renews the named objects' timestamp chains under **one** authority
    /// signature: a single token over the Merkle root of the chains' new
    /// links ([`DocumentChain::renew_many`]), whatever batch or year each
    /// chain was created in. A renewal sweep over the whole archive — the
    /// §3.3 duty before each signature scheme breaks — costs one
    /// signature, not one per object. Repeated ids are renewed once.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnsupportedOperation`], before any chain
    /// is touched, if a named object has no chain.
    pub fn renew_timestamps(&mut self, ids: &[ObjectId]) -> Result<(), ArchiveError> {
        let ids: BTreeSet<&ObjectId> = ids.iter().collect();
        if ids.iter().any(|id| !self.chains.contains_key(id)) {
            return Err(ArchiveError::UnsupportedOperation(
                "object has no timestamp chain",
            ));
        }
        if ids.is_empty() {
            return Ok(());
        }
        self.ensure_tsa_capacity();
        // The chains leave the map for the duration of the call so that
        // all of them can be borrowed mutably at once.
        let mut renewing: Vec<(ObjectId, DocumentChain)> = ids
            .into_iter()
            .filter_map(|id| self.chains.remove_entry(id))
            .collect();
        let renewed = DocumentChain::renew_many(renewing.iter_mut().map(|(_, c)| c), &mut self.tsa);
        self.chains.extend(renewing);
        renewed.map_err(|e| ArchiveError::Timestamp(e.to_string()))
    }

    /// Rotates the timestamp authority to a new scheme (e.g. when the
    /// current signature scheme nears its break).
    pub fn rotate_timestamp_scheme(&mut self, scheme: &str) {
        self.tsa.rotate(&mut self.rng, scheme, 6);
    }

    /// Rotates the master key.
    pub fn rotate_master_key(&mut self, master: [u8; 32]) -> u32 {
        self.keys.rotate(master)
    }

    /// Looks up a manifest (cloned out of the catalog).
    pub fn manifest(&self, id: &ObjectId) -> Option<Manifest> {
        self.manifests.get(id)
    }

    /// Iterates over a snapshot of all manifests, sorted by id (the
    /// catalog's order, independent of insertion order).
    pub fn manifests(&self) -> impl Iterator<Item = Manifest> {
        let rows: Vec<Manifest> = self.manifests.rows().cloned().collect();
        rows.into_iter()
    }

    /// The manifest catalog, read-only: its mutators take `&mut`, so
    /// only the archive's own `&mut self` operations rewrite a row.
    pub fn catalog(&self) -> &FleetCatalog {
        &self.manifests
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ArchiveStats {
        let logical: u64 = self.manifests.rows().map(|m| m.logical_len as u64).sum();
        let stored = self.cluster.total_stored_bytes();
        ArchiveStats {
            objects: self.manifests.len(),
            logical_bytes: logical,
            stored_bytes: stored,
            expansion: if logical == 0 {
                0.0
            } else {
                stored as f64 / logical as f64
            },
        }
    }

    fn next_id(&mut self, name: &str) -> ObjectId {
        self.counter += 1;
        let mut h = Sha256::new();
        h.update(name.as_bytes());
        h.update(&self.counter.to_be_bytes());
        h.update(&self.config.rng_seed.to_be_bytes());
        let d = h.finalize();
        ObjectId(d.iter().take(16).map(|b| format!("{b:02x}")).collect())
    }
}

/// The Entropic policy's admission check: its secrecy argument needs
/// payloads that already look random.
fn entropy_gate(policy: &PolicyKind, payload: &[u8]) -> Result<(), ArchiveError> {
    if matches!(policy, PolicyKind::Entropic { .. }) && payload.len() >= 64 {
        let bits_per_byte = estimate_entropy_bits_per_byte(payload);
        if bits_per_byte < 6.0 {
            return Err(ArchiveError::LowEntropy { bits_per_byte });
        }
    }
    Ok(())
}

/// Crude Shannon-entropy estimate over byte frequencies.
pub fn estimate_entropy_bits_per_byte(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_cas::BlockHash;
    use aeon_crypto::{CryptoRng, SuiteId};
    use aeon_store::node::{MemoryNode, NodeError, ShardKey, StorageNode};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn shamir_archive() -> Archive {
        Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        }))
        .unwrap()
    }

    #[test]
    fn ingest_retrieve_roundtrip() {
        let mut a = shamir_archive();
        let id = a.ingest(b"payload one", "doc").unwrap();
        assert_eq!(a.retrieve(&id).unwrap(), b"payload one");
    }

    #[test]
    fn unknown_object() {
        let a = shamir_archive();
        let bogus = ObjectId("feedfacefeedface".into());
        assert!(matches!(
            a.retrieve(&bogus),
            Err(ArchiveError::UnknownObject(_))
        ));
    }

    #[test]
    fn distinct_ids_for_same_name() {
        let mut a = shamir_archive();
        let id1 = a.ingest(b"v1", "same-name").unwrap();
        let id2 = a.ingest(b"v2", "same-name").unwrap();
        assert_ne!(id1, id2);
        assert_eq!(a.retrieve(&id1).unwrap(), b"v1");
        assert_eq!(a.retrieve(&id2).unwrap(), b"v2");
    }

    #[test]
    fn delete_removes_data() {
        let mut a = shamir_archive();
        let id = a.ingest(b"gone soon", "d").unwrap();
        a.delete(&id).unwrap();
        assert!(matches!(
            a.retrieve(&id),
            Err(ArchiveError::UnknownObject(_))
        ));
        assert_eq!(a.cluster().total_stored_bytes(), 0);
        assert!(matches!(a.delete(&id), Err(ArchiveError::UnknownObject(_))));
    }

    #[test]
    fn verify_reports_health() {
        let mut a = shamir_archive();
        let id = a.ingest(b"healthy", "d").unwrap();
        let report = a.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert_eq!(report.shards_available, 5);
        assert_eq!(report.shards_required, 3);
        assert!(report.intact);
        assert_eq!(report.chain_valid, Some(true));
    }

    #[test]
    fn refresh_preserves_object_and_counts_epochs() {
        let mut a = shamir_archive();
        let id = a.ingest(b"refresh me", "d").unwrap();
        let cost = a.refresh_object(&id).unwrap();
        assert!(cost.messages > 0);
        assert_eq!(a.manifest(&id).unwrap().refresh_epochs, 1);
        assert_eq!(a.retrieve(&id).unwrap(), b"refresh me");
    }

    #[test]
    fn refresh_rejected_for_non_shamir() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::ErasureCoded {
            data: 2,
            parity: 1,
        }))
        .unwrap();
        let id = a.ingest(b"x", "d").unwrap();
        assert!(matches!(
            a.refresh_object(&id),
            Err(ArchiveError::UnsupportedOperation(_))
        ));
    }

    #[test]
    fn reencode_object_migrates_policy() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 3,
            parity: 2,
        }))
        .unwrap();
        let id = a.ingest(b"migrate me to a cascade", "d").unwrap();
        let new_policy = PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 3,
            parity: 2,
        };
        let moved = a.reencode_object(&id, new_policy.clone()).unwrap();
        assert!(moved.bytes_read > 0 && moved.bytes_written > 0);
        assert_eq!(a.manifest(&id).unwrap().policy, new_policy);
        assert_eq!(a.retrieve(&id).unwrap(), b"migrate me to a cascade");
    }

    #[test]
    fn reencode_all_counts() {
        let mut a = shamir_archive();
        for i in 0..4 {
            a.ingest(format!("obj {i}").as_bytes(), &format!("d{i}"))
                .unwrap();
        }
        let campaign = a
            .reencode_all(PolicyKind::Shamir {
                threshold: 2,
                shares: 4,
            })
            .unwrap();
        assert_eq!(campaign.objects_done, 4);
        assert!(campaign.bytes_read > 0 && campaign.bytes_written > 0);
        for m in a.manifests() {
            assert_eq!(
                m.policy,
                PolicyKind::Shamir {
                    threshold: 2,
                    shares: 4
                }
            );
        }
    }

    #[test]
    fn entropy_gate_for_entropic_policy() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::Entropic {
            data: 2,
            parity: 1,
        }))
        .unwrap();
        // Low-entropy payload rejected.
        let low = vec![0u8; 256];
        assert!(matches!(
            a.ingest(&low, "zeros"),
            Err(ArchiveError::LowEntropy { .. })
        ));
        // High-entropy payload accepted.
        let mut rng = ChaChaDrbg::from_u64_seed(5);
        let mut high = vec![0u8; 256];
        rng.fill_bytes(&mut high);
        let id = a.ingest(&high, "random").unwrap();
        assert_eq!(a.retrieve(&id).unwrap(), high);
    }

    #[test]
    fn stats_track_expansion() {
        let mut a = shamir_archive();
        a.ingest(&[0u8; 1000], "big").unwrap();
        let stats = a.stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.logical_bytes, 1000);
        // Shamir 5 shares: 5x.
        assert!((stats.expansion - 5.0).abs() < 0.01);
    }

    #[test]
    fn corruption_detected_on_retrieve() {
        // Use a cluster we keep handles to.
        let handles: Vec<MemoryNode> = (0..3)
            .map(|i| MemoryNode::new(i, format!("s{i}")))
            .collect();
        let cluster = Cluster::new(
            handles
                .iter()
                .map(|h| Arc::new(h.clone()) as Arc<dyn StorageNode>)
                .collect(),
        );
        let mut a = Archive::with_cluster(
            ArchiveConfig::new(PolicyKind::Replication { copies: 3 }),
            cluster,
        )
        .unwrap();
        let id = a.ingest(b"truth", "d").unwrap();
        // Corrupt every replica (replication picks the first available).
        for h in &handles {
            for key in h.keys() {
                h.corrupt(
                    &ShardKey::new(key.object.clone(), key.shard),
                    b"lies!".to_vec(),
                );
            }
        }
        assert!(matches!(
            a.retrieve(&id),
            Err(ArchiveError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn tsa_auto_rotates_when_exhausted() {
        // Height-6 TSA = 64 signatures; ingest 70 objects with chains.
        let mut a =
            Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication { copies: 2 })).unwrap();
        for i in 0..70 {
            a.ingest(b"obj", &format!("d{i}")).unwrap();
        }
        assert_eq!(a.stats().objects, 70);
    }

    /// `n` small named payloads.
    fn small_objects(n: usize) -> Vec<(Vec<u8>, String)> {
        (0..n)
            .map(|i| (format!("payload {i}").into_bytes(), format!("obj-{i}")))
            .collect()
    }

    fn borrowed(items: &[(Vec<u8>, String)]) -> Vec<(&[u8], &str)> {
        items
            .iter()
            .map(|(p, n)| (p.as_slice(), n.as_str()))
            .collect()
    }

    fn rs_config(integrity: IntegrityMode, dedup: bool) -> ArchiveConfig {
        let mut config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 1 });
        config.dedup = dedup.then(small_dedup);
        config.with_integrity(integrity)
    }

    fn rs_archive(integrity: IntegrityMode) -> Archive {
        Archive::in_memory(rs_config(integrity, false)).unwrap()
    }

    /// Dedup over small chunks, so a few KiB span many blocks.
    fn small_dedup() -> DedupConfig {
        let chunker = aeon_cas::ChunkerParams {
            min_size: 64,
            target_size: 256,
            max_size: 1024,
            seed: 0xD0D0,
        };
        DedupConfig {
            chunker,
            index_capacity: 64,
            fanout: 4,
        }
    }

    /// Three 3 KiB versions: the second shares blocks with the first, the
    /// third with the second.
    fn versions() -> Vec<(Vec<u8>, String)> {
        let mut parts = vec![0u8; 6000];
        ChaChaDrbg::from_u64_seed(31).fill_bytes(&mut parts);
        let part = |i: usize| &parts[i * 1500..][..1500];
        [(0, 1), (0, 2), (2, 3)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ([part(x), part(y)].concat(), format!("v{i}")))
            .collect()
    }

    #[test]
    fn one_authority_signature_per_flush() {
        let mut a = rs_archive(IntegrityMode::HashChain);
        let items = small_objects(32);
        assert_eq!(a.tsa.remaining(), 64);
        let ids = a.ingest_many(&borrowed(&items)).unwrap();
        assert_eq!(a.tsa.remaining(), 63, "a flush of 32 signs once");
        assert_eq!(
            a.ledger().len(),
            32,
            "the ledger still hears of every object"
        );
        for (payload, name) in &items {
            a.ingest(payload, name).unwrap();
        }
        assert_eq!(a.tsa.remaining(), 31, "32 single ingests sign 32 times");
        for id in &ids {
            let health = a.verify(id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.chain_valid, Some(true));
        }
    }

    #[test]
    fn whole_archive_renewal_is_one_signature() {
        let mut a = rs_archive(IntegrityMode::HashChain);
        let items = small_objects(32);
        let mut ids = Vec::new();
        for _ in 0..16 {
            ids.extend(a.ingest_many(&borrowed(&items)).unwrap());
        }
        assert_eq!((ids.len(), a.tsa.remaining()), (512, 48));
        a.advance_year(2040);
        // Naming an object twice renews it once.
        ids.push(ids[0].clone());
        a.renew_timestamps(&ids).unwrap();
        assert_eq!(a.tsa.remaining(), 47, "one token over 512 chain heads");
        assert_eq!(a.chains.len(), 512);
        for id in &ids {
            assert_eq!(a.chains[id].len(), 2);
            let health = a.verify(id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.chain_valid, Some(true));
        }
        // An unknown object fails the sweep before any chain moves.
        let ghost = ObjectId("feedfacefeedface".into());
        assert!(matches!(
            a.renew_timestamps(&[ids[0].clone(), ghost]),
            Err(ArchiveError::UnsupportedOperation(_))
        ));
        assert_eq!((a.chains[&ids[0]].len(), a.tsa.remaining()), (2, 47));
        a.renew_timestamps(&[]).unwrap();
        assert_eq!(a.tsa.remaining(), 47);
    }

    #[test]
    fn pedersen_flush_members_verify() {
        let mut a = rs_archive(IntegrityMode::PedersenChain);
        let ids = a.ingest_many(&borrowed(&small_objects(5))).unwrap();
        assert_eq!(a.tsa.remaining(), 63);
        a.renew_timestamps(&ids).unwrap();
        for id in &ids {
            let health = a.verify(id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.chain_valid, Some(true));
        }
    }

    /// A memory node that refuses every put for one object, unless it
    /// `lands` them; a node that lands them also fails the first delete
    /// of every key, retryably.
    #[derive(Debug)]
    struct RejectingNode {
        inner: MemoryNode,
        rejected: std::sync::Mutex<String>,
        lands: bool,
        deleted_once: std::sync::Mutex<BTreeSet<ShardKey>>,
    }

    impl StorageNode for RejectingNode {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn site(&self) -> &str {
            self.inner.site()
        }
        fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
            if key.object == *self.rejected.lock().unwrap() && !self.lands {
                return Err(NodeError::Io("rejected".into()));
            }
            self.inner.put(key, data)
        }
        fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
            self.inner.get(key)
        }
        fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
            if self.lands && self.deleted_once.lock().unwrap().insert(key.clone()) {
                return Err(NodeError::Io("transient".into()));
            }
            self.inner.delete(key)
        }
        fn keys(&self) -> Vec<ShardKey> {
            self.inner.keys()
        }
        fn stored_bytes(&self) -> u64 {
            self.inner.stored_bytes()
        }
    }

    /// An archive over three nodes that refuse every put for the
    /// storage context the second of `items` alone writes: its shards, or
    /// in dedup mode the first block it introduces. With `one_lands`, the
    /// first node takes that context's put — one shard, below the read
    /// threshold of RS(2, 1) — and fails the first delete of every key.
    /// Returns it with the ids `items` get (they and block addresses
    /// depend only on names, payloads, order and seed, so a twin archive
    /// tells).
    fn refusing_the_second(
        config: ArchiveConfig,
        items: &[(Vec<u8>, String)],
        one_lands: bool,
    ) -> (Archive, Vec<ObjectId>) {
        let mut twin = Archive::in_memory(config.clone()).unwrap();
        let ids = twin.ingest_many(&borrowed(items)).unwrap();
        let leaves = |id: &ObjectId| twin.manifest(id).unwrap().blocks.map(|d| d.blocks);
        let rejected = match (leaves(&ids[0]), leaves(&ids[1])) {
            (Some(first), Some(second)) => {
                let fresh = second.iter().find(|h| !first.contains(h));
                crate::dedup::block_object_id(fresh.expect("a block of its own"))
            }
            _ => ids[1].to_string(),
        };
        let nodes = (0..3)
            .map(|i| {
                let inner = MemoryNode::new(i, format!("s{i}"));
                let node = RejectingNode {
                    inner,
                    rejected: rejected.clone().into(),
                    lands: one_lands && i == 0,
                    deleted_once: Default::default(),
                };
                Arc::new(node) as Arc<dyn StorageNode>
            })
            .collect();
        (
            Archive::with_cluster(config, Cluster::new(nodes)).unwrap(),
            ids,
        )
    }

    /// A failed object mid-flush takes everything after it down with it
    /// and leaves no trace of either: no orphan shards, blocks or index
    /// entries, no chains or ledger entries for objects that were never
    /// ingested. In dedup mode the refused write is a block only the
    /// second object introduces, the third shares blocks with the second,
    /// and the failure is still typed against the second object.
    #[test]
    fn mid_batch_failure_leaves_no_orphans() {
        for dedup in [false, true] {
            let items = if dedup { versions() } else { small_objects(3) };
            for integrity in [IntegrityMode::DigestOnly, IntegrityMode::HashChain] {
                let leg = format!("dedup {dedup}, {integrity:?}");
                let (mut a, ids) = refusing_the_second(rs_config(integrity, dedup), &items, false);
                let err = a.ingest_many(&borrowed(&items)).unwrap_err();
                assert!(
                    matches!(&err, ArchiveError::DegradedBeyondBudget { id, .. } if *id == ids[1]),
                    "{leg}: {err}"
                );
                let manifests: Vec<Manifest> = a.manifests().collect();
                assert_eq!(manifests.len(), 1, "{leg}: only the first object landed");
                let first = &manifests[0];
                assert_eq!(a.retrieve(&first.id).unwrap(), items[0].0);
                let units = a.units_of(first);
                let contexts: BTreeSet<ObjectId> =
                    units.iter().map(|u| a.load(u).unwrap().id).collect();
                for key in a.cluster().nodes().iter().flat_map(|n| n.keys()) {
                    let context = ObjectId(key.object);
                    assert!(contexts.contains(&context), "{leg}: orphan shard");
                }
                // Refcounts are the references the one object holds.
                assert_refcounts(&a, &leg);
                let data_blocks = a.dedup_stats().map_or(0, |s| s.unique_data_blocks);
                assert_eq!(a.dedup_index.stats().entries, data_blocks, "{leg}");
                let chained = usize::from(integrity == IntegrityMode::HashChain);
                let chains: Vec<ObjectId> = a.chains.keys().cloned().collect();
                assert_eq!(chains, &ids[..chained], "{leg}");
                assert_eq!(a.ledger().len(), chained, "{leg}");
                assert_eq!(a.tsa.remaining(), 64 - chained, "{leg}");
            }
        }
    }

    /// A unit whose commit falls short is taken back whatever it takes:
    /// the one shard of the refused context that landed is deleted
    /// although its node fails the first delete of every key, so no key
    /// of the failed object, or of the block only it introduced,
    /// survives.
    #[test]
    fn a_failed_commit_takes_back_the_shard_that_landed() {
        for dedup in [false, true] {
            let items = if dedup { versions() } else { small_objects(3) };
            let config = rs_config(IntegrityMode::DigestOnly, dedup);
            let (mut a, ids) = refusing_the_second(config, &items, true);
            let err = a.ingest_many(&borrowed(&items)).unwrap_err();
            assert!(
                matches!(&err, ArchiveError::DegradedBeyondBudget { id, available: 1, .. } if *id == ids[1]),
                "dedup {dedup}: {err}"
            );
            let first = a.manifest(&ids[0]).unwrap();
            let contexts: BTreeSet<ObjectId> = a
                .units_of(&first)
                .iter()
                .map(|u| a.load(u).unwrap().id)
                .collect();
            for key in a.cluster().nodes().iter().flat_map(|n| n.keys()) {
                let context = ObjectId(key.object);
                assert!(
                    contexts.contains(&context),
                    "dedup {dedup}: orphan {context}"
                );
            }
        }
    }

    /// A refresh whose write-back falls short fails, typed against the
    /// object, yet still advances the epoch: every digest was replaced,
    /// so the old epoch's shares are stale either way.
    #[test]
    fn a_short_refresh_still_advances_the_epoch() {
        let nodes: Vec<Arc<RejectingNode>> = (0..5)
            .map(|i| {
                Arc::new(RejectingNode {
                    inner: MemoryNode::new(i, format!("s{i}")),
                    rejected: String::new().into(),
                    lands: false,
                    deleted_once: Default::default(),
                })
            })
            .collect();
        let cluster = nodes.iter().map(|n| Arc::clone(n) as Arc<dyn StorageNode>);
        let policy = PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        };
        let config = ArchiveConfig::new(policy).with_integrity(IntegrityMode::DigestOnly);
        let mut a = Archive::with_cluster(config, Cluster::new(cluster.collect())).unwrap();
        let id = a.ingest(b"two fresh shares of five", "d").unwrap();
        for node in &nodes[..3] {
            *node.rejected.lock().unwrap() = id.to_string();
        }
        let err = a.refresh_object(&id).unwrap_err();
        assert!(
            matches!(&err, ArchiveError::DegradedBeyondBudget { id: at, available: 2, required: 3, .. } if *at == id),
            "{err}"
        );
        assert_eq!(a.manifest(&id).unwrap().refresh_epochs, 1);
    }

    /// Regression: a failed dedup ingest used to leave the hashes of the
    /// blocks it never stored in the bounded index, so a later lookup
    /// counted a hit and the hit ratio overstated. Rolling the ingest back
    /// takes them out again.
    #[test]
    fn a_rolled_back_ingest_leaves_the_index_as_it_found_it() {
        let items = versions();
        let (mut a, _) =
            refusing_the_second(rs_config(IntegrityMode::DigestOnly, true), &items, false);
        a.ingest(&items[0].0, &items[0].1).unwrap();
        let found = a.dedup_index.stats().entries;
        assert!(a.ingest(&items[1].0, &items[1].1).is_err());
        let stats = a.dedup_stats().unwrap();
        assert_eq!(
            (stats.index.entries, stats.unique_data_blocks),
            (found, found)
        );
    }

    /// Checks the unit table's refcounts: every block row's count is the
    /// references the object rows hold, recomputed from each row's leaf
    /// list by tree build; no block row sits at zero; every referenced
    /// block has a row.
    fn assert_refcounts(a: &Archive, step: &str) {
        let mut refs: BTreeMap<BlockHash, u64> = BTreeMap::new();
        for m in a.manifests.rows() {
            for h in m.blocks.iter().flat_map(|d| a.references(d)) {
                *refs.entry(h).or_default() += 1;
            }
        }
        let counts: BTreeMap<BlockHash, u64> =
            a.blocks().map(|(h, rec)| (*h, rec.refcount)).collect();
        assert!(
            counts.values().all(|&n| n > 0),
            "{step}: a block row at refcount 0"
        );
        if let Some(h) = refs.keys().find(|h| !counts.contains_key(h)) {
            panic!("{step}: referenced block {h} has no row");
        }
        assert_eq!(refs, counts, "{step}: refcounts");
    }

    /// Checks that no node holds a shard the unit table does not account
    /// for: every key every node lists is `(id, slot)` of a row, with
    /// `slot` inside the row's placement and the key on `placement[slot]`.
    fn assert_no_orphans(a: &Archive, step: &str) {
        let placements: BTreeMap<&str, &[NodeId]> = a
            .manifests
            .units()
            .map(|(unit, _)| a.manifests.record(unit).expect("a row's record"))
            .map(|m| (m.id.as_str(), m.placement.as_slice()))
            .collect();
        for node in a.cluster().nodes() {
            for key in node.keys() {
                let placement = placements.get(key.object.as_str());
                let on = placement.and_then(|p| p.get(key.shard as usize));
                assert_eq!(on, Some(&node.id()), "{step}: orphan shard {key:?}");
            }
        }
    }

    /// Refcounts equal the references the object rows hold, and no node
    /// holds a shard no row accounts for, after every step of a dedup
    /// sequence, over RS(3, 2) and Shamir(2, 3): a flush
    /// whose versions share blocks, a flush refused mid-way at a block
    /// only its second object introduces, a delete, a re-encode campaign,
    /// a repair after a node wipe, then a re-wrap of every object (the
    /// re-encoded RS leg is a cascade) or a refresh (Shamir).
    #[test]
    fn refcounts_equal_references_after_every_step() {
        let legs = [
            (
                PolicyKind::ErasureCoded { data: 3, parity: 2 },
                PolicyKind::Cascade {
                    suites: vec![SuiteId::Aes256CtrHmac],
                    data: 3,
                    parity: 2,
                },
            ),
            (
                PolicyKind::Shamir {
                    threshold: 2,
                    shares: 3,
                },
                PolicyKind::Shamir {
                    threshold: 2,
                    shares: 4,
                },
            ),
        ];
        for (policy, next) in legs {
            let nodes: Vec<Arc<RejectingNode>> = (0..6)
                .map(|i| {
                    Arc::new(RejectingNode {
                        inner: MemoryNode::new(i, format!("s{i}")),
                        rejected: String::new().into(),
                        lands: false,
                        deleted_once: Default::default(),
                    })
                })
                .collect();
            let cluster = nodes.iter().map(|n| Arc::clone(n) as Arc<dyn StorageNode>);
            let config = ArchiveConfig::new(policy.clone())
                .with_integrity(IntegrityMode::DigestOnly)
                .with_dedup(small_dedup());
            let mut a =
                Archive::with_cluster(config.clone(), Cluster::new(cluster.collect())).unwrap();
            let leg = format!("{policy:?}");
            let check = |a: &Archive, step: &str| {
                assert_refcounts(a, step);
                assert_no_orphans(a, step);
            };

            let items = versions();
            let mut ids = a.ingest_many(&borrowed(&items)).unwrap();
            check(&a, &format!("{leg}: ingest_many"));
            assert!(a.blocks().any(|(_, rec)| rec.refcount > 1), "{leg}: shared");

            // Two more versions, each half old and half new bytes; the
            // second's own block is refused, so only the first lands.
            let mut new = vec![0u8; 3000];
            ChaChaDrbg::from_u64_seed(32).fill_bytes(&mut new);
            let more = vec![
                ([&items[0].0[..1500], &new[..1500]].concat(), "v3".into()),
                ([&items[2].0[1500..], &new[1500..]].concat(), "v4".into()),
            ];
            let mut twin = Archive::in_memory(config).unwrap();
            twin.ingest_many(&borrowed(&items)).unwrap();
            let twin_ids = twin.ingest_many(&borrowed(&more)).unwrap();
            let leaves = |id: &ObjectId| twin.manifest(id).unwrap().blocks.unwrap().blocks;
            let (first, second) = (leaves(&twin_ids[0]), leaves(&twin_ids[1]));
            let own = second
                .iter()
                .find(|h| !first.contains(h) && a.block_record(h).is_none())
                .expect("a block of its own");
            for node in &nodes {
                *node.rejected.lock().unwrap() = crate::dedup::block_object_id(own);
            }
            assert!(a.ingest_many(&borrowed(&more)).is_err(), "{leg}");
            check(&a, &format!("{leg}: a flush failed mid-way"));
            for node in &nodes {
                node.rejected.lock().unwrap().clear();
            }
            ids.push(twin_ids[0].clone());
            assert_eq!(a.retrieve(&ids[3]).unwrap(), more[0].0, "{leg}");

            a.delete(&ids.remove(1)).unwrap();
            check(&a, &format!("{leg}: delete"));

            a.reencode_all(next.clone()).unwrap();
            check(&a, &format!("{leg}: reencode_all"));

            for key in nodes[0].keys() {
                nodes[0].inner.delete(&key).unwrap();
            }
            let sweep = a.repair_all();
            assert!(sweep.failures().is_empty(), "{leg}: {:?}", sweep.failures());
            check(&a, &format!("{leg}: repair after a node wipe"));

            for id in &ids {
                if matches!(next, PolicyKind::Shamir { .. }) {
                    a.refresh_object(id).unwrap();
                } else {
                    a.add_cascade_layer(id, SuiteId::ChaCha20Poly1305).unwrap();
                }
            }
            check(&a, &format!("{leg}: refresh / add_cascade_layer"));
            let payloads = [&items[0].0, &items[2].0, &more[0].0];
            for (id, payload) in ids.iter().zip(payloads) {
                assert_eq!(&a.retrieve(id).unwrap(), payload, "{leg}");
            }
        }
    }

    /// A delete sticks through transient faults: over five nodes that fail
    /// 30 % of operations, RS(3, 2) objects — classic, and dedup, whose
    /// blocks leave with their last reference — leave no key behind on
    /// any node once deleted. Seeds whose ingest fails are skipped.
    #[test]
    fn a_delete_under_transient_faults_leaves_no_shard() {
        let mut payload = vec![0u8; 4096];
        ChaChaDrbg::from_u64_seed(3).fill_bytes(&mut payload);
        let mut deleted = 0;
        for dedup in [false, true] {
            for seed in 0..20 {
                let plan = aeon_store::faults::FaultPlan::new(seed).with_transient_io_rate(0.3);
                let sites = ["a", "b", "c", "d", "e"];
                let (cluster, nodes) =
                    aeon_store::faults::faulty_in_memory_cluster(&sites, 1, &plan);
                let mut config =
                    ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
                        .with_integrity(IntegrityMode::DigestOnly)
                        .with_retry(RetryPolicy::default().with_attempts(16));
                config.dedup = dedup.then(small_dedup);
                let mut a = Archive::with_cluster(config, cluster).unwrap();
                let Ok(id) = a.ingest(&payload, "doc") else {
                    continue;
                };
                a.delete(&id).unwrap();
                deleted += 1;
                for node in &nodes {
                    assert_eq!(node.keys(), [], "dedup {dedup}, seed {seed}");
                }
            }
        }
        assert!(deleted >= 20, "only {deleted} ingests landed");
    }

    #[test]
    fn year_advances_and_is_monotonic() {
        let mut a = shamir_archive();
        a.advance_year(2050);
        assert_eq!(a.year(), 2050);
        let id = a.ingest(b"late", "d").unwrap();
        assert_eq!(a.manifest(&id).unwrap().created_year, 2050);
    }

    #[test]
    fn entropy_estimator_sane() {
        assert_eq!(estimate_entropy_bits_per_byte(&[]), 0.0);
        assert_eq!(estimate_entropy_bits_per_byte(&[7u8; 100]), 0.0);
        let uniform: Vec<u8> = (0..=255u8).collect();
        assert!((estimate_entropy_bits_per_byte(&uniform) - 8.0).abs() < 1e-9);
    }

    /// Damages a record's stored shards as its nodes would serve them:
    /// `edits[s]` is `(kind, arg)` for slot `s` — 0 deletes it, 1 flips
    /// a bit, 2 truncates it, anything else leaves it intact.
    fn damage(archive: &Archive, record: &Manifest, edits: &[(u8, usize)]) {
        for (s, (&node, &(kind, arg))) in record.placement.iter().zip(edits).enumerate() {
            let node = archive.cluster().node(node).unwrap();
            let key = ShardKey::new(record.id.as_str(), s as u32);
            let mut blob = node.get(&key).unwrap();
            match kind {
                0 => node.delete(&key).unwrap(),
                1 if !blob.is_empty() => {
                    let at = arg % blob.len();
                    blob[at] ^= 1 << (arg % 8);
                    node.put(&key, &blob).unwrap();
                }
                2 => {
                    blob.truncate(arg % (blob.len() + 1));
                    node.put(&key, &blob).unwrap();
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A decode-only read (verification stopped at the read
        /// threshold) answers exactly like a full-scrub read of the same
        /// damaged shards: the same bytes, or the same error with the
        /// same `available` / `corrupt`. Every family, dedup on and off;
        /// slots missing, bit-flipped or truncated, and with `rot_last`
        /// the last slot always flipped. In dedup mode each stored block
        /// is compared, and the object's retrieve succeeds exactly when
        /// every block's scrub decodes.
        #[test]
        fn decode_reads_answer_like_full_scrubs(
            family in 0usize..9,
            dedup in any::<bool>(),
            len in 0usize..3000,
            seed in any::<u64>(),
            edits in prop::collection::vec((0u8..12, any::<usize>()), 64..65),
            rot_last in any::<bool>(),
        ) {
            let policy = crate::policy::tests::all_policies().swap_remove(family);
            let mut config = ArchiveConfig::new(policy);
            if dedup {
                config = config.with_dedup(small_dedup());
            }
            let mut archive = Archive::in_memory(config).unwrap();
            let mut payload = vec![0u8; len];
            ChaChaDrbg::from_u64_seed(seed).fill_bytes(&mut payload);
            let id = archive.ingest(&payload, "equivalence").unwrap();
            let manifest = archive.manifest(&id).unwrap();
            let records: Vec<Manifest> = archive
                .units_of(&manifest)
                .iter()
                .map(|unit| archive.load(unit).unwrap())
                .collect();
            for (r, record) in records.iter().enumerate() {
                let mut edits = edits[(r * 7) % 32..][..record.placement.len()].to_vec();
                if rot_last {
                    // Past the first `read_threshold` valid slots unless
                    // fewer than that survive.
                    *edits.last_mut().unwrap() = (1, seed as usize);
                }
                damage(&archive, record, &edits);
            }
            let decode = |plan: ReadPlan, record: &Manifest| {
                let mut rng = archive.op_rng("retrieve", record.id.as_str());
                let snap = archive.executor().read(&plan, &mut rng);
                format!("{:?}", archive.decode_verified(&id, record, &snap))
            };
            let mut scrubs = Vec::with_capacity(records.len());
            for record in &records {
                let scrub = decode(ReadPlan::for_manifest(record), record);
                prop_assert_eq!(decode(ReadPlan::for_decode(record), record), scrub.as_str());
                scrubs.push(scrub);
            }
            let retrieved = archive.retrieve(&id);
            if dedup {
                prop_assert_eq!(retrieved.is_ok(), scrubs.iter().all(|s| s.starts_with("Ok")));
                if let Ok(bytes) = retrieved {
                    prop_assert_eq!(bytes, payload);
                }
            } else {
                prop_assert_eq!(format!("{retrieved:?}"), scrubs[0].as_str());
            }
        }
    }

    /// A flipped byte in a shard past the read threshold is invisible to
    /// a read, which verifies only the shards it decodes, but every
    /// scrub still finds it: `verify` counts it out, `repair` rewrites
    /// it, and `scan_fleet` (node metadata only) still lists it.
    #[test]
    fn rot_past_the_threshold_is_left_to_the_scrubs() {
        let mut a = shamir_archive();
        let id = a.ingest(b"latent error past the threshold", "d").unwrap();
        let manifest = a.manifest(&id).unwrap();
        let node = Arc::clone(a.cluster().node(manifest.placement[4]).unwrap());
        let key = ShardKey::new(id.as_str(), 4);
        let original = node.get(&key).unwrap();
        let mut rotted = original.clone();
        rotted[0] ^= 0x01;
        node.put(&key, &rotted).unwrap();

        assert_eq!(a.retrieve(&id).unwrap(), b"latent error past the threshold");
        let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert_eq!(health.shards_available, 4, "n - 1");
        assert!(health.intact);
        let scan = a.scan_fleet();
        assert_eq!(
            (scan.healthy, scan.tickets.len()),
            (1, 0),
            "keys still listed"
        );

        let repaired = a.repair_object(&id).unwrap();
        assert_eq!((repaired.missing_before, repaired.missing_after), (1, 0));
        assert_eq!(node.get(&key).unwrap(), original, "slot 4 rewritten");
        let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert_eq!(health.shards_available, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `retrieve_many` answers each id as `retrieve` alone does — the
        /// payload, or the same typed error against the same id — though
        /// it checks every decoded payload in one `digest_many`. At least
        /// nine healthy objects (enough for the sixteen-lane path) are
        /// shuffled among bad entries of four kinds: an unknown id (0),
        /// shards deleted below the read threshold (1), shards rotted
        /// below it (2), and clean shards under an altered manifest
        /// digest (3). A random prefix of the list (1–40 ids) is checked
        /// too.
        #[test]
        fn retrieve_many_answers_like_retrieve_alone(
            family in 0usize..9,
            healthy in 9usize..32,
            bad in prop::collection::vec(0u8..4, 0..10),
            seed in any::<u64>(),
            cut in any::<usize>(),
        ) {
            let policy = crate::policy::tests::all_policies().swap_remove(family);
            let config = ArchiveConfig::new(policy).with_integrity(IntegrityMode::DigestOnly);
            let mut archive = Archive::in_memory(config).unwrap();
            let mut rng = ChaChaDrbg::from_u64_seed(seed);
            // At least 512 random bytes: an Entropic ingest's entropy gate
            // passes.
            let items: Vec<(Vec<u8>, String)> = (0..healthy + bad.len())
                .map(|i| {
                    let mut payload = vec![0u8; 512 + rng.gen_range(2500) as usize];
                    rng.fill_bytes(&mut payload);
                    (payload, format!("obj-{i}"))
                })
                .collect();
            let stored = archive.ingest_many(&borrowed(&items)).unwrap();
            // (id asked for, its kind: None healthy, else the bad kind)
            let mut entries: Vec<(ObjectId, Option<u8>)> = Vec::new();
            for (i, id) in stored.into_iter().enumerate() {
                let kind = i.checked_sub(healthy).map(|j| bad[j]);
                let manifest = archive.manifest(&id).unwrap();
                let lost = manifest.placement.len() - manifest.policy.read_threshold() + 1;
                match kind {
                    Some(0) => {
                        entries.push((ObjectId(format!("unknown-{i}")), kind));
                        continue;
                    }
                    Some(kind @ (1 | 2)) => {
                        let edit = (kind - 1, seed as usize);
                        damage(&archive, &manifest, &vec![edit; lost]);
                    }
                    Some(_) => {
                        archive.manifests.update(&id, |m| m.digest[0] ^= 1);
                    }
                    None => {}
                }
                entries.push((id, kind));
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.gen_range(i as u64 + 1) as usize);
            }
            let ids: Vec<ObjectId> = entries.iter().map(|(id, _)| id.clone()).collect();
            let alone: Vec<String> =
                ids.iter().map(|id| format!("{:?}", archive.retrieve(id))).collect();
            let together = archive.retrieve_many(&ids);
            for ((id, kind), result) in entries.iter().zip(&together) {
                let typed = match (kind, result) {
                    (None, Ok(payload)) => {
                        let i: usize = archive.manifest(id).unwrap().name[4..].parse().unwrap();
                        *payload == items[i].0
                    }
                    (Some(0), Err(ArchiveError::UnknownObject(at))) => at == id,
                    (Some(1), Err(ArchiveError::DegradedBeyondBudget { id: at, .. })) => at == id,
                    (Some(2 | 3), Err(ArchiveError::IntegrityViolation(at))) => at == id,
                    _ => false,
                };
                prop_assert!(typed, "kind {:?}: {:?}", kind, result);
            }
            let many: Vec<String> = together.iter().map(|r| format!("{r:?}")).collect();
            prop_assert_eq!(&many, &alone);
            let cut = 1 + cut % ids.len();
            let prefix: Vec<String> =
                archive.retrieve_many(&ids[..cut]).iter().map(|r| format!("{r:?}")).collect();
            prop_assert_eq!(prefix.as_slice(), &alone[..cut]);
        }
    }

    /// A dedup archive whose blocks are sealed (AES-CTR + HMAC, then
    /// RS(2, 1)), so a block whose shards check out can still fail its
    /// decode.
    fn sealed_dedup_archive() -> Archive {
        let policy = PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 2,
            parity: 1,
        };
        let config = ArchiveConfig::new(policy)
            .with_integrity(IntegrityMode::DigestOnly)
            .with_dedup(small_dedup());
        Archive::in_memory(config).unwrap()
    }

    /// Rewrites block `hash` as the archive would have stored `plaintext`
    /// under that address: fresh shards on its nodes, their digests on its
    /// record. Every shard check passes and the block decodes — to bytes
    /// that do not hash to `hash`.
    fn forge_block(archive: &mut Archive, hash: &BlockHash, plaintext: &[u8]) {
        let rec = archive.block_record(hash).unwrap().record.clone();
        let ctx = &rec.id;
        let mut rng = archive.op_rng("block-encode", ctx.as_str());
        let cfg = crate::dedup::block_pipeline();
        let write =
            plan::plan_write(&rec.policy, &archive.keys, &mut rng, ctx, plaintext, &cfg).unwrap();
        for (s, (node, shard)) in rec.placement.iter().zip(&write.shards).enumerate() {
            let node = archive.cluster().node(*node).unwrap();
            node.put(&ShardKey::new(ctx.as_str(), s as u32), shard)
                .unwrap();
        }
        let rec = &mut archive.manifests.block_mut(hash).unwrap().record;
        rec.meta = write.meta;
        rec.shard_digests = write.shard_digests;
    }

    /// Flips the last byte of block `hash`'s first shard and records the
    /// new digest: every shard check passes, and the decode fails, since
    /// the block's policy authenticates what it decrypts.
    fn break_block(archive: &mut Archive, hash: &BlockHash) {
        let rec = &archive.block_record(hash).unwrap().record;
        let node = Arc::clone(archive.cluster().node(rec.placement[0]).unwrap());
        let key = ShardKey::new(rec.id.as_str(), 0);
        let mut shard = node.get(&key).unwrap();
        *shard.last_mut().unwrap() ^= 1;
        node.put(&key, &shard).unwrap();
        archive
            .manifests
            .block_mut(hash)
            .unwrap()
            .record
            .shard_digests[0] = Sha256::digest(&shard);
    }

    /// A data block whose shards and recorded shard digests were rewritten
    /// from other plaintext passes every shard check and decodes, yet
    /// every object that references it fails `IntegrityViolation`, typed
    /// against that object, alone and in one `retrieve_many`; an object
    /// that does not reference it still reads.
    #[test]
    fn a_block_that_decodes_to_other_bytes_fails_every_owner() {
        let mut a = sealed_dedup_archive();
        let items = versions();
        let ids = a.ingest_many(&borrowed(&items)).unwrap();
        let leaves: Vec<Vec<BlockHash>> = ids
            .iter()
            .map(|id| a.manifest(id).unwrap().blocks.unwrap().blocks)
            .collect();
        let shared = *leaves[0]
            .iter()
            .find(|h| leaves[1].contains(h))
            .expect("the first two versions share a block");
        assert!(!leaves[2].contains(&shared), "the third does not");
        let forged = vec![0x5A; a.block_record(&shared).unwrap().record.logical_len];
        forge_block(&mut a, &shared, &forged);

        let rec = a.block_record(&shared).unwrap().record.clone();
        let ctx = rec.id.as_str();
        let plan = ReadPlan::for_manifest(&rec);
        let snap = a.executor().read(&plan, &mut a.op_rng("probe", ctx));
        assert_eq!(snap.valid, rec.placement.len(), "every shard checks out");
        let decoded =
            pipeline::decode_object(&rec.policy, &a.keys, ctx, &snap.shards, &rec.meta, 1);
        assert_eq!(decoded.unwrap(), forged, "and the block decodes");

        let together = a.retrieve_many(&ids);
        for (i, (id, many)) in ids.iter().zip(together).enumerate() {
            let one = a.retrieve(id);
            if i < 2 {
                assert!(
                    matches!(&one, Err(ArchiveError::IntegrityViolation(at)) if at == id),
                    "{one:?}"
                );
            } else {
                assert_eq!(one.as_ref().unwrap(), &items[i].0);
            }
            assert_eq!(format!("{many:?}"), format!("{one:?}"));
        }
    }

    /// Two damaged blocks in one object: the first in payload order
    /// decides the error, however each was damaged. A decode failure
    /// before an address mismatch is the decode's `Policy` error, and an
    /// address mismatch before a decode failure is an
    /// `IntegrityViolation` — as a block-at-a-time read answered.
    #[test]
    fn the_first_failing_block_decides() {
        for forged_first in [false, true] {
            let mut a = sealed_dedup_archive();
            let mut payload = vec![0u8; 3000];
            ChaChaDrbg::from_u64_seed(77).fill_bytes(&mut payload);
            let id = a.ingest(&payload, "two faults").unwrap();
            let leaves = a.manifest(&id).unwrap().blocks.unwrap().blocks;
            let (early, late) = (leaves[1], leaves[leaves.len() - 2]);
            assert!(
                leaves.len() >= 4 && early != late,
                "{} leaves",
                leaves.len()
            );
            let (forged, broken) = if forged_first {
                (early, late)
            } else {
                (late, early)
            };
            let other = vec![0x5A; a.block_record(&forged).unwrap().record.logical_len];
            forge_block(&mut a, &forged, &other);
            break_block(&mut a, &broken);

            let one = a.retrieve(&id);
            if forged_first {
                assert!(
                    matches!(&one, Err(ArchiveError::IntegrityViolation(at)) if *at == id),
                    "{one:?}"
                );
            } else {
                assert!(matches!(&one, Err(ArchiveError::Policy(_))), "{one:?}");
            }
            let many = a.retrieve_many(std::slice::from_ref(&id));
            assert_eq!(format!("{:?}", many[0]), format!("{one:?}"));
        }
    }
}

#[cfg(test)]
mod rewrap_tests {
    use super::*;
    use crate::policy::PolicyKind;
    use aeon_crypto::SuiteId;

    #[test]
    fn cascade_rewrap_adds_layer_without_plaintext_access() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac],
            data: 3,
            parity: 2,
        }))
        .unwrap();
        let id = a.ingest(b"wrap me deeper", "d").unwrap();
        a.add_cascade_layer(&id, SuiteId::ChaCha20Poly1305).unwrap();
        // Policy now carries both layers and the object still reads.
        match &a.manifest(&id).unwrap().policy {
            PolicyKind::Cascade { suites, .. } => {
                assert_eq!(
                    suites,
                    &vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305]
                );
            }
            other => panic!("unexpected policy {other:?}"),
        }
        assert_eq!(a.retrieve(&id).unwrap(), b"wrap me deeper");
        // A second re-wrap stacks again.
        a.add_cascade_layer(&id, SuiteId::Aes256CtrHmac).unwrap();
        assert_eq!(a.retrieve(&id).unwrap(), b"wrap me deeper");
    }

    #[test]
    fn rewrap_rejected_for_non_cascade() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
            threshold: 2,
            shares: 3,
        }))
        .unwrap();
        let id = a.ingest(b"x", "d").unwrap();
        assert!(matches!(
            a.add_cascade_layer(&id, SuiteId::ChaCha20Poly1305),
            Err(ArchiveError::UnsupportedOperation(_))
        ));
    }

    #[test]
    fn pedersen_chain_integrity_mode() {
        let mut a = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Replication { copies: 2 })
                .with_integrity(IntegrityMode::PedersenChain),
        )
        .unwrap();
        let id = a.ingest(b"hidden anchored doc", "d").unwrap();
        let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
        assert!(health.intact);
        assert_eq!(health.chain_valid, Some(true));
        // The ledger entry is a group element, not the document digest.
        let anchor = a.ledger().entry(0).unwrap().payload.clone();
        assert_eq!(anchor.len(), 256);
        assert_ne!(
            &anchor[..32],
            aeon_crypto::Sha256::digest(b"hidden anchored doc").as_ref()
        );
    }
}
