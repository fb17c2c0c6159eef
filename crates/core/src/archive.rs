//! The archive: policy-driven ingest, retrieval, verification,
//! maintenance.

use crate::catalog::{FleetCatalog, Row, DEFAULT_CATALOG_SHARDS};
use crate::codec::RepairError;
use crate::dedup::{BlockKind, BlockRecord, DedupConfig, DedupManifest, IndexStats};
use crate::executor::{verify_where, PlanExecutor, ShardsSnapshot, UnitWrite, WriteMode};
use crate::keys::KeyStore;
use crate::pipeline::{self, PipelineConfig};
use crate::plan::{self, ReadPlan, SegmentHasher, WritePlan};
use crate::policy::{EncodingMeta, PolicyError, PolicyKind};
use crate::unit::{Unit, BLOCK, OBJECT};
use aeon_cas::BlockHash;
use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::ledger::Ledger;
use aeon_integrity::timestamp::{AnchorMode, DocumentChain, SigBreakSchedule, TimestampAuthority};
use aeon_num::pedersen::Committer;
use aeon_num::ModpGroup;
use aeon_store::cluster::{ClusterError, TransferReport};
use aeon_store::node::{Blob, NodeId};
use aeon_store::retry::RetryPolicy;
use aeon_store::{Cluster, DispatchPolicy};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::{fmt, iter, mem};

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

impl ArchiveError {
    /// [`ArchiveError::DegradedBeyondBudget`] with no corrupt shard: only
    /// `available` of `id`'s `required` shards were read, or landed.
    pub(crate) fn degraded(id: ObjectId, available: usize, required: usize) -> Self {
        let corrupt = 0;
        ArchiveError::DegradedBeyondBudget {
            id,
            available,
            required,
            corrupt,
        }
    }
}

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
    /// The payload digest: the root of an RFC 6962 Merkle tree over the
    /// payload's [`plan::SEGMENT`]-byte segments, computed like a shard
    /// digest (`crate::plan::tree_digests`), not SHA-256 of the whole
    /// payload. The ingest flush records it, the timestamp chain anchors
    /// it, every read checks the decoded payload against it, and
    /// [`Archive::verify`] recomputes it. A dedup block's record holds its
    /// content address here instead: the block's plain SHA-256
    /// ([`aeon_cas::BlockHash::of`]).
    pub digest: [u8; 32],
    /// The shard digest of each stored shard blob, indexed like
    /// `placement`: the root of an RFC 6962 Merkle tree over the blob's
    /// [`plan::SEGMENT`]-byte segments (`crate::plan::tree_digests`),
    /// not SHA-256 of the whole blob. Scrubs, repair and a failed decode
    /// read use these to discard bit-rotted shards instead of feeding
    /// them to the decoder.
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

/// One unit's decode read ([`Archive::read_units`]): the verified
/// payload, the per-shard accounting, and the stored bytes the fetch
/// returned — every present slot, counted before a failed decode's
/// fallback discards a corrupt one.
pub(crate) struct UnitRead {
    pub(crate) payload: Vec<u8>,
    pub(crate) report: TransferReport,
    pub(crate) fetched: u64,
}

/// One unit of a read, as [`Archive::decode_many`] takes it: the object
/// its failures are typed against, the unit (whose kind says how its
/// digest is computed), its loaded record (a manifest, or a stored
/// unit's) and its fetched shards.
pub(crate) type Decode<'a> = (&'a ObjectId, &'a Unit, &'a Manifest, &'a ShardsSnapshot);

/// A decode read's fetch, nothing decoded or checked yet
/// ([`Archive::fetch_units`]; [`Archive::check_units`] finishes it):
/// each unit with its owner, its loaded record, its read plan and the
/// shards the plan fetched.
pub(crate) struct Fetched<'a, U> {
    units: &'a [(&'a ObjectId, U)],
    records: Vec<&'a Manifest>,
    plans: Vec<ReadPlan>,
    snaps: Vec<ShardsSnapshot>,
}

impl<'a, U: Borrow<Unit>> Fetched<'a, U> {
    /// How many units were fetched.
    pub(crate) fn len(&self) -> usize {
        self.units.len()
    }

    /// Unit `i`'s loaded record.
    pub(crate) fn record(&self, i: usize) -> &'a Manifest {
        self.records[i]
    }

    /// Unit `i` as a decode takes it.
    pub(crate) fn unit(&self, i: usize) -> Decode<'_> {
        let (owner, unit) = &self.units[i];
        (owner, unit.borrow(), self.records[i], &self.snaps[i])
    }

    /// The fetch's per-shard accounting, unit after unit.
    pub(crate) fn into_report(self) -> TransferReport {
        let mut report = TransferReport::default();
        for snap in self.snaps {
            report.attempts.extend(snap.report.attempts);
        }
        report
    }
}

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
    /// Dedup mode: how landed ingests found their leaves in the table.
    pub(crate) leaf_counts: IndexStats,
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
    /// Returns [`ArchiveError::Policy`] for an invalid default policy or
    /// dedup configuration, and
    /// [`ArchiveError::UnsupportedOperation`] when a node already holds a
    /// shard: over another archive's shards, or its own after a restart,
    /// a new archive would mint the same ids, overwrite those shards and
    /// reuse their keys and nonces.
    pub fn with_cluster(config: ArchiveConfig, cluster: Cluster) -> Result<Self, ArchiveError> {
        config.policy.validate()?;
        if let Some(dedup) = &config.dedup {
            dedup.validate()?;
        }
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
        Ok(Archive {
            keys: KeyStore::new(config.master_key),
            rng,
            cluster,
            manifests: FleetCatalog::new(DEFAULT_CATALOG_SHARDS),
            leaf_counts: IndexStats::default(),
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
        if gates(policy) {
            for (payload, _) in items {
                let mut counts = [0; 256];
                count_bytes(&mut counts, payload, 1);
                entropy_gate(policy, &counts)?;
            }
        }
        let ids: Vec<ObjectId> = items.iter().map(|(_, name)| self.next_id(name)).collect();
        self.write_flush(&ids, items, policy, true)?;
        Ok(ids)
    }

    /// The one ingest path, for classic objects and dedup blocks alike.
    /// Every item plans its stored units in submission order: a classic
    /// object is one shard set drawn from the archive's encode stream, a
    /// dedup object the blocks fresh to the archive and to the flush
    /// ([`Archive::plan_blocks`]). Every payload is then digested in one
    /// batch, and every unit written as a fresh unit in one cross-object
    /// `write_units` under its kind's ingest label, which digests every
    /// shard in one batch of its own. Item *i* lands
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
        let payloads: Vec<&[u8]> = items.iter().map(|(p, _)| *p).collect();
        for (manifest, digest) in manifests.iter_mut().zip(plan::tree_digests(&payloads)) {
            manifest.digest = digest;
        }
        let mut rngs: Vec<ChaChaDrbg> = plans
            .iter()
            .zip(&blocks)
            .map(|(write, block)| {
                let labels = if block.is_some() { &BLOCK } else { &OBJECT };
                self.op_rng(labels.ingest, write.object.as_str())
            })
            .collect();
        // Each unit's shards are handed over by value: the buffers the
        // encode built are the ones the nodes keep. Too few shards
        // landing durably means a unit could never be read back: the
        // executor has already rolled that unit back.
        let units: Vec<UnitWrite<'_>> = (plans.iter_mut())
            .zip(placements.iter().map(Vec::as_slice))
            .map(|(write, placement)| {
                let required = write.required;
                let blobs = mem::take(&mut write.shards).into_iter().map(Blob::from);
                let (mode, slots) = (WriteMode::Fresh { required }, blobs.enumerate());
                (write.object.as_str(), placement, mode, slots.collect())
            })
            .collect();
        let written = self.executor().write_units(&units, &mut rngs);
        drop(units); // the nodes hold their own shares of the blobs
        let failed = written.iter().position(|w| w.result.is_err());
        let landed = failed.map_or(items.len(), |k| owners[k]);
        let failure = failed.map(|k| {
            let (available, required) = (written[k].outcome.written, plans[k].required);
            ArchiveError::degraded(ids[owners[k]].clone(), available, required)
        });
        // Takes back the shards that landed of every unit that item
        // `from` or a later one owns.
        let mut roll_back = |archive: &mut Self, from: usize| {
            for k in owners.partition_point(|&item| item < from)..owners.len() {
                if written[k].result.is_ok() {
                    let object = plans[k].object.as_str();
                    archive
                        .executor()
                        .roll_back(object, &placements[k], &mut rngs[k]);
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
        let mut misses = 0;
        for ((((item, block), write), placement), w) in units.zip(written).take(filed) {
            let Some((hash, kind, len)) = block else {
                let m = &mut manifests[item];
                (m.meta, m.placement, m.shard_digests) = (write.meta, placement, w.digests);
                continue;
            };
            misses += u64::from(kind == BlockKind::Data);
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
                    shard_digests: w.digests,
                    created_year: self.year,
                    refresh_epochs: 0,
                    blocks: None,
                },
            };
            self.manifests
                .insert_unit(Unit::Block(hash), Row::Block(block));
        }
        // Every landed leaf occurrence either filed its data block or
        // found it in the table or earlier in the flush.
        let leaves: usize = manifests
            .iter()
            .flat_map(|m| &m.blocks)
            .map(|d| d.blocks.len())
            .sum();
        self.leaf_counts.misses += misses;
        self.leaf_counts.hits += leaves as u64 - misses;
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
    /// attempt cap. The decode takes the first `k` (the read threshold)
    /// present shards unhashed, and the read returns bytes only if they
    /// hash to the recorded payload digest. Only when that decode fails
    /// are the fetched shards checked against their per-shard digests in
    /// slot order, bit-rotted ones discarded until `k` are valid, and the
    /// payload decoded from those. So a healthy read hashes the payload
    /// and no shard, and rot in a shard a read does not decode from — or
    /// in bytes of it the decoder never consumes — is found by
    /// [`Archive::verify`] or a repair, not by a read. The read fails only
    /// when fewer than `k` valid shards remain: with corruption in
    /// evidence that is an [`ArchiveError::IntegrityViolation`], otherwise
    /// an [`ArchiveError::DegradedBeyondBudget`].
    ///
    /// A dedup object reads the same way one level up: its distinct leaf
    /// blocks are decoded unhashed and joined, and the payload's digest
    /// decides. Only when it misses, or a block fails to decode, is each
    /// block checked against its content address, a block that misses
    /// decoded again from its digest-checked shards, and the payload
    /// joined and checked once more — from the shards already fetched,
    /// so the fallback costs no node I/O.
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
    /// against its digest in **one** `plan::tree_digests` batch: one
    /// decode read of every unit. Per-object outcomes — payload bytes and
    /// typed failures — are exactly what [`Archive::retrieve`] would
    /// return for each id; one unreadable object does not fail its
    /// neighbors. Dedup objects are read one at a time, in call order,
    /// each as one read of the distinct leaves its row lists: batching
    /// them across the call would reorder the node accesses — and so the
    /// injected faults — of a block two objects share.
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
                    Some(d) => self.read_leaves(id, &d.blocks, Some(&m.digest)),
                    None => {
                        let read = read.next().expect("one read per classic id");
                        read.map(|read| (read.payload, read.report))
                    }
                }
            })
            .collect()
    }

    /// The one decode read, over any list of units — behind `retrieve*`,
    /// the dedup walk and a re-encode's read: [`Archive::fetch_units`],
    /// each unit decoded from its first `k` present slots, unhashed
    /// ([`Archive::decode_fetched`]), then [`Archive::check_units`]:
    /// every payload checked against its record's digest in one batch,
    /// that digest alone deciding whether a read returns bytes, and only
    /// a unit whose decode or check failed read again the way a scrub
    /// reads it, from the slots already fetched (no new I/O). `out[i]` is
    /// unit `i`'s [`UnitRead`], or its failure typed against its owner,
    /// independent of its neighbours.
    ///
    /// # Errors
    ///
    /// Before any node is touched, when a unit has no row:
    /// [`ArchiveError::UnknownObject`] for an object, and
    /// [`PolicyError::Malformed`] for a block its owner references.
    pub(crate) fn read_units(
        &self,
        units: &[(&ObjectId, impl Borrow<Unit>)],
    ) -> Result<Vec<Result<UnitRead, ArchiveError>>, ArchiveError> {
        let fetched = self.fetch_units(units)?;
        let decoded = self.decode_fetched(&fetched);
        Ok(self.check_units(fetched, decoded))
    }

    /// The fetch of a decode read, with nothing decoded or checked: each
    /// unit's [`ReadPlan::for_decode`], retry jitter drawn under its
    /// kind's read label, and every shard fetched in one
    /// [`PlanExecutor::read_many`] fan-in, unhashed. A caller that holds
    /// a digest over all the units' bytes (a dedup object's payload root)
    /// decodes and checks that first, and hands the fetch to
    /// [`Archive::check_units`] only when it misses.
    ///
    /// # Errors
    ///
    /// As [`Archive::read_units`].
    pub(crate) fn fetch_units<'a, U: Borrow<Unit>>(
        &'a self,
        units: &'a [(&'a ObjectId, U)],
    ) -> Result<Fetched<'a, U>, ArchiveError> {
        let records = units.iter().map(|(owner, unit)| {
            let unit = unit.borrow();
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
            .map(|((_, unit), r)| self.op_rng(unit.borrow().labels().read, r.id.as_str()))
            .collect();
        let snaps = self.executor().read_many(&plans, &mut rngs);
        Ok(Fetched {
            units,
            records,
            plans,
            snaps,
        })
    }

    /// Every fetched unit decoded from its first `k` present slots,
    /// unhashed.
    pub(crate) fn decode_fetched<U: Borrow<Unit>>(
        &self,
        fetched: &Fetched<'_, U>,
    ) -> Vec<Result<Vec<u8>, ArchiveError>> {
        (0..fetched.len())
            .map(|i| self.decode_unit(&fetched.unit(i)))
            .collect()
    }

    /// The end of a decode read: every unit's unhashed `decoded` payload
    /// checked against its record's digest in one
    /// [`Archive::check_digests`]. Only a unit whose decode or check
    /// failed falls back, from the slots already fetched:
    /// [`verify_where`] checks every present slot by digest in slot order
    /// until `k` are valid, discarding the corrupt ones, and the unit
    /// decodes once more through [`Archive::decode_many`], failing as
    /// [`ArchiveError::IntegrityViolation`] or
    /// [`ArchiveError::DegradedBeyondBudget`] when too few are left — the
    /// error and counts a full scrub's decode would give.
    pub(crate) fn check_units<U: Borrow<Unit>>(
        &self,
        mut fetched: Fetched<'_, U>,
        mut decoded: Vec<Result<Vec<u8>, ArchiveError>>,
    ) -> Vec<Result<UnitRead, ArchiveError>> {
        let all = 0..fetched.len();
        Self::check_digests(&mut decoded, all.clone().map(|i| fetched.unit(i)));
        // Each failed unit, with the stored bytes its fetch returned
        // before the fallback discards a slot.
        let failed: Vec<(usize, u64)> = all
            .filter(|&i| decoded[i].is_err())
            .map(|i| (i, fetched.snaps[i].bytes()))
            .collect();
        verify_where(&fetched.plans, &mut fetched.snaps, |i| decoded[i].is_err());
        let again = failed.iter().map(|&(i, _)| fetched.unit(i));
        for (&(i, _), again) in failed.iter().zip(self.decode_many(again)) {
            decoded[i] = again;
        }
        let mut read: Vec<Result<UnitRead, ArchiveError>> = decoded
            .into_iter()
            .zip(fetched.snaps)
            .map(|(payload, snap)| {
                let fetched = snap.bytes();
                payload.map(|payload| UnitRead {
                    payload,
                    report: snap.report,
                    fetched,
                })
            })
            .collect();
        for (i, fetched) in failed {
            if let Ok(unit) = &mut read[i] {
                unit.fetched = fetched;
            }
        }
        read
    }

    /// The tail of a one-unit scrub read ([`Archive::verify`], a repair's
    /// fallback): [`Archive::decode_many`] over a batch of one
    /// loaded record of `unit` (a manifest, or a stored unit's), decoded
    /// under the record's context and verified against its digest,
    /// failures typed against `owner`.
    pub(crate) fn decode_verified(
        &self,
        owner: &ObjectId,
        unit: &Unit,
        record: &Manifest,
        snap: &ShardsSnapshot,
    ) -> Result<Vec<u8>, ArchiveError> {
        self.decode_many(iter::once((owner, unit, record, snap)))
            .pop()
            .expect("one result per unit")
    }

    /// Each unit's threshold check and policy decode, then every decoded
    /// payload checked against its record's digest in one
    /// [`Archive::check_digests`]: the tail of a scrub read and of a
    /// decode read's fallback. `out[i]` is unit `i`'s payload or its
    /// typed failure.
    pub(crate) fn decode_many<'a>(
        &self,
        units: impl Iterator<Item = Decode<'a>> + Clone,
    ) -> Vec<Result<Vec<u8>, ArchiveError>> {
        let mut decoded: Vec<Result<Vec<u8>, ArchiveError>> =
            units.clone().map(|unit| self.decode_unit(&unit)).collect();
        Self::check_digests(&mut decoded, units);
        decoded
    }

    /// The one read-side digest check: every payload `decoded` holds,
    /// against its unit's recorded digest, each kind in **one** batch —
    /// an object's payload against its segment-tree root
    /// ([`plan::tree_digests`], every segment of every object one lane
    /// message), a dedup block's against its content address
    /// ([`BlockHash::of_many`]). A payload that misses becomes an
    /// [`ArchiveError::IntegrityViolation`] typed against the unit's
    /// owner — for a shared dedup block, the object whose read is in
    /// progress, so corruption of the block surfaces in every
    /// referencing object. Each result stands at its own index, so a
    /// caller that stops at the first failure sees what a
    /// unit-at-a-time read would.
    fn check_digests<'a>(
        decoded: &mut [Result<Vec<u8>, ArchiveError>],
        units: impl Iterator<Item = Decode<'a>> + Clone,
    ) {
        let (mut blocks, mut objects) = (Vec::new(), Vec::new());
        for (result, (_, unit, ..)) in decoded.iter().zip(units.clone()) {
            match (result, unit) {
                (Ok(payload), Unit::Block(_)) => blocks.push(payload.as_slice()),
                (Ok(payload), Unit::Object(_)) => objects.push(payload.as_slice()),
                (Err(_), _) => {}
            }
        }
        let blocks = BlockHash::of_many(&blocks);
        let (mut blocks, mut objects) = (blocks.iter(), plan::tree_digests(&objects).into_iter());
        for (result, (owner, unit, record, _)) in decoded.iter_mut().zip(units) {
            if result.is_err() {
                continue;
            }
            let digest = match unit {
                Unit::Block(_) => blocks.next().map(|hash| *hash.as_bytes()),
                Unit::Object(_) => objects.next(),
            };
            if digest != Some(record.digest) {
                *result = Err(ArchiveError::IntegrityViolation(owner.clone()));
            }
        }
    }

    /// One unit's threshold check, then the policy decode of the
    /// snapshot's first `valid` present slots under the unit's context:
    /// the first step of every decode, unhashed.
    pub(crate) fn decode_unit(
        &self,
        &(owner, _, record, snap): &Decode<'_>,
    ) -> Result<Vec<u8>, ArchiveError> {
        let required = record.policy.read_threshold();
        if snap.valid < required {
            if snap.corrupt > 0 {
                return Err(ArchiveError::IntegrityViolation(owner.clone()));
            }
            return Err(ArchiveError::degraded(owner.clone(), snap.valid, required));
        }
        Ok(pipeline::decode_first(
            &record.policy,
            &self.keys,
            record.id.as_str(),
            &snap.shards,
            snap.valid,
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
        let mut available = usize::MAX;
        let mut required = 0usize;
        let units = self.units_of(manifest);
        // A dedup object's leaves spell its payload: `slots[p]` is the
        // unit (a first distinct leaf) at leaf position `p`. Each leaf
        // payload is fed to the running digest as soon as every earlier
        // position was, and held only while a later position repeats it;
        // a tree node's payload, or a classic object's, is never held.
        let (distinct, slots) = manifest
            .blocks
            .as_ref()
            .map(|d| crate::dedup::first_occurrence_slots(&d.blocks))
            .unwrap_or_default();
        let mut last = vec![0usize; distinct.len()];
        for (p, &at) in slots.iter().enumerate() {
            last[at] = p;
        }
        let mut held: Vec<Option<Vec<u8>>> = vec![None; distinct.len()];
        let (mut spelled, mut fed, mut decoded) = (SegmentHasher::new(), 0usize, 0usize);
        for (i, unit) in units.iter().enumerate() {
            let Ok(record) = self.load(unit) else {
                available = 0;
                continue;
            };
            let snap = self.fetch_shards(&record, unit.labels().verify);
            available = available.min(snap.valid);
            required = required.max(record.policy.read_threshold());
            let Ok(payload) = self.decode_verified(id, unit, &record, &snap) else {
                continue;
            };
            decoded += 1;
            if decoded <= i || i >= held.len() {
                continue;
            }
            held[i] = Some(payload);
            while let Some(bytes) = slots.get(fed).and_then(|&at| held[at].as_ref()) {
                spelled.update(bytes);
                if last[slots[fed]] == fed {
                    held[slots[fed]] = None;
                }
                fed += 1;
            }
        }
        // Intact: every unit decodes from its scrub-clean shards, each
        // block to its address (so every leaf was fed). A dedup object's
        // then answer the rest: the tree its row's leaves rebuild ends at
        // the row's root, and the leaves spelled its digest.
        let mut intact = decoded == units.len();
        if let (Some(d), true) = (&manifest.blocks, intact) {
            intact =
                units.last() == Some(&Unit::Block(d.root)) && spelled.finalize() == manifest.digest;
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

/// Whether `policy` has an admission check ([`entropy_gate`]) that can
/// refuse a payload.
pub(crate) fn gates(policy: &PolicyKind) -> bool {
    matches!(policy, PolicyKind::Entropic { .. })
}

/// The Entropic policy's admission check, at ingest and re-encode: its
/// secrecy argument needs payloads that already look random. `counts` is
/// the payload's byte histogram ([`count_bytes`]), so a payload held in
/// pieces — a dedup object's leaf blocks — is gated whole without being
/// joined.
pub(crate) fn entropy_gate(policy: &PolicyKind, counts: &[u64; 256]) -> Result<(), ArchiveError> {
    if gates(policy) && counts.iter().sum::<u64>() >= 64 {
        let bits_per_byte = entropy_of(counts);
        if bits_per_byte < 6.0 {
            return Err(ArchiveError::LowEntropy { bits_per_byte });
        }
    }
    Ok(())
}

/// Adds each byte of `data`, `times` over, to the histogram `counts`.
pub(crate) fn count_bytes(counts: &mut [u64; 256], data: &[u8], times: u64) {
    for &b in data {
        counts[b as usize] += times;
    }
}

/// Crude Shannon-entropy estimate over byte frequencies.
pub fn estimate_entropy_bits_per_byte(data: &[u8]) -> f64 {
    let mut counts = [0; 256];
    count_bytes(&mut counts, data, 1);
    entropy_of(&counts)
}

/// The Shannon entropy, in bits per byte, of a byte histogram; 0 when
/// empty.
fn entropy_of(counts: &[u64; 256]) -> f64 {
    let n = counts.iter().sum::<u64>() as f64;
    // Folded from +0.0, so one repeated byte reads 0.00, not -0.00.
    counts.iter().filter(|&&c| c > 0).fold(0.0, |bits, &c| {
        let p = c as f64 / n;
        bits - p * p.log2()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Re-encoding onto Entropic meets the gate ingest applies, before
    /// the old shards are deleted: a classic object on its payload, a
    /// dedup object on the payload its leaves spell.
    #[test]
    fn reencode_onto_entropic_meets_the_entropy_gate() {
        let rs = PolicyKind::ErasureCoded { data: 2, parity: 1 };
        let entropic = PolicyKind::Entropic { data: 2, parity: 1 };
        let low = vec![b'a'; 4096];
        for dedup in [false, true] {
            let mut config = ArchiveConfig::new(rs.clone());
            if dedup {
                config = config.with_dedup(small_dedup());
            }
            let mut a = Archive::in_memory(config).unwrap();
            let id = a.ingest(&low, "x").unwrap();
            let err = a.reencode_object(&id, entropic.clone()).unwrap_err();
            assert!(
                matches!(err, ArchiveError::LowEntropy { bits_per_byte } if bits_per_byte == 0.0),
                "dedup {dedup}: {err}"
            );
            assert!(err.to_string().ends_with("(got 0.00 bits/byte)"), "{err}");
            assert_eq!(a.manifest(&id).unwrap().policy, rs, "dedup {dedup}");
            assert!(a.blocks().all(|(_, b)| b.record.policy == rs));
            assert_eq!(a.retrieve(&id).unwrap(), low, "dedup {dedup}");
        }
    }

    /// The gate judges a dedup object's payload, not each block: random
    /// data cut into blocks of 64–1024 B (a 64-byte block can show at
    /// most 6 bits/byte) moves Entropic → RS → Entropic and reads back.
    #[test]
    fn random_dedup_data_in_short_blocks_moves_back_onto_entropic() {
        let rs = PolicyKind::ErasureCoded { data: 2, parity: 1 };
        let entropic = PolicyKind::Entropic { data: 2, parity: 1 };
        let mut payload = vec![0u8; 8 << 10];
        ChaChaDrbg::from_u64_seed(40).fill_bytes(&mut payload);
        let config = ArchiveConfig::new(entropic.clone()).with_dedup(small_dedup());
        let mut a = Archive::in_memory(config).unwrap();
        let id = a.ingest(&payload, "random").unwrap();
        let short = a.blocks().filter(|(_, b)| b.kind == BlockKind::Data);
        let short = short.filter(|(_, b)| b.record.logical_len < 128).count();
        assert!(short > 0, "some data block is under 128 B");
        a.reencode_object(&id, rs.clone()).unwrap();
        assert!(a.blocks().all(|(_, b)| b.record.policy == rs));
        a.reencode_object(&id, entropic.clone()).unwrap();
        assert!(a.blocks().all(|(_, b)| b.record.policy == entropic));
        assert_eq!(a.manifest(&id).unwrap().policy, entropic);
        assert_eq!(a.retrieve(&id).unwrap(), payload);
    }

    /// The reference payload digest: `MerkleTree` over the payload's
    /// segments, the empty payload's root its one empty leaf.
    fn tree_root(payload: &[u8]) -> [u8; 32] {
        use aeon_integrity::merkle::{leaf_hash, MerkleTree};
        MerkleTree::build(payload.chunks(plan::SEGMENT)).map_or(leaf_hash(b""), |t| t.root())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Every recorded payload digest is the root of the payload's
        /// segment tree, at each segment edge and dedup on and off; one
        /// batched digest call equals one call per payload, and a flush
        /// of all six records what six one-object flushes record.
        #[test]
        fn a_payload_digest_is_the_segment_tree_root(seed in any::<u64>(), dedup in any::<bool>()) {
            use plan::SEGMENT;
            let lens = [0, 1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 64 * SEGMENT + 5];
            let mut rng = ChaChaDrbg::from_u64_seed(seed);
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| {
                    let mut payload = vec![0u8; len];
                    rng.fill_bytes(&mut payload);
                    payload
                })
                .collect();
            let borrowed: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let expect: Vec<[u8; 32]> = borrowed.iter().map(|p| tree_root(p)).collect();
            prop_assert_eq!(plan::tree_digests(&borrowed), expect.clone());
            for (payload, digest) in borrowed.iter().zip(&expect) {
                prop_assert_eq!(plan::tree_digests(&[payload]), vec![*digest]);
            }
            let archive = || {
                let mut config = ArchiveConfig::new(PolicyKind::Replication { copies: 2 });
                if dedup {
                    config = config.with_dedup(DedupConfig {
                        chunker: aeon_cas::ChunkerParams::default(),
                        fanout: 4,
                    });
                }
                Archive::in_memory(config).unwrap()
            };
            let (mut batched, mut single) = (archive(), archive());
            let items: Vec<(&[u8], &str)> = borrowed.iter().map(|p| (*p, "p")).collect();
            let ids = batched.ingest_many(&items).unwrap();
            for ((payload, id), digest) in borrowed.iter().zip(&ids).zip(&expect) {
                prop_assert_eq!(batched.manifest(id).unwrap().digest, *digest);
                let one = single.ingest(payload, "p").unwrap();
                prop_assert_eq!(single.manifest(&one).unwrap().digest, *digest);
                prop_assert_eq!(&batched.retrieve(id).unwrap(), payload);
            }
        }
    }

    /// The reads check the tree root, not SHA-256 of the payload: a
    /// record holding the flat digest of a two-segment payload fails
    /// every read as an integrity violation, and `verify` finds it not
    /// intact, dedup on and off.
    #[test]
    fn a_flat_payload_digest_is_an_integrity_violation() {
        let mut payload = vec![0u8; 2 * plan::SEGMENT];
        ChaChaDrbg::from_u64_seed(48).fill_bytes(&mut payload);
        for dedup in [false, true] {
            let mut config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 });
            if dedup {
                config = config.with_dedup(small_dedup());
            }
            let mut a = Archive::in_memory(config).unwrap();
            let id = a.ingest(&payload, "two segments").unwrap();
            let schedule = SigBreakSchedule::new();
            assert!(a.verify(&id, &schedule).unwrap().intact, "dedup {dedup}");
            a.manifests
                .update(&id, |m| m.digest = Sha256::digest(&payload));
            let violation = |r: Result<Vec<u8>, ArchiveError>| match r {
                Err(ArchiveError::IntegrityViolation(v)) => v == id,
                _ => false,
            };
            assert!(violation(a.retrieve(&id)), "dedup {dedup}");
            let mut many = a.retrieve_many(std::slice::from_ref(&id));
            assert!(violation(many.pop().unwrap()), "dedup {dedup}");
            assert!(!a.verify(&id, &schedule).unwrap().intact, "dedup {dedup}");
        }
    }

    /// A dedup object whose recorded digest is wrong, with every block
    /// and shard intact: its root misses, every block then passes its
    /// address check, and the joined payload misses once more — the read
    /// fails `IntegrityViolation` typed against the object, alone and in
    /// a batch, while an object sharing its blocks still reads.
    #[test]
    fn a_dedup_object_with_a_wrong_digest_fails_with_every_block_intact() {
        let mut a = sealed_dedup_archive();
        let items = versions();
        let ids = a.ingest_many(&borrowed(&items)).unwrap();
        a.manifests.update(&ids[0], |m| m.digest[0] ^= 1);
        let violation = |r: &Result<Vec<u8>, ArchiveError>| match r {
            Err(ArchiveError::IntegrityViolation(v)) => *v == ids[0],
            _ => false,
        };
        assert!(violation(&a.retrieve(&ids[0])));
        let many = a.retrieve_many(&ids);
        assert!(violation(&many[0]));
        for (i, read) in many.iter().enumerate().skip(1) {
            assert_eq!(read.as_ref().unwrap(), &items[i].0, "object {i}");
        }
        let leaves = a.manifest(&ids[0]).unwrap().blocks.unwrap().blocks;
        for hash in &leaves {
            let rec = &a.block_record(hash).unwrap().record;
            let snap = a.fetch_shards(rec, "probe");
            assert_eq!(snap.valid, rec.placement.len(), "block {hash} is intact");
        }
    }

    /// The chain an ingest stores anchors the recorded payload digest —
    /// the segment-tree root, not SHA-256 of the payload — so
    /// `prove_digest` of the manifest's digest opens it, under both
    /// anchored modes, dedup on and off, alone and in a batch.
    #[test]
    fn an_object_chain_opens_with_its_recorded_digest() {
        let mut payload = vec![0u8; 2 * plan::SEGMENT + 5];
        ChaChaDrbg::from_u64_seed(49).fill_bytes(&mut payload);
        for integrity in [IntegrityMode::HashChain, IntegrityMode::PedersenChain] {
            for dedup in [false, true] {
                let mut a = Archive::in_memory(rs_config(integrity, dedup)).unwrap();
                let mut ids = vec![a.ingest(&payload, "alone").unwrap()];
                ids.extend(a.ingest_many(&[(&payload[1..], "a"), (b"b", "b")]).unwrap());
                for id in &ids {
                    let digest = a.manifest(id).unwrap().digest;
                    let chain = &a.chains[id];
                    let at = format!("{integrity:?}, dedup {dedup}, {id}");
                    assert!(chain.prove_digest(&a.committer, &digest), "{at}");
                    let mut wrong = digest;
                    wrong[31] ^= 1;
                    assert!(!chain.prove_digest(&a.committer, &wrong), "{at}");
                }
                let chain = &a.chains[&ids[0]];
                assert!(
                    !chain.prove_content(&a.committer, &payload),
                    "a flat digest"
                );
            }
        }
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
        // Rot every replica (replication picks the first available).
        for h in &handles {
            for key in h.keys() {
                h.put(&key, b"lies!").unwrap();
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
        DedupConfig { chunker, fanout: 4 }
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
    /// and leaves no trace of either: no orphan shards or blocks, no leaf
    /// counts, no chains or ledger entries for objects that were never
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
                if let Some(stats) = a.dedup_stats() {
                    let leaves = first.blocks.as_ref().map_or(0, |d| d.blocks.len());
                    let index = stats.index;
                    assert_eq!(index.misses, stats.unique_data_blocks as u64, "{leg}");
                    assert_eq!(index.hits + index.misses, leaves as u64, "{leg}");
                }
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

    /// A refused dedup ingest counts nothing: none of its leaves landed,
    /// so `dedup_stats()`, leaf counts included, is what it was.
    #[test]
    fn a_refused_ingest_leaves_the_dedup_stats_as_they_were() {
        let items = versions();
        let (mut a, _) =
            refusing_the_second(rs_config(IntegrityMode::DigestOnly, true), &items, false);
        a.ingest(&items[0].0, &items[0].1).unwrap();
        let before = a.dedup_stats().unwrap();
        assert!(a.ingest(&items[1].0, &items[1].1).is_err());
        assert_eq!(a.dedup_stats().unwrap(), before);
    }

    /// The leaf counts are the flush's freshness decision: each data
    /// block filed is a miss, each other leaf occurrence a hit — within
    /// a flush, against the table, and again once a block is released.
    #[test]
    fn leaf_counts_are_the_freshness_decision() {
        let items = versions();
        let mut a = Archive::in_memory(rs_config(IntegrityMode::DigestOnly, true)).unwrap();
        let leaf_list = |a: &Archive, id: &ObjectId| a.manifest(id).unwrap().blocks.unwrap().blocks;
        let ids = a.ingest_many(&borrowed(&items)).unwrap();
        let leaves: usize = ids.iter().map(|id| leaf_list(&a, id).len()).sum();
        let stats = a.dedup_stats().unwrap();
        let index = stats.index;
        assert_eq!(index.misses, stats.unique_data_blocks as u64);
        assert_eq!(index.hits + index.misses, leaves as u64);
        assert!(index.hits > 0, "the versions share blocks");

        let again = a.ingest(&items[0].0, "again").unwrap();
        let first = leaf_list(&a, &again);
        let after = a.dedup_stats().unwrap().index;
        assert_eq!(after.hits, index.hits + first.len() as u64);
        assert_eq!(after.misses, index.misses);

        for id in ids.iter().chain([&again]) {
            a.delete(id).unwrap();
        }
        a.ingest(&items[0].0, "fresh").unwrap();
        let distinct: BTreeSet<&BlockHash> = first.iter().collect();
        let last = a.dedup_stats().unwrap().index;
        assert_eq!(last.misses, after.misses + distinct.len() as u64);
        assert_eq!(
            last.hits,
            after.hits + (first.len() - distinct.len()) as u64
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
        assert!(estimate_entropy_bits_per_byte(&[7u8; 100]).is_sign_positive());
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

        /// A read answers like a full-scrub read of the same damaged
        /// shards, except that it may return the payload where the scrub
        /// says `IntegrityViolation`: a read checks only the payload it
        /// decodes, so rot in bytes the decoder never consumes does not
        /// fail it. It never returns other bytes, and it fails exactly as
        /// the scrub does otherwise (the same error, the same
        /// `available` / `corrupt`). Every family, dedup on and off;
        /// slots missing, bit-flipped or truncated, and with `rot_last`
        /// the last slot always flipped. In dedup mode each stored block
        /// is scrubbed, and the object's retrieve succeeds whenever every
        /// block's scrub decodes.
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
            let units = archive.units_of(&manifest);
            let records: Vec<Manifest> = units
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
            let scrubs: Vec<String> = units
                .iter()
                .zip(&records)
                .map(|(unit, record)| {
                    let mut rng = archive.op_rng("retrieve", record.id.as_str());
                    let snap = archive.executor().read(&ReadPlan::for_manifest(record), &mut rng);
                    format!("{:?}", archive.decode_verified(&id, unit, record, &snap))
                })
                .collect();
            let rot = |scrub: &String| scrub.starts_with("Err(IntegrityViolation");
            let retrieved = archive.retrieve(&id);
            if let Ok(bytes) = &retrieved {
                prop_assert_eq!(bytes, &payload);
                prop_assert!(scrubs.iter().all(|s| s.starts_with("Ok") || rot(s)), "{:?}", scrubs);
            }
            if dedup {
                if scrubs.iter().all(|s| s.starts_with("Ok")) {
                    prop_assert!(retrieved.is_ok(), "{:?}", retrieved);
                }
            } else if retrieved.is_err() || !rot(&scrubs[0]) {
                prop_assert_eq!(format!("{retrieved:?}"), scrubs[0].as_str());
            }
        }
    }

    /// A flipped byte in a shard past the read threshold is invisible to
    /// a read, which checks only the payload it decodes, but every
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

    /// Policies whose reads take each of the decode's failure shapes: a
    /// Shamir share that reconstructs another secret, a Reed–Solomon
    /// data shard that decodes to other bytes, and a sealed shard whose
    /// decode fails at the tag. Each has spare slots past its threshold.
    fn fallback_policies() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
            PolicyKind::ErasureCoded { data: 3, parity: 2 },
            PolicyKind::Encrypted {
                suite: SuiteId::ChaCha20Poly1305,
                data: 3,
                parity: 2,
            },
        ]
    }

    /// A healthy read hashes no shard: with every recorded shard digest
    /// zeroed, `retrieve` still returns the payload, because only the
    /// decoded payload's digest decides a read, while `verify`, which
    /// checks every shard, finds none clean.
    #[test]
    fn a_read_is_decided_by_the_payload_digest_alone() {
        for policy in fallback_policies() {
            let mut a = Archive::in_memory(ArchiveConfig::new(policy.clone())).unwrap();
            let payload = b"only the payload digest decides a read".repeat(9);
            let id = a.ingest(&payload, "zeroed").unwrap();
            a.manifests
                .update(&id, |m| m.shard_digests.fill([0; 32]))
                .unwrap();
            assert_eq!(a.retrieve(&id).unwrap(), payload, "{policy:?}");
            let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.shards_available, 0, "{policy:?}");
            assert!(!health.intact, "{policy:?}");
        }
    }

    /// `verify` gives `intact` one meaning for both kinds of object:
    /// every stored unit decodes from its scrub-clean shards. With every
    /// unit's shard digests zeroed (RS 3+2, 3000 B) no shard is clean, so
    /// a classic object and a dedup object alike report `intact: false`
    /// with no shard available, and both still `retrieve`, because a read
    /// is decided by payload digests alone.
    #[test]
    fn verify_decodes_every_unit_from_its_clean_shards() {
        let mut payload = vec![0u8; 3000];
        ChaChaDrbg::from_u64_seed(43).fill_bytes(&mut payload);
        for dedup in [false, true] {
            let mut config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 });
            config.dedup = dedup.then(small_dedup);
            let mut a = Archive::in_memory(config).unwrap();
            let id = a.ingest(&payload, "zeroed").unwrap();
            for unit in a.units_of(a.row(&id).unwrap()) {
                let record = a.manifests.record_mut(&unit).unwrap();
                record.shard_digests.fill([0; 32]);
            }
            assert_eq!(a.retrieve(&id).unwrap(), payload, "dedup {dedup}");
            let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.shards_available, 0, "dedup {dedup}");
            assert!(!health.intact, "dedup {dedup}");
        }
    }

    /// `verify` spells a dedup payload from its leaves as it decodes them,
    /// holding a leaf only until its last repeat, into the streaming
    /// segment-tree root: a 5 KiB and a 7 KiB part repeated to 60 KiB
    /// (`A B A A B B A B A`, four segments), so leaves repeat and a
    /// repeated leaf lies across a segment edge, fed to the running
    /// segment in two pieces. The object verifies intact, and with a
    /// wrong recorded payload digest does not.
    #[test]
    fn verify_spells_a_dedup_payload_whose_leaves_repeat() {
        let mut parts = vec![0u8; 12 << 10];
        ChaChaDrbg::from_u64_seed(45).fill_bytes(&mut parts);
        let (a, b) = parts.split_at(5 << 10);
        let payload = [a, b, a, a, b, b, a, b, a].concat();
        let mut config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 });
        config.dedup = Some(small_dedup());
        let mut archive = Archive::in_memory(config).unwrap();
        let id = archive.ingest(&payload, "repeats").unwrap();
        let leaves = archive.row(&id).unwrap().blocks.clone().unwrap().blocks;
        let (distinct, slots) = crate::dedup::first_occurrence_slots(&leaves);
        let mut seen = vec![0usize; distinct.len()];
        let (mut start, mut straddling_repeats) = (0, 0);
        for &at in &slots {
            let block = archive.block_record(&distinct[at]).unwrap();
            let end = start + block.record.logical_len;
            seen[at] += 1;
            if seen[at] > 1 && start / plan::SEGMENT != (end - 1) / plan::SEGMENT {
                straddling_repeats += 1;
            }
            start = end;
        }
        assert_eq!(start, payload.len());
        assert!(
            straddling_repeats > 0,
            "a repeated leaf straddles a segment edge"
        );
        let schedule = SigBreakSchedule::new();
        assert!(archive.verify(&id, &schedule).unwrap().intact);
        assert_eq!(archive.row(&id).unwrap().digest, tree_root(&payload));
        archive.manifests.update(&id, |m| m.digest[31] ^= 0x80);
        assert!(!archive.verify(&id, &schedule).unwrap().intact);
    }

    /// A corrupt shard among the first `k` fails the unchecked decode —
    /// by a wrong payload or at the tag — and the read falls back to
    /// checking the slots it already fetched, discarding the corrupt one
    /// and decoding from the spares: the payload comes back, and the
    /// read touched each slot once.
    #[test]
    fn a_corrupt_shard_among_the_first_k_reads_back_through_the_spares() {
        for policy in fallback_policies() {
            let mut a = Archive::in_memory(ArchiveConfig::new(policy.clone())).unwrap();
            let payload = b"decoded from the spares".repeat(11);
            let id = a.ingest(&payload, "rot").unwrap();
            let record = a.manifest(&id).unwrap();
            damage(&a, &record, &[(1, 3)]);
            let (read, report) = a.retrieve_with_report(&id).unwrap();
            assert_eq!(read, payload, "{policy:?}");
            assert_eq!(report.attempts.len(), record.placement.len(), "{policy:?}");
            let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.shards_available, record.placement.len() - 1);
        }
    }

    /// In a `retrieve_many` batch, a unit that falls back, and one that
    /// fails, change nothing for their neighbours: every answer is the
    /// one `retrieve` gives alone, in call order.
    #[test]
    fn a_fallback_in_a_batch_leaves_its_neighbours_alone() {
        let mut a = Archive::in_memory(ArchiveConfig::new(PolicyKind::ErasureCoded {
            data: 3,
            parity: 2,
        }))
        .unwrap();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 300 + i as usize]).collect();
        let ids: Vec<ObjectId> = payloads
            .iter()
            .map(|p| a.ingest(p, "batch").unwrap())
            .collect();
        // One rotted data shard (falls back), then three (fails).
        damage(&a, &a.manifest(&ids[1]).unwrap(), &[(1, 8)]);
        damage(
            &a,
            &a.manifest(&ids[3]).unwrap(),
            &[(1, 8), (1, 9), (1, 10)],
        );
        let batch = a.retrieve_many(&ids);
        for (i, (got, id)) in batch.iter().zip(&ids).enumerate() {
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", a.retrieve(id)),
                "object {i}"
            );
            if i != 3 {
                assert_eq!(got.as_ref().unwrap(), &payloads[i], "object {i}");
            }
        }
        assert!(matches!(batch[3], Err(ArchiveError::IntegrityViolation(_))));
    }

    /// Dedup reads go through the same fallback: with the first shard of
    /// every stored block rotted — tree nodes and data blocks — the object
    /// still reads back, from its row's leaves and by walking its root.
    #[test]
    fn the_dedup_walk_reads_past_a_corrupt_shard_in_every_block() {
        let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 3, parity: 2 })
            .with_dedup(small_dedup());
        let mut a = Archive::in_memory(config).unwrap();
        let mut payload = vec![0u8; 6000];
        ChaChaDrbg::from_u64_seed(17).fill_bytes(&mut payload);
        let id = a.ingest(&payload, "walked").unwrap();
        let units = a.units_of(&a.manifest(&id).unwrap());
        assert!(units.len() > 3, "several blocks and a tree");
        for unit in &units {
            damage(&a, &a.load(unit).unwrap(), &[(1, 5)]);
        }
        assert_eq!(a.retrieve(&id).unwrap(), payload);
        let root = a.manifest(&id).unwrap().blocks.unwrap().root;
        assert_eq!(a.read_object_by_root(&root).unwrap(), payload);
    }

    /// Every shard on every node, keyed by node and shard.
    fn stored_shards(a: &Archive) -> Vec<(NodeId, ShardKey, Vec<u8>)> {
        let mut out = Vec::new();
        for node in a.cluster().nodes() {
            for key in node.keys() {
                let bytes = node.get(&key).unwrap();
                out.push((node.id(), key, bytes));
            }
        }
        out
    }

    /// A dedup re-encode onto `Entropic` that a block's entropy gate
    /// refuses moves nothing: every data block is gated before the first
    /// old placement is deleted, so every block record and every stored
    /// shard is as it was, and the object reads back under its old
    /// policy.
    #[test]
    fn a_refused_dedup_reencode_moves_nothing() {
        let config = ArchiveConfig::new(PolicyKind::ErasureCoded { data: 2, parity: 1 })
            .with_dedup(small_dedup());
        let mut a = Archive::in_memory(config).unwrap();
        let mut payload = vec![b'a'; 8 << 10];
        ChaChaDrbg::from_u64_seed(41).fill_bytes(&mut payload[..4 << 10]);
        let id = a.ingest(&payload, "half random").unwrap();
        let records = |a: &Archive| format!("{:?}", a.blocks().collect::<Vec<_>>());
        let (blocks, shards) = (records(&a), stored_shards(&a));
        let to = PolicyKind::Entropic { data: 2, parity: 1 };
        assert!(matches!(
            a.reencode_object(&id, to),
            Err(ArchiveError::LowEntropy { .. })
        ));
        assert_eq!(records(&a), blocks, "every block record unchanged");
        assert!(stored_shards(&a) == shards, "every stored shard unchanged");
        assert!(matches!(
            a.manifest(&id).unwrap().policy,
            PolicyKind::ErasureCoded { .. }
        ));
        assert_eq!(a.retrieve(&id).unwrap(), payload);
    }

    /// Policies a re-encode reads in each decode shape — Shamir, Reed–
    /// Solomon, ChaCha-sealed Reed–Solomon, LRSS, packed — each paired
    /// with the next as the policy it moves to.
    fn reencode_moves() -> Vec<(PolicyKind, PolicyKind)> {
        let mut from = fallback_policies();
        from.push(PolicyKind::LeakageResilientShamir {
            threshold: 3,
            shares: 5,
            source_len: 32,
        });
        from.push(PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 5,
        });
        let to = from.iter().cycle().skip(1).cloned();
        from.clone().into_iter().zip(to).collect()
    }

    /// A re-encode reads like a retrieve: with every shard digest of
    /// every stored unit zeroed — a classic object's record, and each
    /// block record of a dedup object — no shard checks out, yet the
    /// re-encode succeeds, because the decoded payload's digest alone
    /// decides it. The object then reads back, and `verify` counts every
    /// new shard clean: the write-back recorded fresh digests.
    #[test]
    fn a_reencode_is_decided_by_the_payload_digest_alone() {
        let mut payload = vec![0u8; 3000];
        ChaChaDrbg::from_u64_seed(45).fill_bytes(&mut payload);
        for (from, to) in reencode_moves() {
            for dedup in [false, true] {
                let mut config = ArchiveConfig::new(from.clone());
                config.dedup = dedup.then(small_dedup);
                let mut a = Archive::in_memory(config).unwrap();
                let id = a.ingest(&payload, "zeroed").unwrap();
                for unit in a.units_of(a.row(&id).unwrap()) {
                    let record = a.manifests.record_mut(&unit).unwrap();
                    record.shard_digests.fill([0; 32]);
                }
                let case = format!("{from:?} -> {to:?}, dedup {dedup}");
                a.reencode_object(&id, to.clone())
                    .unwrap_or_else(|e| panic!("{case}: {e:?}"));
                assert_eq!(a.retrieve(&id).unwrap(), payload, "{case}");
                let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
                assert_eq!(health.shards_available, to.shard_count(), "{case}");
                assert!(health.intact, "{case}");
            }
        }
    }

    /// A corrupt shard among the first `k` fails a re-encode's unchecked
    /// decode, and the read falls back to the spares it already fetched,
    /// as a retrieve does: the object moves, reads back, and every new
    /// shard is clean. The bytes read still count the corrupt shard,
    /// which was fetched before it was discarded.
    #[test]
    fn a_corrupt_shard_among_the_first_k_reencodes_through_the_spares() {
        for (from, to) in reencode_moves() {
            let mut a = Archive::in_memory(ArchiveConfig::new(from.clone())).unwrap();
            let payload = b"re-encoded from the spares".repeat(11);
            let id = a.ingest(&payload, "rot").unwrap();
            let stored: usize = stored_shards(&a).iter().map(|(.., b)| b.len()).sum();
            damage(&a, &a.manifest(&id).unwrap(), &[(1, 3)]);
            let moved = a.reencode_object(&id, to.clone()).unwrap();
            assert_eq!(moved.bytes_read, stored as u64, "{from:?}");
            assert_eq!(a.retrieve(&id).unwrap(), payload, "{from:?}");
            let health = a.verify(&id, &SigBreakSchedule::new()).unwrap();
            assert_eq!(health.shards_available, to.shard_count(), "{from:?}");
        }
    }

    /// A re-encode that cannot read its object — more shards rotted, or
    /// gone, than the policy can spare — fails as a scrub's decode would,
    /// typed against the object, and moves nothing: the record, its
    /// placement and every stored shard are as they were.
    #[test]
    fn a_reencode_past_the_budget_fails_typed_and_moves_nothing() {
        for (from, to) in reencode_moves() {
            for kind in [0u8, 1] {
                let mut a = Archive::in_memory(ArchiveConfig::new(from.clone())).unwrap();
                let id = a.ingest(&b"past the budget".repeat(20), "lost").unwrap();
                let record = a.manifest(&id).unwrap();
                let spare = record.placement.len() - from.read_threshold();
                damage(&a, &record, &vec![(kind, 5); spare + 1]);
                let shards = stored_shards(&a);
                let failed = a.reencode_object(&id, to.clone());
                let typed = match (kind, &failed) {
                    (0, Err(ArchiveError::DegradedBeyondBudget { id: at, .. })) => *at == id,
                    (1, Err(ArchiveError::IntegrityViolation(at))) => *at == id,
                    _ => false,
                };
                assert!(typed, "{from:?}, damage {kind}: {failed:?}");
                let after = a.manifest(&id).unwrap();
                assert_eq!(format!("{after:?}"), format!("{record:?}"), "{from:?}");
                assert!(
                    stored_shards(&a) == shards,
                    "{from:?}: a stored shard moved"
                );
            }
        }
    }

    /// On a healthy unit a re-encode reads every stored byte once: its
    /// bytes read are the stored bytes of the object's units, a classic
    /// object's shards or a dedup object's blocks.
    #[test]
    fn a_healthy_reencode_reads_the_stored_bytes() {
        let mut payload = vec![0u8; 3000];
        ChaChaDrbg::from_u64_seed(46).fill_bytes(&mut payload);
        for (from, to) in reencode_moves() {
            for dedup in [false, true] {
                let mut config = ArchiveConfig::new(from.clone());
                config.dedup = dedup.then(small_dedup);
                let mut a = Archive::in_memory(config).unwrap();
                let id = a.ingest(&payload, "healthy").unwrap();
                let stored: usize = stored_shards(&a).iter().map(|(.., b)| b.len()).sum();
                let moved = a.reencode_object(&id, to.clone()).unwrap();
                assert_eq!(moved.bytes_read, stored as u64, "{from:?}, dedup {dedup}");
            }
        }
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
            .shard_digests[0] = plan::tree_digests(&[&shard])[0];
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
            plan::tree_digests(&[b"hidden anchored doc"])[0].as_ref()
        );
    }
}
