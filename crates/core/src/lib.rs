//! The `aeon` archive core: policy-driven secure long-term archival
//! storage.
//!
//! This crate assembles the substrates — finite fields, from-scratch
//! crypto, erasure coding, secret sharing, integrity chains, channel and
//! storage simulation, adversary models — into the system the paper
//! (*Secure Archival is Hard... Really Hard*, HotStorage '24) argues the
//! community needs: an archive in which the **data encoding is a policy
//! decision** spanning the whole cost/security trade-off, and in which
//! every maintenance operation the paper prices (re-encryption campaigns,
//! proactive refresh, timestamp renewal) is a first-class API.
//!
//! * [`Archive`] — ingest / retrieve / verify / delete over a simulated
//!   geo-dispersed cluster, with renewable timestamp chains.
//! * [`PolicyKind`] — the nine at-rest encodings of the paper's design
//!   space, from replication to leakage-resilient secret sharing.
//! * [`codec`] — how a policy encodes: a seal (none, an AEAD, a
//!   cascade, an all-or-nothing package, an entropic pad) in front of a
//!   dispersal (replication, Reed–Solomon, Shamir, packed or
//!   leakage-resilient sharing), and the Figure 1 numbers of the pair.
//! * [`aont`] — the all-or-nothing package of AONT-RS (Resch–Plank).
//! * [`keys`] — versioned master keys and per-object derivation.
//! * [`pipeline`] — the chunked, parallel encode/decode data path:
//!   fixed-size chunks, a scoped-thread worker pool, and one batched
//!   shard write per object.
//! * [`evaluate`] — regenerates the paper's Table 1 and Figure 1 from
//!   measured behaviour.
//! * [`trustees`] — HasDPSS-style distributed custody of the master key:
//!   Pedersen-VSS shares among a trustee board, verifiable proactive
//!   refresh, and resharing to new boards.
//!
//! # Quickstart
//!
//! ```
//! use aeon_core::{Archive, ArchiveConfig, PolicyKind};
//!
//! let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
//!     threshold: 3,
//!     shares: 5,
//! }))?;
//! let id = archive.ingest(b"keep this for a century", "deed-1892")?;
//! assert_eq!(archive.retrieve(&id)?, b"keep this for a century");
//!
//! // Proactive refresh re-randomizes every share; the object is intact.
//! archive.refresh_object(&id)?;
//! assert_eq!(archive.retrieve(&id)?, b"keep this for a century");
//! # Ok::<(), aeon_core::ArchiveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod aont;
mod archive;
pub mod campaign;
pub mod catalog;
pub mod codec;
pub mod dedup;
pub mod evaluate;
pub mod executor;
pub mod fleet;
pub mod keys;
mod maintenance;
pub mod pipeline;
pub mod plan;
pub mod planner;
mod policy;
mod repair;
pub mod transfer;
pub mod trustees;
mod unit;

pub use archive::{
    estimate_entropy_bits_per_byte, Archive, ArchiveConfig, ArchiveError, ArchiveStats,
    HealthReport, IntegrityMode, Manifest, ObjectId,
};
pub use campaign::{Campaign, CampaignOp, CampaignReport, MAX_RESERVED_FRACTION};
pub use catalog::{FleetCatalog, DEFAULT_CATALOG_SHARDS};
pub use codec::{CodecRepair, PolicyInfo};
pub use dedup::{
    block_object_id, BlockKind, BlockRecord, CatalogEntry, DedupConfig, DedupManifest, DedupStats,
    IndexStats,
};
pub use evaluate::{
    figure1_points, table1, ChannelKind, CostBucket, Figure1Point, SystemProfile, Table1Row,
};
pub use executor::{PlanExecutor, ShardsSnapshot, WriteOutcome};
pub use fleet::{FleetScan, FleetSimConfig, FleetSimReport, RepairQueueOrder, RepairTicket};
pub use maintenance::ObjectReencode;
pub use pipeline::{ChunkedMeta, PipelineConfig, DEFAULT_CHUNK_SIZE};
pub use plan::{ReadPlan, RepairPlan, WritePlan};
pub use policy::{Encoded, EncodingMeta, PolicyError, PolicyKind, Recovery};
pub use repair::{RepairMethod, RepairReport};

// Fault-tolerance and virtual-time knobs live in the store crate;
// re-exported here so archive users can configure retries and read the
// clock without a direct dependency.
pub use aeon_store::clock::{EpochSchedule, SimClock, SimDuration, SimTime};
pub use aeon_store::cluster::{DispatchPolicy, ShardAttempt, TransferReport};
pub use aeon_store::retry::{RetryPolicy, RetryStats};
