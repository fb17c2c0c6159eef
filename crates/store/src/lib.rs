//! Simulated archival storage substrate.
//!
//! The paper assumes (as all of its surveyed systems do) an archive
//! spanning geographically dispersed storage nodes on cheap, mostly
//! offline media. This crate supplies that world in simulation:
//!
//! * [`node`] — the [`node::StorageNode`] trait with in-memory and
//!   file-backed implementations. A node stores bytes and nothing else:
//!   every injected fault comes from [`faults`].
//! * [`cluster`] — a geo-dispersed cluster that places shards across
//!   sites with anti-affinity (no two shards of an object on one site),
//!   and prices a fan-out as the sum of its legs or as overlapping
//!   per-node lanes ([`cluster::DispatchPolicy`]).
//! * [`media`] — parametric media models (tape, HDD, SSD, glass, DNA,
//!   film): cost, density, lifetime, throughput; plus presets for the
//!   real archives the paper cites (Oak Ridge HPSS, ECMWF MARS, CERN
//!   EOS, Pergamum).
//! * [`durability`] — Monte-Carlo object-loss estimation per `(n, k)`
//!   layout under node failures and repair delays.
//! * [`campaign`] — the §3.2 analysis engine: how long does it take to
//!   read, re-encrypt, and write back an entire archive, under write
//!   penalties and reserved foreground capacity? Both closed-form and
//!   discrete-event variants.
//! * [`faults`] — seeded, deterministic fault injection, the crate's
//!   only one: a [`faults::FaultyNode`] decorator applying a
//!   [`faults::FaultPlan`] (transient I/O errors, persistent bit flips,
//!   torn writes, simulated latency, scheduled offline windows) to any
//!   inner node.
//! * [`retry`] — bounded retry with exponential backoff and
//!   deterministic jitter, shared by every consumer of node I/O.
//! * [`clock`] — the virtual-time engine: a shared [`clock::SimClock`]
//!   of monotonic virtual nanoseconds that every time-costing layer
//!   charges, and the single [`clock::EpochSchedule`] mapping epoch
//!   numbers onto the timeline.
//! * [`throughput`] — [`throughput::ThroughputNode`], a decorator
//!   charging `seek + bytes/bandwidth` virtual time per operation from
//!   the [`media`] models, so campaigns over the real data path
//!   *measure* the paper's §3.2 costs instead of citing them.
//! * [`batch`] — wire framing for coalesced shard-write batches: one
//!   framed transfer (one seek) per node per batch instead of one seek
//!   per shard, without changing what any node stores.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod batch;
pub mod campaign;
pub mod clock;
pub mod cluster;
pub mod durability;
pub mod faults;
pub mod media;
pub mod node;
pub mod retry;
pub mod throughput;

pub use clock::{EpochSchedule, SimClock, SimDuration, SimTime};
pub use cluster::{Cluster, DispatchPolicy};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultyNode};
pub use media::{ArchiveSite, MediaProfile, MediaType};
pub use node::{MemoryNode, NodeError, NodeId, StorageNode};
pub use retry::{RetryPolicy, RetryStats};
pub use throughput::{ThroughputNode, ThroughputProfile};
