//! # aeon — secure long-term archival storage toolkit
//!
//! `aeon` is a reproduction-scale implementation of the design space mapped
//! out by *“Secure Archival is Hard... Really Hard”* (HotStorage ’24): a
//! crypto-agile archival storage library covering every data encoding,
//! long-term-security protocol, and threat model the paper surveys.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`gf`] — finite fields GF(2^8)/GF(2^16), polynomials, matrices.
//! * [`num`] — fixed-width big integers and the MODP-2048 discrete-log group.
//! * [`crypto`] — from-scratch primitives: hashes, AEADs, one-time pad,
//!   hash-based signatures, Pedersen commitments, cascade ciphers, and the
//!   cipher-agility registry.
//! * [`erasure`] — systematic Reed–Solomon coding and replication.
//! * [`secretshare`] — Shamir, packed, verifiable, proactive,
//!   leakage-resilient secret sharing.
//! * [`integrity`] — Merkle trees, renewable timestamp chains, simulated
//!   timestamp authorities and ledgers.
//! * [`channel`] — computational (DH+AEAD), QKD-simulated, and bounded-
//!   storage-model channels.
//! * [`store`] — simulated geo-dispersed storage nodes, media models,
//!   maintenance-campaign I/O simulation.
//! * [`adversary`] — mobile adversaries, harvest-now-decrypt-later,
//!   cryptanalytic break schedules, leakage attacks, security evaluation.
//! * [`cas`] — content-addressed storage formats: a deterministic
//!   content-defined chunker, SHA-256 block addresses, and Merkle block
//!   trees whose interior nodes are themselves blocks.
//! * [`core`] — the [`Archive`](aeon_core::Archive) itself: policy-driven
//!   ingest/retrieve/verify/refresh with pluggable encoding policies.
//! * [`serve`] — a deterministic multi-tenant request engine on the
//!   virtual clock: seeded workloads, admission control, fair queueing,
//!   and per-tenant latency distributions, with §3.2 maintenance
//!   campaigns interleaved as background work.
//!
//! # Quickstart
//!
//! ```
//! use aeon::core::{Archive, ArchiveConfig, PolicyKind};
//!
//! let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
//!     threshold: 3,
//!     shares: 5,
//! }))?;
//! let id = archive.ingest(b"the long-term secret", "doc-1")?;
//! let data = archive.retrieve(&id)?;
//! assert_eq!(data, b"the long-term secret");
//! # Ok::<(), aeon::core::ArchiveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aeon_adversary as adversary;
pub use aeon_cas as cas;
pub use aeon_channel as channel;
pub use aeon_core as core;
pub use aeon_crypto as crypto;
pub use aeon_erasure as erasure;
pub use aeon_gf as gf;
pub use aeon_integrity as integrity;
pub use aeon_num as num;
pub use aeon_secretshare as secretshare;
pub use aeon_serve as serve;
pub use aeon_store as store;
