//! `aeon-serve`: a deterministic multi-tenant request engine on the
//! virtual clock.
//!
//! The paper's §3.2 prices maintenance (re-encryption campaigns,
//! proactive refresh) as *bandwidth*: reserve a fraction `r` for
//! foreground traffic and the campaign stretches by `1/(1−r)`. That
//! arithmetic says nothing about what the foreground traffic actually
//! experiences while the campaign runs — which is the number an archive
//! operator has to defend. This crate closes that loop: it drives a
//! seeded, multi-tenant workload through the archive's normal
//! codec → plan → executor path while a background
//! [`Campaign`](aeon_core::Campaign) — re-encode, repair or refresh —
//! consumes the unreserved bandwidth, and reports the result as
//! per-tenant latency distributions (p50/p99/p999), not scalars.
//!
//! Everything is deterministic by construction: arrivals, tenant picks,
//! object popularity, and write payloads all come from a seeded DRBG;
//! the scheduler and cache use ordered maps; time is the shared
//! [`SimClock`](aeon_store::clock::SimClock). One `(workload, seed,
//! config)` triple therefore produces one byte-identical
//! [`ServeReport`] — same histograms, same chained event digest —
//! independent of the archive's pipeline worker count or the host.
//!
//! # Pieces
//!
//! * [`workload`] — tenant mix, open/closed arrival processes, Zipf
//!   object popularity.
//! * [`admission`] — per-tenant token buckets and a deficit-weighted
//!   fair queue.
//! * [`cache`] — a bounded LRU hot set for manifests and decoded
//!   payloads, with an explicit hit cost model.
//! * [`histogram`] — fixed-shape log-bucketed latency histograms whose
//!   equality is byte equality.
//! * [`engine`] — the event loop tying it all together, with optional
//!   background campaign interleaving.
//!
//! # Example
//!
//! ```
//! use aeon_core::{Archive, ArchiveConfig, PolicyKind};
//! use aeon_serve::{serve, ArrivalProcess, EngineConfig, TenantSpec, WorkloadSpec};
//!
//! let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication {
//!     copies: 2,
//! }))?;
//! let catalog: Vec<_> = (0..8)
//!     .map(|i| archive.ingest(&[i as u8; 512], &format!("obj-{i}")))
//!     .collect::<Result<_, _>>()?;
//!
//! let spec = WorkloadSpec::new(
//!     vec![TenantSpec::new("gold", 3.0), TenantSpec::new("bronze", 1.0)],
//!     ArrivalProcess::Open { requests_per_sec: 200.0 },
//! )
//! .with_total_requests(100);
//!
//! let report = serve(&mut archive, &catalog, &spec, &EngineConfig::default())?;
//! assert_eq!(report.tenants.len(), 2);
//! let again = serve(&mut archive, &catalog, &spec, &EngineConfig::default())?;
//! assert_eq!(report.event_digest, again.event_digest);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod histogram;
pub mod workload;

pub use admission::{DeficitQueue, TokenBucket};
pub use cache::{CacheConfig, CacheStats, HotCache};
pub use engine::{serve, EngineConfig, ServeError, ServeReport, TenantReport};
pub use histogram::LatencyHistogram;
pub use workload::{ArrivalProcess, TenantSpec, WorkloadSpec, ZipfSampler};

// What `EngineConfig::background` and `ServeReport::campaign` are made
// of; re-exported so engine callers need not import aeon-core for them.
pub use aeon_core::{CampaignOp, CampaignReport, RepairQueueOrder};
