//! The request engine: a deterministic event loop that replays a
//! workload against an [`Archive`] on the shared virtual clock.
//!
//! The loop interleaves three activities in strict priority order:
//!
//! 1. **Arrivals** that have come due are admitted (or rejected) by
//!    their tenant's token bucket at the arrival instant.
//! 2. **Admitted requests** are served one at a time in deficit
//!    round-robin order, each charging the clock through the archive's
//!    codec → plan → executor path (or the hot-cache fast path).
//! 3. **Background campaign steps** run only when no foreground work is
//!    runnable *and* the campaign's reserved window has elapsed — a
//!    [`Campaign`] opens a `Δ·r/(1−r)` foreground window after each
//!    step, and this engine fills that window with real requests where
//!    [`Campaign::run`] would only advance the clock across it. A
//!    request that arrives mid-step queues until the step finishes, so
//!    campaign interference lands in the measured queue-wait and latency
//!    distributions — the paper's §3.2 "factor of two" as a tail, not a
//!    scalar.
//!
//! The loop is single-threaded over virtual events, so a `(spec, seed,
//! config)` triple produces a byte-identical [`ServeReport`] — same
//! histograms, same event digest — regardless of the archive's
//! pipeline worker count or the host machine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aeon_core::{
    Archive, ArchiveError, Campaign, CampaignOp, CampaignReport, ObjectId, MAX_RESERVED_FRACTION,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use aeon_store::clock::{SimDuration, SimTime};

use crate::admission::{DeficitQueue, TokenBucket};
use crate::cache::{CacheConfig, CacheStats, HotCache};
use crate::histogram::LatencyHistogram;
use crate::workload::{exp_gap, unit_f64, ArrivalProcess, WeightedPick, WorkloadSpec, ZipfSampler};

/// Engine configuration: cache sizing, fair-queue quantum, and the
/// optional background campaign.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hot-cache sizing and cost model.
    pub cache: CacheConfig,
    /// Deficit round-robin quantum, bytes per scheduling round.
    pub quantum_bytes: u64,
    /// The campaign to run behind the workload, if any, as `(op,
    /// reserved_fraction)`: a §3.2 re-encryption, a repair sweep over
    /// the objects one startup scan finds degraded, or a refresh epoch,
    /// stepped in the gaps the foreground load leaves open with
    /// `reserved_fraction ∈ 0..=`[`MAX_RESERVED_FRACTION`] of bandwidth
    /// kept for foreground traffic.
    pub background: Option<(CampaignOp, f64)>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache: CacheConfig::default(),
            quantum_bytes: 256 * 1024,
            background: None,
        }
    }
}

/// Why a serve run aborted.
#[derive(Debug)]
pub enum ServeError {
    /// The workload spec or engine configuration is unusable (no
    /// tenants, no catalog, zero requests, a degenerate arrival process,
    /// or a reserved fraction outside its bound).
    InvalidSpec(&'static str),
    /// The archive failed outside a single request: a re-encode or
    /// refresh campaign step. Per-request failures — and a repair
    /// sweep's per-object ones — are counted, not fatal.
    Archive(ArchiveError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidSpec(why) => write!(f, "invalid workload spec: {why}"),
            ServeError::Archive(e) => write!(f, "archive error during serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ArchiveError> for ServeError {
    fn from(e: ArchiveError) -> Self {
        ServeError::Archive(e)
    }
}

/// Per-tenant accounting for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name, from the spec.
    pub name: String,
    /// Requests that arrived.
    pub offered: u64,
    /// Requests the token bucket admitted.
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Admitted requests that finished successfully.
    pub completed: u64,
    /// Admitted requests that failed inside the archive.
    pub failed: u64,
    /// Payload bytes read (cache hits included).
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// End-to-end latency (arrival → completion) of completed requests.
    pub latency: LatencyHistogram,
    /// Queueing delay (arrival → service start) of completed requests.
    pub queue_wait: LatencyHistogram,
}

impl TenantReport {
    fn new(name: &str) -> Self {
        TenantReport {
            name: name.to_string(),
            offered: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            bytes_read: 0,
            bytes_written: 0,
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
        }
    }
}

/// Everything one serve run produced. Two runs with the same inputs
/// compare equal field-for-field, including the histograms and the
/// event digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-tenant accounting, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Hot-cache hit/miss counters.
    pub cache: CacheStats,
    /// Virtual time from run start to last completion.
    pub elapsed: SimDuration,
    /// Chained SHA-256 over every admission, rejection, completion, and
    /// failure, in event order. Equal digests mean the runs took the
    /// same decisions at the same virtual instants.
    pub event_digest: [u8; 32],
    /// The background campaign's totals, when one was configured.
    pub campaign: Option<CampaignReport>,
}

impl ServeReport {
    /// The event digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        self.event_digest
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Aggregate latency across all tenants.
    #[must_use]
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for t in &self.tenants {
            all.merge(&t.latency);
        }
        all
    }
}

/// What one admitted request asks of the archive.
#[derive(Debug)]
enum Op {
    /// Read `catalog[rank]`.
    Read { rank: usize },
    /// Ingest a fresh object of `bytes` derived bytes.
    Write { bytes: usize },
}

// The owning tenant is tracked by the deficit queue itself, so the
// request carries only what execution needs.
#[derive(Debug)]
struct Request {
    seq: u64,
    arrived: SimTime,
    op: Op,
}

/// An arrival event, ordered by (instant, sequence) so ties replay in
/// issue order.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    at: SimTime,
    seq: u64,
    tenant: usize,
}

/// Chained event digest: `h ← SHA-256(h ‖ tag ‖ fields)`.
struct EventDigest([u8; 32]);

impl EventDigest {
    fn new() -> Self {
        EventDigest(Sha256::digest(b"aeon-serve event log v1"))
    }

    /// `at` is relative to the run's start instant, so a replay on a
    /// clock that has already advanced (e.g. a second run against the
    /// same archive) still produces the same digest.
    fn fold(&mut self, tag: u8, seq: u64, tenant: usize, at: SimDuration, extra: u64) {
        let mut h = Sha256::new();
        h.update(&self.0);
        h.update(&[tag]);
        h.update(&seq.to_le_bytes());
        h.update(&(tenant as u64).to_le_bytes());
        h.update(&at.as_nanos().to_le_bytes());
        h.update(&extra.to_le_bytes());
        self.0 = h.finalize();
    }
}

const EV_ADMIT: u8 = 1;
const EV_REJECT: u8 = 2;
const EV_COMPLETE: u8 = 3;
const EV_FAIL: u8 = 4;
const EV_CAMPAIGN: u8 = 5;

fn derived_rng(seed: u64, label: &str, n: u64) -> ChaChaDrbg {
    let mut h = Sha256::new();
    h.update(b"aeon-serve rng");
    h.update(&seed.to_le_bytes());
    h.update(label.as_bytes());
    h.update(&n.to_le_bytes());
    ChaChaDrbg::from_seed(h.finalize())
}

/// Runs `spec` against `archive` and returns the measured report.
///
/// `catalog` is the read working set: Zipf rank 0 maps to
/// `catalog[0]`, so callers control which objects are hottest by
/// ordering it. Writes ingest fresh objects (named `srv-w<seq>`) and do
/// not join the catalog, keeping the read stream identical across
/// configurations. The archive's cluster clock is advanced in place;
/// reported latencies are relative, so a non-zero starting instant is
/// fine.
pub fn serve(
    archive: &mut Archive,
    catalog: &[ObjectId],
    spec: &WorkloadSpec,
    config: &EngineConfig,
) -> Result<ServeReport, ServeError> {
    if spec.tenants.is_empty() {
        return Err(ServeError::InvalidSpec("no tenants"));
    }
    if catalog.is_empty() {
        return Err(ServeError::InvalidSpec("empty catalog"));
    }
    if spec.total_requests == 0 {
        return Err(ServeError::InvalidSpec("zero requests"));
    }
    match spec.arrivals {
        ArrivalProcess::Open { requests_per_sec } => {
            if !(requests_per_sec.is_finite() && requests_per_sec > 0.0) {
                return Err(ServeError::InvalidSpec("open-loop rate must be positive"));
            }
        }
        ArrivalProcess::Closed {
            clients_per_tenant, ..
        } => {
            if clients_per_tenant == 0 {
                return Err(ServeError::InvalidSpec("closed loop needs clients"));
            }
        }
    }
    // `Campaign::new` panics on this; a config value must not.
    if let Some((_, reserved)) = &config.background {
        if !(0.0..=MAX_RESERVED_FRACTION).contains(reserved) {
            return Err(ServeError::InvalidSpec(
                "reserved fraction must be in [0, MAX_RESERVED_FRACTION]",
            ));
        }
    }

    let clock = archive.cluster().clock().clone();
    let start = clock.now();
    let weights: Vec<f64> = spec.tenants.iter().map(|t| t.weight).collect();
    let pick = WeightedPick::new(&weights);
    let zipf = ZipfSampler::new(catalog.len(), spec.zipf_exponent);
    let mut workload_rng = derived_rng(spec.seed, "workload", 0);
    let mut buckets: Vec<TokenBucket> = spec
        .tenants
        .iter()
        .map(|t| TokenBucket::new(t.quota_per_sec, t.quota_burst))
        .collect();
    let mut queue: DeficitQueue<Request> = DeficitQueue::new(&weights, config.quantum_bytes);
    let mut tenants: Vec<TenantReport> = spec
        .tenants
        .iter()
        .map(|t| TenantReport::new(&t.name))
        .collect();
    let mut cache = HotCache::new(config.cache.clone());
    let mut digest = EventDigest::new();
    let mut campaign = config
        .background
        .as_ref()
        .map(|(op, reserved)| Campaign::new(archive, op.clone(), *reserved));

    // Arrival generation. Open loop pre-draws nothing: both modes pull
    // the next arrival lazily so the DRBG consumption order is a pure
    // function of the event order.
    let mut heap: BinaryHeap<Reverse<Arrival>> = BinaryHeap::new();
    let mut issued: u64 = 0;
    let total = spec.total_requests as u64;
    let mut open_next = start;

    match spec.arrivals {
        ArrivalProcess::Open { requests_per_sec } => {
            open_next = start + exp_gap(&mut workload_rng, requests_per_sec);
            heap.push(Reverse(Arrival {
                at: open_next,
                seq: issued,
                tenant: pick.sample(&mut workload_rng),
            }));
            issued += 1;
        }
        ArrivalProcess::Closed {
            clients_per_tenant,
            think,
        } => {
            // Stagger each client's first request uniformly inside one
            // think window so the population does not arrive in phase.
            for tenant in 0..spec.tenants.len() {
                for _ in 0..clients_per_tenant {
                    if issued >= total {
                        break;
                    }
                    let offset = think.mul_f64(unit_f64(&mut workload_rng));
                    heap.push(Reverse(Arrival {
                        at: start + offset,
                        seq: issued,
                        tenant,
                    }));
                    issued += 1;
                }
            }
        }
    }

    let mut served: u64 = 0; // admitted requests fully processed
    let mut admitted_total: u64 = 0;
    let mut rejected_total: u64 = 0;
    let mut last_completion = start;

    // One iteration = one unit of progress: drain due arrivals, then
    // serve one request, or step the campaign, or jump to the next
    // event instant.
    loop {
        let now = clock.now();

        // 1. Admission at the arrival instant for every due arrival.
        while let Some(Reverse(head)) = heap.peek() {
            if head.at > now {
                break;
            }
            let Reverse(ev) = heap.pop().expect("peeked above");
            let t = ev.tenant;
            tenants[t].offered += 1;
            let op = if unit_f64(&mut workload_rng) < spec.tenants[t].read_fraction {
                Op::Read {
                    rank: zipf.sample(&mut workload_rng),
                }
            } else {
                Op::Write {
                    bytes: spec.write_bytes,
                }
            };
            if buckets[t].try_admit(ev.at) {
                tenants[t].admitted += 1;
                admitted_total += 1;
                digest.fold(EV_ADMIT, ev.seq, t, ev.at.since(start), 0);
                let cost = match &op {
                    Op::Read { rank } => archive
                        .manifest(&catalog[*rank])
                        .map(|m| m.logical_len as u64)
                        .unwrap_or(1),
                    Op::Write { bytes } => *bytes as u64,
                };
                queue.push(
                    t,
                    cost.max(1),
                    Request {
                        seq: ev.seq,
                        arrived: ev.at,
                        op,
                    },
                );
            } else {
                tenants[t].rejected += 1;
                rejected_total += 1;
                digest.fold(EV_REJECT, ev.seq, t, ev.at.since(start), 0);
                // A rejected closed-loop client does not retry; it
                // thinks and issues its *next* request, keeping the
                // population constant.
                if let ArrivalProcess::Closed { think, .. } = spec.arrivals {
                    if issued < total {
                        heap.push(Reverse(Arrival {
                            at: ev.at + think,
                            seq: issued,
                            tenant: t,
                        }));
                        issued += 1;
                    }
                }
            }
            // Open loop: draw the next arrival as soon as this one is
            // consumed, so the heap always knows the next instant.
            if let ArrivalProcess::Open { requests_per_sec } = spec.arrivals {
                if issued < total {
                    open_next = open_next + exp_gap(&mut workload_rng, requests_per_sec);
                    heap.push(Reverse(Arrival {
                        at: open_next,
                        seq: issued,
                        tenant: pick.sample(&mut workload_rng),
                    }));
                    issued += 1;
                }
            }
        }

        // 2. Serve one admitted request, foreground priority.
        if let Some((t, req)) = queue.pop() {
            let began = clock.now();
            let outcome: Result<(), ArchiveError> = match &req.op {
                Op::Read { rank } => {
                    let id = &catalog[*rank];
                    if !cache.touch_manifest(id) {
                        clock.charge(cache.manifest_miss_penalty());
                    }
                    if let Some(len) = cache.lookup_payload(id) {
                        clock.charge(cache.hit_charge(len));
                        tenants[t].bytes_read += len;
                        Ok(())
                    } else {
                        // A miss pays the full storage path: one
                        // framed request (one seek) per node holding
                        // the object's shards.
                        match archive.retrieve(id) {
                            Ok(data) => {
                                tenants[t].bytes_read += data.len() as u64;
                                cache.admit_payload(id, data.len() as u64);
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    }
                }
                Op::Write { bytes } => {
                    let mut payload = vec![0u8; *bytes];
                    derived_rng(spec.seed, "write", req.seq).fill_bytes(&mut payload);
                    match archive.ingest(&payload, &format!("srv-w{}", req.seq)) {
                        Ok(_) => {
                            tenants[t].bytes_written += *bytes as u64;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            let end = clock.now();
            last_completion = end;
            served += 1;
            match outcome {
                Ok(()) => {
                    tenants[t].completed += 1;
                    tenants[t].latency.record(end.since(req.arrived));
                    tenants[t].queue_wait.record(began.since(req.arrived));
                    digest.fold(
                        EV_COMPLETE,
                        req.seq,
                        t,
                        end.since(start),
                        end.since(req.arrived).as_nanos(),
                    );
                }
                Err(_) => {
                    tenants[t].failed += 1;
                    digest.fold(EV_FAIL, req.seq, t, end.since(start), 0);
                }
            }
            if let ArrivalProcess::Closed { think, .. } = spec.arrivals {
                if issued < total {
                    heap.push(Reverse(Arrival {
                        at: end + think,
                        seq: issued,
                        tenant: t,
                    }));
                    issued += 1;
                }
            }
            continue;
        }

        // 3. No runnable foreground work: step the campaign if its
        // reserved window has elapsed.
        let pending = campaign.as_mut().filter(|c| !c.is_done());
        let next_campaign = pending.as_ref().map(|c| c.next_eligible());
        if let Some(c) = pending.filter(|c| now >= c.next_eligible()) {
            if let Some((_, outcome)) = c.step(archive) {
                let moved = match outcome {
                    Ok(moved) => moved,
                    // Counted in the report; the sweep goes on.
                    Err(_) if c.op().continues_past_failure() => 0,
                    Err(e) => return Err(e.into()),
                };
                digest.fold(
                    EV_CAMPAIGN,
                    c.report().objects_done as u64,
                    usize::MAX,
                    clock.now().since(start),
                    moved,
                );
            }
            continue;
        }

        // 4. Idle: jump to the next instant anything can happen.
        let next_arrival = heap.peek().map(|Reverse(a)| a.at);
        let next = match (next_arrival, next_campaign) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, c) => a.or(c),
        };
        match next {
            Some(instant) => clock.advance_to(instant),
            // Arrivals exhausted, queue empty, campaign done (or the
            // run has no campaign): the run is over. A still-pending
            // campaign keeps the loop alive via `next_campaign`.
            None => break,
        }
    }
    debug_assert_eq!(served, admitted_total);
    debug_assert_eq!(served + rejected_total, total);

    Ok(ServeReport {
        tenants,
        cache: cache.stats(),
        elapsed: last_completion.since(start),
        event_digest: digest.0,
        campaign: campaign.map(|c| c.report()),
    })
}
