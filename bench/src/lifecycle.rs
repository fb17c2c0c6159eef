//! One closed-loop client driving the archive lifecycle:
//! ingest -> retrieve -> degraded retrieve -> repair -> re-encode.
//!
//! A single client issues its next call only after the previous one
//! returned. Every call is timed on the wall clock, every phase on the
//! fleet's virtual clock, and every returned byte is compared with the
//! generated input.

use crate::gen::Object;
use crate::trace;
use crate::workload::{Fleet, Workload};
use aeon_core::{Archive, ObjectId, PolicyKind};
use std::time::Instant;

/// The five timed phases, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Ingest,
    Retrieve,
    DegradedRetrieve,
    Repair,
    Reencode,
}

impl Phase {
    pub const ALL: [Phase; 5] = [
        Phase::Ingest,
        Phase::Retrieve,
        Phase::DegradedRetrieve,
        Phase::Repair,
        Phase::Reencode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Retrieve => "retrieve",
            Phase::DegradedRetrieve => "degraded_retrieve",
            Phase::Repair => "repair",
            Phase::Reencode => "reencode",
        }
    }

    pub fn op_span(self) -> &'static str {
        match self {
            Phase::Ingest => "op.ingest",
            Phase::Retrieve => "op.retrieve",
            Phase::DegradedRetrieve => "op.degraded_retrieve",
            Phase::Repair => "op.repair",
            Phase::Reencode => "op.reencode",
        }
    }
}

/// What the client calls. `ArchiveEngine` forwards to the public
/// `Archive` API; the traced run substitutes a staged composition of
/// the same work so the layers in between become visible.
pub trait Engine {
    /// One ingest call over `items` (a single object, or one batch).
    fn ingest(&mut self, items: &[&Object]) -> Result<Vec<ObjectId>, String>;
    /// One retrieve call over `ids`, one result per id.
    fn retrieve(&mut self, ids: &[ObjectId]) -> Vec<Result<Vec<u8>, String>>;
    /// Repairs one object; `Ok` means no shard is missing afterwards.
    fn repair(&mut self, id: &ObjectId) -> Result<(), String>;
    fn reencode(&mut self, id: &ObjectId, policy: &PolicyKind) -> Result<(), String>;
    fn policy_of(&self, id: &ObjectId) -> Option<PolicyKind>;
}

/// The engine behind every end-to-end number: the `Archive` itself.
pub struct ArchiveEngine {
    pub archive: Archive,
    batch: usize,
}

impl ArchiveEngine {
    pub fn new(w: &Workload, fleet: &Fleet) -> Result<Self, String> {
        Ok(ArchiveEngine {
            archive: Archive::with_cluster(w.archive_config(), fleet.cluster.clone())
                .map_err(|e| e.to_string())?,
            batch: w.batch,
        })
    }
}

impl Engine for ArchiveEngine {
    fn ingest(&mut self, items: &[&Object]) -> Result<Vec<ObjectId>, String> {
        if self.batch == 1 {
            items
                .iter()
                .map(|o| self.archive.ingest(&o.payload, &o.name))
                .collect::<Result<_, _>>()
        } else {
            let refs: Vec<(&[u8], &str)> = items
                .iter()
                .map(|o| (o.payload.as_slice(), o.name.as_str()))
                .collect();
            self.archive.ingest_many(&refs)
        }
        .map_err(|e| e.to_string())
    }

    fn retrieve(&mut self, ids: &[ObjectId]) -> Vec<Result<Vec<u8>, String>> {
        if self.batch == 1 {
            ids.iter()
                .map(|id| self.archive.retrieve(id).map_err(|e| e.to_string()))
                .collect()
        } else {
            self.archive
                .retrieve_many(ids)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect()
        }
    }

    fn repair(&mut self, id: &ObjectId) -> Result<(), String> {
        let report = self.archive.repair_object(id).map_err(|e| e.to_string())?;
        if report.missing_after == 0 {
            Ok(())
        } else {
            Err(format!("{} shards still missing", report.missing_after))
        }
    }

    fn reencode(&mut self, id: &ObjectId, policy: &PolicyKind) -> Result<(), String> {
        self.archive
            .reencode_object(id, policy.clone())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn policy_of(&self, id: &ObjectId) -> Option<PolicyKind> {
        self.archive.manifest(id).map(|m| m.policy)
    }
}

/// Measurements of one phase of one round.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Sum of the timed calls (verification is outside the timers).
    pub wall_s: f64,
    /// Virtual-clock nanoseconds the phase took.
    pub virt_ns: u64,
    /// One entry per call: an object, or a batch.
    pub call_ms: Vec<f64>,
}

/// Operations and checks attempted, how many failed, and the first few
/// reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Reasons kept for the report.
    const KEPT: usize = 5;

    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < Self::KEPT {
                self.failures.push(why);
            }
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Measurements of one lifecycle round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub phases: [PhaseResult; 5],
    pub user_bytes: u64,
    pub stored_after_ingest: u64,
    /// The ids ingest handed out, in object order.
    pub ids: Vec<ObjectId>,
    pub tally: Tally,
}

impl Round {
    pub fn phase(&self, p: Phase) -> &PhaseResult {
        &self.phases[p as usize]
    }

    fn record(&mut self, outcome: Result<(), String>) {
        self.tally.record(outcome);
    }
}

/// Runs one full lifecycle over `objects` on a fresh `engine`/`fleet`.
///
/// `wipe` is the node whose shards disappear before the degraded read
/// (node 0 in measured rounds, node 1 in the warm-up).
/// `verify_after_reencode` re-reads everything once more at the end,
/// off the timers (warm-up only).
///
/// # Errors
///
/// Returns `Err` only when the round cannot continue (an ingest call
/// failed, so later phases have no ids to work on).
pub fn run_round(
    w: &Workload,
    objects: &[Object],
    engine: &mut dyn Engine,
    fleet: &Fleet,
    wipe: usize,
    verify_after_reencode: bool,
) -> Result<Round, String> {
    let mut round = Round {
        user_bytes: objects.iter().map(|o| o.payload.len() as u64).sum(),
        ..Round::default()
    };
    let groups: Vec<Vec<&Object>> = objects
        .chunks(w.batch)
        .map(|c| c.iter().collect())
        .collect();
    let mut ids: Vec<ObjectId> = Vec::with_capacity(objects.len());

    // Ingest.
    let mut phase = PhaseTimer::start(fleet);
    for (g, group) in groups.iter().enumerate() {
        trace::set_object((g * w.batch) as u32);
        let span = trace::span(Phase::Ingest.op_span(), 0);
        let t = Instant::now();
        let result = engine.ingest(group);
        phase.call(t);
        if result.is_err() {
            span.fail();
        }
        drop(span);
        match result {
            Ok(new_ids) if new_ids.len() == group.len() => {
                for _ in group {
                    round.record(Ok(()));
                }
                ids.extend(new_ids);
            }
            Ok(_) => return Err("ingest returned the wrong number of ids".into()),
            Err(e) => return Err(format!("ingest failed: {e}")),
        }
    }
    round.phases[Phase::Ingest as usize] = phase.finish(fleet);
    round.stored_after_ingest = fleet.cluster.total_stored_bytes();

    // Retrieve, then the same again with one node's shards gone.
    let read_all = |round: &mut Round, engine: &mut dyn Engine, p: Phase| {
        let mut phase = PhaseTimer::start(fleet);
        for (g, group) in groups.iter().enumerate() {
            let first = g * w.batch;
            trace::set_object(first as u32);
            let span = trace::span(p.op_span(), 0);
            let t = Instant::now();
            let results = engine.retrieve(&ids[first..first + group.len()]);
            phase.call(t);
            drop(span);
            for (object, result) in group.iter().zip(results) {
                round.record(match result {
                    Ok(bytes) if bytes == object.payload => Ok(()),
                    Ok(_) => Err(format!(
                        "{}: {} returned different bytes",
                        p.name(),
                        object.name
                    )),
                    Err(e) => Err(format!("{}: {}: {e}", p.name(), object.name)),
                });
            }
        }
        round.phases[p as usize] = phase.finish(fleet);
    };
    read_all(&mut round, engine, Phase::Retrieve);
    let stored_before_wipe = fleet.cluster.total_stored_bytes();
    fleet.wipe_node(wipe)?;
    read_all(&mut round, engine, Phase::DegradedRetrieve);

    // Repair every object, then check the fleet holds what it held.
    let mut phase = PhaseTimer::start(fleet);
    for (i, id) in ids.iter().enumerate() {
        trace::set_object(i as u32);
        let span = trace::span(Phase::Repair.op_span(), 0);
        let t = Instant::now();
        let result = engine.repair(id);
        phase.call(t);
        if result.is_err() {
            span.fail();
        }
        drop(span);
        round.record(result.map_err(|e| format!("repair: {}: {e}", objects[i].name)));
    }
    round.phases[Phase::Repair as usize] = phase.finish(fleet);
    let stored_after_repair = fleet.cluster.total_stored_bytes();
    round.record(if stored_after_repair == stored_before_wipe {
        Ok(())
    } else {
        Err(format!(
            "stored bytes after repair {stored_after_repair} != {stored_before_wipe} before the wipe"
        ))
    });

    // Re-encode every object, then check the manifests say so.
    let mut phase = PhaseTimer::start(fleet);
    for (i, id) in ids.iter().enumerate() {
        trace::set_object(i as u32);
        let span = trace::span(Phase::Reencode.op_span(), 0);
        let t = Instant::now();
        let result = engine.reencode(id, &w.reencode_to);
        phase.call(t);
        drop(span);
        let result = result.and_then(|()| {
            if engine.policy_of(id).as_ref() == Some(&w.reencode_to) {
                Ok(())
            } else {
                Err("manifest policy unchanged".into())
            }
        });
        round.record(result.map_err(|e| format!("reencode: {}: {e}", objects[i].name)));
    }
    round.phases[Phase::Reencode as usize] = phase.finish(fleet);
    trace::set_object(trace::NO_OBJECT);

    if verify_after_reencode {
        for (group, chunk) in groups.iter().zip(ids.chunks(w.batch)) {
            for (object, result) in group.iter().zip(engine.retrieve(chunk)) {
                round.record(match result {
                    Ok(bytes) if bytes == object.payload => Ok(()),
                    _ => Err(format!("read after re-encode: {} differs", object.name)),
                });
            }
        }
    }
    round.ids = ids;
    Ok(round)
}

struct PhaseTimer {
    virt_start: u64,
    result: PhaseResult,
}

impl PhaseTimer {
    fn start(fleet: &Fleet) -> Self {
        PhaseTimer {
            virt_start: fleet.clock.now().as_nanos(),
            result: PhaseResult::default(),
        }
    }

    fn call(&mut self, started: Instant) {
        let s = started.elapsed().as_secs_f64();
        self.result.wall_s += s;
        self.result.call_ms.push(s * 1e3);
    }

    fn finish(mut self, fleet: &Fleet) -> PhaseResult {
        self.result.virt_ns = fleet.clock.now().as_nanos() - self.virt_start;
        self.result
    }
}
