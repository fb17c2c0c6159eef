//! The two kinds of run: end-to-end (tracing off) and traced.

use crate::gen::Object;
use crate::lifecycle::{run_round, ArchiveEngine, Phase, Round, Tally};
use crate::replay::replay_layers;
use crate::report::{Metric, LAYER_SPANS, READ_PHASES, WRITE_PHASES};
use crate::staged::StagedEngine;
use crate::stats::{median, min_max, p_hi};
use crate::trace::{self, SpanRec, TracingNode};
use crate::workload::{out_dir, Fleet, Workload};
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// Node wiped before the degraded read: 0 in measured rounds, 1 in the
/// warm-up, so both a data-heavy and a differently placed loss are read
/// through every run.
const WIPE_MEASURED: usize = 0;
const WIPE_WARMUP: usize = 1;

/// Set-ups repeat for this share of a run's `--seconds` (a short set-up
/// is disturbed as easily as a short call, so it needs as many repeats),
/// and at least this many times; then rounds, at least `MIN_ROUNDS`.
const SETUP_SHARE: f64 = 0.15;
const MIN_SETUPS: usize = 3;
const MIN_ROUNDS: usize = 3;

/// What a run produced, for the contract line and the result file.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub objects: usize,
    pub user_bytes: u64,
    pub rounds: usize,
}

/// One lifecycle on the real `Archive` over a fresh fleet. The engine
/// and fleet are handed back so the caller decides when they are torn
/// down (never inside a timed set-up).
fn untraced_round(
    w: &Workload,
    objects: &[Object],
    wipe: usize,
    verify: bool,
) -> Result<(Round, ArchiveEngine, Fleet), String> {
    let fleet = Fleet::build(|inner| inner);
    let mut engine = ArchiveEngine::new(w, &fleet)?;
    let round = run_round(w, objects, &mut engine, &fleet, wipe, verify)?;
    Ok((round, engine, fleet))
}

/// Input generation + fleet and archive construction + a quarter-size
/// warm-up lifecycle that also re-reads everything after the re-encode.
/// Tearing the warm-up fleet down is not set-up and is not timed.
fn set_up(w: &Workload, seed: u64) -> Result<(Vec<Object>, Round, f64), String> {
    let t = Instant::now();
    let objects = (w.generate)(seed);
    let quarter = (objects.len() / 4).max(1);
    let (round, _engine, _fleet) = untraced_round(w, &objects[..quarter], WIPE_WARMUP, true)?;
    let elapsed = t.elapsed().as_secs_f64();
    Ok((objects, round, elapsed))
}

/// A metric whose reported `value` is the quiet-host estimate, with
/// the median and range of `samples` (one per round or set-up) beside it.
fn summarize(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
    let (min, max) = min_max(samples);
    Metric {
        name: name.to_string(),
        unit,
        value,
        median: median(samples),
        min,
        max,
        samples: samples.len(),
    }
}

/// Per call index, the fastest time (ms) any round saw for that call.
///
/// Every round issues the same calls on the same inputs, so call `i`
/// does the same work in each. The hosts this runs on slow a thread
/// down by a steady factor (about 1.6 here) for seconds at a time when
/// a neighbour wants the core, which makes a run's median flip between
/// two speeds; the fastest of many repeats of one call is the cost of
/// that call on an undisturbed core, and that is what repeats.
fn fastest_calls(rounds: &[Round], p: Phase) -> Vec<f64> {
    let calls = rounds[0].phase(p).call_ms.len();
    (0..calls)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.phase(p).call_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The deterministic end-to-end metrics of one round: identical in
/// every round of every run with the same seed.
fn exact_metrics(round: &Round) -> Vec<Metric> {
    let virt = |p: Phase| round.phase(p).virt_ns as f64 / 1e9;
    vec![
        Metric::single(
            "stored_per_user_byte",
            "ratio",
            round.stored_after_ingest as f64 / round.user_bytes as f64,
        ),
        Metric::single("virt_ingest_s", "s", virt(Phase::Ingest)),
        Metric::single("virt_retrieve_s", "s", virt(Phase::Retrieve)),
        Metric::single("virt_repair_s", "s", virt(Phase::Repair)),
        Metric::single("virt_reencode_s", "s", virt(Phase::Reencode)),
    ]
}

/// The end-to-end run: timed set-ups for the first `SETUP_SHARE` of
/// `seconds` (at least `MIN_SETUPS`), then measured rounds on
/// fresh archives until `seconds` have passed since the run began (at
/// least `MIN_ROUNDS`), so a run's length does not depend on how fast
/// the host happens to be.
/// A phase's time is the sum over its calls of each call's fastest
/// round (`fastest_calls`); the median over whole rounds is printed
/// beside every value.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut objects = Vec::new();
    while setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < seconds * SETUP_SHARE {
        drop(std::mem::take(&mut objects));
        let (generated, warmup, elapsed) = set_up(w, seed)?;
        tally.absorb(&warmup.tally);
        setup_s.push(elapsed);
        objects = generated;
    }

    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let (round, _engine, _fleet) = untraced_round(w, &objects, WIPE_MEASURED, false)?;
        tally.absorb(&round.tally);
        rounds.push(round);
    }

    let user_bytes = rounds[0].user_bytes;
    let user_mib = user_bytes as f64 / MIB;
    let (fastest_setup, _) = min_max(&setup_s);
    let mut metrics = vec![summarize("setup_s", "s", fastest_setup, &setup_s)];
    for (name, p) in [
        ("ingest_mb_s", Phase::Ingest),
        ("retrieve_mb_s", Phase::Retrieve),
        ("degraded_retrieve_mb_s", Phase::DegradedRetrieve),
        ("repair_mb_s", Phase::Repair),
        ("reencode_mb_s", Phase::Reencode),
    ] {
        let per_round: Vec<f64> = rounds
            .iter()
            .map(|r| user_mib / r.phase(p).wall_s)
            .collect();
        let fastest_s = fastest_calls(&rounds, p).iter().sum::<f64>() / 1e3;
        metrics.push(summarize(name, "MiB/s", user_mib / fastest_s, &per_round));
    }
    // Call latency: the median over call indices of each call's fastest
    // round; beside it the median over every call of every round and
    // the range of the per-round medians.
    for (name, p) in [
        ("ingest_p50_ms", Phase::Ingest),
        ("retrieve_p50_ms", Phase::Retrieve),
    ] {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.phase(p).call_ms.iter().copied())
            .collect();
        let per_round: Vec<f64> = rounds.iter().map(|r| median(&r.phase(p).call_ms)).collect();
        let (min, max) = min_max(&per_round);
        metrics.push(Metric {
            name: name.into(),
            unit: "ms",
            value: median(&fastest_calls(&rounds, p)),
            median: median(&all),
            min,
            max,
            samples: all.len(),
        });
    }
    metrics.push(Metric::single("peak_rss_mb", "MiB", peak_rss_mib()));
    metrics.extend(exact_metrics(&rounds[0]));
    // The virtual clock must not differ between rounds of one run.
    for r in &rounds[1..] {
        let same = Phase::ALL
            .iter()
            .all(|&p| r.phase(p).virt_ns == rounds[0].phase(p).virt_ns)
            && r.stored_after_ingest == rounds[0].stored_after_ingest;
        tally.record(if same {
            Ok(())
        } else {
            Err("virtual clock or stored bytes differ between rounds".into())
        });
    }
    metrics.push(Metric::single(
        "failed_ops_share",
        "ratio",
        tally.failed_share(),
    ));
    Ok(Outcome {
        metrics,
        tally,
        objects: objects.len(),
        user_bytes,
        rounds: rounds.len(),
    })
}

/// Name of the op span a span descends from, if any.
fn op_of(spans: &[SpanRec], mut i: usize) -> Option<&'static str> {
    loop {
        let s = &spans[i];
        if s.name.starts_with("op.") {
            return Some(s.name);
        }
        if s.parent == trace::NO_SPAN {
            return None;
        }
        i = s.parent as usize;
    }
}

/// The traced run: one untraced reference round, then one traced round
/// (staged composition, or the real archive behind op spans on dedup)
/// followed by the leaf replays. Writes `out/trace-<workload>.json`.
pub fn traced(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (objects, warmup, _) = set_up(w, seed)?;
    tally.absorb(&warmup.tally);
    let (reference, reference_engine, reference_fleet) =
        untraced_round(w, &objects, WIPE_MEASURED, false)?;
    tally.absorb(&reference.tally);
    let dedup_stats = reference_engine.archive.dedup_stats();
    drop((reference_engine, reference_fleet));

    let fleet = Fleet::build(|inner| Arc::new(TracingNode(inner)));
    trace::enable();
    let (round, staged_transfers) = if w.dedup {
        let mut engine = ArchiveEngine::new(w, &fleet)?;
        (
            run_round(w, &objects, &mut engine, &fleet, WIPE_MEASURED, false)?,
            None,
        )
    } else {
        let mut engine = StagedEngine::new(w, fleet.cluster.clone(), reference.ids.clone());
        let round = run_round(w, &objects, &mut engine, &fleet, WIPE_MEASURED, false)?;
        (round, Some((engine.attempts, engine.shard_slots)))
    };
    replay_layers(w, &objects, &reference.ids, &fleet.cluster, WIPE_MEASURED);
    let spans = trace::disable();
    tally.absorb(&round.tally);

    // The traced round must be the same computation as the untraced
    // one: same bytes stored, same virtual time in every phase.
    let faithful = round.stored_after_ingest == reference.stored_after_ingest
        && Phase::ALL
            .iter()
            .all(|&p| round.phase(p).virt_ns == reference.phase(p).virt_ns);
    tally.record(if faithful {
        Ok(())
    } else {
        let virt = |r: &Round| Phase::ALL.map(|p| r.phase(p).virt_ns);
        Err(format!(
            "traced round diverged from the untraced one: stored {} vs {}, virtual ns per phase {:?} vs {:?}",
            round.stored_after_ingest,
            reference.stored_after_ingest,
            virt(&round),
            virt(&reference)
        ))
    });

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let trace_path = out_dir().join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, trace::chrome_trace(&spans, w.name))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!("# {} spans -> {}", spans.len(), trace_path.display());

    let totals = trace::aggregate(&spans);
    let empty = trace::LayerTotals::default();
    let mut metrics: Vec<Metric> = Vec::new();
    for p in Phase::ALL {
        let name = p.op_span();
        let t = totals.get(name).unwrap_or(&empty);
        let (label, hi) = if t.durations_ms.is_empty() {
            ("max", 0.0)
        } else {
            p_hi(&t.durations_ms)
        };
        println!(
            "# {name}.p_hi_ms is {label} of {} samples",
            t.durations_ms.len()
        );
        metrics.push(Metric::single(
            format!("{name}.calls"),
            "count",
            t.calls as f64,
        ));
        metrics.push(Metric::single(format!("{name}.busy_s"), "s", t.busy_s));
        metrics.push(Metric::single(format!("{name}.p_hi_ms"), "ms", hi));
        metrics.push(Metric::single(
            format!("{name}.failed"),
            "count",
            t.failed as f64,
        ));
    }
    for span in LAYER_SPANS {
        let t = totals.get(span).unwrap_or(&empty);
        metrics.push(Metric::single(
            format!("{span}.calls"),
            "count",
            t.calls as f64,
        ));
        metrics.push(Metric::single(format!("{span}.bytes"), "B", t.bytes as f64));
        metrics.push(Metric::single(format!("{span}.busy_s"), "s", t.busy_s));
    }
    let (hit_ratio, dedup_ratio) = dedup_stats.map_or((0.0, 0.0), |s| {
        let lookups = (s.index.hits + s.index.misses).max(1);
        (s.index.hits as f64 / lookups as f64, s.dedup_ratio)
    });
    metrics.push(Metric::single("cas.index.hit_ratio", "ratio", hit_ratio));
    metrics.push(Metric::single("cas.dedup_ratio", "ratio", dedup_ratio));
    let node_bytes = |node_span: &str, p: Phase| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == node_span && op_of(&spans, *i) == Some(p.op_span()))
            .map(|(_, s)| s.bytes as f64)
            .sum::<f64>()
            / round.user_bytes as f64
    };
    for p in WRITE_PHASES {
        metrics.push(Metric::single(
            format!("store.node.written_per_user_byte.{}", p.name()),
            "ratio",
            node_bytes("store.node.put", p),
        ));
    }
    for p in READ_PHASES {
        metrics.push(Metric::single(
            format!("store.node.read_per_user_byte.{}", p.name()),
            "ratio",
            node_bytes("store.node.get", p),
        ));
    }
    // Without per-call reports (the real archive returns none from its
    // un-suffixed calls) the node spans stand in: one span per attempt.
    let (attempts, slots) = staged_transfers.unwrap_or_else(|| {
        let calls = totals.get("store.node.put").map_or(0, |t| t.calls)
            + totals.get("store.node.get").map_or(0, |t| t.calls);
        (calls, calls)
    });
    metrics.push(Metric::single(
        "store.cluster.attempts_per_shard",
        "ratio",
        attempts as f64 / slots.max(1) as f64,
    ));
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_s);
    for p in [Phase::Ingest, Phase::Retrieve] {
        let op = p.op_span();
        let mut attributed = trace::children_busy_s(&spans, op);
        if w.dedup {
            // The dedup paths are private: the replayed layers are the
            // only account of what the op did besides node I/O.
            attributed += trace::children_busy_s(&spans, &format!("replay.{}", p.name()));
        }
        metrics.push(Metric::single(
            format!("unattributed_share.{}", p.name()),
            "ratio",
            1.0 - attributed / busy(op),
        ));
    }
    let traced_total: f64 = Phase::ALL.iter().map(|p| busy(p.op_span())).sum();
    let untraced_total: f64 = Phase::ALL.iter().map(|&p| reference.phase(p).wall_s).sum();
    metrics.push(Metric::single(
        "trace.overhead_share",
        "ratio",
        traced_total / untraced_total - 1.0,
    ));
    metrics.extend(exact_metrics(&reference));
    metrics.push(Metric::single(
        "failed_ops_share",
        "ratio",
        tally.failed_share(),
    ));
    print_layer_table(&totals);
    Ok(Outcome {
        metrics,
        tally,
        objects: objects.len(),
        user_bytes: round.user_bytes,
        rounds: 1,
    })
}

/// The per-layer table: busy and self time per span name, largest first,
/// with each span's share of the op time it ran under.
fn print_layer_table(totals: &std::collections::BTreeMap<&'static str, trace::LayerTotals>) {
    let op_total: f64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .map(|(_, t)| t.busy_s)
        .sum();
    let mut rows: Vec<(&&str, &trace::LayerTotals)> = totals
        .iter()
        .filter(|(n, _)| !n.starts_with("replay."))
        .collect();
    rows.sort_by(|a, b| b.1.busy_s.total_cmp(&a.1.busy_s));
    println!(
        "# {:<26} {:>8} {:>14} {:>10} {:>10} {:>8}",
        "span", "calls", "bytes", "busy_s", "self_s", "of ops"
    );
    for (name, t) in rows {
        println!(
            "# {:<26} {:>8} {:>14} {:>10.4} {:>10.4} {:>7.1}%",
            name,
            t.calls,
            t.bytes,
            t.busy_s,
            t.self_s,
            100.0 * t.busy_s / op_total
        );
    }
    println!("# replayed layers (see README) re-run on the same inputs after the round; they are not children of op spans");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_with(ingest_ms: &[f64]) -> Round {
        let mut round = Round::default();
        round.phases[Phase::Ingest as usize].call_ms = ingest_ms.to_vec();
        round
    }

    #[test]
    fn fastest_calls_takes_each_call_from_its_best_round() {
        // Round 2 was disturbed on its first call, round 1 on its last.
        let rounds = [
            round_with(&[10.0, 21.0, 48.0]),
            round_with(&[17.0, 20.0, 30.0]),
            round_with(&[10.5, 33.0, 31.0]),
        ];
        assert_eq!(fastest_calls(&rounds, Phase::Ingest), [10.0, 20.0, 30.0]);
        assert!(fastest_calls(&rounds, Phase::Repair).is_empty());
    }
}
