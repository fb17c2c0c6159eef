//! Metric catalogue, result files, and `diff`.

use crate::json::Value;
use crate::lifecycle::Phase;
use crate::workload;

/// How `diff` judges a metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Judge {
    /// Wall-clock or memory: may worsen by at most `bound` (a share of
    /// the older value) before it counts as a regression.
    Bound(f64),
    /// Deterministic (virtual clock, byte ratios, failure share): any
    /// difference is `drift`, a behaviour change to be explained.
    Exact,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub judge: Judge,
}

const fn wall(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        judge: Judge::Bound(bound),
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        judge: Judge::Exact,
    }
}

/// The 15 end-to-end metrics, reported per workload. "MiB" is 2^20
/// bytes of user payload.
pub const END_TO_END: [Def; 15] = [
    wall("setup_s", "s", "lower", 0.25),
    wall("ingest_mb_s", "MiB/s", "higher", 0.25),
    wall("retrieve_mb_s", "MiB/s", "higher", 0.25),
    wall("degraded_retrieve_mb_s", "MiB/s", "higher", 0.25),
    wall("repair_mb_s", "MiB/s", "higher", 0.25),
    wall("reencode_mb_s", "MiB/s", "higher", 0.25),
    wall("ingest_p50_ms", "ms", "lower", 0.25),
    wall("retrieve_p50_ms", "ms", "lower", 0.25),
    wall("peak_rss_mb", "MiB", "lower", 0.25),
    exact("stored_per_user_byte", "ratio"),
    exact("virt_ingest_s", "s"),
    exact("virt_retrieve_s", "s"),
    exact("virt_repair_s", "s"),
    exact("virt_reencode_s", "s"),
    exact("failed_ops_share", "ratio"),
];

/// Layer spans of the traced run; each reports `.calls`, `.bytes`,
/// `.busy_s`. Names are this repo's modules.
pub const LAYER_SPANS: [&str; 26] = [
    "crypto.sha256",
    "crypto.aead.seal",
    "crypto.aead.open",
    "crypto.drbg",
    "secretshare.split",
    "secretshare.combine",
    "gf.kernel",
    "erasure.encode",
    "erasure.reconstruct",
    "core.codec.encode",
    "core.codec.decode",
    "core.pipeline.encode",
    "core.pipeline.decode",
    "core.plan.write",
    "core.plan.repair",
    "core.executor.commit",
    "core.executor.read",
    "core.catalog",
    "integrity.anchor",
    "store.frame.encode",
    "store.frame.decode",
    "store.node.put",
    "store.node.get",
    "cas.chunker",
    "cas.merkle.build",
    "cas.merkle.walk",
];

/// Phases that write to nodes / read from nodes, for the per-phase
/// amplification ratios.
pub const WRITE_PHASES: [Phase; 3] = [Phase::Ingest, Phase::Repair, Phase::Reencode];
pub const READ_PHASES: [Phase; 4] = [
    Phase::Retrieve,
    Phase::DegradedRetrieve,
    Phase::Repair,
    Phase::Reencode,
];

/// Every per-layer metric name with its unit and direction, in report
/// order. The deterministic end-to-end metrics ride along: the driver's
/// `end_to_end` list takes only metrics that vary from run to run.
pub fn per_layer_defs() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    for p in Phase::ALL {
        let op = p.op_span();
        out.push((format!("{op}.calls"), "count", "lower"));
        out.push((format!("{op}.busy_s"), "s", "lower"));
        out.push((format!("{op}.p_hi_ms"), "ms", "lower"));
        out.push((format!("{op}.failed"), "count", "lower"));
    }
    for span in LAYER_SPANS {
        out.push((format!("{span}.calls"), "count", "lower"));
        out.push((format!("{span}.bytes"), "B", "lower"));
        out.push((format!("{span}.busy_s"), "s", "lower"));
    }
    out.push(("cas.index.hit_ratio".into(), "ratio", "higher"));
    out.push(("cas.dedup_ratio".into(), "ratio", "lower"));
    for p in WRITE_PHASES {
        out.push((
            format!("store.node.written_per_user_byte.{}", p.name()),
            "ratio",
            "lower",
        ));
    }
    for p in READ_PHASES {
        out.push((
            format!("store.node.read_per_user_byte.{}", p.name()),
            "ratio",
            "lower",
        ));
    }
    out.push(("store.cluster.attempts_per_shard".into(), "ratio", "lower"));
    out.push(("unattributed_share.ingest".into(), "ratio", "lower"));
    out.push(("unattributed_share.retrieve".into(), "ratio", "lower"));
    out.push(("trace.overhead_share".into(), "ratio", "lower"));
    for def in END_TO_END.iter().filter(|d| d.judge == Judge::Exact) {
        out.push((def.name.to_string(), def.unit, def.better));
    }
    out
}

/// One reported number. `median`/`min`/`max` describe the per-round (or
/// per-set-up) samples behind `value`; see `measure::fastest_calls` for
/// how a wall-clock `value` is taken from them.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Metric {
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            median: value,
            min: value,
            max: value,
            samples: 1,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.unit)),
            ("median", Value::Num(self.median)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("samples", Value::Num(self.samples as f64)),
        ])
    }

    pub fn print(&self) {
        if self.samples > 1 {
            println!(
                "{:<46} {:>14.6} {:<6} (repeats: median {:.6}, min {:.6}, max {:.6}, n={})",
                self.name, self.value, self.unit, self.median, self.min, self.max, self.samples
            );
        } else {
            println!("{:<46} {:>14.6} {}", self.name, self.value, self.unit);
        }
    }
}

/// The last stdout line of a contract run: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn contract_line(metrics: &[&Metric], attempted: u64, failed: u64) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::obj(vec![
                                ("value", Value::Num(m.value)),
                                ("unit", Value::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// `BENCHMARK.json`, generated from the tables above so the file and
/// the program cannot disagree.
pub fn benchmark_manifest(run_seconds: u64) -> Value {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better)),
        ]
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "bench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Num(run_seconds as f64)),
        (
            "workloads",
            Value::Arr(
                workload::all()
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|d| match d.judge {
                        Judge::Bound(bound) => {
                            let mut fields = named(d.name, d.unit, d.better);
                            fields.push(("bound", Value::Num(bound)));
                            Some(Value::obj(fields))
                        }
                        Judge::Exact => None,
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer_defs()
                    .iter()
                    .map(|(name, unit, better)| Value::obj(named(name, unit, better)))
                    .collect(),
            ),
        ),
    ])
}

/// Outcome of comparing one metric between two result files.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Same,
    Within { worse_by: f64 },
    Improved { better_by: f64 },
    Regression { worse_by: f64 },
    Drift,
}

/// Judges `new` against `old` for `def`.
pub fn judge(def: &Def, old: f64, new: f64) -> Verdict {
    match def.judge {
        Judge::Exact => {
            if old.to_bits() == new.to_bits() {
                Verdict::Same
            } else {
                Verdict::Drift
            }
        }
        Judge::Bound(bound) => {
            if old == new {
                return Verdict::Same;
            }
            // Share of the older value by which the newer one is worse.
            let worse_by = if def.better == "higher" {
                (old - new) / old
            } else {
                (new - old) / old
            };
            if worse_by > bound {
                Verdict::Regression { worse_by }
            } else if worse_by > 0.0 {
                Verdict::Within { worse_by }
            } else {
                Verdict::Improved {
                    better_by: -worse_by,
                }
            }
        }
    }
}

/// Compares two result files metric by metric; returns the report and
/// whether anything regressed or drifted.
pub fn diff(old: &Value, new: &Value) -> Result<(String, bool), String> {
    let workloads = |v: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .ok_or("result file has no \"workloads\"")?
            .fields()
            .to_vec())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut out = String::new();
    let mut bad = false;
    for (name, old_result) in &old_w {
        let Some((_, new_result)) = new_w.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("{name}: missing from the newer file\n"));
            bad = true;
            continue;
        };
        out.push_str(&format!("{name}\n"));
        for def in &END_TO_END {
            let value = |r: &Value| {
                r.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(a), Some(b)) = (value(old_result), value(new_result)) else {
                out.push_str(&format!("  {:<24} missing on one side\n", def.name));
                bad = true;
                continue;
            };
            let verdict = judge(def, a, b);
            let text = match &verdict {
                Verdict::Same => "same".to_string(),
                Verdict::Within { worse_by } => format!("ok (worse by {:.2}%)", worse_by * 100.0),
                Verdict::Improved { better_by } => {
                    format!("ok (better by {:.2}%)", better_by * 100.0)
                }
                Verdict::Regression { worse_by } => {
                    bad = true;
                    format!("REGRESSION (worse by {:.2}%)", worse_by * 100.0)
                }
                Verdict::Drift => {
                    bad = true;
                    format!("drift ({})", Value::Num(b - a).render())
                }
            };
            out.push_str(&format!(
                "  {:<24} {:>18} -> {:<18} {:<6} {text}\n",
                def.name,
                Value::Num(a).render(),
                Value::Num(b).render(),
                def.unit
            ));
        }
        // Per-layer counts (calls, bytes, failures, byte ratios) repeat
        // exactly for one seed; times and time-derived shares do not.
        let layers = |r: &Value| {
            r.get("per_layer")
                .map(Value::fields)
                .unwrap_or_default()
                .to_vec()
        };
        let new_layers = layers(new_result);
        let mut same = 0;
        for (metric, old_m) in layers(old_result) {
            let unit = old_m.get("unit");
            let timed = unit == Some(&Value::str("s"))
                || unit == Some(&Value::str("ms"))
                || metric.starts_with("unattributed_share.")
                || metric == "trace.overhead_share";
            if timed || END_TO_END.iter().any(|d| d.name == metric) {
                continue;
            }
            let a = old_m.get("value").and_then(Value::as_f64);
            let b = new_layers
                .iter()
                .find(|(n, _)| *n == metric)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64);
            if a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits) {
                same += 1;
            } else {
                bad = true;
                out.push_str(&format!("  {metric:<46} {a:?} -> {b:?}  drift\n"));
            }
        }
        if same > 0 {
            out.push_str(&format!("  {same} per-layer counts identical\n"));
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static Def {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_and_units_survive_the_json_writer() {
        let layer = per_layer_defs();
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(layer.iter().map(|(n, _, _)| n.as_str()));
        let metrics: Vec<Metric> = names.iter().map(|n| Metric::single(*n, "s", 1.5)).collect();
        let line = contract_line(&metrics.iter().collect::<Vec<_>>(), 3, 0);
        let parsed = Value::parse(&line).unwrap();
        let written: Vec<&str> = parsed
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(written, names);
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks [A-Za-z0-9_.-]+"
        );
        assert!(END_TO_END.iter().all(|d| unit_ok(d.unit)));
        assert!(layer.iter().all(|(_, unit, _)| unit_ok(unit)));
        assert!(layer.len() <= 128);
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn names_are_unique_across_both_lists() {
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        names.extend(
            per_layer_defs()
                .into_iter()
                .map(|(n, _, _)| n)
                .filter(|n| !END_TO_END.iter().any(|d| d.name == n)),
        );
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = committed.get("run_seconds").unwrap().as_f64().unwrap() as u64;
        assert_eq!(committed, benchmark_manifest(run_seconds));
    }

    #[test]
    fn wall_metrics_are_judged_against_their_bound() {
        let d = def("ingest_mb_s");
        assert_eq!(judge(d, 100.0, 100.0), Verdict::Same);
        assert!(matches!(judge(d, 100.0, 95.0), Verdict::Within { .. }));
        assert!(matches!(judge(d, 100.0, 70.0), Verdict::Regression { .. }));
        assert!(matches!(judge(d, 100.0, 130.0), Verdict::Improved { .. }));
        let d = def("ingest_p50_ms");
        assert!(matches!(judge(d, 10.0, 13.0), Verdict::Regression { .. }));
        assert!(matches!(judge(d, 10.0, 10.5), Verdict::Within { .. }));
        assert!(matches!(judge(d, 10.0, 7.0), Verdict::Improved { .. }));
    }

    #[test]
    fn deterministic_metrics_drift_on_any_difference() {
        let d = def("virt_ingest_s");
        assert_eq!(judge(d, 1.25, 1.25), Verdict::Same);
        assert_eq!(judge(d, 1.25, 1.2500000001), Verdict::Drift);
        assert_eq!(judge(def("failed_ops_share"), 0.0, 0.0), Verdict::Same);
    }

    fn result(ingest: f64, virt: f64) -> Value {
        let metric = |v: f64| Value::obj(vec![("value", Value::Num(v))]);
        let mut fields: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), metric(1.0)))
            .collect();
        fields[1].1 = metric(ingest);
        fields[10].1 = metric(virt);
        Value::obj(vec![(
            "workloads",
            Value::obj(vec![(
                "bulk-aead",
                Value::obj(vec![("end_to_end", Value::Obj(fields))]),
            )]),
        )])
    }

    #[test]
    fn diff_flags_regressions_and_drift_on_hand_made_pairs() {
        let base = result(100.0, 2.0);
        let (text, bad) = diff(&base, &result(99.0, 2.0)).unwrap();
        assert!(!bad, "{text}");
        let (text, bad) = diff(&base, &result(50.0, 2.0)).unwrap();
        assert!(bad && text.contains("REGRESSION"), "{text}");
        let (text, bad) = diff(&base, &result(100.0, 2.5)).unwrap();
        assert!(bad && text.contains("drift (0.5)"), "{text}");
        let with_layer = |calls: f64| {
            let mut doc = result(100.0, 2.0);
            let Value::Obj(top) = &mut doc else {
                unreachable!()
            };
            let Value::Obj(workloads) = &mut top[0].1 else {
                unreachable!()
            };
            let Value::Obj(fields) = &mut workloads[0].1 else {
                unreachable!()
            };
            let count = |v: f64, unit: &str| {
                Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str(unit))])
            };
            fields.push((
                "per_layer".into(),
                Value::obj(vec![
                    ("crypto.sha256.calls", count(calls, "count")),
                    ("crypto.sha256.busy_s", count(calls / 7.0, "s")),
                ]),
            ));
            doc
        };
        let (text, bad) = diff(&with_layer(40.0), &with_layer(40.0)).unwrap();
        assert!(
            !bad && text.contains("1 per-layer counts identical"),
            "{text}"
        );
        let (text, bad) = diff(&with_layer(40.0), &with_layer(41.0)).unwrap();
        assert!(bad && text.contains("crypto.sha256.calls"), "{text}");
        let (_, bad) = diff(&base, &Value::obj(vec![("workloads", Value::Obj(vec![]))])).unwrap();
        assert!(bad);
        assert!(diff(&base, &Value::Null).is_err());
    }
}
