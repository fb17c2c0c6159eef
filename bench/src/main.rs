//! The repo benchmark: four archive-lifecycle workloads measured on the
//! wall clock and the virtual clock, plus a per-layer traced run.
//!
//! ```text
//! aeon-lifecycle-bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! aeon-lifecycle-bench run --seed N [--workload W] [--seconds S] [--out FILE]
//! aeon-lifecycle-bench diff OLD.json NEW.json
//! aeon-lifecycle-bench manifest                                        prints BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the metric and workload
//! definitions.

mod gen;
mod json;
mod lifecycle;
mod measure;
mod replay;
mod report;
mod staged;
mod stats;
mod trace;
mod workload;

use json::Value;
use measure::Outcome;
use report::{Judge, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::Workload;

/// How long one run measures, and the value `BENCHMARK.json` carries.
const RUN_SECONDS: u64 = 30;

fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match arg_value(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

/// Refuses to measure under overrides that change what runs.
fn check_environment() -> Result<(), String> {
    for var in ["AEON_FORCE_KERNEL", "AEON_FORCE_DISPATCH"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it overrides the GF kernel tier or dispatch policy the workloads pin; unset it"
            ));
        }
    }
    Ok(())
}

fn git_rev() -> String {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Look for a repository in the checkout only, never above it.
    let ceiling = package.parent().and_then(Path::parent).unwrap_or(package);
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(package)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn header(seed: u64, seconds: f64) -> Value {
    Value::obj(vec![
        ("schema", Value::str("aeon-lifecycle-bench/1")),
        ("git_rev", Value::str(git_rev())),
        ("nproc", Value::Num(nproc() as f64)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        (
            "gf_kernel",
            Value::str(aeon_gf::Kernel::active().tier().name()),
        ),
        ("max_worker_threads", Value::Num(2.0)),
    ])
}

fn workload_json(w: &Workload, outcome: &Outcome) -> Value {
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    );
    Value::obj(vec![
        ("sizing", Value::str(w.sizing)),
        ("objects", Value::Num(outcome.objects as f64)),
        ("user_bytes", Value::Num(outcome.user_bytes as f64)),
        ("rounds", Value::Num(outcome.rounds as f64)),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed as f64)),
        ("end_to_end", metrics),
    ])
}

/// One run in the driver's form. Prints every metric by name with its
/// unit, then the contract line.
fn contract_run(args: &[String]) -> Result<bool, String> {
    check_environment()?;
    let name: String = parse(args, "--workload", None)?;
    let w = workload::by_name(&name).ok_or_else(|| {
        let known: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed: u64 = parse(args, "--seed", None)?;
    let seconds: f64 = parse(args, "--seconds", Some(RUN_SECONDS as f64))?;
    let traced = match parse::<u8>(args, "--trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    println!(
        "# {} seed={seed} trace={} nproc={} gf_kernel={} git={} | {}",
        w.name,
        u8::from(traced),
        nproc(),
        aeon_gf::Kernel::active().tier().name(),
        git_rev(),
        w.sizing
    );
    let outcome = if traced {
        measure::traced(&w, seed)?
    } else {
        measure::end_to_end(&w, seed, seconds)?
    };
    println!(
        "# {} objects, {} user bytes, {} measured round(s), {} operations attempted, {} failed",
        outcome.objects,
        outcome.user_bytes,
        outcome.rounds,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for failure in &outcome.tally.failures {
        println!("# FAILED: {failure}");
    }
    for m in &outcome.metrics {
        m.print();
    }
    if let Some(path) = arg_value(args, "--result") {
        let doc = workload_json(&w, &outcome);
        std::fs::write(path, doc.render()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    // The driver's end-to-end list takes the metrics that vary from run
    // to run; the deterministic ones travel with the per-layer list.
    let listed: Vec<String> = if traced {
        report::per_layer_defs()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|d| matches!(d.judge, Judge::Bound(_)))
            .map(|d| d.name.to_string())
            .collect()
    };
    let reported: Vec<&report::Metric> = listed
        .iter()
        .map(|name| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{name} is listed in BENCHMARK.json but was not measured"))
        })
        .collect::<Result<_, _>>()?;
    println!(
        "{}",
        report::contract_line(&reported, outcome.tally.attempted, outcome.tally.failed)
    );
    Ok(outcome.tally.failed == 0)
}

/// Runs every workload (or one) end to end and traced, one process per
/// run so `peak_rss_mb` is that workload's own, and writes one result
/// file.
fn run_all(args: &[String]) -> Result<bool, String> {
    check_environment()?;
    let seed: u64 = parse(args, "--seed", None)?;
    let seconds: f64 = parse(args, "--seconds", Some(RUN_SECONDS as f64))?;
    let only = arg_value(args, "--workload");
    let out_dir = workload::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let out_path = arg_value(args, "--out").map_or_else(
        || out_dir.join(format!("result-seed{seed}.json")),
        PathBuf::from,
    );
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut results = Vec::new();
    for w in workload::all() {
        if only.is_some_and(|o| o != w.name) {
            continue;
        }
        let mut run_part = |trace: &str| -> Result<Value, String> {
            let part = out_dir.join(format!(
                "part-{}-{trace}-{}.json",
                w.name,
                std::process::id()
            ));
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--result")
                .arg(&part)
                .status()
                .map_err(|e| format!("starting a run: {e}"))?;
            ok &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            Value::parse(&text)
        };
        let (mut end_to_end, traced) = (run_part("0")?, run_part("1")?);
        if let (Value::Obj(fields), Some(layers)) = (&mut end_to_end, traced.get("end_to_end")) {
            fields.push(("per_layer".into(), layers.clone()));
        }
        results.push((w.name.to_string(), end_to_end));
    }
    if results.is_empty() {
        return Err(format!("unknown workload {:?}", only.unwrap_or_default()));
    }
    let doc = Value::obj(vec![
        ("header", header(seed, seconds)),
        ("workloads", Value::Obj(results)),
    ]);
    std::fs::write(&out_path, doc.render_pretty())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("# result written to {}", out_path.display());
    Ok(ok)
}

fn diff_files(args: &[String]) -> Result<bool, String> {
    let [old, new] = args else {
        return Err("usage: diff OLD.json NEW.json".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        Value::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (text, bad) = report::diff(&load(old)?, &load(new)?)?;
    print!("{text}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("diff") => diff_files(&args[1..]),
        Some("manifest") => {
            print!(
                "{}",
                report::benchmark_manifest(RUN_SECONDS).render_pretty()
            );
            Ok(true)
        }
        _ => contract_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
