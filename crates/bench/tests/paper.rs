//! The paper artifacts as goldens: these sixteen experiment runs are
//! deterministic, so their stdout is pinned byte for byte under
//! `tests/paper/exp_<name>.txt` the way the shard vectors are in
//! `aeon-core`'s `golden.rs`. A change that moves Figure 1, Table 1, the
//! §3.2 months, a live re-encode campaign or any other pinned table fails
//! here with the first differing line; regenerate a file (`cargo run
//! --release -p aeon-bench --bin aeon-exp -- <name> [flags] >
//! crates/bench/tests/paper/exp_<name>[_<flag>].txt`, then the
//! "written to" line's directory replaced by `<AEON_RESULTS_DIR>`) only
//! for a move that is meant.

use std::fs;
use std::process::{Command, Output};

/// Stands for the per-run artifact directory in stdout and in the pins.
const RESULTS_DIR: &str = "<AEON_RESULTS_DIR>";

/// Runs `aeon-exp` with its `BENCH_*.json` artifacts written to a
/// temporary directory of the run's own (never the crate directory),
/// whose path in stdout reads [`RESULTS_DIR`].
fn aeon_exp(args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!(
        "aeon-paper-{}-{}",
        std::process::id(),
        args.join("")
    ));
    fs::create_dir_all(&dir).expect("a results directory");
    let mut run = Command::new(env!("CARGO_BIN_EXE_aeon-exp"))
        .args(args)
        .env("AEON_RESULTS_DIR", &dir)
        .env_remove("AEON_FORCE_DISPATCH")
        .output()
        .unwrap_or_else(|e| panic!("cannot run aeon-exp {args:?}: {e}"));
    let _ = fs::remove_dir_all(&dir);
    if let Ok(stdout) = std::str::from_utf8(&run.stdout) {
        let dir = dir.display().to_string();
        run.stdout = stdout.replace(&dir, RESULTS_DIR).into_bytes();
    }
    run
}

/// Runs `aeon-exp <args>` and compares its stdout with `pinned`, the
/// contents of `tests/paper/exp_<args joined by '_', dashes dropped>.txt`.
fn assert_pinned(args: &[&str], pinned: &str) {
    let name = args
        .iter()
        .map(|a| a.trim_start_matches('-'))
        .collect::<Vec<_>>()
        .join("_");
    let run = aeon_exp(args);
    assert!(
        run.status.success(),
        "{name} exited with {}:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("experiment output is UTF-8");
    if stdout == pinned {
        return;
    }
    let (mut got, mut want) = (stdout.lines(), pinned.lines());
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => line += 1,
            (None, None) => panic!("{name}: output differs from the pin only in line endings"),
            (g, w) => panic!(
                "{name} moved off tests/paper/exp_{name}.txt at line {line}:\n  pinned: {}\n  now:    {}",
                w.unwrap_or("<end of output>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}

macro_rules! pinned {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            assert_pinned(
                &[stringify!($name)],
                include_str!(concat!("paper/exp_", stringify!($name), ".txt")),
            );
        }
    )*};
}

pinned! {
    fig1, table1, reencrypt, hndl, mobile, refresh_cost, leakage, bsm, media, transit, plan, dedup,
    fleet, retrieve, parallel
}

/// The live §3.2 campaigns on the virtual clock, four sites re-encoded.
#[test]
fn reencrypt_measured() {
    assert_pinned(
        &["reencrypt", "--measured"],
        include_str!("paper/exp_reencrypt_measured.txt"),
    );
}

#[test]
fn a_mistyped_flag_runs_nothing() {
    let run = aeon_exp(&["fig1", "--quik"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(
        run.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );
}
