//! The paper artifacts as goldens: these eleven experiments are
//! deterministic, so their stdout is pinned byte for byte under
//! `tests/paper/exp_<name>.txt` the way the shard vectors are in
//! `aeon-core`'s `golden.rs`. A change that moves Figure 1, Table 1, the
//! §3.2 months or any other pinned table fails here with the first
//! differing line; regenerate a file (`cargo run --release -p aeon-bench
//! --bin aeon-exp -- <name> > crates/bench/tests/paper/exp_<name>.txt`)
//! only for a move that is meant.

use std::process::{Command, Output};

fn aeon_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aeon-exp"))
        .args(args)
        .env_remove("AEON_RESULTS_DIR")
        .env_remove("AEON_FORCE_DISPATCH")
        .output()
        .unwrap_or_else(|e| panic!("cannot run aeon-exp {args:?}: {e}"))
}

fn assert_pinned(name: &str, pinned: &str) {
    let run = aeon_exp(&[name]);
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
                stringify!($name),
                include_str!(concat!("paper/exp_", stringify!($name), ".txt")),
            );
        }
    )*};
}

pinned! {
    fig1, table1, reencrypt, hndl, mobile, refresh_cost, leakage, bsm, media, transit, plan
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
