//! The paper artifacts as goldens: `exp_fig1`, `exp_table1`, `exp_hndl`,
//! `exp_refresh_cost` and `exp_plan` are deterministic, so their stdout
//! is pinned byte for byte under `tests/paper/` the way the shard vectors
//! are in `aeon-core`'s `golden.rs`. A change that moves Figure 1, Table 1
//! or the §3.2 / §3.3 tables fails here with the first differing line;
//! regenerate a file (`cargo run --release -p aeon-bench --bin <name> >
//! crates/bench/tests/paper/<name>.txt`) only for a move that is meant.

use std::process::Command;

fn assert_pinned(name: &str, exe: &str, pinned: &str) {
    let run = Command::new(exe)
        .env_remove("AEON_RESULTS_DIR")
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
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
                "{name} moved off tests/paper/{name}.txt at line {line}:\n  pinned: {}\n  now:    {}",
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
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("paper/", stringify!($name), ".txt")),
            );
        }
    )*};
}

pinned!(exp_fig1, exp_table1, exp_hndl, exp_refresh_cost, exp_plan);
