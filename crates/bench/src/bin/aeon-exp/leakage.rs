//! E7 — local leakage: Shamir vs leakage-resilient secret sharing.
//!
//! The §4 research direction: Shamir over GF(2^8) is vulnerable to
//! local-leakage attacks (Benhamouda et al.); LRSS compilers fix it at a
//! storage cost. We run the parity-leakage attack against both and sweep
//! the LRSS storage overhead.

use aeon_adversary::leakage::parity_leakage_experiment;
use aeon_bench::{f2, f3, CliArgs, Table};
use aeon_secretshare::lrss;

pub fn run(_: &CliArgs) {
    let trials = 600;

    let mut table = Table::new(
        "Parity-leakage advantage (1 bit/share leaked, secret=0x01)",
        &["sharing", "t", "n", "advantage(plain)", "advantage(LRSS)"],
    );
    for (t, n) in [(2usize, 2usize), (3, 3), (5, 5), (2, 5), (3, 5), (4, 7)] {
        let plain = parity_leakage_experiment(0x7EA7, 0x01, t, n, false, trials);
        let wrapped = parity_leakage_experiment(0x7EA7, 0x01, t, n, true, trials);
        table.row(&[
            format!("{t}-of-{n}"),
            t.to_string(),
            n.to_string(),
            f3(plain.advantage),
            f3(wrapped.advantage),
        ]);
    }
    table.print();

    // Storage price of leakage resilience for a 32-byte share.
    let mut table = Table::new(
        "LRSS storage expansion per share (32-byte base share)",
        &["source-len(B)", "stored/share(B)", "expansion(x)"],
    );
    for source_len in [16usize, 32, 64, 128, 256] {
        let params = lrss::LrssParams { source_len };
        let stored = source_len + (source_len + 32) + 32;
        table.row(&[
            source_len.to_string(),
            stored.to_string(),
            f2(lrss::expansion(32, params)),
        ]);
    }
    table.print();

    println!("Expected shape (paper/Benhamouda): plain GF(2^8) Shamir leaks for");
    println!("evaluation-point sets whose Lagrange weights XOR to constants");
    println!("(3-of-3, 4-of-7 here: advantage ~1.0) — the attack depends on the");
    println!("point structure, exactly as the LRSS literature says; LRSS drives");
    println!("every configuration down to statistical noise at 3-9x share storage.");
}
