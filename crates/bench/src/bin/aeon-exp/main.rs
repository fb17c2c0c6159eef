//! `aeon-exp <name> [flags]`: every experiment that regenerates a paper
//! artifact, one module each (DESIGN.md, "Experiment index"). With no
//! name or an unknown one it prints the table below and exits 2; so does
//! a flag the experiment's row does not list, a missing value or one that
//! does not parse.

use aeon_bench::{CliArgs, Flag};

mod ablation;
mod bsm;
mod dedup;
mod fig1;
mod fleet;
mod hndl;
mod integrity;
mod kernels;
mod leakage;
mod media;
mod mobile;
mod parallel;
mod plan;
mod reencrypt;
mod refresh_cost;
mod retrieve;
mod serve;
mod table1;
mod transit;

/// Name, the paper artifact it regenerates, the flags it accepts, entry.
type Experiment = (&'static str, &'static str, &'static [Flag], fn(&CliArgs));

const QUICK: &[Flag] = &[Flag::Switch("--quick")];

#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 19] = [
    ("fig1", "Figure 1: storage cost vs security level, measured", &[], fig1::run),
    ("table1", "Table 1: confidentiality and storage cost by system", &[], table1::run),
    ("reencrypt", "§3.2 re-encryption months (+ live SimClock campaigns)", &[Flag::Switch("--measured")], reencrypt::run),
    ("hndl", "§3.2 harvest-now-decrypt-later across policies", &[], hndl::run),
    ("mobile", "§3.2 mobile adversary vs proactive refresh", &[], mobile::run),
    ("refresh_cost", "§3.2 O(n²) refresh traffic vs re-encryption I/O", &[], refresh_cost::run),
    ("leakage", "§4 local leakage: Shamir vs LRSS", &[], leakage::run),
    ("bsm", "§4 bounded-storage-model key agreement", &[], bsm::run),
    ("media", "§4 archival media economics under sharing expansion", &[], media::run),
    ("integrity", "§3.3 timestamp chains across breaks; aggregation", &[], integrity::run),
    ("ablation", "design-knob ablations: cascade, parity, LRSS, packing", &[], ablation::run),
    ("transit", "Table 1's in-transit leg, executed", &[], transit::run),
    ("plan", "century maintenance plans per policy", &[], plan::run),
    ("serve", "§3.2 foreground latency under a live campaign", QUICK, serve::run),
    ("fleet", "§3.2 durability under a repair-bandwidth budget", QUICK, fleet::run),
    ("retrieve", "cross-object read fan-in per device profile", QUICK, retrieve::run),
    ("parallel", "sequential vs parallel lane dispatch", QUICK, parallel::run),
    ("dedup", "§3.2 campaign time vs deduplicated stored bytes", QUICK, dedup::run),
    ("kernels", "GF and crypto kernel GB/s per dispatch tier", &[Flag::Switch("--quick"), Flag::Count("--rows")], kernels::run),
];

fn flags(accepted: &[Flag]) -> String {
    accepted.iter().map(|f| format!(" {f}")).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(&(name, _, accepted, run)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        if !name.is_empty() {
            eprintln!("aeon-exp: no experiment `{name}`");
        }
        eprintln!("usage: aeon-exp <name> [flags]\n");
        for (name, artifact, accepted, _) in EXPERIMENTS {
            let row = format!("  {name:<13} {artifact:<53}{}", flags(accepted));
            eprintln!("{}", row.trim_end());
        }
        std::process::exit(2);
    };
    match CliArgs::parse(accepted, &args[1..]) {
        Ok(parsed) => run(&parsed),
        Err(e) => {
            eprintln!(
                "aeon-exp {name}: {e}\nusage: aeon-exp {name}{}",
                flags(accepted)
            );
            std::process::exit(2);
        }
    }
}
