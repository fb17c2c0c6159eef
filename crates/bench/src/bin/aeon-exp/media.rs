//! E9 — §4: archival media economics under secret-sharing expansion.
//!
//! "The high storage costs of secret-shared datastores may be reduced
//! with cheaper and denser archival storage media." This experiment
//! prices a terabyte-century on every medium, then asks what a 5-way
//! secret-shared exabyte archive costs on each — the quantitative form
//! of the paper's DNA/glass/film discussion.

use aeon_bench::{f2, CliArgs, Table};
use aeon_store::media::MediaProfile;

pub fn run(_: &CliArgs) {
    let mut table = Table::new(
        "Media models: cost, density, lifetime",
        &[
            "medium",
            "$/TB",
            "$/TB-century",
            "TB/cc",
            "lifetime(y)",
            "read(MB/s)",
            "write(MB/s)",
        ],
    );
    for p in MediaProfile::all() {
        table.row(&[
            p.media.to_string(),
            f2(p.cost_usd_per_tb),
            f2(p.usd_per_tb_century()),
            format!("{:.3}", p.tb_per_cc),
            f2(p.lifetime_years),
            f2(p.read_mbps_per_drive),
            f2(p.write_mbps_per_drive),
        ]);
    }
    table.print();

    // A 100 PB logical archive, century horizon, under three encodings.
    let logical_tb = 100_000.0;
    let mut table = Table::new(
        "100 PB logical archive, 100-year cost (millions USD)",
        &["medium", "EC 1.5x", "Shamir 5x", "LRSS ~10x"],
    );
    for p in MediaProfile::all() {
        let cost = |expansion: f64| p.cost_usd(logical_tb * expansion, 100.0) / 1.0e6;
        table.row(&[
            p.media.to_string(),
            f2(cost(1.5)),
            f2(cost(5.0)),
            f2(cost(10.0)),
        ]);
    }
    table.print();

    // Volume check: where does an exabyte of 5x-shared data physically fit?
    let mut table = Table::new(
        "Physical volume of 1 EB logical at 5x sharing",
        &["medium", "volume(m^3)"],
    );
    for p in MediaProfile::all() {
        let tb = 1.0e6 * 5.0;
        let cc = tb / p.tb_per_cc;
        table.row(&[p.media.to_string(), format!("{:.3}", cc / 1.0e6)]);
    }
    table.print();

    println!("Expected shape (paper): glass/tape make 5x sharing affordable at");
    println!("scale; DNA is the density champion (cubic centimeters for an EB)");
    println!("but synthesis cost keeps it out of reach; film is niche.");
}
