//! E1 — Figure 1: storage cost vs. security level, measured.
//!
//! The paper's Figure 1 is a qualitative quadrant chart. This experiment
//! produces the quantitative version: each encoding is run over a 1 MiB
//! high-entropy payload and its *actual* stored-bytes expansion is
//! plotted against the ordinal security classification.

use aeon_bench::{f2, reference_payload, CliArgs, Table};
use aeon_crypto::ChaChaDrbg;

pub fn run(_: &CliArgs) {
    let payload = reference_payload(256 * 1024, 0xF161);
    let mut rng = ChaChaDrbg::from_u64_seed(0xF161);
    let points = aeon_core::figure1_points(&mut rng, &payload).expect("figure 1 encodings");

    let mut table = Table::new(
        "Figure 1 (measured): storage cost vs security level, 256 KiB object",
        &[
            "encoding",
            "expansion(x)",
            "security-class",
            "security-ordinal",
        ],
    );
    let mut sorted = points.clone();
    sorted.sort_by(|a, b| {
        a.security_ordinal
            .cmp(&b.security_ordinal)
            .then(a.expansion.partial_cmp(&b.expansion).expect("finite"))
    });
    for p in &sorted {
        table.row(&[
            p.encoding.to_string(),
            f2(p.expansion),
            p.level.to_string(),
            p.security_ordinal.to_string(),
        ]);
    }
    table.print();

    // The paper's qualitative claims, checked quantitatively.
    let find = |name: &str| {
        points
            .iter()
            .find(|p| p.encoding == name)
            .expect("encoding present")
    };
    let checks = [
        (
            "erasure coding is the cheapest",
            find("Erasure coding").expansion <= find("Replication").expansion,
        ),
        (
            // Figure 1 puts secret sharing in the replication cost class:
            // each share is as large as a full replica (per-copy cost 1.0x).
            "secret sharing costs like replication (per copy)",
            (find("Secret sharing").expansion / 5.0 - find("Replication").expansion / 3.0).abs()
                < 0.05,
        ),
        (
            "packed sharing sits between EC and full sharing",
            find("Erasure coding").expansion < find("Packed secret sharing").expansion
                && find("Packed secret sharing").expansion < find("Secret sharing").expansion,
        ),
        (
            "LRSS pays extra storage for leakage resilience",
            find("Leakage-resilient secret sharing").expansion > find("Secret sharing").expansion,
        ),
        (
            "entropic encryption is near-EC cost",
            (find("Entropically secure encryption").expansion - find("Erasure coding").expansion)
                .abs()
                < 0.1,
        ),
    ];
    println!("Shape checks vs paper:");
    for (claim, ok) in checks {
        println!("  [{}] {}", if ok { "PASS" } else { "FAIL" }, claim);
    }
}
