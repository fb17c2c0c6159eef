//! E2 — Table 1: system comparison, measured.
//!
//! Reproduces the paper's Table 1 by instantiating each surveyed system
//! as an `aeon` profile, ingesting a reference object, and reporting the
//! measured storage expansion plus the confidentiality classification of
//! both legs (in transit / at rest).

use aeon_bench::{f2, reference_payload, CliArgs, Table};

pub fn run(_: &CliArgs) {
    let payload = reference_payload(256 * 1024, 0x7AB1);
    let rows = aeon_core::table1(&payload).expect("table 1 profiles");

    let mut table = Table::new(
        "Table 1 (measured): confidentiality and storage cost by system",
        &[
            "system",
            "transit-conf",
            "at-rest-conf",
            "expansion(x)",
            "cost-bucket",
            "paper-says",
        ],
    );
    let paper = |name: &str| match name {
        "ArchiveSafeLT" => "Comp/Comp/Low",
        "AONT-RS" => "Comp/Comp/Low",
        "HasDPSS" => "Comp/ITS/High",
        "LINCOS" => "ITS/ITS/High",
        "PASIS" => "Comp/ITS*/Low-High",
        "POTSHARDS" => "Comp/ITS/High",
        "VSR Archive" => "Comp/ITS/High",
        "AWS/Azure/GCP" => "Comp/Comp/Low",
        _ => "?",
    };
    for r in &rows {
        table.row(&[
            r.system.to_string(),
            r.in_transit.to_string(),
            r.at_rest.to_string(),
            f2(r.expansion),
            r.cost.to_string(),
            paper(r.system).to_string(),
        ]);
    }
    table.print();

    // Agreement check: every row's classification must match the paper.
    use aeon_core::CostBucket;
    use aeon_crypto::SecurityLevel as L;
    let expect: &[(&str, L, L, &[CostBucket])] = &[
        (
            "ArchiveSafeLT",
            L::Computational,
            L::Computational,
            &[CostBucket::Low],
        ),
        (
            "AONT-RS",
            L::Computational,
            L::Computational,
            &[CostBucket::Low],
        ),
        (
            "HasDPSS",
            L::Computational,
            L::InformationTheoretic,
            &[CostBucket::High],
        ),
        (
            "LINCOS",
            L::InformationTheoretic,
            L::InformationTheoretic,
            &[CostBucket::High],
        ),
        (
            "PASIS",
            L::Computational,
            L::InformationTheoretic,
            &[CostBucket::Low, CostBucket::Medium, CostBucket::High],
        ),
        (
            "POTSHARDS",
            L::Computational,
            L::InformationTheoretic,
            &[CostBucket::High],
        ),
        (
            "VSR Archive",
            L::Computational,
            L::InformationTheoretic,
            &[CostBucket::High],
        ),
        (
            "AWS/Azure/GCP",
            L::Computational,
            L::Computational,
            &[CostBucket::Low],
        ),
    ];
    println!("Agreement with paper Table 1:");
    let mut all_ok = true;
    for (name, transit, rest, costs) in expect {
        let row = rows.iter().find(|r| r.system == *name).expect("row");
        let ok = row.in_transit == *transit && row.at_rest == *rest && costs.contains(&row.cost);
        all_ok &= ok;
        println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
    }
    assert!(all_ok, "Table 1 classifications diverged from the paper");
}
