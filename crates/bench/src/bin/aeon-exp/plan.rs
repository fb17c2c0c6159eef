//! E13 — the maintenance plan: what a century of operations looks like
//! under a pessimistic cryptanalytic forecast, per policy choice.

use aeon_adversary::CryptanalyticTimeline;
use aeon_bench::{CliArgs, Table};
use aeon_core::planner::{plan, Action, PlannerConfig};
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, PolicyKind};
use aeon_crypto::SuiteId;
use aeon_store::media::ArchiveSite;

fn describe(action: &Action) -> String {
    match action {
        Action::StartReencodeCampaign {
            doomed,
            break_year,
            campaign_months,
        } => format!(
            "START RE-ENCODE off {doomed} (breaks {break_year}; campaign ~{campaign_months:.0} mo)"
        ),
        Action::RotateSignatureScheme { scheme, break_year } => {
            format!("rotate signatures off {scheme} (breaks {break_year}), renew all chains")
        }
        Action::RefreshShares => "proactive refresh epoch (all secret-shared objects)".into(),
    }
}

pub fn run(_: &CliArgs) {
    let timeline = CryptanalyticTimeline::pessimistic_2045();
    let site = ArchiveSite::hpss();

    let scenarios: Vec<(&str, PolicyKind)> = vec![
        (
            "AES+EC archive",
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            },
        ),
        (
            "Cascade archive",
            PolicyKind::Cascade {
                suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
                data: 4,
                parity: 2,
            },
        ),
        (
            "Shamir archive",
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
        ),
    ];

    for (name, policy) in scenarios {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(policy)
                .with_year(2026)
                .with_integrity(IntegrityMode::DigestOnly),
        )
        .expect("archive");
        archive
            .ingest(b"representative object", "obj")
            .expect("ingest");

        let entries = plan(
            &archive,
            &timeline,
            &site,
            PlannerConfig {
                horizon_year: 2126,
                refresh_every_years: 10, // print-friendly cadence
                campaign_margin_years: 1,
                active_sig_scheme: "wots-v1",
            },
        );
        let mut table = Table::new(
            &format!("Century maintenance plan: {name} (2026-2126, HPSS-scale)"),
            &["year", "action"],
        );
        for e in entries.iter().take(14) {
            table.row(&[e.year.to_string(), describe(&e.action)]);
        }
        if entries.len() > 14 {
            table.row(&[
                "...".to_string(),
                format!("(+{} more refresh epochs)", entries.len() - 14),
            ]);
        }
        table.print();
    }

    println!("The planner's message, matching the paper: computational archives");
    println!("carry mandatory multi-year migration campaigns pinned to forecast");
    println!("break years; ITS archives trade them for a steady refresh cadence.");
}
