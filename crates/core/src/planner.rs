//! Maintenance planning: turning a cryptanalytic forecast into a
//! schedule of archive operations.
//!
//! The paper's implicit operational question — *given* that ciphers and
//! signature schemes will fall, when must the archive act? The planner
//! walks a [`CryptanalyticTimeline`] against the archive's current
//! policies and emits a year-ordered action list:
//!
//! * **re-encode** before the year a policy's last standing suite falls
//!   (with a lead time covering the §3.2 campaign duration);
//! * **rotate + renew timestamps** before each signature-scheme break;
//! * **periodic refresh** for secret-shared policies (the mobile-
//!   adversary defense), at a cadence the caller chooses.
//!
//! The plan is advisory data — callers execute it against the archive —
//! so it is easy to test, print, and compare across scenarios.

use crate::archive::Archive;
use aeon_adversary::CryptanalyticTimeline;
use aeon_crypto::{SecurityLevel, StackFall, SuiteId};
use aeon_store::campaign::ReencryptionModel;
use aeon_store::media::ArchiveSite;
use std::collections::BTreeSet;

/// One scheduled maintenance action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Begin a re-encryption campaign migrating objects off `doomed`
    /// (which breaks at `break_year`) so it completes before the break.
    StartReencodeCampaign {
        /// The suite that is about to fall.
        doomed: SuiteId,
        /// The year it falls.
        break_year: u32,
        /// Estimated campaign duration in months.
        campaign_months: f64,
    },
    /// Rotate the timestamp authority off `scheme` and renew every chain
    /// before `break_year`.
    RotateSignatureScheme {
        /// The scheme about to fall.
        scheme: String,
        /// The year it falls.
        break_year: u32,
    },
    /// Run a proactive refresh epoch over all secret-shared objects.
    RefreshShares,
}

/// A year-stamped plan entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Year the action must start.
    pub year: u32,
    /// What to do.
    pub action: Action,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Planning horizon (inclusive), e.g. 100 years out.
    pub horizon_year: u32,
    /// Refresh cadence for secret-shared objects, in years (0 = never).
    pub refresh_every_years: u32,
    /// Safety margin added on top of the estimated campaign duration,
    /// in years.
    pub campaign_margin_years: u32,
    /// Signature schemes currently in use, with their names.
    pub active_sig_scheme: &'static str,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            horizon_year: 2126,
            refresh_every_years: 1,
            campaign_margin_years: 1,
            active_sig_scheme: "wots-v1",
        }
    }
}

/// Computes the maintenance plan for `archive` under `timeline`,
/// modelling campaign durations against `site` (size/bandwidth).
pub fn plan(
    archive: &Archive,
    timeline: &CryptanalyticTimeline,
    site: &ArchiveSite,
    config: PlannerConfig,
) -> Vec<PlanEntry> {
    let now = archive.year();
    let mut entries: Vec<PlanEntry> = Vec::new();

    // Which suites protect at-rest data right now? Each policy's info
    // names its stack, and the schedule says which layer it falls with,
    // so new families never need a planner edit.
    let mut doomed: BTreeSet<(SuiteId, u32)> = BTreeSet::new();
    let mut any_secret_shared = false;
    for m in archive.manifests.rows() {
        let info = m.policy.info();
        if info.at_rest_level == SecurityLevel::InformationTheoretic {
            any_secret_shared = true;
        }
        if let StackFall::At { year, last } = timeline.ciphers().stack_fall(info.at_rest_suites) {
            doomed.insert((last, year));
        }
    }

    // Re-encode campaigns ahead of each relevant cipher break.
    let campaign_months = ReencryptionModel::paper_assumptions(site.clone())
        .estimate()
        .realistic_months;
    let lead_years = (campaign_months / 12.0).ceil() as u32 + config.campaign_margin_years;
    for (suite, break_year) in doomed {
        if break_year > now && break_year <= config.horizon_year {
            entries.push(PlanEntry {
                year: break_year.saturating_sub(lead_years).max(now),
                action: Action::StartReencodeCampaign {
                    doomed: suite,
                    break_year,
                    campaign_months,
                },
            });
        }
    }

    // Signature rotation before the active scheme's break.
    if let Some(break_year) = timeline.signatures().break_year(config.active_sig_scheme) {
        if break_year > now && break_year <= config.horizon_year {
            entries.push(PlanEntry {
                year: break_year - 1,
                action: Action::RotateSignatureScheme {
                    scheme: config.active_sig_scheme.to_string(),
                    break_year,
                },
            });
        }
    }

    // Periodic refresh for secret-shared data.
    if any_secret_shared && config.refresh_every_years > 0 {
        let mut y = now + config.refresh_every_years;
        while y <= config.horizon_year {
            entries.push(PlanEntry {
                year: y,
                action: Action::RefreshShares,
            });
            y += config.refresh_every_years;
        }
    }

    entries.sort_by_key(|e| e.year);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::policy::tests::all_policies;
    use crate::{Archive, ArchiveConfig, PolicyKind, Recovery};
    use aeon_crypto::{ChaChaDrbg, CryptoRng};

    /// `plan`'s re-encode campaigns and `hndl_recover`'s "suites fallen"
    /// both follow the schedule's one stack rule, for every family in
    /// every year of the planning horizon.
    #[test]
    fn campaigns_and_harvests_follow_the_stack_rule() {
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        let config = PlannerConfig {
            refresh_every_years: 0,
            ..Default::default()
        };
        let keys = KeyStore::new([5; 32]);
        let mut rng = ChaChaDrbg::from_u64_seed(41);
        let mut payload = vec![0u8; 512];
        rng.fill_bytes(&mut payload);
        for policy in all_policies() {
            let info = policy.info();
            let family = info.family;
            let fall = timeline.ciphers().stack_fall(info.at_rest_suites);
            // One data shard: below every read threshold but replication's.
            let enc = policy.encode(&mut rng, &keys, "obj", &payload).unwrap();
            let stolen: Vec<Option<Vec<u8>>> = (enc.shards.iter().enumerate())
                .map(|(i, s)| (i == 0).then(|| s.clone()))
                .collect();
            // A secret-shared or entropic encoding yields nothing from one
            // share, fallen suites or not.
            let its = info.at_rest_level >= SecurityLevel::EntropicIts;
            let mut archive =
                Archive::in_memory(ArchiveConfig::new(policy.clone()).with_year(2026)).unwrap();
            archive.ingest(&payload, "o").unwrap();
            for year in 2026..=config.horizon_year {
                let recovered =
                    policy.hndl_recover(&keys, "obj", &stolen, &enc.meta, &timeline, year);
                let expect = fall.has_fallen(year) && !its;
                assert_eq!(recovered != Recovery::Nothing, expect, "{family} {year}");

                archive.advance_year(year);
                let campaigns: Vec<(SuiteId, u32)> = (plan(&archive, &timeline, &site(), config))
                    .into_iter()
                    .filter_map(|e| match e.action {
                        Action::StartReencodeCampaign {
                            doomed, break_year, ..
                        } => {
                            assert!(e.year >= year && e.year < break_year, "{family} {year}");
                            Some((doomed, break_year))
                        }
                        _ => None,
                    })
                    .collect();
                let expect: Vec<(SuiteId, u32)> = match fall {
                    StackFall::At { year: by, last } if by > year => vec![(last, by)],
                    _ => Vec::new(),
                };
                assert_eq!(campaigns, expect, "{family} {year}");
            }
        }
    }

    fn site() -> ArchiveSite {
        ArchiveSite::hpss()
    }

    #[test]
    fn encrypted_archive_gets_campaign_before_break() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            })
            .with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        let plan = plan(
            &archive,
            &timeline,
            &site(),
            PlannerConfig {
                refresh_every_years: 0,
                ..Default::default()
            },
        );
        let campaign = plan
            .iter()
            .find(|e| matches!(e.action, Action::StartReencodeCampaign { .. }))
            .expect("campaign scheduled");
        // Must start before 2045 with lead time for a ~26-month campaign.
        assert!(campaign.year < 2045);
        assert!(campaign.year >= 2040, "start {} too early", campaign.year);
        if let Action::StartReencodeCampaign {
            doomed, break_year, ..
        } = &campaign.action
        {
            assert_eq!(*doomed, SuiteId::Aes256CtrHmac);
            assert_eq!(*break_year, 2045);
        }
    }

    #[test]
    fn cascade_keyed_to_last_layer() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Cascade {
                suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
                data: 4,
                parity: 2,
            })
            .with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045(); // AES 2045, ChaCha 2060
        let plan = plan(
            &archive,
            &timeline,
            &site(),
            PlannerConfig {
                refresh_every_years: 0,
                ..Default::default()
            },
        );
        let campaign = plan
            .iter()
            .find(|e| matches!(e.action, Action::StartReencodeCampaign { .. }))
            .expect("campaign scheduled");
        if let Action::StartReencodeCampaign { break_year, .. } = &campaign.action {
            assert_eq!(*break_year, 2060, "cascade dies with its LAST layer");
        }
    }

    #[test]
    fn shamir_archive_needs_no_campaign_only_refresh() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            })
            .with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        let plan = plan(
            &archive,
            &timeline,
            &site(),
            PlannerConfig {
                horizon_year: 2036,
                refresh_every_years: 2,
                ..Default::default()
            },
        );
        assert!(plan
            .iter()
            .all(|e| !matches!(e.action, Action::StartReencodeCampaign { .. })));
        let refreshes = plan
            .iter()
            .filter(|e| e.action == Action::RefreshShares)
            .count();
        assert_eq!(refreshes, 5); // 2028, 2030, 2032, 2034, 2036
    }

    #[test]
    fn signature_rotation_scheduled_before_break() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Replication { copies: 2 }).with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045(); // wots-v1 breaks 2045
        let plan = plan(
            &archive,
            &timeline,
            &site(),
            PlannerConfig {
                refresh_every_years: 0,
                ..Default::default()
            },
        );
        let rot = plan
            .iter()
            .find(|e| matches!(e.action, Action::RotateSignatureScheme { .. }))
            .expect("rotation scheduled");
        assert_eq!(rot.year, 2044);
    }

    #[test]
    fn optimistic_timeline_plans_nothing_but_refresh() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 2,
                parity: 1,
            })
            .with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        let plan = plan(
            &archive,
            &CryptanalyticTimeline::optimistic(),
            &site(),
            PlannerConfig::default(),
        );
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn plan_is_year_ordered() {
        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Shamir {
                threshold: 2,
                shares: 3,
            })
            .with_year(2026),
        )
        .unwrap();
        archive.ingest(b"x", "o").unwrap();
        archive
            .ingest_with_policy(
                b"y",
                "o2",
                PolicyKind::Encrypted {
                    suite: SuiteId::Aes256CtrHmac,
                    data: 2,
                    parity: 1,
                },
            )
            .unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        let entries = plan(&archive, &timeline, &site(), PlannerConfig::default());
        assert!(entries.windows(2).all(|w| w[0].year <= w[1].year));
        assert!(!entries.is_empty());
    }
}
