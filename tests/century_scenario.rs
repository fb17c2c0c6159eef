//! Integration: a one-hundred-year archive timeline — the paper's whole
//! argument as one executable scenario.
//!
//! 2026: ingest under AES. 2040: cryptanalysis looms; migrate to a
//! cascade and rotate the timestamp scheme. 2045: AES falls. 2060:
//! ChaCha falls; migrate the remainder to secret sharing. 2126: verify
//! everything — availability, confidentiality classification, and an
//! unbroken chain of custody back to 2026.

use aeon::adversary::CryptanalyticTimeline;
use aeon::core::{Archive, ArchiveConfig, PolicyKind, Recovery};
use aeon::crypto::{SecurityLevel, SuiteId};
use aeon::integrity::timestamp::SigBreakSchedule;

#[test]
fn century_of_custody() {
    let timeline = CryptanalyticTimeline::pessimistic_2045();
    let mut sig_schedule = SigBreakSchedule::new();
    sig_schedule.set_break("wots-v1", 2045);

    // --- 2026: birth of the archive ---
    let mut archive = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 4,
            parity: 2,
        })
        .with_year(2026),
    )
    .unwrap();
    let documents: Vec<(String, Vec<u8>)> = (0..6)
        .map(|i| {
            (
                format!("founding-doc-{i}"),
                format!("founding document {i}, signed 2026").into_bytes(),
            )
        })
        .collect();
    let ids: Vec<_> = documents
        .iter()
        .map(|(name, payload)| archive.ingest(payload, name).unwrap())
        .collect();

    // --- 2040: the writing is on the wall for AES ---
    archive.advance_year(2040);
    // Rotate the signature scheme BEFORE its 2045 break and renew chains.
    archive.rotate_timestamp_scheme("wots-v2");
    for id in &ids {
        archive.renew_timestamp(id).unwrap();
    }
    // Migrate at-rest encryption to a two-cipher cascade.
    let migrated = archive
        .reencode_all(PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 4,
            parity: 2,
        })
        .unwrap();
    assert_eq!(migrated.objects_done, 6);

    // --- 2045: AES falls. The cascade still stands. ---
    archive.advance_year(2045);
    for (id, (_, payload)) in ids.iter().zip(&documents) {
        assert_eq!(&archive.retrieve(id).unwrap(), payload);
        let m = archive.manifest(id).unwrap();
        // At-rest data harvested NOW still resists: ChaCha layer stands.
        let stolen: Vec<Option<Vec<u8>>> = archive.cluster().get_shards(id.as_str(), &m.placement);
        let outcome = m.policy.hndl_recover(
            archive.keys(),
            id.as_str(),
            &stolen,
            &m.meta,
            &timeline,
            2045,
        );
        assert_eq!(outcome, Recovery::Nothing, "cascade must hold in 2045");
    }

    // --- 2059: ChaCha's break (2060) approaches; go information-theoretic ---
    archive.advance_year(2059);
    let migrated = archive
        .reencode_all(PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        })
        .unwrap();
    assert_eq!(migrated.objects_done, 6);

    // --- 2126: the centennial audit ---
    archive.advance_year(2126);
    for (id, (_, payload)) in ids.iter().zip(&documents) {
        // Availability and integrity.
        assert_eq!(&archive.retrieve(id).unwrap(), payload);
        let health = archive.verify(id, &sig_schedule).unwrap();
        assert!(health.intact);
        // The renewed chain still proves 2026 despite the 2045 sig break.
        assert_eq!(health.chain_valid, Some(true));
        // Confidentiality is now unconditional.
        let m = archive.manifest(id).unwrap();
        assert_eq!(
            m.policy.at_rest_level(),
            SecurityLevel::InformationTheoretic
        );
        // Sub-threshold theft in 2126 learns nothing, breaks or no breaks.
        let mut stolen = archive.cluster().get_shards(id.as_str(), &m.placement);
        stolen[2] = None;
        stolen[3] = None;
        stolen[4] = None;
        let outcome = m.policy.hndl_recover(
            archive.keys(),
            id.as_str(),
            &stolen,
            &m.meta,
            &timeline,
            2126,
        );
        assert_eq!(outcome, Recovery::Nothing);
    }

    // The cautionary coda the paper insists on: ciphertext harvested in
    // 2026 (before any migration) is recovered the day AES falls — no
    // later campaign could have prevented it.
    let mut archive_2026 = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 4,
            parity: 2,
        })
        .with_year(2026),
    )
    .unwrap();
    let id = archive_2026
        .ingest(b"harvested before migration", "h")
        .unwrap();
    let m = archive_2026.manifest(&id).unwrap();
    let harvested_2026: Vec<Option<Vec<u8>>> =
        archive_2026.cluster().get_shards(id.as_str(), &m.placement);
    let outcome = m.policy.hndl_recover(
        archive_2026.keys(),
        id.as_str(),
        &harvested_2026,
        &m.meta,
        &timeline,
        2045,
    );
    assert_eq!(
        outcome,
        Recovery::Full(b"harvested before migration".to_vec()),
        "HNDL: the 2026 harvest falls with AES regardless of later migrations"
    );
}

#[test]
fn late_signature_rotation_breaks_custody() {
    // Control scenario: an archive that forgets to renew its chains
    // before the signature break cannot prove custody afterwards.
    let mut sig_schedule = SigBreakSchedule::new();
    sig_schedule.set_break("wots-v1", 2045);

    let mut archive = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Replication { copies: 2 }).with_year(2026),
    )
    .unwrap();
    let id = archive.ingest(b"orphaned document", "o").unwrap();

    archive.advance_year(2050); // sleepwalk past the break
    let health = archive.verify(&id, &sig_schedule).unwrap();
    assert_eq!(
        health.chain_valid,
        Some(false),
        "un-renewed chain must be invalid after its scheme breaks"
    );
    // Data is still there — integrity-of-origin is what's lost.
    assert!(health.intact);
}
