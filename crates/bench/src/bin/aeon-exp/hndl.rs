//! E4 — §3.2: harvest-now-decrypt-later across policies.
//!
//! The paper's showstopper claim: "re-encryption does nothing to protect
//! portions of any stolen ciphertext." We harvest each policy's shards in
//! 2026 (a partial haul and a full haul), then replay the stash against
//! the cryptanalytic timeline at 2040/2050/2070 and report what fraction
//! of the plaintext falls.

use aeon_adversary::CryptanalyticTimeline;
use aeon_bench::{reference_payload, CliArgs, Table};
use aeon_core::keys::KeyStore;
use aeon_core::{PolicyKind, Recovery};
use aeon_crypto::{ChaChaDrbg, SuiteId};

fn recovery_pct(r: &Recovery) -> f64 {
    match r {
        Recovery::Full(_) => 100.0,
        Recovery::Partial(f) => f * 100.0,
        Recovery::Nothing => 0.0,
    }
}

pub fn run(_: &CliArgs) {
    let payload = reference_payload(64 * 1024, 0x44D1);
    let keys = KeyStore::new([3u8; 32]);
    let mut rng = ChaChaDrbg::from_u64_seed(0x44D1);
    let timeline = CryptanalyticTimeline::pessimistic_2045(); // AES 2045, ChaCha 2060

    let policies: Vec<(&str, PolicyKind)> = vec![
        (
            "AES+EC (cloud)",
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            },
        ),
        (
            "Cascade (ArchiveSafeLT)",
            PolicyKind::Cascade {
                suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
                data: 4,
                parity: 2,
            },
        ),
        ("AONT-RS", PolicyKind::AontRs { data: 4, parity: 2 }),
        (
            "Shamir 3-of-5",
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
        ),
        ("Entropic+EC", PolicyKind::Entropic { data: 4, parity: 2 }),
    ];

    let mut table = Table::new(
        "HNDL: % of plaintext recovered from 2026 harvest (partial haul = 2 shards / full haul = all)",
        &["policy", "haul", "2040", "2050", "2070"],
    );

    for (name, policy) in &policies {
        let enc = policy
            .encode(&mut rng, &keys, &format!("hndl-{name}"), &payload)
            .expect("encode");
        let n = policy.shard_count();
        let hauls: [(&str, Vec<Option<Vec<u8>>>); 2] = [
            ("2 shards", {
                let mut v: Vec<Option<Vec<u8>>> = vec![None; n];
                v[0] = Some(enc.shards[0].clone());
                v[1] = Some(enc.shards[1].clone());
                v
            }),
            (
                "all",
                enc.shards.iter().cloned().map(Some).collect::<Vec<_>>(),
            ),
        ];
        for (haul_name, stolen) in &hauls {
            let cells: Vec<String> = [2040u32, 2050, 2070]
                .iter()
                .map(|&year| {
                    let r = policy.hndl_recover(
                        &keys,
                        &format!("hndl-{name}"),
                        stolen,
                        &enc.meta,
                        &timeline,
                        year,
                    );
                    format!("{:.0}%", recovery_pct(&r))
                })
                .collect();
            table.row(&[
                name.to_string(),
                haul_name.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
    }
    table.print();

    println!("Expected shape (paper):");
    println!("  - AES+EC full haul: 0% before 2045, 100% after — re-encryption can't help");
    println!("  - Cascade: survives 2050 (ChaCha stands), falls by 2070");
    println!("  - AONT-RS full haul: 100% even in 2040 (threshold = decryption, no key)");
    println!("  - Shamir sub-threshold haul: 0% forever; full haul: 100% always (ITS is about thresholds)");
    println!("  - Entropic: 0% at all years for high-entropy payloads");
}
