//! E11 — ablations over the design knobs DESIGN.md calls out: cascade
//! depth, erasure parity, LRSS source length, packed width.
//!
//! Each knob trades a cost (storage, CPU, traffic) against a security or
//! availability property; these sweeps show where the knees are.

use aeon_bench::{f2, reference_payload, CliArgs, Table};
use aeon_core::keys::KeyStore;
use aeon_core::PolicyKind;
use aeon_crypto::{ChaChaDrbg, SuiteId};
use aeon_store::durability::{simulate, DurabilityParams};
use std::time::Instant;

pub fn run(_: &CliArgs) {
    let payload = reference_payload(256 * 1024, 0xAB1A);
    let keys = KeyStore::new([2u8; 32]);
    let mut rng = ChaChaDrbg::from_u64_seed(0xAB1A);

    // --- cascade depth: CPU and ciphertext growth per layer ---
    let mut table = Table::new(
        "Ablation: cascade depth (256 KiB object)",
        &["layers", "encode-ms", "ct-overhead(B)", "breaks-survived"],
    );
    for depth in 1..=4usize {
        let suites: Vec<SuiteId> = (0..depth)
            .map(|i| {
                if i % 2 == 0 {
                    SuiteId::Aes256CtrHmac
                } else {
                    SuiteId::ChaCha20Poly1305
                }
            })
            .collect();
        let policy = PolicyKind::Cascade {
            suites,
            data: 4,
            parity: 2,
        };
        let start = Instant::now();
        let enc = policy
            .encode(&mut rng, &keys, "cascade-abl", &payload)
            .unwrap();
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let stored: usize = enc.shards.iter().map(|s| s.len()).sum();
        let overhead = stored - (payload.len() as f64 * 1.5) as usize;
        table.row(&[
            depth.to_string(),
            f2(ms),
            overhead.to_string(),
            (depth - 1).to_string(), // survives any depth-1 layer breaks
        ]);
    }
    table.print();

    // --- erasure parity: durability vs storage ---
    let mut table = Table::new(
        "Ablation: parity count (k=4 data shards, 2% AFR, 7-day repair, 1y)",
        &["parity", "expansion(x)", "P(unavailable)", "P(loss)"],
    );
    for parity in 1..=4usize {
        let est = simulate(
            DurabilityParams {
                // Stress the failure rate so differences are visible in
                // a fast Monte-Carlo run.
                daily_failure_prob: 0.004,
                ..DurabilityParams::archival(4 + parity, 4)
            },
            2000,
            7,
        );
        table.row(&[
            parity.to_string(),
            f2((4 + parity) as f64 / 4.0),
            format!("{:.4}", est.unavailability_events),
            format!("{:.4}", est.loss_probability),
        ]);
    }
    table.print();

    // --- LRSS source length: leakage budget vs storage ---
    let mut table = Table::new(
        "Ablation: LRSS source length (3-of-5 over 4 KiB object)",
        &[
            "source(B)",
            "stored-total(x payload)",
            "leakage-budget(bits/share)",
        ],
    );
    let small = reference_payload(4096, 1);
    for source_len in [16usize, 32, 64, 128] {
        let policy = PolicyKind::LeakageResilientShamir {
            threshold: 3,
            shares: 5,
            source_len,
        };
        let enc = policy.encode(&mut rng, &keys, "lrss-abl", &small).unwrap();
        let stored: usize = enc.shards.iter().map(|s| s.len()).sum();
        // Residual-entropy budget ≈ 8·source − output − 2·security(64).
        let budget = (8 * source_len) as i64 - 8 * 4096 / 4096 - 128;
        table.row(&[
            source_len.to_string(),
            f2(stored as f64 / small.len() as f64),
            budget.max(0).to_string(),
        ]);
    }
    table.print();

    // --- packed width: amortization vs reconstruction quorum ---
    let mut table = Table::new(
        "Ablation: packed width k (privacy t=3, n=16)",
        &["pack-k", "expansion(x)", "read-quorum", "tolerates-loss"],
    );
    for pack in [1usize, 2, 4, 8, 12] {
        let policy = PolicyKind::PackedShamir {
            privacy: 3,
            pack,
            shares: 16,
        };
        if policy.validate().is_err() {
            continue;
        }
        table.row(&[
            pack.to_string(),
            f2(policy.expansion()),
            policy.read_threshold().to_string(),
            (16 - policy.read_threshold()).to_string(),
        ]);
    }
    table.print();

    println!("Knees: cascade layers buy break-survival linearly at ~constant");
    println!("cost; parity buys ~an order of magnitude durability per shard;");
    println!("LRSS source length is a pure storage-for-leakage-budget dial;");
    println!("packed width trades reconstruction quorum for storage, at fixed");
    println!("privacy threshold.");
}
