//! E8 — Bounded Storage Model key agreement.
//!
//! The §4 direction: "the BSM is overdue for a practical evaluation."
//! This experiment runs Maurer-style key agreement over a simulated
//! broadcast stream, sweeping the adversary's storage fraction, and
//! reports raw-key exposure, final-key compromise, and the honest/
//! adversary storage gap.

use aeon_bench::{f2, f3, CliArgs, Table};
use aeon_channel::bsm::{
    expected_known_fraction, final_key_compromise_probability, run_session, BsmParams,
};
use aeon_crypto::ChaChaDrbg;

pub fn run(_: &CliArgs) {
    let params = BsmParams {
        stream_blocks: 8192,
        block_size: 32,
        samples: 128,
    };
    let stream_mb = params.stream_blocks * params.block_size / (1 << 20);
    println!(
        "Stream: {} blocks x {} B = {} MiB; honest parties store {} KiB\n",
        params.stream_blocks,
        params.block_size,
        stream_mb,
        params.samples * params.block_size / 1024
    );

    let mut table = Table::new(
        "BSM key agreement vs adversary storage",
        &[
            "adv-storage(%)",
            "raw-key-known(sim)",
            "raw-key-known(theory)",
            "P(final key)(theory)",
            "final-compromised(sim)",
        ],
    );
    for pct in [5u32, 10, 25, 50, 75, 90, 99, 100] {
        let adv_blocks = (params.stream_blocks as u64 * pct as u64 / 100) as usize;
        let mut known_sum = 0.0;
        let mut finals = 0u32;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = ChaChaDrbg::from_u64_seed(0xB5A + seed);
            let out = run_session(&mut rng, params, adv_blocks);
            known_sum += out.adversary_raw_fraction;
            finals += out.adversary_knows_final as u32;
        }
        table.row(&[
            pct.to_string(),
            f3(known_sum / runs as f64),
            f3(expected_known_fraction(params, adv_blocks)),
            format!(
                "{:.2e}",
                final_key_compromise_probability(params, adv_blocks)
            ),
            format!("{finals}/{runs}"),
        ]);
    }
    table.print();

    // The storage gap: ratio of adversary storage needed for 50% final-key
    // compromise vs honest storage.
    let honest = params.samples * params.block_size;
    let stream = params.stream_blocks * params.block_size;
    println!(
        "Honest storage {} KiB vs full stream {} KiB: gap = {}x",
        honest / 1024,
        stream / 1024,
        f2(stream as f64 / honest as f64)
    );
    println!("\nExpected shape (Maurer): the adversary's final-key probability is");
    println!("(B/N)^samples — negligible until it stores essentially the whole");
    println!("stream, while honest parties store samples/stream_blocks of it.");
}
