//! E5 — mobile adversary vs proactive refresh.
//!
//! Sweeps the refresh period against a fixed corruption rate and
//! measures compromise probability — the quantitative version of the
//! paper's claim that proactive secret sharing is the defense against
//! the mobile adversary, and that the refresh *rate* is the security
//! parameter.

use aeon_adversary::mobile::{compromise_probability, MobileAdversary};
use aeon_bench::{f3, CliArgs, Table};

pub fn run(_: &CliArgs) {
    let secret = b"archive root secret";
    let threshold = 3;
    let shares = 6;
    let epochs = 60;
    let trials = 60;

    let mut table = Table::new(
        "Mobile adversary: compromise probability vs refresh period (t=3, n=6, 1 corruption/epoch, 60 epochs)",
        &["refresh-every(epochs)", "P(compromise)", "refresh-rounds"],
    );
    for refresh_every in [0u64, 1, 2, 3, 4, 6, 10, 20, 60] {
        let adv = MobileAdversary {
            corrupt_per_epoch: 1,
            epochs,
            refresh_every,
        };
        let p = compromise_probability(0x0B11E, secret, threshold, shares, adv, trials);
        let label = if refresh_every == 0 {
            "never (static)".to_string()
        } else {
            refresh_every.to_string()
        };
        let rounds = epochs.checked_div(refresh_every).unwrap_or(0);
        table.row(&[label, f3(p), rounds.to_string()]);
    }
    table.print();

    println!("Expected shape (paper): static sharing always falls; refreshing");
    println!("every epoch (period < t/corruption-rate) drives P to 0; the");
    println!("crossover sits where the adversary can gather t shares per period.");
}
