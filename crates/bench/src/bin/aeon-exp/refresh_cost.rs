//! E6 — proactive-refresh communication cost vs re-encryption I/O.
//!
//! The paper: "share renewal requires every shareholder to send a share
//! to each shareholder. This incurs high communication costs... this may
//! become impractical for the same reasons as re-encryption." This
//! experiment measures the O(n²) refresh traffic directly (per object and
//! extrapolated to archive scale) and compares one full refresh pass
//! against one full re-encryption pass.

use aeon_bench::{f2, CliArgs, Table};
use aeon_crypto::ChaChaDrbg;
use aeon_secretshare::proactive::{self, ProtocolCost};
use aeon_secretshare::shamir;
use aeon_store::campaign::protocol_campaign_months;

pub fn run(_: &CliArgs) {
    let object_len = 64 * 1024;
    let mut rng = ChaChaDrbg::from_u64_seed(0x2EF2);
    let secret = vec![0xA5u8; object_len];

    // Measured per-object refresh cost as n grows (t = n/2 + 1).
    let mut table = Table::new(
        "Measured Herzberg refresh cost per 64 KiB object",
        &["n", "t", "messages", "bytes-moved", "bytes/object-byte"],
    );
    let mut measured: Vec<(usize, ProtocolCost)> = Vec::new();
    for n in [3usize, 5, 7, 9, 13, 17, 25] {
        let t = n / 2 + 1;
        let mut shares = shamir::split(&mut rng, &secret, t, n).expect("split");
        let cost = proactive::refresh(&mut rng, &mut shares, t).expect("refresh");
        table.row(&[
            n.to_string(),
            t.to_string(),
            cost.messages.to_string(),
            cost.bytes.to_string(),
            f2(cost.bytes as f64 / object_len as f64),
        ]);
        measured.push((n, cost));
    }
    table.print();

    // Quadratic check: bytes ratio between n=25 and n=5 should be ~ (25·24)/(5·4).
    let b5 = measured.iter().find(|(n, _)| *n == 5).expect("n=5").1.bytes as f64;
    let b25 = measured
        .iter()
        .find(|(n, _)| *n == 25)
        .expect("n=25")
        .1
        .bytes as f64;
    let expect = (25.0 * 24.0) / (5.0 * 4.0);
    println!(
        "Quadratic scaling check: bytes(n=25)/bytes(n=5) = {:.1} (theory {:.1})\n",
        b25 / b5,
        expect
    );

    // Archive-scale extrapolation: an 80 PB archive of 64 KiB objects,
    // n = 5 shares each, over a 400 TB/day inter-site network (the HPSS
    // figures), vs one re-encryption pass of the same archive.
    let archive_tb = 80_000.0;
    let objects = (archive_tb * 1e12 / object_len as f64) as u64;
    let per_object_bytes = measured.iter().find(|(n, _)| *n == 5).expect("n=5").1.bytes;
    let mut table = Table::new(
        "One full maintenance pass over an 80 PB archive (400 TB/day fabric)",
        &["operation", "traffic(PB)", "months"],
    );
    let refresh_months = protocol_campaign_months(objects, per_object_bytes, 400.0);
    let refresh_pb = objects as f64 * per_object_bytes as f64 / 1e15;
    table.row(&[
        "proactive refresh (n=5)".to_string(),
        f2(refresh_pb),
        f2(refresh_months),
    ]);
    // Re-encryption: read all + write all of the 5x-expanded archive.
    let reencrypt_pb = archive_tb * 5.0 * 2.0 / 1000.0;
    let reencrypt_months = protocol_campaign_months(objects, (object_len * 5 * 2) as u64, 400.0);
    table.row(&[
        "re-encryption (read+write 5x archive)".to_string(),
        f2(reencrypt_pb),
        f2(reencrypt_months),
    ]);
    table.print();

    println!("Expected shape (paper): refresh of a secret-shared archive moves");
    println!("n(n-1)x the share bytes — comparable to (or worse than) re-encrypting,");
    println!("which is why the paper calls frequent whole-archive renewal impractical.");
}
