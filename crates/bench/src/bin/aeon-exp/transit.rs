//! E12 — the in-transit leg of Table 1, executed: ship the same object
//! over a computational channel and an ITS channel, tap both, and replay
//! the taps against the future.
//!
//! Also prices the ITS channel: QKD key-rate seconds per shipped
//! gigabyte, the "infrastructure cost" the paper charges against LINCOS.

use aeon_bench::{f2, reference_payload, CliArgs, Table};
use aeon_channel::qkd::QkdLink;
use aeon_core::transfer::{ship_computational, ship_its, tapped_wan};
use aeon_core::{Archive, ArchiveConfig, IntegrityMode, PolicyKind};

pub fn run(_: &CliArgs) {
    let payload = reference_payload(128 * 1024, 0x7247);
    let mut archive = Archive::in_memory(
        ArchiveConfig::new(PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        })
        .with_integrity(IntegrityMode::DigestOnly),
    )
    .expect("archive");
    let id = archive.ingest(&payload, "in-transit").expect("ingest");

    let mut table = Table::new(
        "In-transit shipment of a 128 KiB object (5 Shamir shards)",
        &[
            "channel",
            "wire-bytes",
            "overhead(%)",
            "link-seconds",
            "pad-bytes",
            "tap-frames",
        ],
    );

    let (mut link, tap) = tapped_wan();
    let (_, rep_comp) =
        ship_computational(&archive, &id, &mut link, 0x7247).expect("computational shipment");
    table.row(&[
        "DH+AEAD (TLS-like)".to_string(),
        rep_comp.wire_bytes.to_string(),
        f2((rep_comp.wire_bytes as f64 / rep_comp.payload_bytes as f64 - 1.0) * 100.0),
        format!("{:.3}", rep_comp.link_seconds),
        "0".to_string(),
        tap.frames().to_string(),
    ]);

    let (mut link, tap) = tapped_wan();
    let mut qkd = QkdLink::metro_reference();
    let (_, rep_its) = ship_its(&archive, &id, &mut qkd, &mut link, 0x7247).expect("ITS shipment");
    table.row(&[
        "QKD-fed OTP".to_string(),
        rep_its.wire_bytes.to_string(),
        f2((rep_its.wire_bytes as f64 / rep_its.payload_bytes as f64 - 1.0) * 100.0),
        format!("{:.3}", rep_its.link_seconds),
        rep_its.pad_bytes.to_string(),
        tap.frames().to_string(),
    ]);
    table.print();

    // The QKD bill at archive scale: seconds of key generation per GB.
    let qkd_ref = QkdLink::metro_reference();
    let secs_per_gb = qkd_ref.seconds_for_payload(1 << 30, 64 * 1024);
    println!(
        "QKD key-rate bill: {:.0} s/GB at 1 Mbit/s secret-key rate — {:.1} days per TB.",
        secs_per_gb,
        secs_per_gb * 1024.0 / 86_400.0
    );
    println!(
        "QKD infrastructure: ${:.0}k install + ${:.0}k/year per link.",
        100.0, 20.0
    );
    println!("\nExpected shape (paper): the computational channel is effectively");
    println!("free but its tap is harvest-now-decrypt-later material; the ITS");
    println!("channel's tap is provably useless, and the cost shows up instead");
    println!("as key rate (days/TB) and dedicated infrastructure — LINCOS's bill.");
}
