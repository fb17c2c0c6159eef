//! Shares pinned across strip boundaries.
//!
//! The encoders cut a payload into 16 KiB strips; the golden vectors are
//! a few hundred bytes and never cross one. These pins hash every share
//! of Shamir 3-of-5, LRSS over it and packed 2+2/6 at lengths on and
//! beside the strip edges, together with the next 32 bytes the generator
//! yields after the split: a change that moves a share, or leaves the
//! generator somewhere else, moves a pin.

use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use aeon_secretshare::lrss::{self, LrssParams};
use aeon_secretshare::packed::{self, PackedParams};
use aeon_secretshare::shamir;

/// The encoders' strip, in payload bytes.
const STRIP: usize = 16 * 1024;

const LENGTHS: [usize; 7] = [0, 1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 5, 1 << 20];

/// `(length, Shamir 3-of-5, LRSS over it, packed 2+2/6)`: SHA-256 of
/// every share in order, then of the generator's next 32 bytes.
const PINS: [(usize, &str, &str, &str); 7] = [
    (
        0,
        "b23f7e0d42e33e6bcb88275f418c2357d40c6ef5c8d4adf0074a18151f63e7ed",
        "25eeedd6445e09eb026f8e90b193e40430608a8baacb3492785879f1b2534753",
        "cc8f864e312a90470d11416e63a9bbe6b70e8d79b4b491d3618053a685274996",
    ),
    (
        1,
        "eadcd405359c1de0ba787faddd512e38fb88b08efddd11d4cafbcd414d5b8437",
        "56cd4fb143cbeb979b1ddb0088deb6463738b93a9dca04bab9d7e6bcdb0f8fb8",
        "8030e07a3996043d942b380d3b3cf589a4e326752da51539f7d15d48c9ec8bd1",
    ),
    (
        STRIP - 1,
        "481a2ef3ef6a2c551821f82bb12d754dfb85d81cf829edbe4152c6190c08154a",
        "a26576b8fc63826bd460d07037ec237ea5014447222c2e7d1a72eb1980abb370",
        "465cb682c6f130c422a76dc76587fa5b202ca5b27f18e5284411f0427d14d08b",
    ),
    (
        STRIP,
        "908396d25a3f8558f260c00490071f4f8d5c77dd67f46ef76cf215e624325c34",
        "f6cdd291ac8c4e83710ff5fad4582c8c8c709b4efd67989d826f78cd655098f4",
        "79a5c35e3226ee1a2f228313a2df384133037aafdaf16693364ee12309478a05",
    ),
    (
        STRIP + 1,
        "cde950e1fcfea87ab8f46ec5f0f00d7d83fcc20c82a0e642af6b54cfcc8d9879",
        "7f4ec9efbae17873b03e4a89fc336a3898bf0461d77d7d1264166e0a0b42e893",
        "e9293da609b3ed66cb2550f0a53945954e1d3f16ed77b3cbba210b04b0551817",
    ),
    (
        3 * STRIP + 5,
        "655d835238ba8246424621e579933e2b411bb8e041971f45a415c4eda02e5659",
        "4cbc09f45281f475fbf235190384a38816b2d2df570a21f6495b2354e5860f53",
        "cea167494d80154573259b5561ada29658c050aedcadc9284088800430cc7f45",
    ),
    (
        1 << 20,
        "990f4c43d6a349c721bacc3f1da190728e1647e05125403946c9f1ea6300721c",
        "28de86be7a26aed7d5190b94d08548ea4de40fc564ab07d7fdb7266d89cf5409",
        "6ce74137f6eabfd032ce2a2ba248f511cbaab11b86a60ff8ae02cb4da4aa7a5a",
    ),
];

fn payload(len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    ChaChaDrbg::from_u64_seed(0x5712 ^ len as u64).fill_bytes(&mut bytes);
    bytes
}

/// A generator that has already served 5 bytes, so every split starts
/// mid-block, as an archive's does.
fn generator(len: usize) -> ChaChaDrbg {
    let mut rng = ChaChaDrbg::from_u64_seed(len as u64 + 1);
    rng.gen_array::<5>();
    rng
}

/// Hex SHA-256 of the length-prefixed `parts`, then of `rng`'s next 32
/// bytes.
fn pin<'a>(parts: impl IntoIterator<Item = &'a [u8]>, rng: &mut ChaChaDrbg) -> String {
    let mut hash = Sha256::new();
    for part in parts {
        hash.update(&(part.len() as u64).to_le_bytes());
        hash.update(part);
    }
    hash.update(&rng.gen_array::<32>());
    hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn shamir_pin(secret: &[u8]) -> String {
    let mut rng = generator(secret.len());
    let shares = shamir::split(&mut rng, secret, 3, 5).unwrap();
    pin(shares.iter().map(|s| s.data.as_slice()), &mut rng)
}

fn lrss_pin(secret: &[u8]) -> String {
    let mut rng = generator(secret.len());
    let shares = shamir::split(&mut rng, secret, 3, 5).unwrap();
    // An 8-byte source keeps the Toeplitz mask of a 1 MiB share cheap.
    let wrapped = lrss::wrap(&mut rng, &shares, LrssParams { source_len: 8 }).unwrap();
    let parts = wrapped
        .iter()
        .flat_map(|s| [&s.source[..], &s.seed, &s.masked]);
    pin(parts, &mut rng)
}

fn packed_pin(secret: &[u8]) -> String {
    let mut rng = generator(secret.len());
    let params = PackedParams::new(2, 2, 6).unwrap();
    let shares = packed::split(&mut rng, params, secret).unwrap();
    // Each share as its big-endian symbol bytes.
    let bytes: Vec<Vec<u8>> = (shares.iter())
        .map(|s| s.data.iter().flat_map(|v| v.to_be_bytes()).collect())
        .collect();
    pin(bytes.iter().map(Vec::as_slice), &mut rng)
}

#[test]
fn shares_across_strips_match_their_pins() {
    let mut moved = Vec::new();
    for (len, (pinned_len, shamir, lrss, packed)) in LENGTHS.into_iter().zip(PINS) {
        assert_eq!(len, pinned_len);
        let secret = payload(len);
        for (scheme, got, want) in [
            ("shamir", shamir_pin(&secret), shamir),
            ("lrss", lrss_pin(&secret), lrss),
            ("packed", packed_pin(&secret), packed),
        ] {
            println!("{scheme:<7} {len:>8} {got}");
            if got != want {
                moved.push(format!("{scheme} at {len} bytes"));
            }
        }
    }
    assert!(moved.is_empty(), "pins moved: {moved:?}");
}
