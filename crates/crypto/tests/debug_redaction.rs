//! No `{:?}` of a key-holding type spells the key: every such type is
//! built from a recognisable key — `0xA5` × 32, `165` in a derived
//! `Debug` — and formatted both ways.

use aeon_crypto::aead::{Aes256CtrHmac, ChaCha20Poly1305};
use aeon_crypto::aes::Aes;
use aeon_crypto::cascade::Cascade;
use aeon_crypto::chacha::ChaCha20;
use aeon_crypto::entropic::EntropicCipher;
use aeon_crypto::hmac::HmacSha256;
use aeon_crypto::poly1305::Poly1305;
use aeon_crypto::sig::{MerkleSigner, WotsSigner};
use aeon_crypto::suite::{SuiteId, SuiteRegistry};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use std::fmt::Debug;

const KEY: [u8; 32] = [0xA5; 32];

/// Draws the key byte forever, so a signer's secret preimages are `KEY`.
struct KeyBytes;

impl CryptoRng for KeyBytes {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0xA5);
    }
}

fn assert_redacted(value: &dyn Debug) {
    for text in [format!("{value:?}"), format!("{value:#?}")] {
        // The decimal spelling of the key byte, the hex spelling of the
        // key's bytes, of the 32-bit words and of the 128-bit word it fills.
        let wide = u128::from_be_bytes([0xA5; 16]).to_string();
        for spelling in ["165", "a5", "A5", "2779096485", &wide] {
            assert!(!text.contains(spelling), "{spelling:?} in {text}");
        }
    }
}

/// Every `[n, n, …]` in a `Debug` text: how a derived `Debug` spells a
/// byte array.
fn byte_arrays(text: &str) -> Vec<&str> {
    text.match_indices('[')
        .filter_map(|(at, _)| {
            let end = at + text[at..].find(']')?;
            let array = &text[at..=end];
            array[1..]
                .starts_with(|c: char| c.is_ascii_digit())
                .then_some(array)
        })
        .collect()
}

#[test]
fn no_debug_output_spells_a_key() {
    let mut poly = Poly1305::new(&KEY);
    // Long enough for a wide tier to cache r², r³ and r⁴ beside r.
    poly.update(&[0; 1024]);
    let mut drbg = ChaChaDrbg::from_seed(KEY);
    drbg.next_u64();
    // Both kinds of sub-stream: a generator's state, and bytes it drew
    // (`KeyBytes` draws the key byte).
    let substreams = [drbg.substream(100), KeyBytes.substream(100)];
    let suites = [SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305];
    let values: Vec<Box<dyn Debug>> = vec![
        Box::new(ChaCha20Poly1305::new(&KEY)),
        Box::new(Aes256CtrHmac::new(&KEY)),
        Box::new(ChaCha20::new(&KEY, &[0xA5; 12])),
        Box::new(Aes::new_256(&KEY)),
        Box::new(poly),
        Box::new(HmacSha256::new(&KEY)),
        Box::new(Cascade::new(&suites, &KEY).expect("two AEAD suites")),
        Box::new(SuiteRegistry::new().instantiate(SuiteId::ChaCha20Poly1305, &KEY)),
        Box::new(drbg),
        Box::new(substreams),
        Box::new(EntropicCipher::new([0xA5; 16])),
        Box::new(WotsSigner::generate(&mut KeyBytes).0),
    ];
    for value in &values {
        assert_redacted(value.as_ref());
    }
    // What is left says which type it was.
    assert_eq!(
        format!("{:?}", ChaCha20Poly1305::new(&KEY)),
        "ChaCha20Poly1305 { .. }"
    );
    assert_eq!(
        format!(
            "{:?}",
            Cascade::new(&suites, &KEY).expect("two AEAD suites")
        ),
        "Cascade { suites: [Aes256CtrHmac, ChaCha20Poly1305], .. }"
    );
}

/// A hash-based signature publishes secret-key material — a WOTS
/// signature carries `sk[i]` at every zero digit — so `{:?}` of the
/// signer must spell none of it: a `MerkleSigner` holds every one-time
/// key a timestamp authority will ever sign with.
#[test]
fn no_debug_output_spells_what_a_signature_reveals() {
    let mut rng = ChaChaDrbg::from_u64_seed(0xA5);
    let message = b"timestamp record";
    // A zero nibble in the digest is a zero WOTS digit: that chain's
    // secret start travels in the signature as is.
    let digest = Sha256::digest(message);
    assert!(digest.iter().any(|b| b >> 4 == 0 || b & 0x0F == 0));

    let merkle = MerkleSigner::generate(&mut rng, 2);
    let merkle_sig = merkle.clone().sign(message).expect("fresh key");
    let (signer, signature) = (format!("{merkle:?}"), format!("{:?}", merkle_sig.wots));
    let revealed = byte_arrays(&signature);
    assert!(revealed.len() >= 67, "{signature}");
    for value in revealed {
        assert!(!signer.contains(value), "{value} in {signer}");
    }
}
