//! No `{:?}` of a key-holding type spells the key: every such type is
//! built from a recognisable key — `0xA5` × 32, `165` in a derived
//! `Debug` — and formatted both ways.

use aeon_crypto::aead::{Aes256CtrHmac, ChaCha20Poly1305};
use aeon_crypto::aes::Aes;
use aeon_crypto::cascade::Cascade;
use aeon_crypto::chacha::ChaCha20;
use aeon_crypto::hmac::HmacSha256;
use aeon_crypto::poly1305::Poly1305;
use aeon_crypto::suite::{SuiteId, SuiteRegistry};
use aeon_crypto::{ChaChaDrbg, CryptoRng};
use std::fmt::Debug;

const KEY: [u8; 32] = [0xA5; 32];

fn assert_redacted(value: &dyn Debug) {
    for text in [format!("{value:?}"), format!("{value:#?}")] {
        // The decimal spelling of the key byte, the hex spelling of the
        // key's bytes and of the 32-bit words it fills.
        for spelling in ["165", "a5", "A5", "2779096485"] {
            assert!(!text.contains(spelling), "{spelling:?} in {text}");
        }
    }
}

#[test]
fn no_debug_output_spells_a_key() {
    let mut poly = Poly1305::new(&KEY);
    // Long enough for a wide tier to cache r², r³ and r⁴ beside r.
    poly.update(&[0; 1024]);
    let mut drbg = ChaChaDrbg::from_seed(KEY);
    drbg.next_u64();
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
