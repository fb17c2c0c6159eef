//! Property-based tests for the crypto substrate.

use aeon_crypto::aead::{Aead, Aes256CtrHmac, ChaCha20Poly1305};
use aeon_crypto::cascade::Cascade;
use aeon_crypto::entropic::EntropicCipher;
use aeon_crypto::sig::{MerkleSigner, WotsSigner};
use aeon_crypto::suite::SuiteId;
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256};
use proptest::prelude::*;

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn chacha_aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                             aad in prop::collection::vec(any::<u8>(), 0..64),
                             pt in prop::collection::vec(any::<u8>(), 0..512)) {
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn aes_aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                          pt in prop::collection::vec(any::<u8>(), 0..512)) {
        let aead = Aes256CtrHmac::new(&key);
        let sealed = aead.seal(&nonce, b"aad", &pt);
        prop_assert_eq!(aead.open(&nonce, b"aad", &sealed).unwrap(), pt);
    }

    #[test]
    fn aead_bitflip_rejected(key in any::<[u8; 32]>(), pt in prop::collection::vec(any::<u8>(), 1..128),
                             flip_byte in 0usize..1000, flip_bit in 0u8..8) {
        let aead = ChaCha20Poly1305::new(&key);
        let nonce = [0u8; 12];
        let mut sealed = aead.seal(&nonce, b"", &pt);
        let idx = flip_byte % sealed.len();
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(aead.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn cascade_roundtrip(master in any::<[u8; 32]>(), ctx in prop::collection::vec(any::<u8>(), 0..32),
                         pt in prop::collection::vec(any::<u8>(), 0..256)) {
        let c = Cascade::new(&[SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305], &master).unwrap();
        let ct = c.encrypt(&ctx, &pt);
        prop_assert_eq!(c.decrypt(&ctx, &ct).unwrap(), pt);
    }

    #[test]
    fn entropic_roundtrip(key in any::<[u8; 16]>(), seed in any::<u64>(),
                          pt in prop::collection::vec(any::<u8>(), 0..256)) {
        let cipher = EntropicCipher::new(key);
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let ct = cipher.encrypt(&mut rng, &pt);
        prop_assert_eq!(cipher.decrypt(&ct), pt);
    }

    #[test]
    fn wots_verifies_only_signed_message(seed in any::<u64>(),
                                         m1 in prop::collection::vec(any::<u8>(), 0..64),
                                         m2 in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let (mut sk, pk) = WotsSigner::generate(&mut rng);
        let sig = sk.sign(&m1).unwrap();
        prop_assert!(pk.verify(&m1, &sig));
        if m1 != m2 {
            prop_assert!(!pk.verify(&m2, &sig));
        }
    }

    #[test]
    fn drbg_split_invariance(seed in any::<u64>(), splits in prop::collection::vec(1usize..64, 1..6)) {
        let total: usize = splits.iter().sum();
        let mut a = ChaChaDrbg::from_u64_seed(seed);
        let mut whole = vec![0u8; total];
        a.fill_bytes(&mut whole);
        let mut b = ChaChaDrbg::from_u64_seed(seed);
        let mut parts = Vec::new();
        for s in &splits {
            let mut buf = vec![0u8; *s];
            b.fill_bytes(&mut buf);
            parts.extend_from_slice(&buf);
        }
        prop_assert_eq!(whole, parts);
    }
}

#[test]
fn merkle_exhaustion_is_exact() {
    let mut rng = ChaChaDrbg::from_u64_seed(77);
    for height in 0..4usize {
        let mut signer = MerkleSigner::generate(&mut rng, height);
        let pk = signer.public_key();
        for i in 0..(1usize << height) {
            let msg = format!("m{i}");
            let sig = signer.sign(msg.as_bytes()).unwrap();
            assert!(pk.verify(msg.as_bytes(), &sig));
        }
        assert!(signer.sign(b"overflow").is_err());
    }
}
