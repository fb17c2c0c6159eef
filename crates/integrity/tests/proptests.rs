//! Property tests: Merkle inclusion, ledger chaining, chain verification.

use aeon_crypto::{ChaChaDrbg, Sha256};
use aeon_integrity::ledger::Ledger;
use aeon_integrity::merkle::MerkleTree;
use aeon_integrity::timestamp::{AnchorMode, DocumentChain, SigBreakSchedule, TimestampAuthority};
use aeon_num::pedersen::Committer;
use aeon_num::ModpGroup;
use proptest::prelude::*;

proptest! {
    /// Every leaf of every tree size proves and verifies; foreign data
    /// never verifies.
    #[test]
    fn merkle_inclusion_sound(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..40),
                              probe in any::<usize>()) {
        let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice())).unwrap();
        let idx = probe % leaves.len();
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&tree.root(), &leaves[idx]));
        // A mutated leaf must not verify under the same proof.
        let mut forged = leaves[idx].clone();
        forged.push(0xFF);
        prop_assert!(!proof.verify(&tree.root(), &forged));
    }

    /// Changing any single leaf changes the root.
    #[test]
    fn merkle_root_binds_all_leaves(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..16), 2..20),
                                    victim in any::<usize>()) {
        let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice())).unwrap();
        let idx = victim % leaves.len();
        let mut changed = leaves.clone();
        changed[idx][0] ^= 1;
        let tree2 = MerkleTree::build(changed.iter().map(|l| l.as_slice())).unwrap();
        prop_assert_ne!(tree.root(), tree2.root());
    }

    /// Every member of a batch of any size — non-powers of two, promoted
    /// odd nodes — verifies under the batch's one token and opens to its
    /// own document only; renewing an arbitrary prefix together costs one
    /// more token and leaves renewed and unrenewed members valid.
    #[test]
    fn batch_members_verify_under_one_token(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..40),
        seed in any::<u64>(),
        split in any::<usize>(),
    ) {
        let mut rng = ChaChaDrbg::from_u64_seed(seed);
        let committer = Committer::new(ModpGroup::rfc3526_2048());
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 1);
        let digests: Vec<[u8; 32]> = docs.iter().map(|d| Sha256::digest(d)).collect();
        let mut chains = DocumentChain::create_many(
            &mut rng, &mut tsa, &committer, AnchorMode::HashDigest, &digests,
        ).unwrap();
        prop_assert_eq!(tsa.remaining(), 1);
        let renewed = split % (docs.len() + 1);
        tsa.advance_to(2040);
        DocumentChain::renew_many(&mut chains[..renewed], &mut tsa).unwrap();
        prop_assert_eq!(tsa.remaining(), usize::from(renewed == 0));
        let mut forged = docs[0].clone();
        forged.push(0xFF);
        for (i, (chain, doc)) in chains.iter().zip(&docs).enumerate() {
            prop_assert_eq!(chain.len(), 1 + usize::from(i < renewed));
            prop_assert_eq!(chain.verify(&SigBreakSchedule::new(), 2100), Ok(2026));
            prop_assert!(chain.prove_content(&committer, doc));
            prop_assert!(!chain.prove_content(&committer, &forged) || *doc == forged);
        }
    }

    /// A ledger verifies iff untampered; corruption at any index is
    /// localized to that index by verify().
    #[test]
    fn ledger_detects_any_corruption(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..20),
                                     victim in any::<usize>()) {
        let mut ledger = Ledger::new(1);
        for (i, p) in payloads.iter().enumerate() {
            ledger.append(2026 + i as u32, p.clone());
        }
        prop_assert!(ledger.verify().is_ok());
        let idx = (victim % payloads.len()) as u64;
        ledger.corrupt_for_simulation(idx, b"forged".to_vec());
        // Corruption detected at exactly the victim index — unless the
        // forged payload equals the original.
        if payloads[idx as usize] != b"forged" {
            let err = ledger.verify().unwrap_err();
            prop_assert_eq!(err.index, idx);
        }
    }
}
