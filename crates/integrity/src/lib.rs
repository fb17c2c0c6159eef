//! Long-term integrity: Merkle trees, renewable timestamp chains, and a
//! simulated public ledger.
//!
//! The paper's §3.3 observes that long-term *integrity* — unlike long-term
//! confidentiality — is achievable with computational tools: a chain of
//! digitally signed timestamps stays trustworthy as long as each signature
//! is renewed with a stronger scheme *before* its own scheme is broken.
//! This crate builds that machinery:
//!
//! * [`merkle`] — binary hash trees with inclusion proofs; [`timestamp`]
//!   signs the root of one over a whole batch of chain links.
//! * [`timestamp`] — Haber–Stornetta renewable timestamp chains backed by
//!   hash-based signatures, created and renewed a batch at a time under
//!   one authority signature (ELSA-style aggregation), with a
//!   [`timestamp::SigBreakSchedule`]
//!   modelling cryptanalytic progress against signature schemes, and a
//!   LINCOS-style option to anchor chains on *information-theoretically
//!   hiding* Pedersen commitments instead of plain hashes (so publishing
//!   the chain never erodes confidentiality).
//! * [`ledger`] — a hash-chained, append-only public ledger simulation
//!   (the substrate HasDPSS gets from a blockchain) for publishing VSS
//!   commitments and timestamp roots.
//!
//! # Examples
//!
//! ```
//! use aeon_integrity::merkle::MerkleTree;
//!
//! let tree = MerkleTree::build([b"a".as_ref(), b"b", b"c"]).unwrap();
//! let proof = tree.prove(1).unwrap();
//! assert!(proof.verify(&tree.root(), b"b"));
//! assert!(!proof.verify(&tree.root(), b"x"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ledger;
pub mod merkle;
pub mod timestamp;

pub use merkle::{MerkleProof, MerkleTree};
pub use timestamp::{DocumentChain, SigBreakSchedule, TimestampAuthority};
