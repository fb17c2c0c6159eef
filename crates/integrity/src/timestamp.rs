//! Renewable timestamp chains (Haber–Stornetta linking) with ELSA-style
//! aggregation, breakable signature schemes and LINCOS-style hiding
//! commitments.
//!
//! The long-term integrity argument: a signature only needs to be
//! unforgeable *until the next, stronger signature is laid over it*. A
//! chain of timestamps where link `i+1` signs (commitment, link `i`) at
//! year `y_{i+1}` therefore proves existence at `y_0` to a verifier at
//! year `Y`, provided every link's scheme was unbroken when its successor
//! was created, and the final link's scheme is unbroken at `Y`.
//!
//! **A link signs a root; a batch of one is its own root.** The
//! authority's hash-based signatures are the expensive part (a one-time
//! key each, and a key tree regenerated every `2^height` of them), so
//! chains are extended a batch at a time — ELSA's result (Geihs and
//! Buchmann): one timestamp over a commitment to many items, one
//! inclusion path per item. [`DocumentChain::create_many`] and
//! [`DocumentChain::renew_many`] hash every member's link payload into a
//! [`MerkleTree`], have the authority sign the root **once**, and give
//! each chain a link holding its payload, its [`MerkleProof`] to that
//! root and the shared token.
//! [`DocumentChain::verify`] walks document → anchor → payload → root →
//! signature. A batch of one skips the tree: the token signs the payload
//! itself, which is what [`DocumentChain::create`] and
//! [`DocumentChain::renew`] are.
//!
//! Two anchoring modes:
//!
//! * [`AnchorMode::HashDigest`] — the chain carries `SHA-256(document)`.
//!   Fine for integrity, but the digest is only *computationally* hiding:
//!   a future adversary with a preimage break (or a candidate document)
//!   learns about the content — the leak LINCOS identified.
//! * [`AnchorMode::PedersenHiding`] — the chain carries a Pedersen
//!   commitment, information-theoretically hiding; confidentiality of the
//!   timestamped document survives any cryptanalytic future.

use crate::merkle::{MerkleProof, MerkleTree};
use aeon_crypto::sig::{MerklePublicKey, MerkleSignature, MerkleSigner, SigError};
use aeon_crypto::{CryptoRng, Sha256};
use aeon_num::pedersen::{Commitment, Committer, Opening};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A simulated year on the archival timeline.
pub type SimYear = u32;

/// Maps signature-scheme names to the year cryptanalysis breaks them.
#[derive(Debug, Clone, Default)]
pub struct SigBreakSchedule {
    breaks: BTreeMap<String, SimYear>,
}

impl SigBreakSchedule {
    /// Creates an empty schedule (nothing breaks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `scheme` to fall at `year`.
    pub fn set_break(&mut self, scheme: &str, year: SimYear) {
        self.breaks.insert(scheme.to_string(), year);
    }

    /// Returns the year `scheme` falls, if scheduled.
    pub fn break_year(&self, scheme: &str) -> Option<SimYear> {
        self.breaks.get(scheme).copied()
    }

    /// Returns `true` if `scheme` is broken at `year`.
    pub fn is_broken(&self, scheme: &str, year: SimYear) -> bool {
        self.break_year(scheme).is_some_and(|by| year >= by)
    }
}

/// How a document is bound into its timestamp chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorMode {
    /// Plain SHA-256 digest (computationally hiding only).
    HashDigest,
    /// Pedersen commitment (information-theoretically hiding).
    PedersenHiding,
}

/// A token issued by a timestamp authority over some message bytes.
#[derive(Debug, Clone)]
pub struct TimestampToken {
    /// Year of issuance.
    pub year: SimYear,
    /// Name of the signature scheme used (consulted against the break
    /// schedule).
    pub scheme: String,
    /// The authority's public key at issuance.
    pub public_key: MerklePublicKey,
    /// Signature over the message.
    pub signature: MerkleSignature,
}

/// A simulated timestamp authority with a rotating hash-based key.
///
/// Rotation models the real-world practice of migrating to stronger
/// schemes: each rotation gives the authority a fresh key under a new
/// scheme name with its own entry in the break schedule.
#[derive(Debug)]
pub struct TimestampAuthority {
    scheme: String,
    signer: MerkleSigner,
    year: SimYear,
}

impl TimestampAuthority {
    /// Creates an authority at `year` using scheme `scheme` with capacity
    /// for `2^height` timestamps before rotation.
    pub fn new<R: CryptoRng + ?Sized>(
        rng: &mut R,
        scheme: &str,
        year: SimYear,
        height: usize,
    ) -> Self {
        TimestampAuthority {
            scheme: scheme.to_string(),
            signer: MerkleSigner::generate(rng, height),
            year,
        }
    }

    /// The authority's current scheme name.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The authority's current year.
    pub fn year(&self) -> SimYear {
        self.year
    }

    /// Advances the simulated clock.
    pub fn advance_to(&mut self, year: SimYear) {
        assert!(year >= self.year, "time does not run backwards");
        self.year = year;
    }

    /// Rotates to a new scheme/key.
    pub fn rotate<R: CryptoRng + ?Sized>(&mut self, rng: &mut R, scheme: &str, height: usize) {
        self.scheme = scheme.to_string();
        self.signer = MerkleSigner::generate(rng, height);
    }

    /// Signatures remaining before the current key is exhausted.
    pub fn remaining(&self) -> usize {
        self.signer.remaining()
    }

    /// Issues a timestamp token over `message`.
    ///
    /// # Errors
    ///
    /// Returns an error if the key is exhausted (rotate first).
    pub fn issue(&mut self, message: &[u8]) -> Result<TimestampToken, SigError> {
        let public_key = self.signer.public_key();
        let signature = self.signer.sign(message)?;
        Ok(TimestampToken {
            year: self.year,
            scheme: self.scheme.clone(),
            public_key,
            signature,
        })
    }
}

/// Why a chain failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainInvalid {
    /// The chain has no links.
    Empty,
    /// A signature failed cryptographic verification.
    BadSignature {
        /// Link index.
        link: usize,
    },
    /// A link's payload is not included under the batch root its token
    /// signs: the inclusion proof is malformed, over-long, or walks to a
    /// different root.
    BadInclusion {
        /// Link index.
        link: usize,
    },
    /// A link's scheme was already broken when its successor was created —
    /// a forger could have rewritten history in the gap.
    RenewedTooLate {
        /// Link index whose scheme lapsed.
        link: usize,
    },
    /// The newest link's scheme is broken at verification time.
    HeadBroken,
    /// Link years are not monotonically non-decreasing.
    NonMonotonicTime,
}

impl core::fmt::Display for ChainInvalid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainInvalid::Empty => write!(f, "timestamp chain is empty"),
            ChainInvalid::BadSignature { link } => write!(f, "link {link} signature invalid"),
            ChainInvalid::BadInclusion { link } => {
                write!(f, "link {link} is not included under its signed root")
            }
            ChainInvalid::RenewedTooLate { link } => {
                write!(f, "link {link} was renewed after its scheme broke")
            }
            ChainInvalid::HeadBroken => write!(f, "newest link's scheme is broken"),
            ChainInvalid::NonMonotonicTime => write!(f, "link years decrease"),
        }
    }
}

impl std::error::Error for ChainInvalid {}

/// One link in a document's timestamp chain.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// The link's payload digest (anchor + previous link binding).
    pub payload: [u8; 32],
    /// Where `payload` sits in its batch: the batch root the token signs
    /// and the inclusion path to it. `None` for a batch of one, whose
    /// token signs `payload` itself.
    pub proof: Option<([u8; 32], MerkleProof)>,
    /// The authority token, shared by every chain of the batch.
    pub token: Arc<TimestampToken>,
}

/// Longest inclusion path [`DocumentChain::verify`] will walk: a batch
/// cannot have more than `2^64` members.
const MAX_PROOF_DEPTH: usize = 64;

/// Whether `proof.leaf_index` is a position its own path can describe.
/// From the leaf up, a level either has a sibling on the right (index
/// bit 0), one on the left (bit 1), or none because the node was the odd
/// one out and got promoted (bit 0, no path entry) — and a promoted node
/// stays last in its level, so no right sibling can follow. A Merkle path
/// does not commit to the tree's size, so this is a consistency check on
/// untrusted input, not evidence of position.
fn position_matches_path(proof: &MerkleProof) -> bool {
    let mut index = proof.leaf_index;
    let mut promoted = false;
    for (_, sibling_on_right) in &proof.path {
        if *sibling_on_right {
            if promoted || index & 1 == 1 {
                return false;
            }
        } else {
            if index == 0 {
                return false;
            }
            promoted |= index & 1 == 0;
            index >>= index.trailing_zeros();
        }
        index >>= 1;
    }
    index == 0
}

/// A renewable timestamp chain for one document.
#[derive(Debug, Clone)]
pub struct DocumentChain {
    anchor_mode: AnchorMode,
    /// The anchored value: digest or serialized Pedersen commitment.
    anchor: Vec<u8>,
    /// Pedersen opening held by the document owner (None for hash mode).
    opening: Option<Opening>,
    links: Vec<ChainLink>,
}

impl DocumentChain {
    /// Creates a chain for `document`, anchored per `mode`, with an
    /// initial timestamp from `tsa`: [`Self::create_many`] for the one
    /// digest of `document`.
    ///
    /// # Errors
    ///
    /// Propagates authority key exhaustion.
    pub fn create<R: CryptoRng + ?Sized>(
        rng: &mut R,
        tsa: &mut TimestampAuthority,
        committer: &Committer,
        mode: AnchorMode,
        document: &[u8],
    ) -> Result<Self, SigError> {
        let chains = Self::create_many(rng, tsa, committer, mode, &[Sha256::digest(document)])?;
        Ok(chains.into_iter().next().expect("one chain per digest"))
    }

    /// Creates one chain per document digest (`SHA-256(document)`, which
    /// the caller usually holds already), anchored per `mode`, all under
    /// **one** timestamp from `tsa` over the batch's Merkle root. Pedersen
    /// blindings are drawn from `rng` in digest order. An empty batch
    /// consumes no signature.
    ///
    /// # Errors
    ///
    /// Propagates authority key exhaustion.
    pub fn create_many<R: CryptoRng + ?Sized>(
        rng: &mut R,
        tsa: &mut TimestampAuthority,
        committer: &Committer,
        mode: AnchorMode,
        digests: &[[u8; 32]],
    ) -> Result<Vec<Self>, SigError> {
        let mut chains: Vec<DocumentChain> = digests
            .iter()
            .map(|digest| {
                let (anchor, opening) = match mode {
                    AnchorMode::HashDigest => (digest.to_vec(), None),
                    AnchorMode::PedersenHiding => {
                        let blinding = aeon_crypto::random_array::<32, _>(rng);
                        let (c, o) = committer.commit(digest, &blinding);
                        (c.to_be_bytes(), Some(o))
                    }
                };
                DocumentChain {
                    anchor_mode: mode,
                    anchor,
                    opening,
                    links: Vec::new(),
                }
            })
            .collect();
        Self::renew_many(&mut chains, tsa)?;
        Ok(chains)
    }

    fn link_payload(anchor: &[u8], prev: Option<&ChainLink>) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(anchor);
        if let Some(prev) = prev {
            h.update(&prev.payload);
            h.update(&prev.token.year.to_be_bytes());
            h.update(prev.token.scheme.as_bytes());
            h.update(&prev.token.public_key.root);
        }
        h.finalize()
    }

    /// The anchoring mode.
    pub fn anchor_mode(&self) -> AnchorMode {
        self.anchor_mode
    }

    /// The anchored bytes (digest or commitment).
    pub fn anchor(&self) -> &[u8] {
        &self.anchor
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the chain has no links (never true after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Renews the chain with a fresh token from `tsa` (typically a rotated,
    /// stronger scheme): [`Self::renew_many`] for this one chain.
    ///
    /// # Errors
    ///
    /// Propagates authority key exhaustion.
    pub fn renew(&mut self, tsa: &mut TimestampAuthority) -> Result<(), SigError> {
        Self::renew_many([self], tsa)
    }

    /// Extends every chain by one link under **one** token from `tsa`:
    /// the token signs the Merkle root of the chains' new link payloads
    /// (in iteration order) and each link keeps its inclusion path. A
    /// single chain's token signs its payload directly; no chains, no
    /// signature. The chains need not share an age or a creation batch.
    ///
    /// # Errors
    ///
    /// Propagates authority key exhaustion, leaving every chain as it
    /// was.
    pub fn renew_many<'a>(
        chains: impl IntoIterator<Item = &'a mut DocumentChain>,
        tsa: &mut TimestampAuthority,
    ) -> Result<(), SigError> {
        let chains: Vec<&mut DocumentChain> = chains.into_iter().collect();
        let payloads: Vec<[u8; 32]> = chains
            .iter()
            .map(|c| Self::link_payload(&c.anchor, c.links.last()))
            .collect();
        let (tree, token) = match payloads.as_slice() {
            [] => return Ok(()),
            [only] => (None, tsa.issue(only)?),
            many => {
                let tree =
                    MerkleTree::build(many.iter().map(|p| p.as_slice())).expect("non-empty batch");
                let token = tsa.issue(&tree.root())?;
                (Some(tree), token)
            }
        };
        let token = Arc::new(token);
        for (i, (chain, payload)) in chains.into_iter().zip(payloads).enumerate() {
            let proof = tree
                .as_ref()
                .map(|t| (t.root(), t.prove(i).expect("one leaf per chain")));
            chain.links.push(ChainLink {
                payload,
                proof,
                token: Arc::clone(&token),
            });
        }
        Ok(())
    }

    /// Verifies the chain at year `now` against a break schedule. On
    /// success returns the year the document provably existed (the first
    /// link's year).
    ///
    /// Per link the walk is anchor → payload → root → signature: the
    /// payload is recomputed from the anchor and the previous link, a
    /// batch link's inclusion proof is checked against the root it names,
    /// and the token must sign that root (the payload itself for a batch
    /// of one). Proofs are untrusted input: at most 64 path entries are
    /// walked, `leaf_index` is never used to index anything, and a
    /// malformed proof is a [`ChainInvalid::BadInclusion`], not a panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainInvalid`] condition found.
    pub fn verify(
        &self,
        schedule: &SigBreakSchedule,
        now: SimYear,
    ) -> Result<SimYear, ChainInvalid> {
        if self.links.is_empty() {
            return Err(ChainInvalid::Empty);
        }
        // Recompute each payload, walk it to the root its token signs,
        // then check the signature over that root.
        let mut prev: Option<&ChainLink> = None;
        for (i, link) in self.links.iter().enumerate() {
            let expect = Self::link_payload(&self.anchor, prev);
            if expect != link.payload {
                return Err(ChainInvalid::BadSignature { link: i });
            }
            let signed = match &link.proof {
                None => &link.payload,
                Some((root, proof)) => {
                    if proof.path.len() > MAX_PROOF_DEPTH
                        || !position_matches_path(proof)
                        || !proof.verify(root, &link.payload)
                    {
                        return Err(ChainInvalid::BadInclusion { link: i });
                    }
                    root
                }
            };
            if !link.token.public_key.verify(signed, &link.token.signature) {
                return Err(ChainInvalid::BadSignature { link: i });
            }
            if let Some(p) = prev {
                if link.token.year < p.token.year {
                    return Err(ChainInvalid::NonMonotonicTime);
                }
            }
            prev = Some(link);
        }
        // Check renewal timeliness: link i must outlive until link i+1.
        for i in 0..self.links.len() - 1 {
            let this = &self.links[i].token;
            let next = &self.links[i + 1].token;
            if schedule.is_broken(&this.scheme, next.year) {
                return Err(ChainInvalid::RenewedTooLate { link: i });
            }
        }
        let head = &self.links.last().expect("non-empty").token;
        if schedule.is_broken(&head.scheme, now) {
            return Err(ChainInvalid::HeadBroken);
        }
        Ok(self.links[0].token.year)
    }

    /// Proves the document content against the anchor (opening the
    /// Pedersen commitment in hiding mode): [`Self::prove_digest`] of
    /// `SHA-256(document)`, the digest [`Self::create`] anchors.
    pub fn prove_content(&self, committer: &Committer, document: &[u8]) -> bool {
        self.prove_digest(committer, &Sha256::digest(document))
    }

    /// Proves that the anchor binds `digest`, whatever function of the
    /// document the chain's creator anchored (an archive anchors its
    /// payload's segment-tree root): the anchor itself in hash mode, the
    /// opening of the Pedersen commitment in hiding mode.
    pub fn prove_digest(&self, committer: &Committer, digest: &[u8; 32]) -> bool {
        match self.anchor_mode {
            AnchorMode::HashDigest => self.anchor == digest,
            AnchorMode::PedersenHiding => {
                let Some(opening) = &self.opening else {
                    return false;
                };
                // Reconstruct the commitment from the stored bytes.
                let commitment = Commitment(aeon_num::GroupElement::from_be_bytes(&self.anchor));
                committer.verify(&commitment, digest, opening)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;
    use aeon_num::ModpGroup;

    fn setup() -> (ChaChaDrbg, Committer) {
        (
            ChaChaDrbg::from_u64_seed(55),
            Committer::new(ModpGroup::rfc3526_2048()),
        )
    }

    #[test]
    fn create_and_verify_hash_mode() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"the document",
        )
        .unwrap();
        let schedule = SigBreakSchedule::new();
        assert_eq!(chain.verify(&schedule, 2126).unwrap(), 2026);
        assert!(chain.prove_content(&committer, b"the document"));
        assert!(!chain.prove_content(&committer, b"another document"));
    }

    #[test]
    fn renewal_extends_lifetime_across_breaks() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let mut chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"doc",
        )
        .unwrap();

        let mut schedule = SigBreakSchedule::new();
        schedule.set_break("wots-v1", 2050);

        // Renew in 2045 with a stronger scheme, before v1 breaks.
        tsa.advance_to(2045);
        tsa.rotate(&mut rng, "wots-v2", 3);
        chain.renew(&mut tsa).unwrap();

        // In 2060, v1 is broken but the chain still verifies to 2026.
        assert_eq!(chain.verify(&schedule, 2060).unwrap(), 2026);
    }

    #[test]
    fn late_renewal_detected() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let mut chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"doc",
        )
        .unwrap();
        let mut schedule = SigBreakSchedule::new();
        schedule.set_break("wots-v1", 2050);

        // Renewal happens in 2055 — AFTER the break. Invalid.
        tsa.advance_to(2055);
        tsa.rotate(&mut rng, "wots-v2", 3);
        chain.renew(&mut tsa).unwrap();
        assert_eq!(
            chain.verify(&schedule, 2060).unwrap_err(),
            ChainInvalid::RenewedTooLate { link: 0 }
        );
    }

    #[test]
    fn unrenewed_chain_dies_with_its_scheme() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"doc",
        )
        .unwrap();
        let mut schedule = SigBreakSchedule::new();
        schedule.set_break("wots-v1", 2050);
        assert!(chain.verify(&schedule, 2049).is_ok());
        assert_eq!(
            chain.verify(&schedule, 2050).unwrap_err(),
            ChainInvalid::HeadBroken
        );
    }

    /// `prove_content` is `prove_digest` of the document's SHA-256, in
    /// both modes, and a chain opens with the digest it was created over
    /// and with no other.
    #[test]
    fn prove_digest_agrees_with_prove_content() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let root = Sha256::digest(b"a segment-tree root stands in here");
        for mode in [AnchorMode::HashDigest, AnchorMode::PedersenHiding] {
            let doc: &[u8] = b"the document";
            let chain = DocumentChain::create(&mut rng, &mut tsa, &committer, mode, doc).unwrap();
            assert!(
                chain.prove_digest(&committer, &Sha256::digest(doc)),
                "{mode:?}"
            );
            assert!(chain.prove_content(&committer, doc), "{mode:?}");
            let mut wrong = Sha256::digest(doc);
            wrong[0] ^= 1;
            assert!(!chain.prove_digest(&committer, &wrong), "{mode:?}");
            assert!(!chain.prove_digest(&committer, &root), "{mode:?}");

            let mut chains =
                DocumentChain::create_many(&mut rng, &mut tsa, &committer, mode, &[root]).unwrap();
            let chain = chains.pop().unwrap();
            assert!(chain.prove_digest(&committer, &root), "{mode:?}");
            assert!(!chain.prove_digest(&committer, &wrong), "{mode:?}");
            assert!(!chain.prove_content(&committer, &root), "{mode:?}");
        }
    }

    #[test]
    fn pedersen_mode_hides_and_proves() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 2);
        let chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::PedersenHiding,
            b"medical record",
        )
        .unwrap();
        // The anchor is a group element, not the digest.
        assert_ne!(chain.anchor(), Sha256::digest(b"medical record").as_ref());
        assert!(chain.prove_content(&committer, b"medical record"));
        assert!(!chain.prove_content(&committer, b"forged record"));
        assert!(chain.verify(&SigBreakSchedule::new(), 3000).is_ok());
    }

    #[test]
    fn pedersen_anchor_randomized_across_chains() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let c1 = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::PedersenHiding,
            b"same doc",
        )
        .unwrap();
        let c2 = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::PedersenHiding,
            b"same doc",
        )
        .unwrap();
        assert_ne!(
            c1.anchor(),
            c2.anchor(),
            "ITS hiding requires randomization"
        );
    }

    #[test]
    fn tampered_token_rejected() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 2);
        let mut chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"doc",
        )
        .unwrap();
        chain.links[0].payload[0] ^= 1;
        assert!(matches!(
            chain.verify(&SigBreakSchedule::new(), 2100),
            Err(ChainInvalid::BadSignature { link: 0 })
        ));
    }

    /// `n` distinct documents and their digests.
    fn documents(n: usize, tag: &str) -> (Vec<Vec<u8>>, Vec<[u8; 32]>) {
        let docs: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("{tag} document {i}").into_bytes())
            .collect();
        let digests = docs.iter().map(|d| Sha256::digest(d)).collect();
        (docs, digests)
    }

    fn hash_batch(
        rng: &mut ChaChaDrbg,
        tsa: &mut TimestampAuthority,
        committer: &Committer,
        n: usize,
        tag: &str,
    ) -> Vec<DocumentChain> {
        let (_, digests) = documents(n, tag);
        DocumentChain::create_many(rng, tsa, committer, AnchorMode::HashDigest, &digests).unwrap()
    }

    fn verdict(chain: &DocumentChain) -> Result<SimYear, ChainInvalid> {
        chain.verify(&SigBreakSchedule::new(), 2100)
    }

    fn proof_of(chain: &mut DocumentChain, link: usize) -> &mut MerkleProof {
        &mut chain.links[link].proof.as_mut().expect("batch link").1
    }

    #[test]
    fn every_member_of_every_batch_size_verifies() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 6);
        for n in 1..=40 {
            let (docs, digests) = documents(n, "sized");
            let before = tsa.remaining();
            let chains = DocumentChain::create_many(
                &mut rng,
                &mut tsa,
                &committer,
                AnchorMode::HashDigest,
                &digests,
            )
            .unwrap();
            assert_eq!(before - tsa.remaining(), 1, "one signature per batch");
            assert_eq!(chains.len(), n);
            for (i, (chain, doc)) in chains.iter().zip(&docs).enumerate() {
                assert_eq!(verdict(chain), Ok(2026), "n={n} i={i}");
                assert!(chain.prove_content(&committer, doc), "n={n} i={i}");
                assert!(!chain.prove_content(&committer, b"forged"), "n={n} i={i}");
                let link = &chain.links[0];
                // A batch of one is its own root; larger batches share
                // one token allocation.
                assert_eq!(link.proof.is_none(), n == 1);
                assert!(Arc::ptr_eq(&link.token, &chains[0].links[0].token));
            }
        }
    }

    #[test]
    fn empty_batch_consumes_no_signature() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 1);
        assert!(hash_batch(&mut rng, &mut tsa, &committer, 0, "none").is_empty());
        assert_eq!(tsa.remaining(), 2);
    }

    #[test]
    fn pedersen_batch_members_verify_and_open() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 1);
        let (docs, digests) = documents(3, "hidden");
        let chains = DocumentChain::create_many(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::PedersenHiding,
            &digests,
        )
        .unwrap();
        assert_eq!(tsa.remaining(), 1);
        for (chain, doc) in chains.iter().zip(&docs) {
            assert_eq!(verdict(chain), Ok(2026));
            assert!(chain.prove_content(&committer, doc));
            assert!(!chain.prove_content(&committer, b"forged"));
        }
    }

    /// What `create` did before chains were batched, spelled out: the
    /// pin that a batch of one changed no byte and no draw.
    fn create_as_one_link<R: CryptoRng + ?Sized>(
        rng: &mut R,
        tsa: &mut TimestampAuthority,
        committer: &Committer,
        mode: AnchorMode,
        document: &[u8],
    ) -> (Vec<u8>, [u8; 32], TimestampToken) {
        let anchor = match mode {
            AnchorMode::HashDigest => Sha256::digest(document).to_vec(),
            AnchorMode::PedersenHiding => {
                let blinding = aeon_crypto::random_array::<32, _>(rng);
                let (c, _) = committer.commit(&Sha256::digest(document), &blinding);
                c.to_be_bytes()
            }
        };
        let payload = Sha256::digest(&anchor);
        let token = tsa.issue(&payload).unwrap();
        (anchor, payload, token)
    }

    #[test]
    fn batch_of_one_is_the_single_link_of_old() {
        let committer = setup().1;
        for mode in [AnchorMode::HashDigest, AnchorMode::PedersenHiding] {
            let mut sides: Vec<(ChaChaDrbg, TimestampAuthority)> = (0..3)
                .map(|_| {
                    let mut rng = ChaChaDrbg::from_u64_seed(77);
                    let tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 2);
                    (rng, tsa)
                })
                .collect();
            let doc = b"the one document";
            let (rng, tsa) = &mut sides[0];
            let (anchor, payload, token) = create_as_one_link(rng, tsa, &committer, mode, doc);
            let (rng, tsa) = &mut sides[1];
            let created = DocumentChain::create(rng, tsa, &committer, mode, doc).unwrap();
            let (rng, tsa) = &mut sides[2];
            let batched =
                DocumentChain::create_many(rng, tsa, &committer, mode, &[Sha256::digest(doc)])
                    .unwrap()
                    .remove(0);
            for chain in [&created, &batched] {
                assert_eq!(chain.anchor(), anchor);
                assert_eq!(chain.len(), 1);
                let link = &chain.links[0];
                assert_eq!(link.payload, payload);
                assert!(link.proof.is_none());
                assert_eq!(link.token.year, token.year);
                assert_eq!(link.token.scheme, token.scheme);
                assert_eq!(link.token.public_key, token.public_key);
                assert_eq!(link.token.signature, token.signature);
                assert!(chain.prove_content(&committer, doc));
            }
            // Authority and DRBG are left where the old code left them.
            let draws: Vec<u64> = sides.iter_mut().map(|(rng, _)| rng.next_u64()).collect();
            assert_eq!(draws, vec![draws[0]; 3]);
            assert!(sides.iter().all(|(_, tsa)| tsa.remaining() == 3));
        }
    }

    #[test]
    fn tampered_inclusion_is_rejected_at_its_link() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 5);
        let bad = Err(ChainInvalid::BadInclusion { link: 0 });
        for n in [2usize, 3, 5, 8, 13] {
            let chains = hash_batch(&mut rng, &mut tsa, &committer, n, "ours");
            let others = hash_batch(&mut rng, &mut tsa, &committer, n, "theirs");
            for i in 0..n {
                let tamper = |edit: &dyn Fn(&mut DocumentChain)| {
                    let mut chain = chains[i].clone();
                    edit(&mut chain);
                    verdict(&chain)
                };
                let depth = chains[i].links[0].proof.as_ref().unwrap().1.path.len();
                // Any flipped path byte or side flag.
                for level in 0..depth {
                    for byte in 0..32 {
                        let flipped = tamper(&|c| proof_of(c, 0).path[level].0[byte] ^= 0x40);
                        assert_eq!(flipped, bad, "n={n} i={i} level={level} byte={byte}");
                    }
                    assert_eq!(tamper(&|c| proof_of(c, 0).path[level].1 ^= true), bad);
                }
                // A neighbour's proof, or the same seat in another batch
                // (with and without that batch's root).
                let neighbour = chains[(i + 1) % n].links[0].proof.clone();
                assert_eq!(tamper(&|c| c.links[0].proof = neighbour.clone()), bad);
                let foreign = others[i].links[0].proof.clone();
                assert_eq!(tamper(&|c| c.links[0].proof = foreign.clone()), bad);
                let foreign_path = foreign.unwrap().1;
                assert_eq!(tamper(&|c| *proof_of(c, 0) = foreign_path.clone()), bad);
                // A leaf index the path contradicts.
                assert_eq!(tamper(&|c| proof_of(c, 0).leaf_index ^= 1), bad);
                assert_eq!(
                    tamper(&|c| proof_of(c, 0).leaf_index += n.next_power_of_two()),
                    bad
                );
                assert_eq!(tamper(&|c| proof_of(c, 0).leaf_index = usize::MAX), bad);
                // Truncated, extended and absurdly long paths.
                assert_eq!(tamper(&|c| proof_of(c, 0).path.truncate(depth - 1)), bad);
                assert_eq!(tamper(&|c| proof_of(c, 0).path.push(([7; 32], false))), bad);
                assert_eq!(
                    tamper(&|c| proof_of(c, 0)
                        .path
                        .resize(MAX_PROOF_DEPTH + 1, ([7; 32], false))),
                    bad
                );
                // A different root.
                assert_eq!(
                    tamper(&|c| c.links[0].proof.as_mut().unwrap().0[31] ^= 1),
                    bad
                );
                // Anything that unbinds the payload from the document or
                // the token from the payload is a bad signature.
                let unsigned = Err(ChainInvalid::BadSignature { link: 0 });
                assert_eq!(tamper(&|c| c.anchor[0] ^= 1), unsigned);
                assert_eq!(tamper(&|c| c.links[0].payload[0] ^= 1), unsigned);
                assert_eq!(tamper(&|c| c.links[0].proof = None), unsigned);
                assert_eq!(
                    tamper(&|c| c.links[0] = others[i].links[0].clone()),
                    unsigned
                );
                let stranger = Arc::clone(&others[i].links[0].token);
                assert_eq!(
                    tamper(&|c| c.links[0].token = Arc::clone(&stranger)),
                    unsigned
                );
            }
        }
    }

    #[test]
    fn tampered_renewal_names_the_renewed_link() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 2);
        let mut chains = hash_batch(&mut rng, &mut tsa, &committer, 5, "renewed");
        DocumentChain::renew_many(&mut chains, &mut tsa).unwrap();
        let mut chain = chains.remove(4);
        assert_eq!(verdict(&chain), Ok(2026));
        proof_of(&mut chain, 1).path[0].0[0] ^= 1;
        assert_eq!(verdict(&chain), Err(ChainInvalid::BadInclusion { link: 1 }));
    }

    #[test]
    fn position_check_accepts_exactly_the_built_seats() {
        for n in 1..=40usize {
            let leaves: Vec<[u8; 32]> = (0..n).map(|i| [i as u8; 32]).collect();
            let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice())).unwrap();
            for i in 0..n {
                let mut proof = tree.prove(i).unwrap();
                assert!(position_matches_path(&proof), "n={n} i={i}");
                proof.leaf_index ^= 1;
                assert!(!position_matches_path(&proof), "n={n} i={i} flipped");
            }
        }
    }

    proptest::proptest! {
        /// An arbitrary proof on a genuine link never verifies and
        /// never panics, whatever its index, length or root.
        #[test]
        fn arbitrary_proof_is_rejected_without_panic(
            leaf_index in proptest::prelude::any::<usize>(),
            path in proptest::collection::vec(
                (proptest::prelude::any::<[u8; 32]>(), proptest::prelude::any::<bool>()), 0..80),
            root in proptest::prelude::any::<[u8; 32]>(),
            keep_root in proptest::prelude::any::<bool>(),
        ) {
            let (mut rng, committer) = setup();
            let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 0);
            let mut chain = hash_batch(&mut rng, &mut tsa, &committer, 3, "fuzzed").remove(1);
            let slot = chain.links[0].proof.as_mut().unwrap();
            if !keep_root {
                slot.0 = root;
            }
            slot.1 = MerkleProof { leaf_index, path };
            assert!(matches!(
                verdict(&chain),
                Err(ChainInvalid::BadInclusion { link: 0 } | ChainInvalid::BadSignature { link: 0 })
            ));
        }
    }

    /// 33 chains from two creation batches (16 + 17), all under wots-v1.
    fn two_batches(
        rng: &mut ChaChaDrbg,
        tsa: &mut TimestampAuthority,
        committer: &Committer,
    ) -> Vec<DocumentChain> {
        let mut chains = hash_batch(rng, tsa, committer, 16, "first");
        chains.extend(hash_batch(rng, tsa, committer, 17, "second"));
        chains
    }

    #[test]
    fn batch_renewal_extends_lifetime_across_breaks() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let mut chains = two_batches(&mut rng, &mut tsa, &committer);
        let mut schedule = SigBreakSchedule::new();
        schedule.set_break("wots-v1", 2050);

        // One token in 2045, under a stronger scheme, over all 33 heads.
        tsa.advance_to(2045);
        tsa.rotate(&mut rng, "wots-v2", 3);
        DocumentChain::renew_many(&mut chains, &mut tsa).unwrap();
        assert_eq!(tsa.remaining(), 7);

        // In 2060, v1 is broken but every chain still verifies to 2026.
        for chain in &chains {
            assert_eq!(chain.len(), 2);
            assert_eq!(chain.verify(&schedule, 2060).unwrap(), 2026);
        }
    }

    #[test]
    fn late_batch_renewal_detected_for_every_member() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 3);
        let mut chains = two_batches(&mut rng, &mut tsa, &committer);
        let mut schedule = SigBreakSchedule::new();
        schedule.set_break("wots-v1", 2050);

        // Renewal happens in 2055 — AFTER the break. Invalid, all of them.
        tsa.advance_to(2055);
        tsa.rotate(&mut rng, "wots-v2", 3);
        DocumentChain::renew_many(&mut chains, &mut tsa).unwrap();
        for chain in &chains {
            assert_eq!(
                chain.verify(&schedule, 2060).unwrap_err(),
                ChainInvalid::RenewedTooLate { link: 0 }
            );
        }
    }

    #[test]
    fn failed_renewal_leaves_every_chain_as_it_was() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "wots-v1", 2026, 0); // 1 sig
        let mut chains = hash_batch(&mut rng, &mut tsa, &committer, 4, "stuck");
        assert!(DocumentChain::renew_many(&mut chains, &mut tsa).is_err());
        for chain in &chains {
            assert_eq!(chain.len(), 1);
            assert_eq!(verdict(chain), Ok(2026));
        }
    }

    #[test]
    fn authority_exhaustion_and_rotation() {
        let (mut rng, _) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "v1", 2026, 1); // 2 sigs
        tsa.issue(b"a").unwrap();
        tsa.issue(b"b").unwrap();
        assert!(tsa.issue(b"c").is_err());
        tsa.rotate(&mut rng, "v2", 1);
        assert_eq!(tsa.remaining(), 2);
        assert!(tsa.issue(b"c").is_ok());
        assert_eq!(tsa.scheme(), "v2");
    }

    #[test]
    fn non_monotonic_time_rejected() {
        let (mut rng, committer) = setup();
        let mut tsa = TimestampAuthority::new(&mut rng, "v1", 2030, 3);
        let mut chain = DocumentChain::create(
            &mut rng,
            &mut tsa,
            &committer,
            AnchorMode::HashDigest,
            b"doc",
        )
        .unwrap();
        // Manually fabricate an earlier-dated renewal by rebuilding a TSA
        // "in the past" — the chain must notice years decreasing.
        let mut past_tsa = TimestampAuthority::new(&mut rng, "v1", 2020, 3);
        chain.renew(&mut past_tsa).unwrap();
        assert_eq!(
            chain.verify(&SigBreakSchedule::new(), 2100).unwrap_err(),
            ChainInvalid::NonMonotonicTime
        );
    }
}
