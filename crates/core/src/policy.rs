//! Encoding policies: every data-at-rest design point from the paper's
//! Figure 1 and Table 1, behind one interface.
//!
//! [`PolicyKind`] is the *value* naming a design point and its
//! parameters. `PolicyKind::scheme` — one exhaustive `match` — says
//! which seal it puts in front of which dispersal ([`crate::codec`]);
//! encode is seal then disperse, decode is gather then open, and the
//! numbers the paper's maps give the point are [`PolicyKind::info`].
//! What remains local is the harvest-now-decrypt-later adversary model,
//! which spans families by construction.

use crate::codec::{Dispersal, PolicyInfo, Seal};
use crate::keys::KeyStore;
use crate::pipeline;
use aeon_adversary::CryptanalyticTimeline;
use aeon_crypto::{CryptoRng, SecurityLevel, SuiteId};
use aeon_secretshare::packed::PackedParams;

/// Errors from policy encoding and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// Policy parameters are invalid.
    InvalidPolicy(String),
    /// Not enough shards survive to decode.
    TooFewShards {
        /// Shards available.
        available: usize,
        /// Shards required.
        required: usize,
    },
    /// Decryption or authentication failed.
    CryptoFailure(String),
    /// Shards or metadata are malformed.
    Malformed(String),
}

impl core::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolicyError::InvalidPolicy(why) => write!(f, "invalid policy: {why}"),
            PolicyError::TooFewShards {
                available,
                required,
            } => {
                write!(f, "too few shards: {available} of {required}")
            }
            PolicyError::CryptoFailure(why) => write!(f, "crypto failure: {why}"),
            PolicyError::Malformed(why) => write!(f, "malformed data: {why}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// A data-at-rest encoding policy.
///
/// Each variant is one of the design points the paper surveys; see the
/// per-variant docs for where it sits on the Figure 1 cost/security map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyKind {
    /// Plain `n`-way replication: no confidentiality, maximal simplicity.
    Replication {
        /// Number of copies.
        copies: usize,
    },
    /// Systematic Reed–Solomon `[data + parity, data]`: availability at
    /// `n/k` cost, still no confidentiality.
    ErasureCoded {
        /// Data shards.
        data: usize,
        /// Parity shards.
        parity: usize,
    },
    /// Encrypt-then-erasure-code under a single suite (the commercial
    /// cloud default: AES + EC).
    Encrypted {
        /// The AEAD suite.
        suite: SuiteId,
        /// Data shards.
        data: usize,
        /// Parity shards.
        parity: usize,
    },
    /// Cascade (robust combiner) of several suites, then erasure code —
    /// the ArchiveSafeLT design.
    Cascade {
        /// Suites in application order.
        suites: Vec<SuiteId>,
        /// Data shards.
        data: usize,
        /// Parity shards.
        parity: usize,
    },
    /// AONT-RS dispersal (Cleversafe): keyless, computational.
    AontRs {
        /// Threshold shards.
        data: usize,
        /// Parity shards.
        parity: usize,
    },
    /// Shamir `t`-of-`n`: information-theoretic at `n×` cost (POTSHARDS).
    Shamir {
        /// Reconstruction threshold.
        threshold: usize,
        /// Share count.
        shares: usize,
    },
    /// Packed secret sharing: ITS below `privacy` shares at `n/k` cost.
    PackedShamir {
        /// Privacy threshold.
        privacy: usize,
        /// Secrets per polynomial.
        pack: usize,
        /// Share count.
        shares: usize,
    },
    /// Shamir wrapped by the leakage-resilient compiler.
    LeakageResilientShamir {
        /// Reconstruction threshold.
        threshold: usize,
        /// Share count.
        shares: usize,
        /// Extractor source length per share, bytes.
        source_len: usize,
    },
    /// Entropically secure encryption then erasure coding: ITS for
    /// high-entropy payloads at erasure-coding cost.
    Entropic {
        /// Data shards.
        data: usize,
        /// Parity shards.
        parity: usize,
    },
}

/// Per-object metadata produced at encode time and needed at decode time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingMeta {
    /// Master-key version used for key derivation (encrypted policies).
    pub key_version: u32,
    /// Packed-sharing parameters and true payload length.
    pub packed: Option<(PackedParams, usize)>,
    /// Entropic cipher public nonce.
    pub entropic_nonce: Option<[u8; 16]>,
    /// Present when the object went through the chunked pipeline
    /// ([`crate::pipeline`]); holds per-chunk decode metadata.
    pub chunked: Option<crate::pipeline::ChunkedMeta>,
}

impl EncodingMeta {
    pub(crate) fn plain(key_version: u32) -> Self {
        EncodingMeta {
            key_version,
            packed: None,
            entropic_nonce: None,
            chunked: None,
        }
    }
}

/// The product of encoding an object.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// One blob per storage node.
    pub shards: Vec<Vec<u8>>,
    /// Metadata required for decode.
    pub meta: EncodingMeta,
}

/// What an adversary recovered from harvested material.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// Full plaintext.
    Full(Vec<u8>),
    /// An estimated fraction of the plaintext.
    Partial(f64),
    /// Nothing.
    Nothing,
}

impl PolicyKind {
    /// The seal this policy puts in front of which dispersal — the one
    /// place a variant says how it encodes. The match has no wildcard
    /// arm, so a new variant does not compile until it names its pair.
    pub(crate) fn scheme(&self) -> (Seal<'_>, Dispersal) {
        match *self {
            PolicyKind::Replication { copies } => (Seal::Plain, Dispersal::Replicate { copies }),
            PolicyKind::ErasureCoded { data, parity } => {
                (Seal::Plain, Dispersal::Rs { data, parity })
            }
            PolicyKind::Encrypted {
                ref suite,
                data,
                parity,
            } => (Seal::Aead(suite), Dispersal::Rs { data, parity }),
            PolicyKind::Cascade {
                ref suites,
                data,
                parity,
            } => (Seal::Cascade(suites), Dispersal::Rs { data, parity }),
            PolicyKind::AontRs { data, parity } => (Seal::Aont, Dispersal::Rs { data, parity }),
            PolicyKind::Entropic { data, parity } => {
                (Seal::Entropic, Dispersal::Rs { data, parity })
            }
            PolicyKind::Shamir { threshold, shares } => {
                (Seal::Plain, Dispersal::Shamir { threshold, shares })
            }
            PolicyKind::PackedShamir {
                privacy,
                pack,
                shares,
            } => (
                Seal::Plain,
                Dispersal::Packed {
                    privacy,
                    pack,
                    shares,
                },
            ),
            PolicyKind::LeakageResilientShamir {
                threshold,
                shares,
                source_len,
            } => (
                Seal::Plain,
                Dispersal::Lrss {
                    threshold,
                    shares,
                    source_len,
                },
            ),
        }
    }

    /// Where this policy sits on the paper's maps: family name, shard
    /// geometry, analytic expansion, at-rest class and the suites
    /// guarding it.
    pub fn info(&self) -> PolicyInfo<'_> {
        let (seal, dispersal) = self.scheme();
        PolicyInfo::of(&seal, &dispersal)
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidPolicy`] describing the violation.
    pub fn validate(&self) -> Result<(), PolicyError> {
        let (seal, dispersal) = self.scheme();
        dispersal.validate()?;
        seal.validate()
    }

    /// Number of shards this policy produces per object.
    pub fn shard_count(&self) -> usize {
        self.info().shard_count
    }

    /// Minimum shards needed to read an object back.
    pub fn read_threshold(&self) -> usize {
        self.info().read_threshold
    }

    /// Analytic storage expansion (stored bytes / payload bytes, ignoring
    /// constant overheads).
    pub fn expansion(&self) -> f64 {
        self.info().expansion
    }

    /// The at-rest confidentiality classification against a
    /// *sub-threshold* adversary (fewer shards than the read threshold) —
    /// the sense in which the paper's Table 1 grades "Confidentiality: At
    /// Rest".
    pub fn at_rest_level(&self) -> SecurityLevel {
        self.info().at_rest_level
    }

    /// Encodes a payload into one blob per storage node: seal, then
    /// disperse.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] variants on invalid parameters or internal
    /// failures.
    pub fn encode<R: CryptoRng + ?Sized>(
        &self,
        rng: &mut R,
        keys: &KeyStore,
        object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        self.validate()?;
        let (seal, dispersal) = self.scheme();
        let mut meta = EncodingMeta::plain(keys.current_version());
        let sealed = seal.seal(rng, keys, object_id, payload, &mut meta)?;
        let shards = dispersal.disperse(rng, &sealed, &mut meta)?;
        Ok(Encoded { shards, meta })
    }

    /// Decodes an object from surviving shards: gather, then open.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::TooFewShards`] or decode failures.
    pub fn decode(
        &self,
        keys: &KeyStore,
        object_id: &str,
        shards: &[Option<Vec<u8>>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        self.decode_slices(keys, object_id, &borrowed, meta)
    }

    /// [`PolicyKind::decode`] from blobs borrowed where they were
    /// fetched: the read path's own entry.
    pub(crate) fn decode_slices(
        &self,
        keys: &KeyStore,
        object_id: &str,
        shards: &[Option<&[u8]>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let (seal, dispersal) = self.scheme();
        let sealed = dispersal.gather(shards, meta)?;
        seal.open(keys, object_id, meta, sealed)
    }

    /// Models what a harvest-now-decrypt-later adversary recovers at
    /// `year`, given it stole the stored blobs marked `Some` (plus all
    /// public metadata, including the chunk layout) and the timeline's
    /// cryptanalytic progress. Key material is assumed *not* stolen —
    /// pure HNDL. The `keys` store stands in for the cryptanalysis
    /// itself: when the timeline says a suite is broken, the model
    /// decrypts with the true key, which is exactly what a real break
    /// would permit.
    pub fn hndl_recover(
        &self,
        keys: &KeyStore,
        object_id: &str,
        stolen: &[Option<Vec<u8>>],
        meta: &EncodingMeta,
        timeline: &CryptanalyticTimeline,
        year: u32,
    ) -> Recovery {
        let have = stolen.iter().flatten().count();
        if have == 0 {
            return Recovery::Nothing;
        }
        let info = self.info();
        let threshold = info.read_threshold;
        // The stack guarding the at-rest bytes has fallen (vacuously so
        // for plaintext and information-theoretic encodings).
        let suites_fallen = (timeline.ciphers().stack_fall(info.at_rest_suites)).has_fallen(year);
        let decode = || match pipeline::decode_object(self, keys, object_id, stolen, meta, 1) {
            Ok(pt) => Recovery::Full(pt),
            Err(_) => Recovery::Nothing,
        };
        // Systematic dispersal: each stolen data shard exposes its own
        // span of the (by then readable) dispersed bytes.
        let data_stolen = stolen.iter().take(threshold).flatten().count();
        let data_fraction = data_stolen as f64 / threshold as f64;
        match self {
            PolicyKind::Replication { .. }
            | PolicyKind::ErasureCoded { .. }
            | PolicyKind::Encrypted { .. }
            | PolicyKind::Cascade { .. } => {
                // Plaintext, or ciphertext that is plaintext once its
                // suite — every layer, for a cascade — has fallen.
                if !suites_fallen {
                    return Recovery::Nothing;
                }
                match decode() {
                    Recovery::Nothing if data_stolen > 0 => Recovery::Partial(data_fraction),
                    recovered => recovered,
                }
            }
            PolicyKind::AontRs { .. } => match decode() {
                // No key to steal: possession of `t` shards is
                // decryption, today, with no break needed. Below that,
                // a broken cipher yields `k` without the difference
                // block and the stolen data shards' spans decrypt.
                Recovery::Nothing if suites_fallen => Recovery::Partial(data_fraction),
                recovered => recovered,
            },
            PolicyKind::Shamir { .. } | PolicyKind::LeakageResilientShamir { .. } => {
                if have >= threshold {
                    decode()
                } else {
                    Recovery::Nothing
                }
            }
            PolicyKind::PackedShamir { privacy, pack, .. } => {
                if have >= threshold {
                    decode()
                } else if have > *privacy {
                    // Between t and t+k shares: the adversary pins the
                    // secrets to a shrinking affine subspace — model as a
                    // proportional partial leak.
                    Recovery::Partial((have - privacy) as f64 / *pack as f64)
                } else {
                    Recovery::Nothing
                }
            }
            PolicyKind::Entropic { .. } => {
                // ITS for high-entropy payloads: the δ-biased pad never
                // "breaks"; the archive enforces the entropy precondition
                // at ingest.
                Recovery::Nothing
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn fixtures() -> (ChaChaDrbg, KeyStore) {
        (ChaChaDrbg::from_u64_seed(2024), KeyStore::new([5u8; 32]))
    }

    /// One policy of each of the nine families, at the parameters the
    /// crate's unit tests share.
    pub(crate) fn all_policies() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Replication { copies: 3 },
            PolicyKind::ErasureCoded { data: 4, parity: 2 },
            PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            },
            PolicyKind::Cascade {
                suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
                data: 4,
                parity: 2,
            },
            PolicyKind::AontRs { data: 4, parity: 2 },
            PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            },
            PolicyKind::PackedShamir {
                privacy: 2,
                pack: 2,
                shares: 6,
            },
            PolicyKind::LeakageResilientShamir {
                threshold: 3,
                shares: 5,
                source_len: 32,
            },
            PolicyKind::Entropic { data: 4, parity: 2 },
        ]
    }

    #[test]
    fn every_policy_roundtrips() {
        let (mut rng, keys) = fixtures();
        let payload = b"the archived object payload, long enough to stripe";
        for policy in all_policies() {
            let enc = policy.encode(&mut rng, &keys, "obj-1", payload).unwrap();
            assert_eq!(enc.shards.len(), policy.shard_count(), "{policy:?}");
            let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let dec = policy.decode(&keys, "obj-1", &shards, &enc.meta).unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn every_policy_survives_maximum_loss() {
        let (mut rng, keys) = fixtures();
        let payload: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        for policy in all_policies() {
            let enc = policy.encode(&mut rng, &keys, "obj-2", &payload).unwrap();
            let n = policy.shard_count();
            let t = policy.read_threshold();
            let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            // Drop the first n - t shards.
            for s in shards.iter_mut().take(n - t) {
                *s = None;
            }
            let dec = policy.decode(&keys, "obj-2", &shards, &enc.meta).unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn every_policy_fails_below_threshold() {
        let (mut rng, keys) = fixtures();
        let payload = b"below threshold";
        for policy in all_policies() {
            if policy.read_threshold() == 1 {
                continue; // replication can't go below threshold non-trivially
            }
            let enc = policy.encode(&mut rng, &keys, "obj-3", payload).unwrap();
            let t = policy.read_threshold();
            let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            // Keep only t - 1 shards.
            let mut kept = 0;
            for s in shards.iter_mut() {
                if s.is_some() {
                    if kept >= t - 1 {
                        *s = None;
                    } else {
                        kept += 1;
                    }
                }
            }
            assert!(
                policy.decode(&keys, "obj-3", &shards, &enc.meta).is_err(),
                "{policy:?} decoded below threshold"
            );
        }
    }

    #[test]
    fn wrong_object_id_fails_for_authenticated_policies() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Encrypted {
            suite: SuiteId::ChaCha20Poly1305,
            data: 2,
            parity: 1,
        };
        let enc = policy.encode(&mut rng, &keys, "obj-A", b"bound").unwrap();
        let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        assert!(policy.decode(&keys, "obj-B", &shards, &enc.meta).is_err());
    }

    /// Every family reads back after a master-key rotation:
    /// `meta.key_version` pins the master each object was sealed under.
    #[test]
    fn key_rotation_keeps_old_objects_readable() {
        for policy in all_policies() {
            let (mut rng, mut keys) = fixtures();
            let mut payload = vec![0u8; 256];
            rng.fill_bytes(&mut payload);
            let enc = policy.encode(&mut rng, &keys, "obj", &payload).unwrap();
            keys.rotate([99u8; 32]);
            let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let decoded = policy.decode(&keys, "obj", &shards, &enc.meta).unwrap();
            assert!(decoded == payload, "{}", policy.info().family);
        }
    }

    #[test]
    fn at_rest_levels_match_table1() {
        use SecurityLevel::*;
        let expect = [
            (PolicyKind::Replication { copies: 3 }, None),
            (PolicyKind::ErasureCoded { data: 4, parity: 2 }, None),
            (
                PolicyKind::Encrypted {
                    suite: SuiteId::Aes256CtrHmac,
                    data: 4,
                    parity: 2,
                },
                Computational,
            ),
            (PolicyKind::AontRs { data: 4, parity: 2 }, Computational),
            (
                PolicyKind::Shamir {
                    threshold: 3,
                    shares: 5,
                },
                InformationTheoretic,
            ),
            (PolicyKind::Entropic { data: 4, parity: 2 }, EntropicIts),
        ];
        for (policy, level) in expect {
            assert_eq!(policy.at_rest_level(), level, "{policy:?}");
        }
    }

    #[test]
    fn expansions() {
        assert!((PolicyKind::Replication { copies: 3 }.expansion() - 3.0).abs() < 1e-9);
        assert!((PolicyKind::ErasureCoded { data: 4, parity: 2 }.expansion() - 1.5).abs() < 1e-9);
        assert!(
            (PolicyKind::Shamir {
                threshold: 3,
                shares: 5
            }
            .expansion()
                - 5.0)
                .abs()
                < 1e-9
        );
        assert!(
            (PolicyKind::PackedShamir {
                privacy: 2,
                pack: 4,
                shares: 12
            }
            .expansion()
                - 3.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(PolicyKind::Replication { copies: 0 }.validate().is_err());
        assert!(PolicyKind::ErasureCoded { data: 0, parity: 1 }
            .validate()
            .is_err());
        assert!(PolicyKind::Cascade {
            suites: vec![],
            data: 2,
            parity: 1
        }
        .validate()
        .is_err());
        assert!(PolicyKind::Cascade {
            suites: vec![SuiteId::OneTimePad],
            data: 2,
            parity: 1
        }
        .validate()
        .is_err());
        assert!(PolicyKind::Shamir {
            threshold: 6,
            shares: 5
        }
        .validate()
        .is_err());
        assert!(PolicyKind::LeakageResilientShamir {
            threshold: 2,
            shares: 3,
            source_len: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hndl_encrypted_falls_with_its_suite() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Encrypted {
            suite: SuiteId::Aes256CtrHmac,
            data: 2,
            parity: 1,
        };
        let enc = policy
            .encode(&mut rng, &keys, "hndl", b"harvested!")
            .unwrap();
        let stolen: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        assert_eq!(
            policy.hndl_recover(&keys, "hndl", &stolen, &enc.meta, &timeline, 2040),
            Recovery::Nothing
        );
        assert_eq!(
            policy.hndl_recover(&keys, "hndl", &stolen, &enc.meta, &timeline, 2050),
            Recovery::Full(b"harvested!".to_vec())
        );
    }

    #[test]
    fn hndl_cascade_needs_all_layers_broken() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac, SuiteId::ChaCha20Poly1305],
            data: 2,
            parity: 1,
        };
        let enc = policy.encode(&mut rng, &keys, "casc", b"layered").unwrap();
        let stolen: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let timeline = CryptanalyticTimeline::pessimistic_2045(); // AES 2045, ChaCha 2060
        assert_eq!(
            policy.hndl_recover(&keys, "casc", &stolen, &enc.meta, &timeline, 2050),
            Recovery::Nothing,
            "one unbroken layer must protect the cascade"
        );
        assert_eq!(
            policy.hndl_recover(&keys, "casc", &stolen, &enc.meta, &timeline, 2060),
            Recovery::Full(b"layered".to_vec())
        );
    }

    #[test]
    fn hndl_shamir_immune_below_threshold_forever() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        };
        let enc = policy.encode(&mut rng, &keys, "its", b"eternal").unwrap();
        let mut stolen: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        stolen[0] = None;
        stolen[1] = None;
        stolen[2] = None; // only 2 of 5 stolen
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        assert_eq!(
            policy.hndl_recover(&keys, "its", &stolen, &enc.meta, &timeline, 99_999),
            Recovery::Nothing
        );
        // But a threshold haul needs no break at all.
        let full: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        assert_eq!(
            policy.hndl_recover(&keys, "its", &full, &enc.meta, &timeline, 2026),
            Recovery::Full(b"eternal".to_vec())
        );
    }

    #[test]
    fn hndl_erasure_leaks_immediately() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::ErasureCoded { data: 4, parity: 2 };
        let enc = policy
            .encode(&mut rng, &keys, "plain", b"no confidentiality here")
            .unwrap();
        let mut stolen: Vec<Option<Vec<u8>>> = vec![None; 6];
        stolen[0] = Some(enc.shards[0].clone()); // one data shard
        let timeline = CryptanalyticTimeline::optimistic();
        match policy.hndl_recover(&keys, "plain", &stolen, &enc.meta, &timeline, 2026) {
            Recovery::Partial(f) => assert!((f - 0.25).abs() < 1e-9),
            other => panic!("expected partial leak, got {other:?}"),
        }
    }

    #[test]
    fn hndl_entropic_never_recovered() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Entropic { data: 2, parity: 1 };
        let enc = policy
            .encode(&mut rng, &keys, "ent", b"high entropy assumed")
            .unwrap();
        let stolen: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        let timeline = CryptanalyticTimeline::pessimistic_2045();
        assert_eq!(
            policy.hndl_recover(&keys, "ent", &stolen, &enc.meta, &timeline, 99_999),
            Recovery::Nothing
        );
    }

    #[test]
    fn hndl_aont_needs_no_break_at_threshold() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::AontRs { data: 2, parity: 1 };
        let enc = policy
            .encode(&mut rng, &keys, "aont", b"stolen at threshold")
            .unwrap();
        let stolen = vec![
            Some(enc.shards[0].clone()),
            Some(enc.shards[1].clone()),
            None,
        ];
        let timeline = CryptanalyticTimeline::optimistic();
        assert_eq!(
            policy.hndl_recover(&keys, "aont", &stolen, &enc.meta, &timeline, 2026),
            Recovery::Full(b"stolen at threshold".to_vec())
        );
    }

    #[test]
    fn hndl_aont_subthreshold_safe_until_break() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::AontRs { data: 3, parity: 2 };
        let enc = policy
            .encode(&mut rng, &keys, "aont", b"harvest me")
            .unwrap();
        let timeline = CryptanalyticTimeline::pessimistic_2045(); // AES 2045
        let recover = |stolen: &[Option<Vec<u8>>], year| {
            policy.hndl_recover(&keys, "aont", stolen, &enc.meta, &timeline, year)
        };
        let one_data = vec![Some(enc.shards[0].clone()), None, None, None, None];
        assert_eq!(recover(&one_data, 2040), Recovery::Nothing);
        match recover(&one_data, 2050) {
            Recovery::Partial(f) => assert!((f - 1.0 / 3.0).abs() < 1e-9),
            other => panic!("expected partial, got {other:?}"),
        }
        // A parity-only haul under a broken cipher spans no payload
        // bytes: AONT-RS reports that as an empty partial leak.
        let one_parity = vec![None, None, None, Some(enc.shards[3].clone()), None];
        assert_eq!(recover(&one_parity, 2050), Recovery::Partial(0.0));
    }

    /// The adversary steals stored blobs, and an object over the chunk
    /// size is stored framed: the model must read the haul through the
    /// chunk layout, not as one codeword.
    #[test]
    fn hndl_reads_multi_chunk_hauls_through_the_layout() {
        let keys = KeyStore::new([5u8; 32]);
        let payload: Vec<u8> = (0..2_500u32).map(|i| (i * 31 % 251) as u8).collect();
        let cfg = pipeline::PipelineConfig::serial().with_chunk_size(1024);
        let timeline = CryptanalyticTimeline::pessimistic_2045(); // AES 2045
        let full = Recovery::Full(payload.clone());
        let cases = [
            (PolicyKind::ErasureCoded { data: 4, parity: 2 }, 2026, &full),
            (
                PolicyKind::Shamir {
                    threshold: 3,
                    shares: 5,
                },
                2026,
                &full,
            ),
            (PolicyKind::AontRs { data: 4, parity: 2 }, 2026, &full),
            (
                PolicyKind::Encrypted {
                    suite: SuiteId::Aes256CtrHmac,
                    data: 4,
                    parity: 2,
                },
                2040,
                &Recovery::Nothing,
            ),
            (
                PolicyKind::Encrypted {
                    suite: SuiteId::Aes256CtrHmac,
                    data: 4,
                    parity: 2,
                },
                2050,
                &full,
            ),
        ];
        for (policy, year, expected) in cases {
            let mut rng = ChaChaDrbg::from_u64_seed(2024);
            let enc =
                pipeline::encode_object(&policy, &keys, &mut rng, "big", &payload, &cfg).unwrap();
            assert_eq!(enc.meta.chunked.as_ref().unwrap().chunk_count(), 3);
            let stolen: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let got = policy.hndl_recover(&keys, "big", &stolen, &enc.meta, &timeline, year);
            let shown = match &got {
                Recovery::Full(pt) => format!("Full of {} bytes", pt.len()),
                other => format!("{other:?}"),
            };
            assert!(&got == expected, "{policy:?} in {year}: {shown}");
        }
    }
}
