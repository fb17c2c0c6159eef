//! Codecs: a policy's encoding is a seal in front of a dispersal.
//!
//! The paper's crypto-agility argument (§3.2) demands that *how bytes
//! are encoded* be swappable independently of *where shards live*. This
//! module is the "how" half of that seam. Every [`PolicyKind`] names a
//! [`Codec`] ([`PolicyKind::codec`] is the one `match`), and the design
//! points of Figure 1 / Table 1 are compositions of two choices:
//!
//! * five families disperse with Reed–Solomon and differ only in the
//!   confidentiality transform applied first — nothing (erasure coding),
//!   one AEAD (commercial cloud), a cascade (ArchiveSafeLT), an
//!   all-or-nothing package (AONT-RS), a δ-biased pad (entropic). They
//!   are one codec, `RsDispersed`, with a `Seal`;
//! * replication, Shamir, packed sharing and leakage-resilient sharing
//!   share no dispersal with anything else and keep their own codecs.
//!
//! The per-family knowledge (shard counts, thresholds, analytic
//! expansion, at-rest security class, partial repair, layered re-wrap)
//! lives here and nowhere else.
//!
//! Codecs are **pure**: they transform bytes and never touch storage
//! nodes. All node I/O belongs to [`crate::executor::PlanExecutor`].
//! Object safety matters — plans hold `Box<dyn Codec>` — so encode
//! takes `&mut dyn CryptoRng`; the free
//! [`aeon_crypto::random_array`] keeps array draws byte-stream-
//! identical to the sized [`CryptoRng::gen_array`] path.

use crate::aont;
use crate::keys::KeyStore;
use crate::policy::{Encoded, EncodingMeta, PolicyError, PolicyKind};
use aeon_crypto::cascade::Cascade;
use aeon_crypto::entropic::{EntropicCipher, EntropicCiphertext};
use aeon_crypto::suite::SuiteCipher;
use aeon_crypto::{aead, CryptoRng, SecurityLevel, SuiteId, SuiteRegistry};
use aeon_erasure::{CodeError, ErasureCode, ReedSolomon, Replicator};
use aeon_gf::Gf256;
use aeon_secretshare::lrss::{self, LrssParams, LrssShare};
use aeon_secretshare::packed::{self, PackedParams, PackedShare};
use aeon_secretshare::shamir::{self, Share};
use std::borrow::Cow;
use std::fmt;

/// How a repair was performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairMethod {
    /// Nothing was missing.
    NotNeeded,
    /// Lost shards recomputed in place from survivors (MDS property).
    PartialErasure,
    /// Lost shares re-derived at their evaluation points (Shamir).
    PartialShamir,
    /// Whole object decoded and re-encoded (policies without partial
    /// repair structure).
    FullReencode,
}

/// Outcome of a codec's partial-repair attempt on one chunk's shard
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecRepair {
    /// Every shard slot rebuilt from the survivors, survivors included
    /// unchanged. The caller writes back only the slots it knows were
    /// missing.
    Rebuilt {
        /// The complete shard set, in slot order.
        shards: Vec<Vec<u8>>,
        /// How the rebuild was done.
        method: RepairMethod,
    },
    /// The family has no per-shard repair structure (AONT packages,
    /// LRSS wrappers), or does not use the one it has: the caller must
    /// decode the object and re-encode it from scratch. Packed sharing is
    /// the second kind — a lost share is
    /// `lagrange_coefficients(survivor_xs, i)` applied to `privacy + pack`
    /// surviving shares in one fused row pass, the generator-matrix form
    /// `aeon_secretshare::packed` already encodes with — and
    /// `PackedShamirCodec` keeps the default until that lands.
    FullReencode,
}

/// Errors from [`Codec::repair_chunk`].
#[derive(Debug)]
pub enum RepairError {
    /// Parameter or shard-data failure.
    Policy(PolicyError),
    /// Secret-sharing protocol failure (Shamir re-derivation).
    Share(aeon_secretshare::ShareError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Policy(e) => write!(f, "policy: {e}"),
            RepairError::Share(e) => write!(f, "secret sharing: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// A self-contained at-rest encoding family.
///
/// A codec owns everything [`PolicyKind`] needs to know about its
/// family: parameter validation, shard geometry, analytic cost, the
/// at-rest confidentiality class, encode/decode, and the optional
/// partial-repair and layered re-wrap hooks. Implementations are pure
/// byte transforms — no storage I/O, no global state — and object-safe
/// (`Box<dyn Codec>`), which is why [`Codec::encode`] takes
/// `&mut dyn CryptoRng` rather than a generic parameter.
pub trait Codec: fmt::Debug {
    /// Short family name (for diagnostics and listings).
    fn family(&self) -> &'static str;

    /// Validates the family parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidPolicy`] describing the violation.
    fn validate(&self) -> Result<(), PolicyError>;

    /// Number of shards produced per object.
    fn shard_count(&self) -> usize;

    /// Minimum shards needed to read an object back.
    fn read_threshold(&self) -> usize;

    /// Analytic storage expansion (stored bytes / payload bytes,
    /// ignoring constant overheads).
    fn expansion(&self) -> f64;

    /// The at-rest confidentiality classification against a
    /// *sub-threshold* adversary (fewer shards than the read
    /// threshold) — the sense in which the paper's Table 1 grades
    /// "Confidentiality: At Rest".
    fn at_rest_level(&self) -> SecurityLevel;

    /// Ordinal position on Figure 1's security axis (0 = none … 4 =
    /// ITS with leakage resilience). Derived from
    /// [`Codec::at_rest_level`] by default; leakage-resilient families
    /// override it to rank above plain ITS.
    fn security_ordinal(&self) -> u8 {
        match self.at_rest_level() {
            SecurityLevel::None => 0,
            SecurityLevel::Computational => 1,
            SecurityLevel::EntropicIts => 2,
            SecurityLevel::InformationTheoretic => 3,
        }
    }

    /// AEAD suites protecting at-rest bytes under this family (empty
    /// for plaintext and information-theoretic families). The planner
    /// uses this to schedule re-encode campaigns ahead of suite breaks.
    fn at_rest_suites(&self) -> Vec<SuiteId> {
        Vec::new()
    }

    /// Encodes a payload into one blob per storage node.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] variants on invalid parameters or
    /// internal failures.
    fn encode(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError>;

    /// Decodes an object from surviving shards.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::TooFewShards`] or decode failures.
    fn decode(
        &self,
        keys: &KeyStore,
        object_id: &str,
        shards: &[Option<Vec<u8>>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError>;

    /// Attempts a partial repair of one chunk's shard set (`None`
    /// slots are missing). The default is [`CodecRepair::FullReencode`]
    /// — families with per-shard structure (MDS codes, Shamir
    /// polynomials, replicas) override it.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError`] when too few survivors remain.
    fn repair_chunk(&self, shards: &[Option<Vec<u8>>]) -> Result<CodecRepair, RepairError> {
        let _ = shards;
        Ok(CodecRepair::FullReencode)
    }

    /// Applies an emergency outer re-wrap to one chunk's shard set
    /// *without decrypting inner layers*, returning the full new shard
    /// set. Only layered families (Cascade) support this.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidPolicy`] for families without a
    /// layered structure, and shard/crypto errors otherwise.
    fn rewrap_chunk(
        &self,
        keys: &KeyStore,
        context: &str,
        key_version: u32,
        shards: &[Option<Vec<u8>>],
        new_suite: SuiteId,
    ) -> Result<Vec<Vec<u8>>, PolicyError> {
        let _ = (keys, context, key_version, shards, new_suite);
        Err(no_rewrap())
    }

    /// The policy value describing this family after a
    /// [`Codec::rewrap_chunk`] with `new_suite`, or `None` for families
    /// that do not re-wrap.
    fn rewrapped_policy(&self, new_suite: SuiteId) -> Option<PolicyKind> {
        let _ = new_suite;
        None
    }
}

// ---------------------------------------------------------------------
// Shared helpers.

/// The one erasure-layer error mapping: scarcity stays typed, anything
/// else is malformed input.
fn code_err(e: CodeError) -> PolicyError {
    match e {
        CodeError::TooFewShards {
            available,
            required,
        } => PolicyError::TooFewShards {
            available,
            required,
        },
        other => PolicyError::Malformed(other.to_string()),
    }
}

fn no_rewrap() -> PolicyError {
    PolicyError::InvalidPolicy("policy does not support layered re-wrap".into())
}

fn crypto_err(e: impl fmt::Display) -> PolicyError {
    PolicyError::CryptoFailure(e.to_string())
}

fn share_err(required: usize) -> impl Fn(aeon_secretshare::ShareError) -> PolicyError {
    move |e| match e {
        aeon_secretshare::ShareError::TooFewShares { provided, .. } => PolicyError::TooFewShards {
            available: provided,
            required,
        },
        other => PolicyError::Malformed(other.to_string()),
    }
}

fn collect_shamir(shards: &[Option<Vec<u8>>]) -> Vec<Share> {
    shards
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            s.as_ref().map(|bytes| Share {
                index: (i + 1) as u8,
                data: bytes.clone(),
            })
        })
        .collect()
}

fn serialize_lrss(share: &LrssShare) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + share.stored_len());
    out.extend_from_slice(&(share.source.len() as u32).to_be_bytes());
    out.extend_from_slice(&share.source);
    out.extend_from_slice(&(share.seed.len() as u32).to_be_bytes());
    out.extend_from_slice(&share.seed);
    out.extend_from_slice(&(share.masked.len() as u32).to_be_bytes());
    out.extend_from_slice(&share.masked);
    out
}

fn deserialize_lrss(index: u8, bytes: &[u8]) -> Option<LrssShare> {
    let mut pos = 0usize;
    let mut take = |bytes: &[u8]| -> Option<Vec<u8>> {
        if pos + 4 > bytes.len() {
            return None;
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().ok()?) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return None;
        }
        let out = bytes[pos..pos + len].to_vec();
        pos += len;
        Some(out)
    };
    let source = take(bytes)?;
    let seed = take(bytes)?;
    let masked = take(bytes)?;
    Some(LrssShare {
        index,
        source,
        seed,
        masked,
    })
}

// ---------------------------------------------------------------------
// The family codecs.

/// Plain `n`-way replication: no confidentiality, maximal simplicity.
#[derive(Debug, Clone)]
pub struct ReplicationCodec {
    /// Number of copies.
    pub copies: usize,
}

impl Codec for ReplicationCodec {
    fn family(&self) -> &'static str {
        "replication"
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.copies == 0 {
            return Err(PolicyError::InvalidPolicy(
                "replication needs at least one copy".to_string(),
            ));
        }
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.copies
    }

    fn read_threshold(&self) -> usize {
        1
    }

    fn expansion(&self) -> f64 {
        self.copies as f64
    }

    fn at_rest_level(&self) -> SecurityLevel {
        SecurityLevel::None
    }

    fn encode(
        &self,
        _rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        _object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        let rep = Replicator::new(self.copies).map_err(code_err)?;
        Ok(Encoded {
            shards: rep.encode(payload).map_err(code_err)?,
            meta: EncodingMeta::plain(keys.current_version()),
        })
    }

    fn decode(
        &self,
        _keys: &KeyStore,
        _object_id: &str,
        shards: &[Option<Vec<u8>>],
        _meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let rep = Replicator::new(self.copies).map_err(code_err)?;
        rep.decode(shards).map_err(code_err)
    }

    fn repair_chunk(&self, shards: &[Option<Vec<u8>>]) -> Result<CodecRepair, RepairError> {
        // Any surviving replica is the object.
        let replica = shards
            .iter()
            .flatten()
            .next()
            .cloned()
            .ok_or(RepairError::Policy(PolicyError::TooFewShards {
                available: 0,
                required: 1,
            }))?;
        Ok(CodecRepair::Rebuilt {
            shards: vec![replica; shards.len()],
            method: RepairMethod::PartialErasure,
        })
    }
}

/// The confidentiality transform an [`RsDispersed`] policy applies
/// before dispersal — the only part of the five Reed–Solomon families
/// that differs.
#[derive(Debug, Clone)]
pub(crate) enum Seal {
    /// None: plain erasure coding.
    Plain,
    /// One AEAD suite (the commercial cloud default: AES + EC).
    Aead(SuiteId),
    /// A cascade (robust combiner) of suites in application order — the
    /// ArchiveSafeLT design.
    Cascade(Vec<SuiteId>),
    /// The keyless all-or-nothing package of AONT-RS (Cleversafe).
    Aont,
    /// The entropically secure δ-biased pad: ITS for high-entropy
    /// payloads.
    Entropic,
}

fn aead_cipher(suite: SuiteId, key: &[u8; 32]) -> Result<SuiteCipher, PolicyError> {
    SuiteRegistry::new()
        .instantiate(suite, key)
        .ok_or_else(|| PolicyError::InvalidPolicy(format!("{suite} is not an AEAD")))
}

impl Seal {
    /// Seals `payload` under `context` with the current master key and
    /// returns the bytes to disperse — the caller's own slice when there
    /// is no transform — recording in `meta` whatever [`Seal::open`]
    /// will need beyond the key version.
    fn seal<'a>(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        context: &str,
        payload: &'a [u8],
        meta: &mut EncodingMeta,
    ) -> Result<Cow<'a, [u8]>, PolicyError> {
        let aad = context.as_bytes();
        let sealed = match self {
            Seal::Plain => return Ok(Cow::Borrowed(payload)),
            Seal::Aead(suite) => aead_cipher(*suite, &keys.object_key(context, 0))?.seal(
                &aead::derive_nonce(aad),
                aad,
                payload,
            ),
            Seal::Cascade(suites) => Cascade::new(suites, &keys.object_key(context, 0))
                .map_err(crypto_err)?
                .encrypt(aad, payload),
            Seal::Aont => aont::package(rng, payload),
            Seal::Entropic => {
                let ct = EntropicCipher::new(keys.entropic_key(context)).encrypt(rng, payload);
                meta.entropic_nonce = Some(ct.nonce);
                ct.body
            }
        };
        Ok(Cow::Owned(sealed))
    }

    /// Opens the bytes the dispersal gave back — the inverse of
    /// [`Seal::seal`] under the key version and nonce in `meta`.
    fn open(
        &self,
        keys: &KeyStore,
        context: &str,
        meta: &EncodingMeta,
        sealed: Vec<u8>,
    ) -> Result<Vec<u8>, PolicyError> {
        let aad = context.as_bytes();
        let key = || keys.object_key_for_version(meta.key_version, context, 0);
        match self {
            Seal::Plain => Ok(sealed),
            Seal::Aead(suite) => aead_cipher(*suite, &key())?
                .open(&aead::derive_nonce(aad), aad, &sealed)
                .map_err(|_| PolicyError::CryptoFailure("AEAD open failed".into())),
            Seal::Cascade(suites) => Cascade::new(suites, &key())
                .map_err(crypto_err)?
                .decrypt(aad, &sealed)
                .map_err(crypto_err),
            Seal::Aont => {
                aont::unpackage(&sealed).map_err(|e| PolicyError::Malformed(e.to_string()))
            }
            Seal::Entropic => {
                let Some(nonce) = meta.entropic_nonce else {
                    return Err(PolicyError::Malformed("missing entropic nonce".into()));
                };
                let cipher = EntropicCipher::new(keys.entropic_key(context));
                Ok(cipher.decrypt(&EntropicCiphertext {
                    nonce,
                    body: sealed,
                }))
            }
        }
    }
}

/// A [`Seal`] in front of systematic Reed–Solomon `[data + parity,
/// data]` dispersal: availability at `n/k` cost, confidentiality
/// whatever the seal provides. The stored shards are code symbols of
/// the *sealed* bytes, so repair and re-wrap never see plaintext.
#[derive(Debug, Clone)]
pub(crate) struct RsDispersed {
    /// The transform applied before dispersal.
    pub(crate) seal: Seal,
    /// Data (threshold) shards.
    pub(crate) data: usize,
    /// Parity shards.
    pub(crate) parity: usize,
}

impl RsDispersed {
    fn rs(&self) -> Result<ReedSolomon, PolicyError> {
        ReedSolomon::new(self.data, self.parity).map_err(code_err)
    }
}

impl Codec for RsDispersed {
    fn family(&self) -> &'static str {
        match self.seal {
            Seal::Plain => "erasure",
            Seal::Aead(_) => "encrypted",
            Seal::Cascade(_) => "cascade",
            Seal::Aont => "aont-rs",
            Seal::Entropic => "entropic",
        }
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.data == 0 || self.parity == 0 || self.data + self.parity > 255 {
            return Err(PolicyError::InvalidPolicy(
                "erasure parameters must satisfy 1 <= data, parity and n <= 255".to_string(),
            ));
        }
        if let Seal::Cascade(suites) = &self.seal {
            if suites.is_empty() {
                return Err(PolicyError::InvalidPolicy(
                    "cascade needs at least one suite".to_string(),
                ));
            }
            if suites.iter().any(|s| s.is_information_theoretic()) {
                return Err(PolicyError::InvalidPolicy(
                    "cascade layers must be AEAD suites".to_string(),
                ));
            }
        }
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.data + self.parity
    }

    fn read_threshold(&self) -> usize {
        self.data
    }

    fn expansion(&self) -> f64 {
        (self.data + self.parity) as f64 / self.data as f64
    }

    fn at_rest_level(&self) -> SecurityLevel {
        match self.seal {
            Seal::Plain => SecurityLevel::None,
            Seal::Aead(_) | Seal::Cascade(_) | Seal::Aont => SecurityLevel::Computational,
            Seal::Entropic => SecurityLevel::EntropicIts,
        }
    }

    fn at_rest_suites(&self) -> Vec<SuiteId> {
        match &self.seal {
            Seal::Plain | Seal::Entropic => Vec::new(),
            Seal::Aead(suite) => vec![*suite],
            Seal::Cascade(suites) => suites.clone(),
            Seal::Aont => vec![SuiteId::Aes256CtrHmac],
        }
    }

    fn encode(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        let mut meta = EncodingMeta::plain(keys.current_version());
        let sealed = self.seal.seal(rng, keys, object_id, payload, &mut meta)?;
        let shards = self.rs()?.encode(&sealed).map_err(code_err)?;
        Ok(Encoded { shards, meta })
    }

    fn decode(
        &self,
        keys: &KeyStore,
        object_id: &str,
        shards: &[Option<Vec<u8>>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let sealed = self.rs()?.decode(shards).map_err(code_err)?;
        self.seal.open(keys, object_id, meta, sealed)
    }

    /// Rebuilds missing rows of the codeword set in place: the stored
    /// shards ARE code symbols, so the sealed bytes are never touched.
    fn repair_chunk(&self, shards: &[Option<Vec<u8>>]) -> Result<CodecRepair, RepairError> {
        let rs = self.rs().map_err(RepairError::Policy)?;
        let rebuilt = rs.reconstruct_shards(shards).map_err(code_err);
        Ok(CodecRepair::Rebuilt {
            shards: rebuilt.map_err(RepairError::Policy)?,
            method: RepairMethod::PartialErasure,
        })
    }

    fn rewrap_chunk(
        &self,
        keys: &KeyStore,
        context: &str,
        key_version: u32,
        shards: &[Option<Vec<u8>>],
        new_suite: SuiteId,
    ) -> Result<Vec<Vec<u8>>, PolicyError> {
        let Seal::Cascade(suites) = &self.seal else {
            return Err(no_rewrap());
        };
        // Rebuild the layered ciphertext from the erasure code, apply
        // one more AEAD layer, re-encode. No plaintext, no inner keys.
        let rs = self.rs()?;
        let ct = rs.decode(shards).map_err(code_err)?;
        let master = keys.object_key_for_version(key_version, context, 0);
        let mut cascade = Cascade::new(suites, &master).map_err(crypto_err)?;
        let old_depth = cascade.depth();
        cascade.add_layer(new_suite, &master).map_err(crypto_err)?;
        let rewrapped = cascade.rewrap(context.as_bytes(), &ct, old_depth);
        rs.encode(&rewrapped).map_err(code_err)
    }

    fn rewrapped_policy(&self, new_suite: SuiteId) -> Option<PolicyKind> {
        let Seal::Cascade(suites) = &self.seal else {
            return None;
        };
        Some(PolicyKind::Cascade {
            suites: suites.iter().copied().chain([new_suite]).collect(),
            data: self.data,
            parity: self.parity,
        })
    }
}

/// Shamir `t`-of-`n`: information-theoretic at `n×` cost (POTSHARDS).
#[derive(Debug, Clone)]
pub struct ShamirCodec {
    /// Reconstruction threshold.
    pub threshold: usize,
    /// Share count.
    pub shares: usize,
}

impl Codec for ShamirCodec {
    fn family(&self) -> &'static str {
        "shamir"
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.threshold == 0 || self.threshold > self.shares || self.shares > 255 {
            return Err(PolicyError::InvalidPolicy(
                "Shamir parameters must satisfy 1 <= t <= n <= 255".to_string(),
            ));
        }
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.shares
    }

    fn read_threshold(&self) -> usize {
        self.threshold
    }

    fn expansion(&self) -> f64 {
        self.shares as f64
    }

    fn at_rest_level(&self) -> SecurityLevel {
        SecurityLevel::InformationTheoretic
    }

    fn encode(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        _object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        let out = shamir::split(rng, payload, self.threshold, self.shares)
            .map_err(|e| PolicyError::Malformed(e.to_string()))?;
        Ok(Encoded {
            shards: out.into_iter().map(|s| s.data).collect(),
            meta: EncodingMeta::plain(keys.current_version()),
        })
    }

    fn decode(
        &self,
        _keys: &KeyStore,
        _object_id: &str,
        shards: &[Option<Vec<u8>>],
        _meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let collected = collect_shamir(shards);
        shamir::reconstruct(&collected, self.threshold).map_err(share_err(self.threshold))
    }

    fn repair_chunk(&self, shards: &[Option<Vec<u8>>]) -> Result<CodecRepair, RepairError> {
        // Re-derive each missing share at its own x from t survivors —
        // the secret is never reconstructed at x = 0.
        let survivors = collect_shamir(shards);
        let mut all: Vec<Vec<u8>> = Vec::with_capacity(shards.len());
        for (i, slot) in shards.iter().enumerate() {
            match slot {
                Some(bytes) => all.push(bytes.clone()),
                None => {
                    let x = Gf256::new((i + 1) as u8);
                    all.push(
                        shamir::reconstruct_at(&survivors, self.threshold, x)
                            .map_err(RepairError::Share)?,
                    );
                }
            }
        }
        Ok(CodecRepair::Rebuilt {
            shards: all,
            method: RepairMethod::PartialShamir,
        })
    }
}

/// Packed secret sharing: ITS below `privacy` shares at `n/k` cost.
#[derive(Debug, Clone)]
pub struct PackedShamirCodec {
    /// Privacy threshold.
    pub privacy: usize,
    /// Secrets per polynomial.
    pub pack: usize,
    /// Share count.
    pub shares: usize,
}

impl Codec for PackedShamirCodec {
    fn family(&self) -> &'static str {
        "packed-shamir"
    }

    fn validate(&self) -> Result<(), PolicyError> {
        PackedParams::new(self.privacy, self.pack, self.shares)
            .map_err(|e| PolicyError::InvalidPolicy(e.to_string()))?;
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.shares
    }

    fn read_threshold(&self) -> usize {
        self.privacy + self.pack
    }

    fn expansion(&self) -> f64 {
        self.shares as f64 / self.pack as f64
    }

    fn at_rest_level(&self) -> SecurityLevel {
        SecurityLevel::InformationTheoretic
    }

    fn encode(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        _object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        let params = PackedParams::new(self.privacy, self.pack, self.shares)
            .map_err(|e| PolicyError::InvalidPolicy(e.to_string()))?;
        let out = packed::split(rng, params, payload)
            .map_err(|e| PolicyError::Malformed(e.to_string()))?;
        let shards = out
            .into_iter()
            .map(|s| s.data.iter().flat_map(|v| v.to_be_bytes()).collect())
            .collect();
        Ok(Encoded {
            shards,
            meta: EncodingMeta {
                key_version: keys.current_version(),
                packed: Some((params, payload.len())),
                entropic_nonce: None,
                chunked: None,
            },
        })
    }

    fn decode(
        &self,
        _keys: &KeyStore,
        _object_id: &str,
        shards: &[Option<Vec<u8>>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let Some((params, plain_len)) = meta.packed else {
            return Err(PolicyError::Malformed("missing packed metadata".into()));
        };
        let collected: Vec<PackedShare> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref().map(|bytes| PackedShare {
                    index: (i + 1) as u16,
                    data: bytes
                        .chunks_exact(2)
                        .map(|c| u16::from_be_bytes([c[0], c[1]]))
                        .collect(),
                })
            })
            .collect();
        let mut out = packed::reconstruct(params, &collected)
            .map_err(share_err(params.reconstruct_threshold()))?;
        out.truncate(plain_len);
        Ok(out)
    }
}

/// Shamir wrapped by the leakage-resilient compiler.
#[derive(Debug, Clone)]
pub struct LrssCodec {
    /// Reconstruction threshold.
    pub threshold: usize,
    /// Share count.
    pub shares: usize,
    /// Extractor source length per share, bytes.
    pub source_len: usize,
}

impl Codec for LrssCodec {
    fn family(&self) -> &'static str {
        "lrss"
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.threshold == 0 || self.threshold > self.shares || self.shares > 255 {
            return Err(PolicyError::InvalidPolicy(
                "Shamir parameters must satisfy 1 <= t <= n <= 255".to_string(),
            ));
        }
        if self.source_len == 0 {
            return Err(PolicyError::InvalidPolicy(
                "LRSS source length must be positive".to_string(),
            ));
        }
        Ok(())
    }

    fn shard_count(&self) -> usize {
        self.shares
    }

    fn read_threshold(&self) -> usize {
        self.threshold
    }

    fn expansion(&self) -> f64 {
        // Each share of length L stores source + seed + masked =
        // source_len + (source_len + L) + L; expansion depends on L, so
        // report the large-object limit plus the n factor.
        self.shares as f64 * 2.0
    }

    fn at_rest_level(&self) -> SecurityLevel {
        SecurityLevel::InformationTheoretic
    }

    fn security_ordinal(&self) -> u8 {
        // Above plain ITS on Figure 1's axis: leakage resilience holds
        // even when every share leaks a bounded number of bits.
        4
    }

    fn encode(
        &self,
        rng: &mut dyn CryptoRng,
        keys: &KeyStore,
        _object_id: &str,
        payload: &[u8],
    ) -> Result<Encoded, PolicyError> {
        let base = shamir::split(rng, payload, self.threshold, self.shares)
            .map_err(|e| PolicyError::Malformed(e.to_string()))?;
        let wrapped = lrss::wrap(
            rng,
            &base,
            LrssParams {
                source_len: self.source_len,
            },
        )
        .map_err(|e| PolicyError::Malformed(e.to_string()))?;
        Ok(Encoded {
            shards: wrapped.iter().map(serialize_lrss).collect(),
            meta: EncodingMeta::plain(keys.current_version()),
        })
    }

    fn decode(
        &self,
        _keys: &KeyStore,
        _object_id: &str,
        shards: &[Option<Vec<u8>>],
        _meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let wrapped: Vec<LrssShare> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .and_then(|bytes| deserialize_lrss((i + 1) as u8, bytes))
            })
            .collect();
        let base = lrss::unwrap(&wrapped);
        shamir::reconstruct(&base, self.threshold).map_err(share_err(self.threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_crypto::ChaChaDrbg;

    fn fixtures() -> (ChaChaDrbg, KeyStore) {
        (ChaChaDrbg::from_u64_seed(2024), KeyStore::new([5u8; 32]))
    }

    fn all_policies() -> Vec<PolicyKind> {
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
    fn the_nine_policies_name_nine_distinct_families() {
        let families: std::collections::BTreeSet<&str> =
            all_policies().iter().map(|p| p.codec().family()).collect();
        let expected = [
            "aont-rs",
            "cascade",
            "encrypted",
            "entropic",
            "erasure",
            "lrss",
            "packed-shamir",
            "replication",
            "shamir",
        ];
        assert!(families.iter().eq(expected.iter()), "{families:?}");
    }

    /// Figure 1's numbers per family, stated rather than derived: what
    /// the one Reed–Solomon codec answers for each seal is checked
    /// against the same expectations as the families that stand alone.
    #[test]
    fn family_numbers_match_figure1() {
        use SecurityLevel::*;
        use SuiteId::{Aes256CtrHmac as Aes, ChaCha20Poly1305 as ChaCha};
        // (family, shards, threshold, expansion, at rest, ordinal, suites)
        type Row = (
            &'static str,
            usize,
            usize,
            f64,
            SecurityLevel,
            u8,
            Vec<SuiteId>,
        );
        let expected: [Row; 9] = [
            ("replication", 3, 1, 3.0, None, 0, vec![]),
            ("erasure", 6, 4, 1.5, None, 0, vec![]),
            ("encrypted", 6, 4, 1.5, Computational, 1, vec![Aes]),
            ("cascade", 6, 4, 1.5, Computational, 1, vec![Aes, ChaCha]),
            ("aont-rs", 6, 4, 1.5, Computational, 1, vec![Aes]),
            ("shamir", 5, 3, 5.0, InformationTheoretic, 3, vec![]),
            ("packed-shamir", 6, 4, 3.0, InformationTheoretic, 3, vec![]),
            ("lrss", 5, 3, 10.0, InformationTheoretic, 4, vec![]),
            ("entropic", 6, 4, 1.5, EntropicIts, 2, vec![]),
        ];
        for (policy, row) in all_policies().iter().zip(expected) {
            let (family, shards, threshold, expansion, level, ordinal, suites) = row;
            let codec = policy.codec();
            assert_eq!(codec.family(), family);
            assert_eq!(codec.shard_count(), shards, "{family}");
            assert_eq!(codec.read_threshold(), threshold, "{family}");
            assert!((codec.expansion() - expansion).abs() < 1e-9, "{family}");
            assert_eq!(codec.at_rest_level(), level, "{family}");
            assert_eq!(codec.security_ordinal(), ordinal, "{family}");
            assert_eq!(codec.at_rest_suites(), suites, "{family}");
            assert!(codec.validate().is_ok(), "{family}");
        }
    }

    #[test]
    fn security_ordinals_span_figure1_axis() {
        let ordinal = |p: &PolicyKind| p.codec().security_ordinal();
        assert_eq!(ordinal(&PolicyKind::Replication { copies: 3 }), 0);
        assert_eq!(ordinal(&PolicyKind::ErasureCoded { data: 4, parity: 2 }), 0);
        assert_eq!(
            ordinal(&PolicyKind::Encrypted {
                suite: SuiteId::Aes256CtrHmac,
                data: 4,
                parity: 2,
            }),
            1
        );
        assert_eq!(ordinal(&PolicyKind::Entropic { data: 4, parity: 2 }), 2);
        assert_eq!(
            ordinal(&PolicyKind::Shamir {
                threshold: 3,
                shares: 5,
            }),
            3
        );
        assert_eq!(
            ordinal(&PolicyKind::LeakageResilientShamir {
                threshold: 3,
                shares: 5,
                source_len: 32,
            }),
            4
        );
    }

    #[test]
    fn codec_roundtrips_through_trait_object() {
        let (mut rng, keys) = fixtures();
        let payload = b"bytes through the registry seam";
        for policy in all_policies() {
            let codec = policy.codec();
            let enc = codec.encode(&mut rng, &keys, "codec-obj", payload).unwrap();
            assert_eq!(enc.shards.len(), codec.shard_count(), "{policy:?}");
            let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
            let dec = codec
                .decode(&keys, "codec-obj", &shards, &enc.meta)
                .unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn rs_family_partial_repair_restores_codeword() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::ErasureCoded { data: 3, parity: 2 };
        let codec = policy.codec();
        let enc = codec.encode(&mut rng, &keys, "fix", b"repairable").unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[1] = None;
        shards[4] = None;
        match codec.repair_chunk(&shards).unwrap() {
            CodecRepair::Rebuilt { shards, method } => {
                assert_eq!(method, RepairMethod::PartialErasure);
                assert_eq!(shards, enc.shards, "rebuilt rows differ from originals");
            }
            CodecRepair::FullReencode => panic!("RS family must repair in place"),
        }
    }

    #[test]
    fn shamir_partial_repair_rederives_same_polynomial() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        };
        let codec = policy.codec();
        let enc = codec.encode(&mut rng, &keys, "fix", b"same poly").unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[2] = None;
        match codec.repair_chunk(&shards).unwrap() {
            CodecRepair::Rebuilt { shards, method } => {
                assert_eq!(method, RepairMethod::PartialShamir);
                assert_eq!(shards[2], enc.shards[2], "re-derived share must match");
            }
            CodecRepair::FullReencode => panic!("Shamir must repair at its evaluation point"),
        }
    }

    #[test]
    fn families_without_structure_fall_back_to_reencode() {
        for policy in [
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
        ] {
            let codec = policy.codec();
            let shards = vec![None, Some(vec![1u8, 2]), Some(vec![3u8, 4])];
            assert_eq!(
                codec.repair_chunk(&shards).unwrap(),
                CodecRepair::FullReencode,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn packed_metadata_with_impossible_parameters_is_malformed_not_a_panic() {
        // `meta.packed` travels in the manifest and `PackedParams`' fields
        // are public, so decode can be handed parameters `new` never made.
        let (mut rng, keys) = fixtures();
        let codec = PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 6,
        }
        .codec();
        let enc = codec.encode(&mut rng, &keys, "obj", b"payload").unwrap();
        let (_, plain_len) = enc.meta.packed.unwrap();
        let zero = PackedParams {
            privacy: 0,
            pack: 0,
            shares: 0,
        };
        let meta = EncodingMeta {
            packed: Some((zero, plain_len)),
            ..enc.meta
        };
        for shards in [vec![None; 6], enc.shards.into_iter().map(Some).collect()] {
            assert!(matches!(
                codec.decode(&keys, "obj", &shards, &meta),
                Err(PolicyError::Malformed(_))
            ));
        }
    }

    #[test]
    fn only_cascade_supports_rewrap() {
        let (mut rng, keys) = fixtures();
        for policy in all_policies() {
            let codec = policy.codec();
            let supports = matches!(policy, PolicyKind::Cascade { .. });
            assert_eq!(
                codec.rewrapped_policy(SuiteId::ChaCha20Poly1305).is_some(),
                supports,
                "{policy:?}"
            );
            if supports {
                let enc = codec.encode(&mut rng, &keys, "rw", b"layer me").unwrap();
                let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
                let new_shards = codec
                    .rewrap_chunk(&keys, "rw", 0, &shards, SuiteId::ChaCha20Poly1305)
                    .unwrap();
                let new_policy = codec.rewrapped_policy(SuiteId::ChaCha20Poly1305).unwrap();
                let wrapped: Vec<Option<Vec<u8>>> = new_shards.into_iter().map(Some).collect();
                let dec = new_policy
                    .codec()
                    .decode(&keys, "rw", &wrapped, &enc.meta)
                    .unwrap();
                assert_eq!(dec, b"layer me");
            }
        }
    }

    #[test]
    fn validation_matches_legacy_rules() {
        let invalid = [
            PolicyKind::Replication { copies: 0 },
            PolicyKind::ErasureCoded { data: 0, parity: 1 },
            PolicyKind::ErasureCoded {
                data: 200,
                parity: 100,
            },
            PolicyKind::Cascade {
                suites: vec![],
                data: 2,
                parity: 1,
            },
            PolicyKind::Cascade {
                suites: vec![SuiteId::OneTimePad],
                data: 2,
                parity: 1,
            },
            PolicyKind::Shamir {
                threshold: 6,
                shares: 5,
            },
            PolicyKind::LeakageResilientShamir {
                threshold: 2,
                shares: 3,
                source_len: 0,
            },
        ];
        for policy in invalid {
            assert!(
                matches!(policy.validate(), Err(PolicyError::InvalidPolicy(_))),
                "{policy:?}"
            );
        }
    }
}
