//! How a policy encodes: a seal in front of a dispersal.
//!
//! The paper's crypto-agility argument (§3.2) demands that *how bytes
//! are encoded* be swappable independently of *where shards live*. This
//! module is the "how" half of that seam, and it is a composition of two
//! closed choices (MoPS's point: long-term protection is a
//! confidentiality block and an availability block, not a list of
//! monoliths):
//!
//! * a `Seal` — the confidentiality transform applied first: nothing,
//!   one AEAD (commercial cloud), a cascade (ArchiveSafeLT), an
//!   all-or-nothing package (AONT-RS), a δ-biased pad (entropic);
//! * a `Dispersal` — how the sealed bytes spread over nodes:
//!   replication, Reed–Solomon, Shamir, packed or leakage-resilient
//!   sharing.
//!
//! [`PolicyKind`] pairs them in one `match` and composes
//! encode = seal, disperse and decode = gather, open around them. The
//! coordinates Figure 1 and Table 1 give a design point — shard count,
//! threshold, analytic expansion, at-rest class, the suites that guard
//! it — are [`PolicyInfo`], a plain value read off the pair.
//!
//! Both halves are **pure**: they transform bytes and never touch
//! storage nodes. All node I/O belongs to
//! [`crate::executor::PlanExecutor`].

use crate::aont;
use crate::keys::KeyStore;
use crate::policy::{EncodingMeta, PolicyError, PolicyKind};
use aeon_crypto::cascade::Cascade;
use aeon_crypto::entropic::{EntropicCipher, EntropicCiphertext};
use aeon_crypto::suite::SuiteCipher;
use aeon_crypto::{aead, CryptoRng, SecurityLevel, SuiteId, SuiteRegistry};
use aeon_erasure::{CodeError, ErasureCode, ReedSolomon, Replicator};
use aeon_gf::Gf256;
use aeon_secretshare::lrss::{self, LrssParams, LrssShare};
use aeon_secretshare::packed::{self, PackedParams};
use aeon_secretshare::shamir::{self, Share};
use aeon_secretshare::ShareError;
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

/// Outcome of a dispersal's partial-repair attempt on one chunk's shard
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecRepair {
    /// The slots the caller named as missing, and only those, rebuilt
    /// from the survivors.
    Rebuilt {
        /// One rebuilt blob per slot asked for, in the order asked.
        shards: Vec<Vec<u8>>,
        /// How the rebuild was done.
        method: RepairMethod,
    },
    /// The dispersal has no per-shard repair structure (LRSS wrappers),
    /// or does not use the one it has: the caller must decode the object
    /// and re-encode it from scratch. Packed sharing is the second kind —
    /// a lost share is `lagrange_coefficients(survivor_xs, i)` applied to
    /// `privacy + pack` surviving shares in one fused row pass, the
    /// generator-matrix form `aeon_secretshare::packed` already encodes
    /// with — and answers this until that lands.
    FullReencode,
}

/// Errors from a partial repair.
#[derive(Debug)]
pub enum RepairError {
    /// Parameter or shard-data failure.
    Policy(PolicyError),
    /// Secret-sharing protocol failure (Shamir re-derivation).
    Share(ShareError),
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

impl From<PolicyError> for RepairError {
    fn from(e: PolicyError) -> Self {
        RepairError::Policy(e)
    }
}

/// Where a policy sits on the paper's maps: the coordinates Figure 1
/// and Table 1 give an encoding, read off its seal and dispersal by
/// [`PolicyKind::info`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyInfo<'a> {
    /// Short family name (for diagnostics and listings).
    pub family: &'static str,
    /// Shards produced per object.
    pub shard_count: usize,
    /// Minimum shards needed to read an object back.
    pub read_threshold: usize,
    /// Analytic storage expansion (stored bytes / payload bytes,
    /// ignoring constant overheads).
    pub expansion: f64,
    /// The at-rest confidentiality classification against a
    /// *sub-threshold* adversary (fewer shards than the read threshold)
    /// — the sense in which the paper's Table 1 grades
    /// "Confidentiality: At Rest".
    pub at_rest_level: SecurityLevel,
    /// Ordinal position on Figure 1's security axis (0 = none … 4 = ITS
    /// with leakage resilience, which ranks above plain ITS because it
    /// holds even when every share leaks a bounded number of bits).
    pub security_ordinal: u8,
    /// AEAD suites protecting the at-rest bytes (empty for plaintext and
    /// information-theoretic encodings). The planner schedules re-encode
    /// campaigns ahead of their breaks.
    pub at_rest_suites: &'a [SuiteId],
}

impl<'a> PolicyInfo<'a> {
    /// Figure 1's numbers, as two tables: what the seal contributes and
    /// what the dispersal does. The stronger of the two levels grades
    /// the pair, and a sealed encoding is named after its seal.
    pub(crate) fn of(seal: &Seal<'a>, dispersal: &Dispersal) -> Self {
        use SecurityLevel::{
            Computational, EntropicIts, InformationTheoretic as Its, None as Open,
        };
        let (sealed_as, seal_level, at_rest_suites): (_, _, &[SuiteId]) = match *seal {
            Seal::Plain => (None, Open, &[]),
            Seal::Aead(suite) => (
                Some("encrypted"),
                Computational,
                std::slice::from_ref(suite),
            ),
            Seal::Cascade(suites) => (Some("cascade"), Computational, suites),
            Seal::Aont => (Some("aont-rs"), Computational, &[SuiteId::Aes256CtrHmac]),
            Seal::Entropic => (Some("entropic"), EntropicIts, &[]),
        };
        // LRSS expansion depends on the share length L (each share stores
        // source + seed + masked = source_len + (source_len + L) + L), so
        // its entry is the large-object limit times the n factor.
        let (dispersed_as, shard_count, read_threshold, expansion, dispersal_level) =
            match *dispersal {
                Dispersal::Replicate { copies } => ("replication", copies, 1, copies as f64, Open),
                Dispersal::Rs { data, parity } => {
                    let n = data + parity;
                    ("erasure", n, data, n as f64 / data as f64, Open)
                }
                Dispersal::Shamir { threshold, shares } => {
                    ("shamir", shares, threshold, shares as f64, Its)
                }
                Dispersal::Packed {
                    privacy,
                    pack,
                    shares,
                } => {
                    let expansion = shares as f64 / pack as f64;
                    ("packed-shamir", shares, privacy + pack, expansion, Its)
                }
                Dispersal::Lrss {
                    threshold, shares, ..
                } => ("lrss", shares, threshold, shares as f64 * 2.0, Its),
            };
        let at_rest_level = seal_level.max(dispersal_level);
        let security_ordinal = match (dispersal, at_rest_level) {
            (Dispersal::Lrss { .. }, _) => 4,
            (_, Open) => 0,
            (_, Computational) => 1,
            (_, EntropicIts) => 2,
            (_, Its) => 3,
        };
        PolicyInfo {
            family: sealed_as.unwrap_or(dispersed_as),
            shard_count,
            read_threshold,
            expansion,
            at_rest_level,
            security_ordinal,
            at_rest_suites,
        }
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

fn crypto_err(e: impl fmt::Display) -> PolicyError {
    PolicyError::CryptoFailure(e.to_string())
}

fn malformed(e: impl fmt::Display) -> PolicyError {
    PolicyError::Malformed(e.to_string())
}

fn invalid(why: impl fmt::Display) -> PolicyError {
    PolicyError::InvalidPolicy(why.to_string())
}

fn share_err(required: usize) -> impl Fn(ShareError) -> PolicyError {
    move |e| match e {
        ShareError::TooFewShares { provided, .. } => PolicyError::TooFewShards {
            available: provided,
            required,
        },
        other => malformed(other),
    }
}

/// Copies of the first `limit` present shares, in slot order.
/// `shamir::reconstruct` / `reconstruct_at` read only the first
/// `threshold`; with fewer present, the count (and so the
/// `TooFewShares` error) is the same whatever the limit.
fn collect_shamir(shards: &[Option<&[u8]>], limit: usize) -> Vec<Share> {
    shards
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            s.map(|bytes| Share {
                index: (i + 1) as u8,
                data: bytes.to_vec(),
            })
        })
        .take(limit)
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
    // `lrss::unwrap` asserts its Toeplitz seed covers source + output
    // bits less one; a blob cut any other way is no share at all.
    let bits = (source.len() + masked.len()) * 8;
    if bits == 0 || seed.len() * 8 < bits - 1 {
        return None;
    }
    Some(LrssShare {
        index,
        source,
        seed,
        masked,
    })
}

fn aead_cipher(suite: SuiteId, key: &[u8; 32]) -> Result<SuiteCipher, PolicyError> {
    SuiteRegistry::new()
        .instantiate(suite, key)
        .ok_or_else(|| invalid(format_args!("{suite} is not an AEAD")))
}

/// The one Reed–Solomon code in the crate.
fn rs(data: usize, parity: usize) -> Result<ReedSolomon, PolicyError> {
    ReedSolomon::new(data, parity).map_err(code_err)
}

// ---------------------------------------------------------------------
// The two halves.

/// The confidentiality transform a policy applies before dispersal.
/// What is dispersed is the *sealed* bytes, so repair and re-wrap never
/// see plaintext.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seal<'a> {
    /// None: the payload is dispersed as it is.
    Plain,
    /// One AEAD suite (the commercial cloud default: AES + EC).
    Aead(&'a SuiteId),
    /// A cascade (robust combiner) of suites in application order — the
    /// ArchiveSafeLT design.
    Cascade(&'a [SuiteId]),
    /// The keyless all-or-nothing package of AONT-RS (Cleversafe).
    Aont,
    /// The entropically secure δ-biased pad: ITS for high-entropy
    /// payloads.
    Entropic,
}

impl Seal<'_> {
    /// Validates the seal's own parameters.
    pub(crate) fn validate(&self) -> Result<(), PolicyError> {
        match self {
            Seal::Cascade([]) => Err(invalid("cascade needs at least one suite")),
            Seal::Cascade(suites) if suites.iter().any(|s| s.is_information_theoretic()) => {
                Err(invalid("cascade layers must be AEAD suites"))
            }
            _ => Ok(()),
        }
    }

    /// Seals `payload` under `context` with the current master key and
    /// returns the bytes to disperse — the caller's own slice when there
    /// is no transform — recording in `meta` whatever [`Seal::open`]
    /// will need beyond the key version.
    pub(crate) fn seal<'p, R: CryptoRng + ?Sized>(
        &self,
        rng: &mut R,
        keys: &KeyStore,
        context: &str,
        payload: &'p [u8],
        meta: &mut EncodingMeta,
    ) -> Result<Cow<'p, [u8]>, PolicyError> {
        let aad = context.as_bytes();
        let sealed = match *self {
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
                let key = keys.entropic_key(meta.key_version, context);
                let ct = EntropicCipher::new(key).encrypt(rng, payload);
                meta.entropic_nonce = Some(ct.nonce);
                ct.body
            }
        };
        Ok(Cow::Owned(sealed))
    }

    /// Opens the bytes the dispersal gave back — the inverse of
    /// [`Seal::seal`] under the key version and nonce in `meta` — in
    /// their own buffer where the seal is an AEAD or a cascade of them.
    pub(crate) fn open(
        &self,
        keys: &KeyStore,
        context: &str,
        meta: &EncodingMeta,
        mut sealed: Vec<u8>,
    ) -> Result<Vec<u8>, PolicyError> {
        let aad = context.as_bytes();
        let key = || keys.object_key_for_version(meta.key_version, context, 0);
        match *self {
            Seal::Plain => Ok(sealed),
            Seal::Aead(suite) => {
                let cipher = aead_cipher(*suite, &key())?;
                (cipher.open_in_place(&aead::derive_nonce(aad), aad, &mut sealed))
                    .map_err(|_| PolicyError::CryptoFailure("AEAD open failed".into()))?;
                Ok(sealed)
            }
            Seal::Cascade(suites) => {
                let cascade = Cascade::new(suites, &key()).map_err(crypto_err)?;
                cascade
                    .decrypt_in_place(aad, &mut sealed)
                    .map_err(crypto_err)?;
                Ok(sealed)
            }
            Seal::Aont => aont::unpackage(&sealed).map_err(malformed),
            Seal::Entropic => {
                let Some(nonce) = meta.entropic_nonce else {
                    return Err(malformed("missing entropic nonce"));
                };
                let cipher = EntropicCipher::new(keys.entropic_key(meta.key_version, context));
                Ok(cipher.decrypt(&EntropicCiphertext {
                    nonce,
                    body: sealed,
                }))
            }
        }
    }
}

/// How sealed bytes are spread over nodes, one blob per node, and got
/// back from the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispersal {
    /// `copies` identical replicas; any one reads.
    Replicate { copies: usize },
    /// Systematic Reed–Solomon `[data + parity, data]`: any `data`
    /// shards read, at `n/k` cost.
    Rs { data: usize, parity: usize },
    /// Shamir `threshold`-of-`shares`, at `n×` cost (POTSHARDS).
    Shamir { threshold: usize, shares: usize },
    /// Packed sharing: `pack` secrets a polynomial, private below
    /// `privacy` shares, at `n/k` cost.
    Packed {
        privacy: usize,
        pack: usize,
        shares: usize,
    },
    /// Shamir under the leakage-resilient compiler, `source_len`
    /// extractor-source bytes a share.
    Lrss {
        threshold: usize,
        shares: usize,
        source_len: usize,
    },
}

impl Dispersal {
    /// Validates the dispersal's parameters.
    pub(crate) fn validate(&self) -> Result<(), PolicyError> {
        match *self {
            Dispersal::Replicate { copies: 0 } => {
                Err(invalid("replication needs at least one copy"))
            }
            Dispersal::Rs { data, parity } if data == 0 || parity == 0 || data + parity > 255 => {
                Err(invalid(
                    "erasure parameters must satisfy 1 <= data, parity and n <= 255",
                ))
            }
            Dispersal::Shamir { threshold, shares }
            | Dispersal::Lrss {
                threshold, shares, ..
            } if threshold == 0 || threshold > shares || shares > 255 => {
                Err(invalid("Shamir parameters must satisfy 1 <= t <= n <= 255"))
            }
            Dispersal::Lrss { source_len: 0, .. } => {
                Err(invalid("LRSS source length must be positive"))
            }
            Dispersal::Packed {
                privacy,
                pack,
                shares,
            } => PackedParams::new(privacy, pack, shares)
                .map(drop)
                .map_err(invalid),
            _ => Ok(()),
        }
    }

    /// Spreads `sealed` into one blob per node, recording in `meta`
    /// whatever [`Dispersal::gather`] will need beyond the blobs.
    pub(crate) fn disperse<R: CryptoRng + ?Sized>(
        &self,
        rng: &mut R,
        sealed: &[u8],
        meta: &mut EncodingMeta,
    ) -> Result<Vec<Vec<u8>>, PolicyError> {
        let bare = |shares: Vec<Share>| shares.into_iter().map(|s| s.data).collect();
        match *self {
            Dispersal::Replicate { copies } => {
                let rep = Replicator::new(copies).map_err(code_err)?;
                rep.encode(sealed).map_err(code_err)
            }
            Dispersal::Rs { data, parity } => rs(data, parity)?.encode(sealed).map_err(code_err),
            Dispersal::Shamir { threshold, shares } => {
                shamir::split(rng, sealed, threshold, shares)
                    .map(bare)
                    .map_err(malformed)
            }
            Dispersal::Packed {
                privacy,
                pack,
                shares,
            } => {
                let params = PackedParams::new(privacy, pack, shares).map_err(invalid)?;
                let out = packed::split(rng, params, sealed).map_err(malformed)?;
                meta.packed = Some((params, sealed.len()));
                Ok(out.into_iter().map(|s| s.data).collect())
            }
            Dispersal::Lrss {
                threshold,
                shares,
                source_len,
            } => {
                let base = shamir::split(rng, sealed, threshold, shares).map_err(malformed)?;
                let wrapped =
                    lrss::wrap(rng, &base, LrssParams { source_len }).map_err(malformed)?;
                Ok(wrapped.iter().map(serialize_lrss).collect())
            }
        }
    }

    /// Recovers the sealed bytes from the surviving blobs (`None` slots
    /// are missing), borrowed from wherever the caller fetched them.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::TooFewShards`] below the read threshold and
    /// [`PolicyError::Malformed`] for blobs no dispersal produced.
    pub(crate) fn gather(
        &self,
        shards: &[Option<&[u8]>],
        meta: &EncodingMeta,
    ) -> Result<Vec<u8>, PolicyError> {
        let present = || {
            let slots = shards.iter().enumerate();
            slots.filter_map(|(i, s)| s.map(|bytes| (i + 1, bytes)))
        };
        match *self {
            Dispersal::Replicate { copies } => {
                let rep = Replicator::new(copies).map_err(code_err)?;
                rep.decode_slices(shards).map_err(code_err)
            }
            Dispersal::Rs { data, parity } => {
                rs(data, parity)?.decode_slices(shards).map_err(code_err)
            }
            Dispersal::Shamir { threshold, .. } => {
                // Borrowed, not copied. A retrieve holds every fetched
                // share until its payload digest has decided, so copies
                // of the `threshold` it decodes from would sit beside
                // them and raise the read's peak.
                let lent: Vec<(u8, &[u8])> = present().map(|(x, bytes)| (x as u8, bytes)).collect();
                shamir::reconstruct_slices(&lent, threshold).map_err(share_err(threshold))
            }
            Dispersal::Packed { .. } => {
                let Some((params, plain_len)) = meta.packed else {
                    return Err(malformed("missing packed metadata"));
                };
                // Borrowed, as Shamir's are.
                let lent: Vec<(u16, &[u8])> =
                    present().map(|(x, bytes)| (x as u16, bytes)).collect();
                let mut out = packed::reconstruct_slices(params, &lent)
                    .map_err(share_err(params.reconstruct_threshold()))?;
                out.truncate(plain_len);
                Ok(out)
            }
            Dispersal::Lrss { threshold, .. } => {
                let wrapped: Vec<LrssShare> = present()
                    .filter_map(|(index, bytes)| deserialize_lrss(index as u8, bytes))
                    .collect();
                shamir::reconstruct(&lrss::unwrap(&wrapped), threshold)
                    .map_err(share_err(threshold))
            }
        }
    }

    /// Attempts a partial repair of the `missing` slots of one chunk's
    /// shard set (`None` slots are missing), returning only those — the
    /// blobs ARE code symbols or shares of the sealed bytes, which are
    /// never touched.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError`] when too few survivors remain or a slot
    /// lies outside the set.
    pub(crate) fn repair_chunk(
        &self,
        shards: &[Option<&[u8]>],
        missing: &[usize],
    ) -> Result<CodecRepair, RepairError> {
        if missing.iter().any(|&slot| slot >= shards.len()) {
            return Err(malformed("repair slot beyond the shard set").into());
        }
        let (shards, method) = match *self {
            Dispersal::Replicate { .. } => {
                // Any surviving replica is the object.
                let replica = shards.iter().flatten().next();
                let replica = replica.ok_or(PolicyError::TooFewShards {
                    available: 0,
                    required: 1,
                })?;
                let copies = missing.iter().map(|_| replica.to_vec()).collect();
                (copies, RepairMethod::PartialErasure)
            }
            Dispersal::Rs { data, parity } => {
                // Only the missing rows of the codeword set, rebuilt.
                let rebuilt = rs(data, parity)?.reconstruct_rows(shards, missing);
                (rebuilt.map_err(code_err)?, RepairMethod::PartialErasure)
            }
            Dispersal::Shamir { threshold, .. } => {
                // Re-derive each missing share at its own x from t
                // survivors — the secret is never reconstructed at x = 0.
                let survivors = collect_shamir(shards, threshold);
                let rederive = |slot: usize| -> Result<Vec<u8>, RepairError> {
                    match shards[slot] {
                        Some(bytes) => Ok(bytes.to_vec()),
                        None => {
                            // Past the last share index `x` would wrap, to
                            // the secret's own point first of all.
                            let x = u8::try_from(slot + 1)
                                .map_err(|_| malformed("slot beyond the last share index"))?;
                            shamir::reconstruct_at(&survivors, threshold, Gf256::new(x))
                                .map_err(RepairError::Share)
                        }
                    }
                };
                let rebuilt = missing.iter().map(|&slot| rederive(slot));
                (
                    rebuilt.collect::<Result<_, _>>()?,
                    RepairMethod::PartialShamir,
                )
            }
            Dispersal::Packed { .. } | Dispersal::Lrss { .. } => {
                return Ok(CodecRepair::FullReencode)
            }
        };
        Ok(CodecRepair::Rebuilt { shards, method })
    }
}

/// The layers and Reed–Solomon geometry `(suites, data, parity)` of a
/// policy that can take one more outer layer without being opened —
/// ArchiveSafeLT's emergency re-wrap — else `None`. Only a cascade is
/// layered (any other seal has to be opened to be replaced, which is a
/// re-encode), and a re-wrap draws no randomness to re-share with, so the
/// cascade sits over Reed–Solomon. This is the one place that is said.
pub(crate) fn layered(policy: &PolicyKind) -> Option<(&[SuiteId], usize, usize)> {
    match policy.scheme() {
        (Seal::Cascade(suites), Dispersal::Rs { data, parity }) => Some((suites, data, parity)),
        _ => None,
    }
}

/// Re-wraps one chunk's shard set of a [`layered`] policy: gather the
/// layered ciphertext, add `new_suite` as one more AEAD layer under the
/// master-key version the chunk was sealed with, disperse again — no
/// plaintext, no inner-layer keys.
pub(crate) fn rewrap_chunk(
    (suites, data, parity): (&[SuiteId], usize, usize),
    keys: &KeyStore,
    context: &str,
    key_version: u32,
    shards: &[Option<&[u8]>],
    new_suite: SuiteId,
) -> Result<Vec<Vec<u8>>, PolicyError> {
    let rs = rs(data, parity)?;
    let sealed = rs.decode_slices(shards).map_err(code_err)?;
    let master = keys.object_key_for_version(key_version, context, 0);
    let mut cascade = Cascade::new(suites, &master).map_err(crypto_err)?;
    let old_depth = cascade.depth();
    cascade.add_layer(new_suite, &master).map_err(crypto_err)?;
    let rewrapped = cascade.rewrap(context.as_bytes(), &sealed, old_depth);
    rs.encode(&rewrapped).map_err(code_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::rewrapped_policy;
    use crate::policy::tests::all_policies;
    use aeon_crypto::ChaChaDrbg;

    fn fixtures() -> (ChaChaDrbg, KeyStore) {
        (ChaChaDrbg::from_u64_seed(2024), KeyStore::new([5u8; 32]))
    }

    /// A shard set as the read path hands it to a dispersal: borrowed.
    fn borrowed(shards: &[Option<Vec<u8>>]) -> Vec<Option<&[u8]>> {
        shards.iter().map(Option::as_deref).collect()
    }

    /// The absent slots of a shard set, as the repair planner finds them.
    fn absent(shards: &[Option<Vec<u8>>]) -> Vec<usize> {
        (0..shards.len()).filter(|&i| shards[i].is_none()).collect()
    }

    /// `repair_chunk` on the absent slots of `shards`.
    fn repair(
        dispersal: Dispersal,
        shards: &[Option<Vec<u8>>],
    ) -> Result<CodecRepair, RepairError> {
        dispersal.repair_chunk(&borrowed(shards), &absent(shards))
    }

    #[test]
    fn the_nine_policies_name_nine_distinct_families() {
        let families: std::collections::BTreeSet<&str> =
            all_policies().iter().map(|p| p.info().family).collect();
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
    /// the two tables in `PolicyInfo::of` compose to for each pair is
    /// checked against one hand-written row per policy.
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
            let info = policy.info();
            assert_eq!(info.family, family);
            assert_eq!(info.shard_count, shards, "{family}");
            assert_eq!(info.read_threshold, threshold, "{family}");
            assert!((info.expansion - expansion).abs() < 1e-9, "{family}");
            assert_eq!(info.at_rest_level, level, "{family}");
            assert_eq!(info.security_ordinal, ordinal, "{family}");
            assert_eq!(info.at_rest_suites, suites, "{family}");
            assert!(policy.validate().is_ok(), "{family}");
        }
    }

    #[test]
    fn security_ordinals_span_figure1_axis() {
        let ordinal = |p: &PolicyKind| p.info().security_ordinal;
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
    fn every_pair_roundtrips_through_its_two_halves() {
        let (mut rng, keys) = fixtures();
        let payload = b"bytes through the seal and the dispersal";
        for policy in all_policies() {
            let (seal, dispersal) = policy.scheme();
            let mut meta = EncodingMeta::plain(keys.current_version());
            let sealed = seal
                .seal(&mut rng, &keys, "codec-obj", payload, &mut meta)
                .unwrap();
            let blobs = dispersal.disperse(&mut rng, &sealed, &mut meta).unwrap();
            assert_eq!(blobs.len(), policy.info().shard_count, "{policy:?}");
            let shards: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
            let gathered = dispersal.gather(&borrowed(&shards), &meta).unwrap();
            assert_eq!(gathered, sealed.as_ref(), "{policy:?}");
            let dec = seal.open(&keys, "codec-obj", &meta, gathered).unwrap();
            assert_eq!(dec, payload, "{policy:?}");
        }
    }

    #[test]
    fn rs_family_partial_repair_restores_codeword() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::ErasureCoded { data: 3, parity: 2 };
        let (_, dispersal) = policy.scheme();
        let enc = policy
            .encode(&mut rng, &keys, "fix", b"repairable")
            .unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[1] = None;
        shards[4] = None;
        match repair(dispersal, &shards).unwrap() {
            CodecRepair::Rebuilt { shards, method } => {
                assert_eq!(method, RepairMethod::PartialErasure);
                let originals = [enc.shards[1].clone(), enc.shards[4].clone()];
                assert_eq!(shards, originals, "rebuilt rows differ from originals");
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
        let (_, dispersal) = policy.scheme();
        let enc = policy.encode(&mut rng, &keys, "fix", b"same poly").unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[2] = None;
        match repair(dispersal, &shards).unwrap() {
            CodecRepair::Rebuilt { shards, method } => {
                assert_eq!(method, RepairMethod::PartialShamir);
                assert_eq!(
                    shards,
                    [enc.shards[2].clone()],
                    "re-derived share must match"
                );
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
            let (_, dispersal) = policy.scheme();
            let shards = vec![None, Some(vec![1u8, 2]), Some(vec![3u8, 4])];
            assert_eq!(
                repair(dispersal, &shards).unwrap(),
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
        let policy = PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 6,
        };
        let enc = policy.encode(&mut rng, &keys, "obj", b"payload").unwrap();
        let (_, plain_len) = enc.meta.packed.unwrap();
        let zero = PackedParams {
            privacy: 0,
            pack: 0,
            shares: 0,
        };
        let meta = EncodingMeta {
            packed: Some((zero, plain_len)),
            ..enc.meta.clone()
        };
        let whole: Vec<Option<Vec<u8>>> = enc.shards.into_iter().map(Some).collect();
        for shards in [&vec![None; 6], &whole] {
            assert!(matches!(
                policy.decode(&keys, "obj", shards, &meta),
                Err(PolicyError::Malformed(_))
            ));
        }
        // Nor can the blobs be trusted to be whole 16-bit symbols of one
        // length: a share a byte short is ragged, not an index error.
        let mut ragged = whole;
        ragged[1].as_mut().unwrap().pop();
        assert!(matches!(
            policy.decode(&keys, "obj", &ragged, &enc.meta),
            Err(PolicyError::Malformed(_))
        ));
    }

    /// A trailing byte on every packed blob keeps the set un-ragged, and
    /// `chunks_exact(2)` used to drop it: the set decoded as if intact.
    #[test]
    fn packed_shares_of_odd_length_are_malformed_not_truncated() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::PackedShamir {
            privacy: 2,
            pack: 2,
            shares: 6,
        };
        let enc = policy.encode(&mut rng, &keys, "obj", b"payload").unwrap();
        let odd: Vec<Option<Vec<u8>>> = enc
            .shards
            .into_iter()
            .map(|mut blob| {
                blob.push(0);
                Some(blob)
            })
            .collect();
        assert!(matches!(
            policy.decode(&keys, "obj", &odd, &enc.meta),
            Err(PolicyError::Malformed(_))
        ));
    }

    /// Shrunk from `hostile_shard_sets_never_panic`: an LRSS blob whose
    /// three length prefixes add up but whose seed cannot cover source +
    /// masked bits made `lrss::unwrap` assert. It is no share: skipped,
    /// and the set falls below threshold.
    #[test]
    fn lrss_blob_with_a_short_seed_is_no_share_not_a_panic() {
        let (_, dispersal) = PolicyKind::LeakageResilientShamir {
            threshold: 2,
            shares: 3,
            source_len: 8,
        }
        .scheme();
        let meta = EncodingMeta::plain(0);
        let frame = |fields: [&[u8]; 3]| {
            let mut blob = Vec::new();
            for field in fields {
                blob.extend((field.len() as u32).to_be_bytes());
                blob.extend(field);
            }
            Some(blob)
        };
        for hostile in [
            frame([&[], &[], &[]]),
            frame([&[7; 8], &[7; 1], &[7; 4]]),
            frame([&[], &[], &[7; 1]]),
        ] {
            let shards = vec![hostile.clone(), hostile.clone(), hostile];
            assert_eq!(
                dispersal.gather(&borrowed(&shards), &meta),
                Err(PolicyError::TooFewShards {
                    available: 0,
                    required: 2
                })
            );
        }
    }

    /// Repair copies only the first `threshold` Shamir survivors and
    /// rebuilds the same shares, only the ones asked for; below the
    /// threshold, repair and gather still report how many there were.
    #[test]
    fn shamir_survivor_copies_keep_their_results_and_errors() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        };
        let enc = policy.encode(&mut rng, &keys, "few", b"secret").unwrap();
        let (_, dispersal) = policy.scheme();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        let rebuilt = match repair(dispersal, &shards).unwrap() {
            CodecRepair::Rebuilt { shards, .. } => shards,
            other => panic!("expected a Shamir rebuild, got {other:?}"),
        };
        assert_eq!(rebuilt, [enc.shards[0].clone()]);
        // A present slot asked for comes back as it was.
        let asked = dispersal.repair_chunk(&borrowed(&shards), &[3, 0]).unwrap();
        let expected = vec![enc.shards[3].clone(), enc.shards[0].clone()];
        assert!(matches!(asked, CodecRepair::Rebuilt { shards, .. } if shards == expected));
        assert_eq!(
            policy.decode(&keys, "few", &shards, &enc.meta).unwrap(),
            b"secret"
        );
        shards[2] = None;
        shards[4] = None;
        assert_eq!(
            dispersal.gather(&borrowed(&shards), &enc.meta),
            Err(PolicyError::TooFewShards {
                available: 2,
                required: 3
            })
        );
        assert!(matches!(
            repair(dispersal, &shards),
            Err(RepairError::Share(ShareError::TooFewShares {
                provided: 2,
                required: 3
            }))
        ));
    }

    /// A repair slot outside the shard set is malformed, whatever the
    /// dispersal, rather than an index past the end.
    #[test]
    fn a_repair_slot_outside_the_set_is_malformed() {
        let (mut rng, keys) = fixtures();
        for policy in all_policies() {
            let enc = policy.encode(&mut rng, &keys, "out", b"bounded").unwrap();
            let shards: Vec<Option<Vec<u8>>> = enc.shards.into_iter().map(Some).collect();
            let (_, dispersal) = policy.scheme();
            assert!(
                matches!(
                    dispersal.repair_chunk(&borrowed(&shards), &[shards.len()]),
                    Err(RepairError::Policy(PolicyError::Malformed(_)))
                ),
                "{policy:?}"
            );
        }
    }

    /// A slot past share index 255 has no evaluation point: wrapping it
    /// would "repair" slot 255 to the secret itself (x = 0).
    #[test]
    fn shamir_repair_refuses_a_slot_beyond_the_last_share_index() {
        let (mut rng, keys) = fixtures();
        let policy = PolicyKind::Shamir {
            threshold: 2,
            shares: 3,
        };
        let enc = policy.encode(&mut rng, &keys, "wide", b"secret").unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = enc.shards.into_iter().map(Some).collect();
        shards.resize(256, None);
        let (_, dispersal) = policy.scheme();
        assert!(matches!(
            repair(dispersal, &shards),
            Err(RepairError::Policy(PolicyError::Malformed(_)))
        ));
    }

    #[test]
    fn only_cascade_supports_rewrap() {
        let (mut rng, keys) = fixtures();
        for policy in all_policies() {
            let supports = matches!(policy, PolicyKind::Cascade { .. });
            let new_policy = rewrapped_policy(&policy, SuiteId::ChaCha20Poly1305);
            assert_eq!(new_policy.is_ok(), supports, "{policy:?}");
            if supports {
                let enc = policy.encode(&mut rng, &keys, "rw", b"layer me").unwrap();
                let shards: Vec<Option<Vec<u8>>> = enc.shards.iter().cloned().map(Some).collect();
                let new_shards = rewrap_chunk(
                    layered(&policy).unwrap(),
                    &keys,
                    "rw",
                    0,
                    &borrowed(&shards),
                    SuiteId::ChaCha20Poly1305,
                )
                .unwrap();
                let wrapped: Vec<Option<Vec<u8>>> = new_shards.into_iter().map(Some).collect();
                let dec = new_policy
                    .unwrap()
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
