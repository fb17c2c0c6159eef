//! Maintenance golden: one deterministic sequence of every maintenance
//! op, run over four policy families with dedup off and on, pinned as a
//! single SHA-256 of everything it leaves behind.
//!
//! Each leg ingests three versions in one flush (the second shares its
//! first half with the first, the third its first half with the second),
//! drops one shard and flips one bit of another in the first version's
//! stored unit (in dedup mode: a data block the first two versions
//! share), then runs `repair_object`, `refresh_object`,
//! `add_cascade_layer`, `reencode_object`, `verify` and `scan_fleet`,
//! and deletes the third version. The families are Reed–Solomon, Shamir
//! (the one `refresh_object` accepts), Cascade (the one
//! `add_cascade_layer` accepts) and leakage-resilient Shamir, whose
//! repair has no per-shard structure and falls back to a full re-encode.
//!
//! The digest covers every returned report and error, the block map
//! (address, refcount, kind, policy, encoding metadata, placement, shard
//! digests), the catalog, every node's keys and bytes, and the virtual
//! clock of a throughput-priced cluster. A refactor of the maintenance
//! bodies, the unit records or the write-back must leave it where it is.

use aeon_cas::{BlockHash, ChunkerParams};
use aeon_core::dedup::DedupConfig;
use aeon_core::{
    block_object_id, Archive, ArchiveConfig, DispatchPolicy, IntegrityMode, ObjectId, PolicyKind,
};
use aeon_crypto::{ChaChaDrbg, CryptoRng, Sha256, SuiteId};
use aeon_integrity::timestamp::SigBreakSchedule;
use aeon_store::media::ArchiveSite;
use aeon_store::node::{MemoryNode, NodeId, ShardKey, StorageNode};
use aeon_store::throughput::{ThroughputNode, ThroughputProfile};
use aeon_store::{Cluster, SimClock};
use std::fmt::Debug;
use std::sync::Arc;

/// SHA-256 of the transcript of all eight legs.
const PINNED: &str = "eba101b903e771d486310c0c4e1fd79a3bb1ae38345000f4a2e52a1d05da5a36";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn families() -> Vec<PolicyKind> {
    vec![
        PolicyKind::ErasureCoded { data: 3, parity: 2 },
        PolicyKind::Shamir {
            threshold: 3,
            shares: 5,
        },
        PolicyKind::Cascade {
            suites: vec![SuiteId::Aes256CtrHmac],
            data: 2,
            parity: 2,
        },
        PolicyKind::LeakageResilientShamir {
            threshold: 2,
            shares: 4,
            source_len: 32,
        },
    ]
}

fn dedup() -> DedupConfig {
    DedupConfig {
        chunker: ChunkerParams {
            min_size: 256,
            target_size: 1024,
            max_size: 4096,
            seed: 0x5EED,
        },
        fanout: 4,
    }
}

/// Three versions: `A+B`, `A+C`, `C+D` over 3 KiB random parts.
fn versions() -> Vec<(Vec<u8>, String)> {
    let mut parts = vec![0u8; 4 * 3072];
    ChaChaDrbg::from_u64_seed(34).fill_bytes(&mut parts);
    let part = |i: usize| &parts[i * 3072..][..3072];
    [(0, 1), (0, 2), (2, 3)]
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| ([part(x), part(y)].concat(), format!("v{i}")))
        .collect()
}

/// A leg's transcript: every line goes into one running digest.
struct Transcript(Sha256);

impl Transcript {
    fn line(&mut self, label: &str, value: impl Debug) {
        self.0.update(format!("{label}: {value:?}\n").as_bytes());
    }
}

/// The storage context and placement of the unit the damage goes into:
/// the first version itself, or a data block it shares with the second.
fn target(archive: &Archive, ids: &[ObjectId]) -> (String, Vec<NodeId>) {
    let first = archive.manifest(&ids[0]).unwrap();
    let Some(tree) = first.blocks else {
        return (first.id.to_string(), first.placement);
    };
    let second = archive.manifest(&ids[1]).unwrap().blocks.unwrap().blocks;
    let shared: &BlockHash = tree
        .blocks
        .iter()
        .find(|h| second.contains(h))
        .expect("the first two versions share a block");
    let rec = archive.block_record(shared).unwrap();
    (block_object_id(shared), rec.record.placement.clone())
}

fn run_leg(policy: &PolicyKind, dedup_on: bool, out: &mut Transcript) {
    out.line("leg", (policy, dedup_on));
    let clock = SimClock::new();
    let profile = ThroughputProfile::from_site_aggregate(&ArchiveSite::hpss());
    let handles: Vec<MemoryNode> = (0..6)
        .map(|i| MemoryNode::new(i, format!("s{i}")))
        .collect();
    let nodes = handles
        .iter()
        .map(|h| {
            let inner = Arc::new(h.clone()) as Arc<dyn StorageNode>;
            Arc::new(ThroughputNode::new(inner, profile, clock.clone())) as Arc<dyn StorageNode>
        })
        .collect();
    let cluster = Cluster::new(nodes).with_clock(clock.clone());
    let mut config = ArchiveConfig::new(policy.clone())
        .with_integrity(IntegrityMode::DigestOnly)
        .with_dispatch(DispatchPolicy::Sequential);
    if dedup_on {
        config = config.with_dedup(dedup());
    }
    let mut a = Archive::with_cluster(config, cluster).unwrap();

    let items = versions();
    let borrowed: Vec<(&[u8], &str)> = items
        .iter()
        .map(|(p, n)| (p.as_slice(), n.as_str()))
        .collect();
    let ids = a.ingest_many(&borrowed).unwrap();
    out.line("ids", &ids);

    // Drop slot 0 and flip one bit of slot 1, behind the archive's back.
    let (context, placement) = target(&a, &ids);
    let node = |slot: usize| {
        let id = placement[slot];
        handles.iter().find(|h| h.id() == id).unwrap()
    };
    node(0).delete(&ShardKey::new(&context, 0)).unwrap();
    let key = ShardKey::new(&context, 1);
    let mut shard = node(1).get(&key).unwrap();
    let mid = shard.len() / 2;
    shard[mid] ^= 0x10;
    node(1).put(&key, &shard).unwrap();

    let schedule = SigBreakSchedule::default();
    out.line("verify damaged", a.verify(&ids[0], &schedule));
    out.line("scan damaged", a.scan_fleet());
    out.line("repair", a.repair_object(&ids[0]));
    out.line("refresh", a.refresh_object(&ids[0]));
    out.line(
        "rewrap",
        a.add_cascade_layer(&ids[0], SuiteId::ChaCha20Poly1305),
    );
    out.line("retrieve v0", a.retrieve(&ids[0]).map(|p| p == items[0].0));
    let target_policy = PolicyKind::Encrypted {
        suite: SuiteId::ChaCha20Poly1305,
        data: 2,
        parity: 2,
    };
    out.line("reencode", a.reencode_object(&ids[1], target_policy));
    for id in &ids {
        out.line("verify", a.verify(id, &schedule));
    }
    out.line("scan", a.scan_fleet());
    out.line("delete", a.delete(&ids[2]));
    for (id, (payload, _)) in ids.iter().zip(&items).take(2) {
        let read = a.retrieve(id);
        assert_eq!(
            read.as_ref().ok(),
            Some(payload),
            "{policy:?}, dedup {dedup_on}"
        );
        out.line("retrieve", read.map(|p| Sha256::digest(&p)));
    }
    out.line("dedup stats", a.dedup_stats());

    out.line("clock", clock.now());
    for (hash, rec) in a.blocks() {
        out.line("block", (hash, rec.refcount, rec.kind));
        out.line(
            "encoding",
            (&rec.record.policy, &rec.record.meta, &rec.record.placement),
        );
        let digests: Vec<String> = rec.record.shard_digests.iter().map(|d| hex(d)).collect();
        out.line("shard digests", digests);
    }
    for manifest in a.manifests() {
        out.line("manifest", manifest);
    }
    for handle in &handles {
        let mut keys = handle.keys();
        keys.sort();
        for key in keys {
            let bytes = handle.get(&key).unwrap();
            out.line("shard", (handle.id(), &key, hex(&Sha256::digest(&bytes))));
        }
    }
}

#[test]
fn maintenance_sequence_is_pinned() {
    let mut out = Transcript(Sha256::new());
    for policy in families() {
        for dedup_on in [false, true] {
            run_leg(&policy, dedup_on, &mut out);
        }
    }
    let digest = hex(&out.0.finalize());
    assert_eq!(digest, PINNED, "maintenance golden moved");
}
