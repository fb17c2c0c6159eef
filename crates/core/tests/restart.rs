//! An archive starts over an empty cluster, and refuses one that already
//! holds shards.
//!
//! A new archive has an empty unit table, mints ids from a counter that
//! starts at zero and its configured seed, and derives each object's
//! seal key and nonce from its id. Over nodes another archive — or
//! itself, before a restart — already wrote, it would mint the first
//! archive's ids again, overwrite that archive's shards and seal new
//! payloads under the same AEAD key and nonce. So `Archive::with_cluster` refuses
//! any cluster where a node lists a key, and the shards already there
//! are left as they were.
//!
//! What stays open: two live archives that both start over one empty
//! cluster still mint the same ids and overwrite each other's shards,
//! since a new unit's put is not put-if-absent; a seal nonce is derived
//! from the master key and the id rather than drawn and recorded, so a
//! repeated id repeats its (key, nonce) pair; and reopening an archive
//! over its own nodes needs its unit table stored with them.

use aeon_core::{Archive, ArchiveConfig, ArchiveError, PolicyKind};
use aeon_crypto::SuiteId;
use aeon_store::node::{FileNode, MemoryNode, StorageNode};
use aeon_store::Cluster;
use std::sync::Arc;

fn config() -> ArchiveConfig {
    ArchiveConfig::new(PolicyKind::Encrypted {
        suite: SuiteId::ChaCha20Poly1305,
        data: 2,
        parity: 1,
    })
}

/// Every key the nodes hold, with its bytes, sorted.
fn contents(nodes: &[Arc<dyn StorageNode>]) -> Vec<(String, u32, Vec<u8>)> {
    let mut all: Vec<_> = nodes
        .iter()
        .flat_map(|node| {
            node.keys()
                .into_iter()
                .map(|key| (key.object.clone(), key.shard, node.get(&key).unwrap()))
        })
        .collect();
    all.sort();
    all
}

fn assert_refused(second: Result<Archive, ArchiveError>) {
    assert!(
        matches!(second, Err(ArchiveError::UnsupportedOperation(_))),
        "a second archive over shards already stored: {second:?}"
    );
}

/// Two archives over the same three memory nodes: the second is refused,
/// and the first's object still reads back from the three shards it
/// stored.
#[test]
fn a_second_archive_over_stored_shards_is_refused() {
    let nodes: Vec<Arc<dyn StorageNode>> = (0..3)
        .map(|i| Arc::new(MemoryNode::new(i, format!("site-{i}"))) as Arc<dyn StorageNode>)
        .collect();
    let mut first = Archive::with_cluster(config(), Cluster::new(nodes.clone())).unwrap();
    let payload = vec![0x11; 4096];
    let id = first.ingest(&payload, "doc").unwrap();
    let stored = contents(&nodes);
    assert_eq!(stored.len(), 3);

    assert_refused(Archive::with_cluster(config(), Cluster::new(nodes.clone())));
    assert_eq!(first.retrieve(&id).unwrap(), payload);
    assert_eq!(contents(&nodes), stored);
}

/// The restart case: an archive over file-backed nodes is dropped, and a
/// new one over the same directories is refused, leaving the three
/// stored shards byte for byte as they were.
#[test]
fn an_archive_over_its_own_files_after_a_restart_is_refused() {
    let dir = std::env::temp_dir().join(format!("aeon-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || -> Vec<Arc<dyn StorageNode>> {
        (0..3)
            .map(|i| {
                let root = dir.join(format!("node-{i}"));
                Arc::new(FileNode::create(i, format!("site-{i}"), root).unwrap())
                    as Arc<dyn StorageNode>
            })
            .collect()
    };
    let nodes = open();
    let mut first = Archive::with_cluster(config(), Cluster::new(nodes.clone())).unwrap();
    first.ingest(&[0x11; 4096], "doc").unwrap();
    drop(first);
    let stored = contents(&nodes);
    assert_eq!(stored.len(), 3);

    let nodes = open();
    assert_refused(Archive::with_cluster(config(), Cluster::new(nodes.clone())));
    assert_eq!(contents(&nodes), stored);
    let _ = std::fs::remove_dir_all(&dir);
}
