//! Storage nodes: the unit of trust, failure, and compromise.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

/// Identifies a storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A shard key: object identifier plus shard index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardKey {
    /// The object this shard belongs to.
    pub object: String,
    /// Which shard of the object.
    pub shard: u32,
}

impl ShardKey {
    /// Creates a shard key.
    pub fn new(object: impl Into<String>, shard: u32) -> Self {
        ShardKey {
            object: object.into(),
            shard,
        }
    }
}

/// Errors from node operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The shard does not exist on this node.
    NotFound,
    /// The node is offline.
    Offline,
    /// An I/O error from the backing store.
    Io(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::NotFound => write!(f, "shard not found"),
            NodeError::Offline => write!(f, "node offline"),
            NodeError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// Immutable shard bytes, shared rather than copied: the unit a node
/// stores and hands back through [`StorageNode::put_blobs`] and
/// [`StorageNode::get_blobs`].
///
/// `Blob::from(Vec<u8>)` moves the buffer in without copying it (an
/// `Arc<[u8]>` built from a `Vec` would copy), and a clone shares the
/// same allocation. The bytes never change after construction, so a
/// blob fetched before an overwrite or a delete keeps the bytes it was
/// fetched with.
///
/// # Examples
///
/// ```
/// use aeon_store::node::Blob;
///
/// let shard = vec![1u8, 2, 3];
/// let at = shard.as_ptr();
/// let blob = Blob::from(shard);
/// assert_eq!(blob.as_ptr(), at, "moved in, not copied");
/// assert!(Blob::ptr_eq(&blob, &blob.clone()));
/// assert_eq!(&blob[..], [1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob(Arc<Vec<u8>>);

impl Blob {
    /// Whether `a` and `b` share one allocation, and so hold the same
    /// bytes without comparing them.
    #[must_use]
    pub fn ptr_eq(a: &Blob, b: &Blob) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Self {
        Blob(Arc::new(bytes))
    }
}

impl From<&[u8]> for Blob {
    /// Copies `bytes` into a new blob.
    fn from(bytes: &[u8]) -> Self {
        Blob::from(bytes.to_vec())
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A storage node holding shard blobs.
///
/// A backend implements the borrowed [`put`](StorageNode::put) and
/// [`get`](StorageNode::get); every other transfer method is provided
/// on top of them. It overrides the batch forms to price or ship a
/// frame as one request, and the blob forms
/// ([`put_blobs`](StorageNode::put_blobs),
/// [`get_blobs`](StorageNode::get_blobs)) only to keep a handed-over
/// [`Blob`] and hand it back without copying, as [`MemoryNode`] does.
///
/// Implementations must be thread-safe; the cluster fans out to nodes
/// concurrently during campaign simulations.
pub trait StorageNode: Send + Sync + fmt::Debug {
    /// This node's identity.
    fn id(&self) -> NodeId;

    /// The site (failure/compromise domain) the node lives in.
    fn site(&self) -> &str;

    /// Stores a shard.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Offline`] while the node is down or
    /// [`NodeError::Io`] from the backing store.
    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError>;

    /// Stores a batch of shards destined for this node in one call —
    /// the coalescing hook for fleet-scale batched plan execution. One
    /// `Result` per entry, in order.
    ///
    /// The default delegates to [`StorageNode::put`] per entry, so
    /// fault-injecting decorators keep their exact per-key semantics
    /// (each entry is that key's next `put` access). Media decorators
    /// override this to charge one seek for the whole frame instead of
    /// one per shard.
    fn put_batch(&self, entries: &[(ShardKey, &[u8])]) -> Vec<Result<(), NodeError>> {
        entries.iter().map(|(k, d)| self.put(k, d)).collect()
    }

    /// Retrieves a shard.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::NotFound`], [`NodeError::Offline`], or
    /// [`NodeError::Io`].
    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError>;

    /// Retrieves a batch of shards from this node in one call — the
    /// read-side coalescing hook mirroring [`StorageNode::put_batch`].
    /// One `Result` per key, in order.
    ///
    /// The default delegates to [`StorageNode::get`] per key, so
    /// fault-injecting decorators keep their exact per-key semantics
    /// (each key is that key's next `get` access). Media decorators
    /// override this to charge one seek for the whole response frame
    /// instead of one per shard.
    fn get_batch(&self, keys: &[ShardKey]) -> Vec<Result<Vec<u8>, NodeError>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Stores a frame of shards handed over by value: the write the
    /// archive's fan-out makes. One `Result` per entry, in order.
    ///
    /// The default lends the bytes to [`StorageNode::put_batch`], so a
    /// node that does not override this keeps its batch form's exact
    /// per-key semantics and pricing. A node that keeps bytes in memory
    /// overrides it to keep each [`Blob`] itself.
    fn put_blobs(&self, entries: Vec<(ShardKey, Blob)>) -> Vec<Result<(), NodeError>> {
        let (keys, blobs): (Vec<ShardKey>, Vec<Blob>) = entries.into_iter().unzip();
        let lent: Vec<(ShardKey, &[u8])> =
            keys.into_iter().zip(blobs.iter().map(|b| &b[..])).collect();
        self.put_batch(&lent)
    }

    /// Retrieves a frame of shards as shared [`Blob`]s: the read the
    /// archive's fan-out makes. One `Result` per key, in order.
    ///
    /// The default wraps what [`StorageNode::get_batch`] returns, moving
    /// each buffer into its blob without copying it. A node that keeps
    /// blobs overrides it to hand back the stored [`Blob`] itself.
    fn get_blobs(&self, keys: &[ShardKey]) -> Vec<Result<Blob, NodeError>> {
        let results = self.get_batch(keys);
        results.into_iter().map(|r| r.map(Blob::from)).collect()
    }

    /// Deletes a shard (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Offline`] while the node is down or
    /// [`NodeError::Io`] from the backing store.
    fn delete(&self, key: &ShardKey) -> Result<(), NodeError>;

    /// Lists all shard keys on this node.
    fn keys(&self) -> Vec<ShardKey>;

    /// Bytes stored on this node.
    fn stored_bytes(&self) -> u64;
}

/// An in-memory storage node: one blob map behind one lock. It stores
/// bytes and nothing else; faults come from wrapping it in a
/// [`FaultyNode`](crate::faults::FaultyNode).
///
/// It overrides the blob forms: [`put_blobs`](StorageNode::put_blobs)
/// keeps each handed-over [`Blob`] and
/// [`get_blobs`](StorageNode::get_blobs) hands the stored one back, so
/// neither copies a byte. The borrowed `put` / `get` copy in and out.
///
/// # Examples
///
/// ```
/// use aeon_store::node::{MemoryNode, ShardKey, StorageNode};
///
/// let node = MemoryNode::new(0, "us-east");
/// let key = ShardKey::new("obj-1", 0);
/// node.put(&key, b"shard bytes")?;
/// assert_eq!(node.get(&key)?, b"shard bytes");
/// # Ok::<(), aeon_store::node::NodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryNode {
    inner: Arc<MemoryNodeInner>,
}

#[derive(Debug)]
struct MemoryNodeInner {
    id: NodeId,
    site: String,
    /// Ordered, so that listing, exfiltration and teardown visit blobs
    /// in key order: a `HashMap`'s per-instance seed made the order —
    /// and with it the allocator's state after a node is dropped —
    /// differ from one run of the same program to the next.
    blobs: RwLock<BTreeMap<ShardKey, Blob>>,
}

impl MemoryNode {
    /// Creates a node at the given site.
    pub fn new(id: u32, site: impl Into<String>) -> Self {
        MemoryNode {
            inner: Arc::new(MemoryNodeInner {
                id: NodeId(id),
                site: site.into(),
                blobs: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// Adversary hook: dumps every blob on the node (a total compromise).
    pub fn exfiltrate_all(&self) -> Vec<(ShardKey, Vec<u8>)> {
        self.inner
            .blobs
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.to_vec()))
            .collect()
    }
}

impl StorageNode for MemoryNode {
    fn id(&self) -> NodeId {
        self.inner.id
    }

    fn site(&self) -> &str {
        &self.inner.site
    }

    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        self.inner
            .blobs
            .write()
            .insert(key.clone(), Blob::from(data));
        Ok(())
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        let blobs = self.inner.blobs.read();
        blobs
            .get(key)
            .map(|b| b.to_vec())
            .ok_or(NodeError::NotFound)
    }

    fn put_blobs(&self, entries: Vec<(ShardKey, Blob)>) -> Vec<Result<(), NodeError>> {
        let mut blobs = self.inner.blobs.write();
        let stored = entries.into_iter().map(|(key, blob)| {
            blobs.insert(key, blob);
            Ok(())
        });
        stored.collect()
    }

    fn get_blobs(&self, keys: &[ShardKey]) -> Vec<Result<Blob, NodeError>> {
        let blobs = self.inner.blobs.read();
        let found = keys.iter().map(|key| blobs.get(key).cloned());
        found.map(|blob| blob.ok_or(NodeError::NotFound)).collect()
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        self.inner.blobs.write().remove(key);
        Ok(())
    }

    fn keys(&self) -> Vec<ShardKey> {
        self.inner.blobs.read().keys().cloned().collect()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner
            .blobs
            .read()
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }
}

/// Suffix of the temp file a [`FileNode`] put writes before renaming it
/// over the shard's file. Shard file names never contain a second `.`
/// (object ids are percent-encoded), so no shard ends with it.
const TEMP_SUFFIX: &str = ".tmp";

/// A file-backed storage node: each shard is a file under the node's root
/// directory. Used by durability-oriented integration tests.
#[derive(Debug)]
pub struct FileNode {
    id: NodeId,
    site: String,
    root: PathBuf,
}

impl FileNode {
    /// Creates a node rooted at `root` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the directory cannot be created.
    pub fn create(id: u32, site: impl Into<String>, root: PathBuf) -> Result<Self, NodeError> {
        std::fs::create_dir_all(&root).map_err(|e| NodeError::Io(e.to_string()))?;
        Ok(FileNode {
            id: NodeId(id),
            site: site.into(),
            root,
        })
    }

    fn path_for(&self, key: &ShardKey) -> PathBuf {
        // Object ids are caller-controlled: encode to a safe filename.
        let safe: String = key
            .object
            .bytes()
            .map(|b| {
                if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
                    (b as char).to_string()
                } else {
                    format!("%{b:02x}")
                }
            })
            .collect();
        self.root.join(format!("{safe}.{}", key.shard))
    }
}

impl StorageNode for FileNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn site(&self) -> &str {
        &self.site
    }

    /// Writes atomically: the bytes go to a temp file beside the shard,
    /// which is fsynced and renamed over the shard's file, then the
    /// directory is fsynced. A crash leaves the old shard or the new one,
    /// never a torn one — at worst a leftover temp file, which
    /// [`keys`](StorageNode::keys) and
    /// [`stored_bytes`](StorageNode::stored_bytes) ignore. A failed step
    /// removes the temp file.
    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        let path = self.path_for(key);
        let mut tmp = path.clone().into_os_string();
        tmp.push(TEMP_SUFFIX);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut file| {
                std::io::Write::write_all(&mut file, data)?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path))
            .and_then(|()| std::fs::File::open(&self.root)?.sync_all());
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written.map_err(|e| NodeError::Io(e.to_string()))
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        match std::fs::read(self.path_for(key)) {
            Ok(data) => Ok(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(NodeError::NotFound),
            Err(e) => Err(NodeError::Io(e.to_string())),
        }
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(NodeError::Io(e.to_string())),
        }
    }

    fn keys(&self) -> Vec<ShardKey> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                if name.ends_with(TEMP_SUFFIX) {
                    return None;
                }
                let (obj, shard) = name.rsplit_once('.')?;
                // Decode percent-encoding.
                let mut decoded = Vec::new();
                let bytes = obj.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i] == b'%' && i + 2 < bytes.len() {
                        let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
                        decoded.push(u8::from_str_radix(hex, 16).ok()?);
                        i += 3;
                    } else {
                        decoded.push(bytes[i]);
                        i += 1;
                    }
                }
                Some(ShardKey {
                    object: String::from_utf8(decoded).ok()?,
                    shard: shard.parse().ok()?,
                })
            })
            .collect()
    }

    fn stored_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| !e.file_name().to_string_lossy().ends_with(TEMP_SUFFIX))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_node_crud() {
        let node = MemoryNode::new(1, "eu-west");
        let key = ShardKey::new("obj", 3);
        assert_eq!(node.get(&key).unwrap_err(), NodeError::NotFound);
        node.put(&key, b"data").unwrap();
        assert_eq!(node.get(&key).unwrap(), b"data");
        assert_eq!(node.stored_bytes(), 4);
        node.delete(&key).unwrap();
        assert_eq!(node.get(&key).unwrap_err(), NodeError::NotFound);
        assert_eq!(node.stored_bytes(), 0);
    }

    /// The blob forms move bytes without copying them: `get_blobs` hands
    /// back the very allocation `put_blobs` stored, a miss is `NotFound`
    /// in its own slot, and the borrowed forms read the same bytes.
    #[test]
    fn memory_node_serves_the_blob_it_stored() {
        let node = MemoryNode::new(2, "eu-west");
        let blobs: Vec<Blob> = [&b"first"[..], b"second"].map(Blob::from).into();
        let keys = [ShardKey::new("obj", 0), ShardKey::new("obj", 1)];
        let entries = keys.iter().cloned().zip(blobs.iter().cloned()).collect();
        assert_eq!(node.put_blobs(entries), vec![Ok(()), Ok(())]);
        let missing = ShardKey::new("obj", 2);
        let got = node.get_blobs(&[keys[1].clone(), missing, keys[0].clone()]);
        assert!(Blob::ptr_eq(got[0].as_ref().unwrap(), &blobs[1]));
        assert_eq!(got[1], Err(NodeError::NotFound));
        assert!(Blob::ptr_eq(got[2].as_ref().unwrap(), &blobs[0]));
        assert_eq!(node.get(&keys[1]).unwrap(), b"second");
    }

    /// A blob is immutable: one fetched before an overwrite or a delete
    /// keeps the bytes it was fetched with, while the node serves the new
    /// state; `stored_bytes` counts the lengths the node holds now.
    #[test]
    fn a_fetched_blob_outlives_an_overwrite_and_a_delete() {
        let node = MemoryNode::new(3, "eu-west");
        let (a, b) = (ShardKey::new("a", 0), ShardKey::new("b", 0));
        node.put_blobs(vec![
            (a.clone(), Blob::from(vec![1; 10])),
            (b.clone(), vec![2; 7].into()),
        ]);
        assert_eq!(node.stored_bytes(), 17);
        let before = node.get_blobs(&[a.clone(), b.clone()]);
        node.put(&a, &[3; 4]).unwrap();
        node.delete(&b).unwrap();
        assert_eq!(before[0].as_deref(), Ok(&[1u8; 10][..]));
        assert_eq!(before[1].as_deref(), Ok(&[2u8; 7][..]));
        assert_eq!(node.get(&a).unwrap(), [3; 4]);
        assert_eq!(node.get_blobs(&[b]), vec![Err(NodeError::NotFound)]);
        assert_eq!(node.stored_bytes(), 4);
    }

    #[test]
    fn memory_node_lists_keys_in_key_order() {
        let node = MemoryNode::new(1, "eu-west");
        for (object, shard) in [("b", 1), ("a", 2), ("b", 0), ("a", 0)] {
            node.put(&ShardKey::new(object, shard), b"x").unwrap();
        }
        let expect = [("a", 0), ("a", 2), ("b", 0), ("b", 1)].map(|(o, s)| ShardKey::new(o, s));
        assert_eq!(node.keys(), expect);
    }

    #[test]
    fn memory_node_exfiltration() {
        let node = MemoryNode::new(4, "x");
        node.put(&ShardKey::new("a", 0), b"1").unwrap();
        node.put(&ShardKey::new("b", 0), b"2").unwrap();
        let dump = node.exfiltrate_all();
        assert_eq!(dump.len(), 2);
    }

    #[test]
    fn file_node_crud_and_listing() {
        let dir = std::env::temp_dir().join(format!("aeon-node-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node = FileNode::create(5, "dc-1", dir.clone()).unwrap();
        let key = ShardKey::new("obj/with:odd chars", 7);
        node.put(&key, b"persisted").unwrap();
        assert_eq!(node.get(&key).unwrap(), b"persisted");
        let keys = node.keys();
        assert_eq!(keys, vec![key.clone()]);
        assert_eq!(node.stored_bytes(), 9);
        node.delete(&key).unwrap();
        assert_eq!(node.get(&key).unwrap_err(), NodeError::NotFound);
        node.delete(&key).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash between a put's temp write and its rename leaves a temp
    /// file behind: no listing, read or byte count sees it, and the
    /// shard it shadows keeps its old bytes.
    #[test]
    fn file_node_ignores_a_leftover_temp_file() {
        let dir = std::env::temp_dir().join(format!("aeon-node-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node = FileNode::create(6, "dc-1", dir.clone()).unwrap();
        let key = ShardKey::new("obj", 2);
        node.put(&key, b"old").unwrap();
        std::fs::write(dir.join("obj.2.tmp"), b"torn new bytes").unwrap();
        std::fs::write(dir.join("other.0.tmp"), b"never renamed").unwrap();
        assert_eq!(node.keys(), vec![key.clone()]);
        assert_eq!(node.get(&key).unwrap(), b"old");
        assert_eq!(
            node.get(&ShardKey::new("other", 0)).unwrap_err(),
            NodeError::NotFound
        );
        assert_eq!(node.stored_bytes(), 3);
        // The next put of the key replaces the leftover and lands whole.
        node.put(&key, b"new").unwrap();
        assert_eq!(node.get(&key).unwrap(), b"new");
        assert!(!dir.join("obj.2.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_key_equality() {
        assert_eq!(ShardKey::new("a", 1), ShardKey::new("a", 1));
        assert_ne!(ShardKey::new("a", 1), ShardKey::new("a", 2));
        assert_ne!(ShardKey::new("a", 1), ShardKey::new("b", 1));
    }
}
