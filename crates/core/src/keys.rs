//! Key management: versioned master keys and per-object derivation.
//!
//! Every encrypted policy derives its object keys from a versioned master
//! key via HKDF, so rotating the master (after a suspected compromise)
//! re-keys *future* objects while the version history keeps old objects
//! readable until their re-encryption campaign completes — the bookkeeping
//! reality behind the paper's "growing history of encryption keys".

use aeon_crypto::hkdf;

/// A versioned key store.
///
/// # Examples
///
/// ```
/// use aeon_core::keys::KeyStore;
///
/// let mut ks = KeyStore::new([7u8; 32]);
/// let k1 = ks.object_key("obj-1", 0);
/// ks.rotate([8u8; 32]);
/// let k2 = ks.object_key("obj-1", 0);
/// assert_ne!(k1, k2); // new master, new derivation
/// assert_eq!(ks.object_key_for_version(0, "obj-1", 0), k1);
/// ```
#[derive(Clone)]
pub struct KeyStore {
    masters: Vec<[u8; 32]>,
}

/// How many master keys, never the keys: a `{:?}` of an archive must not
/// write them to a log.
impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("versions", &self.masters.len())
            .finish_non_exhaustive()
    }
}

impl KeyStore {
    /// Creates a store with an initial master key (version 0).
    pub fn new(master: [u8; 32]) -> Self {
        KeyStore {
            masters: vec![master],
        }
    }

    /// The current master-key version.
    pub fn current_version(&self) -> u32 {
        (self.masters.len() - 1) as u32
    }

    /// Rotates to a fresh master key, returning the new version.
    pub fn rotate(&mut self, master: [u8; 32]) -> u32 {
        self.masters.push(master);
        self.current_version()
    }

    /// Derives the layer key for an object under the *current* master.
    pub fn object_key(&self, object: &str, layer: u32) -> [u8; 32] {
        self.object_key_for_version(self.current_version(), object, layer)
    }

    /// Derives the layer key for an object under a historical master
    /// version.
    ///
    /// # Panics
    ///
    /// Panics if the version does not exist.
    pub fn object_key_for_version(&self, version: u32, object: &str, layer: u32) -> [u8; 32] {
        let info = format!("object:{object}:layer:{layer}");
        let master = self.master(version);
        let okm = hkdf::derive(b"aeon-object-key", master, info.as_bytes(), 32);
        let mut key = [0u8; 32];
        key.copy_from_slice(&okm);
        key
    }

    /// Derives the 16-byte entropic-cipher key for an object under master
    /// `version` — the version its manifest records, as for
    /// [`KeyStore::object_key_for_version`].
    ///
    /// # Panics
    ///
    /// Panics if the version does not exist.
    pub fn entropic_key(&self, version: u32, object: &str) -> [u8; 16] {
        let master = self.master(version);
        let okm = hkdf::derive(b"aeon-entropic-key", master, object.as_bytes(), 16);
        let mut key = [0u8; 16];
        key.copy_from_slice(&okm);
        key
    }

    fn master(&self, version: u32) -> &[u8; 32] {
        (self.masters.get(version as usize)).expect("unknown master key version")
    }

    /// Number of master versions retained (the key-history burden).
    pub fn history_len(&self) -> usize {
        self.masters.len()
    }

    /// Adversary hook: exposes a historical master, modelling key theft.
    pub fn exfiltrate_for_simulation(&self, version: u32) -> Option<[u8; 32]> {
        self.masters.get(version as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_output_never_spells_a_master_key() {
        use crate::archive::ArchiveConfig;
        use crate::policy::PolicyKind;

        let mut keys = KeyStore::new([0xA5; 32]);
        keys.rotate([0xA5; 32]);
        assert_eq!(format!("{keys:?}"), "KeyStore { versions: 2, .. }");
        let mut config = ArchiveConfig::new(PolicyKind::Replication { copies: 3 });
        config.master_key = [0xA5; 32];
        for text in [
            format!("{keys:?}"),
            format!("{keys:#?}"),
            format!("{config:?}"),
            format!("{config:#?}"),
        ] {
            for spelling in ["165", "a5", "A5"] {
                assert!(!text.contains(spelling), "{spelling:?} in {text}");
            }
        }
        // Everything else about a configuration is still there to log.
        assert!(format!("{config:?}").contains("rng_seed"));
    }

    #[test]
    fn derivation_is_deterministic_and_separated() {
        let ks = KeyStore::new([1u8; 32]);
        assert_eq!(ks.object_key("a", 0), ks.object_key("a", 0));
        assert_ne!(ks.object_key("a", 0), ks.object_key("b", 0));
        assert_ne!(ks.object_key("a", 0), ks.object_key("a", 1));
    }

    #[test]
    fn rotation_preserves_history() {
        let mut ks = KeyStore::new([1u8; 32]);
        let old = ks.object_key("x", 0);
        let v1 = ks.rotate([2u8; 32]);
        assert_eq!(v1, 1);
        assert_eq!(ks.current_version(), 1);
        assert_eq!(ks.history_len(), 2);
        assert_eq!(ks.object_key_for_version(0, "x", 0), old);
        assert_ne!(ks.object_key("x", 0), old);
    }

    #[test]
    fn entropic_key_is_16_bytes_and_distinct() {
        let ks = KeyStore::new([3u8; 32]);
        assert_ne!(ks.entropic_key(0, "a"), ks.entropic_key(0, "b"));
    }

    #[test]
    #[should_panic(expected = "unknown master key version")]
    fn unknown_version_panics() {
        let ks = KeyStore::new([0u8; 32]);
        let _ = ks.object_key_for_version(5, "x", 0);
    }

    #[test]
    fn exfiltration_hook() {
        let mut ks = KeyStore::new([9u8; 32]);
        ks.rotate([10u8; 32]);
        assert_eq!(ks.exfiltrate_for_simulation(0), Some([9u8; 32]));
        assert_eq!(ks.exfiltrate_for_simulation(9), None);
    }
}
