//! Shipping shards between sites: the in-transit leg of Table 1.
//!
//! The paper's observation: an adversary facing an information-
//! theoretically secure *datastore* attacks the *channel* instead,
//! because TLS-class transit encryption is only computational. This
//! module moves an object's shards over either channel family so the
//! whole Table 1 row — at rest *and* in transit — is executable:
//!
//! * [`ship_computational`] — ephemeral-DH + AEAD sessions (TLS-like).
//!   Taps record ciphertext that falls retroactively with the group.
//! * [`ship_its`] — QKD-fed one-time-pad channels with Wegman–Carter
//!   authentication. Taps record information-theoretic noise.
//!
//! Shards are sourced through the archive's digest-filtered fetch path
//! (and so through the `PlanExecutor`) — shipment never reads nodes
//! directly — one stored unit at a time: a classic object is its own
//! shard set, a dedup object ships as the shard sets of the blocks it
//! references.

use crate::archive::{Archive, ArchiveError, ObjectId};
use aeon_channel::dh;
use aeon_channel::qkd::{OtpChannel, QkdLink};
use aeon_channel::transport::{End, Link, Tap};
use aeon_crypto::ChaChaDrbg;
use aeon_num::ModpGroup;
use aeon_store::node::Blob;

/// Statistics from a shard shipment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipmentReport {
    /// Shards shipped.
    pub shards: usize,
    /// Payload bytes shipped (pre-framing).
    pub payload_bytes: u64,
    /// Bytes that actually crossed the link (with handshake/framing).
    pub wire_bytes: u64,
    /// Simulated link-seconds consumed.
    pub link_seconds: f64,
    /// Pad bytes consumed (ITS shipments only).
    pub pad_bytes: u64,
}

/// The shards to ship for `id`: the surviving shards of every stored
/// unit behind it, in `units_of` order, through the retrying,
/// digest-filtered fetch — never ship a bit-rotted shard.
fn shipment(archive: &Archive, id: &ObjectId, label: &str) -> Result<Vec<Blob>, ArchiveError> {
    let units = archive.units_of(archive.row(id)?);
    let mut shards = Vec::new();
    for unit in &units {
        let fetched = archive.fetch_shards(&archive.load(unit)?, label);
        shards.extend(fetched.shards.into_iter().flatten());
    }
    Ok(shards)
}

/// Ships all shards of `id` over a computational (DH + AEAD) channel,
/// returning the shards as received on the far end plus transfer stats.
/// Attach a [`Tap`] to `link` beforehand to model an eavesdropper.
///
/// # Errors
///
/// Propagates archive and channel failures.
pub fn ship_computational(
    archive: &Archive,
    id: &ObjectId,
    link: &mut Link,
    rng_seed: u64,
) -> Result<(Vec<Vec<u8>>, ShipmentReport), ArchiveError> {
    let shards = shipment(archive, id, "ship-dh")?;

    let group = ModpGroup::rfc3526_2048();
    let mut rng = ChaChaDrbg::from_u64_seed(rng_seed);
    let (mut tx, mut rx) = dh::handshake(&mut rng, &group, link)
        .map_err(|e| ArchiveError::Channel(format!("handshake: {e}")))?;

    let mut received = Vec::with_capacity(shards.len());
    let mut payload_bytes = 0u64;
    for shard in &shards {
        payload_bytes += shard.len() as u64;
        tx.send(link, shard);
        let got = rx
            .recv(link)
            .map_err(|e| ArchiveError::Channel(format!("record: {e}")))?;
        received.push(got);
    }
    let report = ShipmentReport {
        shards: shards.len(),
        payload_bytes,
        wire_bytes: link.transferred_bytes(),
        link_seconds: link.simulated_seconds(),
        pad_bytes: 0,
    };
    Ok((received, report))
}

/// Ships all shards of `id` over an information-theoretic channel: a
/// simulated QKD link generates the pad, then the shards move under OTP +
/// one-time MAC. Returns received shards and stats (including pad
/// consumption — the QKD key-rate bill).
///
/// # Errors
///
/// Propagates archive and channel failures.
pub fn ship_its(
    archive: &Archive,
    id: &ObjectId,
    qkd: &mut QkdLink,
    link: &mut Link,
    rng_seed: u64,
) -> Result<(Vec<Vec<u8>>, ShipmentReport), ArchiveError> {
    let shards = shipment(archive, id, "ship-its")?;

    let payload: u64 = shards.iter().map(|s| s.len() as u64).sum();
    let pad_needed: usize = shards.iter().map(|s| s.len() + 32).sum();
    let mut rng = ChaChaDrbg::from_u64_seed(rng_seed);
    let (pad_tx, pad_rx) = qkd.generate_pad(&mut rng, pad_needed);
    let mut tx = OtpChannel::new(pad_tx);
    let mut rx = OtpChannel::new(pad_rx);

    let mut received = Vec::with_capacity(shards.len());
    for shard in &shards {
        let record = tx
            .seal(shard)
            .map_err(|e| ArchiveError::Channel(format!("otp seal: {e}")))?;
        link.send(End::A, record);
        let wire = link.recv(End::B).expect("record in flight");
        let got = rx
            .open(&wire)
            .map_err(|e| ArchiveError::Channel(format!("otp open: {e}")))?;
        received.push(got);
    }
    let report = ShipmentReport {
        shards: shards.len(),
        payload_bytes: payload,
        wire_bytes: link.transferred_bytes(),
        link_seconds: link.simulated_seconds() + qkd.elapsed_seconds(),
        pad_bytes: pad_needed as u64,
    };
    Ok((received, report))
}

/// Convenience: creates a tapped WAN link, returning both.
pub fn tapped_wan() -> (Link, Tap) {
    let mut link = Link::wan();
    let tap = Tap::new();
    link.attach_tap(tap.clone());
    (link, tap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveConfig, PolicyKind};

    fn archive_with_object() -> (Archive, ObjectId) {
        let mut archive = Archive::in_memory(ArchiveConfig::new(PolicyKind::Shamir {
            threshold: 2,
            shares: 3,
        }))
        .unwrap();
        let id = archive.ingest(b"shards in motion", "m").unwrap();
        (archive, id)
    }

    #[test]
    fn computational_shipment_delivers_shards() {
        let (archive, id) = archive_with_object();
        let mut link = Link::lan();
        let (received, report) = ship_computational(&archive, &id, &mut link, 7).unwrap();
        assert_eq!(received.len(), 3);
        assert_eq!(report.shards, 3);
        assert_eq!(report.payload_bytes, 16 * 3);
        assert!(report.wire_bytes > report.payload_bytes, "handshake + tags");
        // The delivered shards decode.
        let manifest = archive.manifest(&id).unwrap();
        let shards: Vec<Option<Vec<u8>>> = received.into_iter().map(Some).collect();
        let pt = manifest
            .policy
            .decode(archive.keys(), id.as_str(), &shards, &manifest.meta)
            .unwrap();
        assert_eq!(pt, b"shards in motion");
    }

    #[test]
    fn its_shipment_delivers_and_bills_pad() {
        let (archive, id) = archive_with_object();
        let mut qkd = QkdLink::metro_reference();
        let mut link = Link::wan();
        let (received, report) = ship_its(&archive, &id, &mut qkd, &mut link, 8).unwrap();
        assert_eq!(received.len(), 3);
        assert_eq!(report.pad_bytes, (16 + 32) * 3);
        assert!(report.link_seconds > 0.0);
        let manifest = archive.manifest(&id).unwrap();
        let shards: Vec<Option<Vec<u8>>> = received.into_iter().map(Some).collect();
        assert_eq!(
            manifest
                .policy
                .decode(archive.keys(), id.as_str(), &shards, &manifest.meta)
                .unwrap(),
            b"shards in motion"
        );
    }

    #[test]
    fn tap_sees_no_plaintext_on_either_channel() {
        let (archive, id) = archive_with_object();
        // Shamir shares are random-looking, so instead ingest under
        // replication where the shard IS the plaintext — the channel must
        // still hide it.
        let mut archive2 =
            Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication { copies: 2 })).unwrap();
        let id2 = archive2
            .ingest(b"PLAINTEXT-MARKER-0123456789", "p")
            .unwrap();

        let contains_marker = |frames: &[Vec<u8>]| {
            frames
                .iter()
                .any(|f| f.windows(27).any(|w| w == b"PLAINTEXT-MARKER-0123456789"))
        };

        let (mut link, tap) = tapped_wan();
        ship_computational(&archive2, &id2, &mut link, 9).unwrap();
        assert!(
            !contains_marker(&tap.capture()),
            "DH channel leaked plaintext"
        );

        let (mut link, tap) = tapped_wan();
        let mut qkd = QkdLink::metro_reference();
        ship_its(&archive2, &id2, &mut qkd, &mut link, 10).unwrap();
        assert!(
            !contains_marker(&tap.capture()),
            "OTP channel leaked plaintext"
        );

        let _ = (archive, id);
    }

    #[test]
    fn chunked_object_ships_and_decodes_on_far_end() {
        use crate::pipeline::{self, PipelineConfig};
        use crate::IntegrityMode;

        let mut archive = Archive::in_memory(
            ArchiveConfig::new(PolicyKind::Shamir {
                threshold: 2,
                shares: 3,
            })
            .with_integrity(IntegrityMode::DigestOnly)
            .with_pipeline(PipelineConfig::serial().with_chunk_size(256)),
        )
        .unwrap();
        let payload = vec![0x5Au8; 1500];
        let id = archive.ingest(&payload, "chunked").unwrap();
        let manifest = archive.manifest(&id).unwrap();
        assert!(manifest.meta.chunked.is_some());

        let mut link = Link::lan();
        let (received, report) = ship_computational(&archive, &id, &mut link, 11).unwrap();
        assert_eq!(report.shards, 3);
        // Shards are one framed blob per node, so shipment cost scales
        // with object size, not chunk count.
        assert!(report.payload_bytes >= payload.len() as u64);
        let shards: Vec<Option<Vec<u8>>> = received.into_iter().map(Some).collect();
        let pt = pipeline::decode_object(
            &manifest.policy,
            archive.keys(),
            id.as_str(),
            &shards,
            &manifest.meta,
            2,
        )
        .unwrap();
        assert_eq!(pt, payload);
    }

    #[test]
    fn unknown_object_rejected() {
        let (archive, _) = archive_with_object();
        let bogus = {
            let mut a2 =
                Archive::in_memory(ArchiveConfig::new(PolicyKind::Replication { copies: 1 }))
                    .unwrap();
            a2.ingest(b"x", "other").unwrap()
        };
        let mut link = Link::lan();
        assert!(matches!(
            ship_computational(&archive, &bogus, &mut link, 1),
            Err(ArchiveError::UnknownObject(_))
        ));
    }
}
