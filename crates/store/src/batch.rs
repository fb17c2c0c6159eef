//! Wire framing for coalesced shard-write batches and the matching
//! read-response frames.
//!
//! Batched plan execution groups per-object shard writes by target node
//! and ships each group as **one** framed transfer, so seek-dominated
//! media (tape, optical, spun-down disk) charge a single positioning
//! delay for the whole batch instead of one per shard. The frame format
//! here is the accounting unit for that transfer: media decorators
//! charge [`framed_len`] bytes for a batch, and the roundtrip encoders
//! exist so the frame is a real, testable wire artifact rather than a
//! number pulled from the air.
//!
//! Write-batch layout (all integers little-endian):
//!
//! ```text
//! "AEONBAT1"                                  8-byte magic
//! u32 entry count
//! per entry:
//!   u32 object-name length | object-name bytes (UTF-8)
//!   u32 shard index
//!   u32 data length        | data bytes
//! ```
//!
//! The read side mirrors this with a *response* frame: a batched get
//! ships one request per node and the node answers with one
//! `"AEONBAR1"` frame carrying every hit and miss. A miss still
//! occupies an entry (status byte 0, no payload) so the response stays
//! positionally aligned with the request and the per-key error
//! semantics of individual gets survive coalescing:
//!
//! ```text
//! "AEONBAR1"                                  8-byte magic
//! u32 entry count
//! per entry:
//!   u32 object-name length | object-name bytes (UTF-8)
//!   u32 shard index
//!   u8  status (1 = present, 0 = absent)
//!   if present: u32 data length | data bytes
//! ```
//!
//! Framing is *transport* accounting only — it never changes what each
//! node stores. A decoded frame applies entry by entry with exactly the
//! per-key semantics of individual puts, which is what makes batched
//! execution byte-identical to sequential execution.

use crate::node::ShardKey;

/// Magic prefix identifying a v1 batch frame.
pub const BATCH_MAGIC: &[u8; 8] = b"AEONBAT1";

/// Bytes of frame overhead per batch (magic + entry count).
const HEADER_LEN: usize = 8 + 4;

/// Bytes of frame overhead per entry (name length + shard + data length).
const ENTRY_OVERHEAD: usize = 4 + 4 + 4;

/// The exact encoded size of a batch frame for `entries`, computed
/// without materializing the frame. Media decorators use this as the
/// transfer size of a coalesced write.
///
/// # Examples
///
/// ```
/// use aeon_store::batch::{encode_batch_frame, framed_len};
/// use aeon_store::node::ShardKey;
///
/// let key = ShardKey::new("obj", 0);
/// let entries = vec![(key, &[1u8, 2, 3][..])];
/// assert_eq!(framed_len(&entries), encode_batch_frame(&entries).len());
/// ```
pub fn framed_len(entries: &[(ShardKey, &[u8])]) -> usize {
    write_frame_len(entries.iter().map(|(key, data)| (key, data.len())))
}

/// [`framed_len`] of a frame given as `(key, data length)` pairs: the
/// one size rule for every write frame, whoever holds its bytes.
pub(crate) fn write_frame_len<'k>(entries: impl Iterator<Item = (&'k ShardKey, usize)>) -> usize {
    HEADER_LEN
        + entries
            .map(|(key, len)| ENTRY_OVERHEAD + key.object.len() + len)
            .sum::<usize>()
}

/// Encodes `entries` into a v1 batch frame.
pub fn encode_batch_frame(entries: &[(ShardKey, &[u8])]) -> Vec<u8> {
    let mut out = Vec::with_capacity(framed_len(entries));
    out.extend_from_slice(BATCH_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, data) in entries {
        out.extend_from_slice(&(key.object.len() as u32).to_le_bytes());
        out.extend_from_slice(key.object.as_bytes());
        out.extend_from_slice(&key.shard.to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
    out
}

/// Decodes a v1 batch frame back into owned `(key, data)` entries.
///
/// # Errors
///
/// Returns a description of the first structural violation: bad magic,
/// truncated field, non-UTF-8 object name, or trailing garbage.
pub fn decode_batch_frame(frame: &[u8]) -> Result<Vec<(ShardKey, Vec<u8>)>, String> {
    let mut rest = frame;
    let magic = take(&mut rest, 8).ok_or("frame shorter than magic")?;
    if magic != BATCH_MAGIC {
        return Err("bad batch magic".into());
    }
    let count = take_u32(&mut rest).ok_or("truncated entry count")? as usize;
    // Capacity from the bytes present, not the claimed count.
    let mut entries = Vec::with_capacity(count.min(rest.len() / ENTRY_OVERHEAD));
    for i in 0..count {
        let name_len = take_u32(&mut rest)
            .ok_or_else(|| format!("entry {i}: truncated name length"))?
            as usize;
        let name = take(&mut rest, name_len).ok_or_else(|| format!("entry {i}: truncated name"))?;
        let object = core::str::from_utf8(name)
            .map_err(|_| format!("entry {i}: object name is not UTF-8"))?
            .to_string();
        let shard =
            take_u32(&mut rest).ok_or_else(|| format!("entry {i}: truncated shard index"))?;
        let data_len = take_u32(&mut rest)
            .ok_or_else(|| format!("entry {i}: truncated data length"))?
            as usize;
        let data = take(&mut rest, data_len)
            .ok_or_else(|| format!("entry {i}: truncated data"))?
            .to_vec();
        entries.push((ShardKey { object, shard }, data));
    }
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after last entry", rest.len()));
    }
    Ok(entries)
}

/// Magic prefix identifying a v1 batched-read response frame.
pub const READ_MAGIC: &[u8; 8] = b"AEONBAR1";

/// Bytes of read-frame overhead per entry that is always present
/// (name length + shard + status byte).
const READ_ENTRY_OVERHEAD: usize = 4 + 4 + 1;

/// The exact encoded size of a read-response frame for `entries`
/// (`None` marks a key the node could not serve), computed without
/// materializing the frame. Media decorators use this as the transfer
/// size of a coalesced read.
///
/// # Examples
///
/// ```
/// use aeon_store::batch::{encode_read_frame, read_framed_len};
/// use aeon_store::node::ShardKey;
///
/// let key = ShardKey::new("obj", 0);
/// let entries = vec![(key, Some(&[1u8, 2, 3][..]))];
/// assert_eq!(read_framed_len(&entries), encode_read_frame(&entries).len());
/// ```
pub fn read_framed_len(entries: &[(ShardKey, Option<&[u8]>)]) -> usize {
    read_frame_len(
        entries
            .iter()
            .map(|(key, data)| (key, data.map(<[u8]>::len))),
    )
}

/// [`read_framed_len`] of a response given as `(key, data length)`
/// pairs, `None` for a miss: the one size rule for every read frame.
pub(crate) fn read_frame_len<'k>(
    entries: impl Iterator<Item = (&'k ShardKey, Option<usize>)>,
) -> usize {
    HEADER_LEN
        + entries
            .map(|(key, len)| READ_ENTRY_OVERHEAD + key.object.len() + len.map_or(0, |l| 4 + l))
            .sum::<usize>()
}

/// Encodes `entries` into a v1 read-response frame.
pub fn encode_read_frame(entries: &[(ShardKey, Option<&[u8]>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(read_framed_len(entries));
    out.extend_from_slice(READ_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, data) in entries {
        out.extend_from_slice(&(key.object.len() as u32).to_le_bytes());
        out.extend_from_slice(key.object.as_bytes());
        out.extend_from_slice(&key.shard.to_le_bytes());
        match data {
            Some(d) => {
                out.push(1);
                out.extend_from_slice(&(d.len() as u32).to_le_bytes());
                out.extend_from_slice(d);
            }
            None => out.push(0),
        }
    }
    out
}

/// Decodes a v1 read-response frame back into owned `(key, payload)`
/// entries, `None` marking keys the node could not serve.
///
/// # Errors
///
/// Returns a description of the first structural violation: bad magic,
/// truncated field, non-UTF-8 object name, invalid status byte, or
/// trailing garbage.
#[allow(clippy::type_complexity)]
pub fn decode_read_frame(frame: &[u8]) -> Result<Vec<(ShardKey, Option<Vec<u8>>)>, String> {
    let mut rest = frame;
    let magic = take(&mut rest, 8).ok_or("frame shorter than magic")?;
    if magic != READ_MAGIC {
        return Err("bad read-frame magic".into());
    }
    let count = take_u32(&mut rest).ok_or("truncated entry count")? as usize;
    let mut entries = Vec::with_capacity(count.min(rest.len() / READ_ENTRY_OVERHEAD));
    for i in 0..count {
        let name_len = take_u32(&mut rest)
            .ok_or_else(|| format!("entry {i}: truncated name length"))?
            as usize;
        let name = take(&mut rest, name_len).ok_or_else(|| format!("entry {i}: truncated name"))?;
        let object = core::str::from_utf8(name)
            .map_err(|_| format!("entry {i}: object name is not UTF-8"))?
            .to_string();
        let shard =
            take_u32(&mut rest).ok_or_else(|| format!("entry {i}: truncated shard index"))?;
        let status = take(&mut rest, 1).ok_or_else(|| format!("entry {i}: truncated status"))?[0];
        let data = match status {
            0 => None,
            1 => {
                let data_len = take_u32(&mut rest)
                    .ok_or_else(|| format!("entry {i}: truncated data length"))?
                    as usize;
                Some(
                    take(&mut rest, data_len)
                        .ok_or_else(|| format!("entry {i}: truncated data"))?
                        .to_vec(),
                )
            }
            other => return Err(format!("entry {i}: invalid status byte {other}")),
        };
        entries.push((ShardKey { object, shard }, data));
    }
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after last entry", rest.len()));
    }
    Ok(entries)
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if rest.len() < n {
        return None;
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Some(head)
}

fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    take(rest, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(ShardKey, Vec<u8>)> {
        vec![
            (ShardKey::new("obj-000001", 0), vec![1, 2, 3, 4]),
            (ShardKey::new("obj-000001", 3), vec![]),
            (ShardKey::new("blk-deadbeef", 7), vec![0xff; 257]),
        ]
    }

    fn borrow(entries: &[(ShardKey, Vec<u8>)]) -> Vec<(ShardKey, &[u8])> {
        entries
            .iter()
            .map(|(k, d)| (k.clone(), d.as_slice()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_entries_and_order() {
        let entries = sample_entries();
        let frame = encode_batch_frame(&borrow(&entries));
        let decoded = decode_batch_frame(&frame).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn framed_len_matches_encoded_length() {
        let entries = sample_entries();
        let borrowed = borrow(&entries);
        assert_eq!(framed_len(&borrowed), encode_batch_frame(&borrowed).len());
        assert_eq!(framed_len(&[]), encode_batch_frame(&[]).len());
    }

    #[test]
    fn empty_frame_roundtrips() {
        let frame = encode_batch_frame(&[]);
        assert_eq!(decode_batch_frame(&frame).unwrap(), vec![]);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut frame = encode_batch_frame(&[]);
        frame[0] ^= 0xff;
        assert!(decode_batch_frame(&frame).unwrap_err().contains("magic"));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let entries = sample_entries();
        let frame = encode_batch_frame(&borrow(&entries));
        for cut in 0..frame.len() {
            assert!(
                decode_batch_frame(&frame[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let entries = sample_entries();
        let mut frame = encode_batch_frame(&borrow(&entries));
        frame.push(0);
        assert!(decode_batch_frame(&frame).unwrap_err().contains("trailing"));
    }

    fn sample_read_entries() -> Vec<(ShardKey, Option<Vec<u8>>)> {
        vec![
            (ShardKey::new("obj-000001", 0), Some(vec![1, 2, 3, 4])),
            (ShardKey::new("obj-000001", 3), None),
            (ShardKey::new("blk-deadbeef", 7), Some(vec![])),
            (ShardKey::new("blk-deadbeef", 8), Some(vec![0xff; 257])),
        ]
    }

    fn borrow_read(entries: &[(ShardKey, Option<Vec<u8>>)]) -> Vec<(ShardKey, Option<&[u8]>)> {
        entries
            .iter()
            .map(|(k, d)| (k.clone(), d.as_deref()))
            .collect()
    }

    #[test]
    fn read_frame_roundtrip_preserves_hits_and_misses() {
        let entries = sample_read_entries();
        let frame = encode_read_frame(&borrow_read(&entries));
        let decoded = decode_read_frame(&frame).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn read_framed_len_matches_encoded_length() {
        let entries = sample_read_entries();
        let borrowed = borrow_read(&entries);
        assert_eq!(
            read_framed_len(&borrowed),
            encode_read_frame(&borrowed).len()
        );
        assert_eq!(read_framed_len(&[]), encode_read_frame(&[]).len());
    }

    #[test]
    fn read_frame_rejects_bad_magic_and_status() {
        let mut frame = encode_read_frame(&[]);
        frame[0] ^= 0xff;
        assert!(decode_read_frame(&frame).unwrap_err().contains("magic"));
        // A write frame is not a read frame.
        let write = encode_batch_frame(&[]);
        assert!(decode_read_frame(&write).unwrap_err().contains("magic"));
        // Corrupt the status byte of a single-entry frame.
        let key = ShardKey::new("o", 0);
        let mut frame = encode_read_frame(&[(key.clone(), None)]);
        let status_at = frame.len() - 1;
        frame[status_at] = 2;
        assert!(decode_read_frame(&frame).unwrap_err().contains("status"));
    }

    #[test]
    fn read_frame_rejects_truncation_at_every_length() {
        let entries = sample_read_entries();
        let frame = encode_read_frame(&borrow_read(&entries));
        for cut in 0..frame.len() {
            assert!(
                decode_read_frame(&frame[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut frame = frame;
        frame.push(0);
        assert!(decode_read_frame(&frame).unwrap_err().contains("trailing"));
    }

    mod read_frame_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_entry() -> impl Strategy<Value = (ShardKey, Option<Vec<u8>>)> {
            (
                "[a-z0-9-]{0,24}",
                any::<u32>(),
                any::<bool>(),
                proptest::collection::vec(any::<u8>(), 0..300),
            )
                .prop_map(|(object, shard, present, data)| {
                    (ShardKey { object, shard }, present.then_some(data))
                })
        }

        proptest! {
            /// Any mix of hits and misses survives the frame roundtrip
            /// with order, keys, and payloads intact, and the computed
            /// frame length always matches the encoded frame.
            #[test]
            fn roundtrip_and_length(entries in proptest::collection::vec(arb_entry(), 0..12)) {
                let borrowed = borrow_read(&entries);
                let frame = encode_read_frame(&borrowed);
                prop_assert_eq!(frame.len(), read_framed_len(&borrowed));
                let decoded = decode_read_frame(&frame).unwrap();
                prop_assert_eq!(decoded, entries);
            }
        }
    }

    /// A decode of hostile bytes under both frame parsers: each returns
    /// (never panics), and a frame either one accepts is canonical — it
    /// re-encodes to exactly the bytes it was parsed from.
    fn decodes_or_refuses(bytes: &[u8]) {
        if let Ok(entries) = decode_batch_frame(bytes) {
            assert_eq!(encode_batch_frame(&borrow(&entries)), bytes);
        }
        if let Ok(entries) = decode_read_frame(bytes) {
            assert_eq!(encode_read_frame(&borrow_read(&entries)), bytes);
        }
    }

    mod hostile_frames {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Arbitrary bytes behind no prefix, either magic, and either
            /// magic plus a small entry count (without one nearly every
            /// case stops at the count), parse or fail with `Err`.
            #[test]
            fn hostile_frame_bytes_parse_or_fail(
                prefix in 0u8..3,
                counted in any::<bool>(),
                count in 0u32..4,
                tail in proptest::collection::vec(any::<u8>(), 0..400),
            ) {
                let mut bytes = match prefix {
                    0 => Vec::new(),
                    1 => BATCH_MAGIC.to_vec(),
                    _ => READ_MAGIC.to_vec(),
                };
                if prefix > 0 && counted {
                    bytes.extend_from_slice(&count.to_le_bytes());
                }
                bytes.extend_from_slice(&tail);
                decodes_or_refuses(&bytes);
            }
        }
    }

    /// A real write frame and a real read frame with every bit flipped
    /// in turn: each flip parses or fails with `Err`, never a panic.
    #[test]
    fn hostile_frame_bit_flips_parse_or_fail() {
        let write = encode_batch_frame(&borrow(&sample_entries()));
        let read = encode_read_frame(&borrow_read(&sample_read_entries()));
        for frame in [write, read] {
            let mut flipped = frame.clone();
            for bit in 0..frame.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                decodes_or_refuses(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
