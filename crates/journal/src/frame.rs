//! Record framing: magic header + `[u32 len][u32 crc32][payload]` records.
//!
//! The layout is the classic write-ahead-log frame: a fixed 8-byte header
//! identifying the file and format version, then zero or more records, each
//! a little-endian payload length, a CRC-32 (IEEE) of the payload, and the
//! payload bytes. A crashed writer can leave at most one torn record at the
//! tail; recovery walks records from the front and stops at the first frame
//! whose length runs past the buffer or whose checksum fails, returning the
//! longest valid prefix plus a report of what (if anything) was dropped.
//! Nothing in this module panics on malformed input.

use pper_vfs::crc32;

/// Format version this build reads and writes. Version 1 journaled every
/// checkpoint as one JSON document carrying the whole schedule; version 2
/// journals the schedule once and each checkpoint cut as a per-task binary
/// delta (see [`crate::event`]). There is no second reader: a log of any
/// other version is [`crate::JournalError::UnsupportedVersion`].
pub const VERSION: u8 = 2;

/// File magic + format version ("PPERJNL" + [`VERSION`]).
pub const MAGIC: [u8; 8] = *b"PPERJNL\x02";

/// Per-record framing overhead: 4-byte length + 4-byte CRC.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a single frame may carry (a corrupt length field must
/// not make recovery attempt a multi-gigabyte slice).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// `usize` length → the `u32` wire field. Every caller frames payloads
/// bounded far below `u32::MAX` (see [`MAX_PAYLOAD`]); debug builds assert
/// the invariant so a future over-long payload trips loudly instead of
/// truncating silently.
pub(crate) fn len_u32(len: usize) -> u32 {
    debug_assert!(
        u32::try_from(len).is_ok(),
        "payload length {len} overflows the u32 wire field"
    );
    // lint:allow(lossy_cast) asserted in range above; payloads are capped at MAX_PAYLOAD
    len as u32
}

/// `usize` byte position → `u64` durable offset: a widening on every
/// supported target (`usize` is at most 64 bits here).
pub(crate) fn off_u64(pos: usize) -> u64 {
    // lint:allow(lossy_cast) usize -> u64 is a lossless widening on all supported targets
    pos as u64
}

/// Append one framed record for `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&len_u32(payload.len()).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What recovery found beyond the valid prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Byte length of the valid prefix (header + whole valid records).
    pub valid_bytes: u64,
    /// Bytes discarded past the valid prefix (torn tail or corruption).
    pub dropped_bytes: u64,
    /// A frame header or payload was cut short — the classic torn tail a
    /// killed writer leaves behind.
    pub torn_tail: bool,
    /// A complete frame's checksum did not match its payload (bit rot or
    /// an overwritten region); everything from it on is dropped.
    pub corrupt: bool,
}

impl RecoveryReport {
    /// True when the whole buffer parsed cleanly.
    pub fn clean(&self) -> bool {
        !self.torn_tail && !self.corrupt
    }
}

/// `(byte offset of the frame header, payload)` records plus how parsing
/// ended, as returned by [`read_frames`].
pub type ParsedFrames<'a> = (Vec<(u64, &'a [u8])>, RecoveryReport);

/// Check that `bytes` starts with this build's [`MAGIC`]: a pper journal of
/// another format version is [`crate::JournalError::UnsupportedVersion`],
/// anything else [`crate::JournalError::BadHeader`].
pub fn check_header(bytes: &[u8]) -> Result<(), crate::JournalError> {
    let Some(header) = bytes.get(..MAGIC.len()) else {
        return Err(crate::JournalError::BadHeader(format!(
            "{} bytes is shorter than the {}-byte magic",
            bytes.len(),
            MAGIC.len()
        )));
    };
    let (name, version) = header.split_at(MAGIC.len() - 1);
    if name != &MAGIC[..MAGIC.len() - 1] {
        Err(crate::JournalError::BadHeader(format!(
            "magic mismatch: expected {MAGIC:02x?}, found {header:02x?}"
        )))
    } else if version != [VERSION] {
        Err(crate::JournalError::UnsupportedVersion {
            found: version[0],
            supported: VERSION,
        })
    } else {
        Ok(())
    }
}

/// Parse a journal byte stream into `(byte offset, payload)` records.
///
/// The offset is the position of the record's frame header within the
/// stream. Returns an error only when the header itself is missing or
/// unrecognized — a valid header followed by garbage yields the longest
/// valid (possibly empty) record prefix.
pub fn read_frames(bytes: &[u8]) -> Result<ParsedFrames<'_>, crate::JournalError> {
    check_header(bytes)?;
    let mut records = Vec::new();
    let mut report = RecoveryReport::default();
    let mut pos = MAGIC.len();
    loop {
        if pos == bytes.len() {
            break; // clean end exactly on a record boundary
        }
        match frame_at(bytes, pos) {
            FrameParse::Ok { payload, next } => {
                records.push((off_u64(pos), payload));
                pos = next;
            }
            FrameParse::Torn => {
                report.torn_tail = true;
                break;
            }
            FrameParse::Corrupt => {
                report.corrupt = true;
                break;
            }
        }
    }
    report.valid_bytes = off_u64(pos);
    report.dropped_bytes = off_u64(bytes.len() - pos);
    Ok((records, report))
}

enum FrameParse<'a> {
    Ok { payload: &'a [u8], next: usize },
    Torn,
    Corrupt,
}

fn frame_at(bytes: &[u8], pos: usize) -> FrameParse<'_> {
    let Some(header) = bytes.get(pos..pos + FRAME_HEADER) else {
        return FrameParse::Torn;
    };
    let mut len_b = [0u8; 4];
    let mut crc_b = [0u8; 4];
    len_b.copy_from_slice(&header[..4]);
    crc_b.copy_from_slice(&header[4..]);
    let Ok(len) = usize::try_from(u32::from_le_bytes(len_b)) else {
        return FrameParse::Corrupt;
    };
    if len > MAX_PAYLOAD {
        // An absurd length is corruption, not a torn tail: a real record
        // could never have been written this large.
        return FrameParse::Corrupt;
    }
    let start = pos + FRAME_HEADER;
    let Some(payload) = bytes.get(start..start + len) else {
        return FrameParse::Torn;
    };
    if crc32(payload) != u32::from_le_bytes(crc_b) {
        return FrameParse::Corrupt;
    }
    FrameParse::Ok {
        payload,
        next: start + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for p in payloads {
            write_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn round_trip_multiple_frames() {
        let s = stream(&[b"alpha", b"", b"gamma-longer-payload"]);
        let (records, report) = read_frames(&s).unwrap();
        assert!(report.clean());
        assert_eq!(report.valid_bytes, s.len() as u64);
        let payloads: Vec<&[u8]> = records.iter().map(|&(_, p)| p).collect();
        assert_eq!(
            payloads,
            vec![&b"alpha"[..], &b""[..], &b"gamma-longer-payload"[..]]
        );
        // Offsets are where each frame header starts.
        assert_eq!(records[0].0, MAGIC.len() as u64);
        assert_eq!(records[1].0, (MAGIC.len() + FRAME_HEADER + 5) as u64);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let full = stream(&[b"one", b"two"]);
        for cut in MAGIC.len()..full.len() - 1 {
            let (records, report) = read_frames(&full[..cut]).unwrap();
            assert!(records.len() <= 2);
            assert!(!report.corrupt);
            if cut < MAGIC.len() + FRAME_HEADER + 3 {
                assert!(records.is_empty());
            }
            // Every surviving record is intact.
            for &(_, p) in &records {
                assert!(p == b"one" || p == b"two");
            }
        }
    }

    #[test]
    fn corrupt_checksum_drops_suffix() {
        let mut s = stream(&[b"first", b"second"]);
        let flip = MAGIC.len() + FRAME_HEADER; // first byte of "first"
        s[flip] ^= 0xFF;
        let (records, report) = read_frames(&s).unwrap();
        assert!(records.is_empty());
        assert!(report.corrupt);
        assert_eq!(report.valid_bytes, MAGIC.len() as u64);
        assert_eq!(report.dropped_bytes, (s.len() - MAGIC.len()) as u64);
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut s = stream(&[b"x"]);
        s[0] = b'Z';
        assert!(matches!(
            read_frames(&s),
            Err(crate::JournalError::BadHeader(_))
        ));
        assert!(matches!(
            read_frames(b"PP"),
            Err(crate::JournalError::BadHeader(_))
        ));
    }

    #[test]
    fn other_format_versions_are_a_typed_error() {
        // A hand-built version-1 log: the old magic, then a record.
        let mut v1 = b"PPERJNL\x01".to_vec();
        write_frame(&mut v1, b"whatever version 1 wrote");
        for log in [&v1[..], &v1[..MAGIC.len()], b"PPERJNL\x03"] {
            assert_eq!(
                read_frames(log).unwrap_err(),
                crate::JournalError::UnsupportedVersion {
                    found: log[7],
                    supported: VERSION,
                }
            );
        }
    }

    #[test]
    fn absurd_length_is_corruption_not_torn() {
        let mut s = MAGIC.to_vec();
        s.extend_from_slice(&u32::MAX.to_le_bytes());
        s.extend_from_slice(&0u32.to_le_bytes());
        let (records, report) = read_frames(&s).unwrap();
        assert!(records.is_empty());
        assert!(report.corrupt && !report.torn_tail);
    }
}
