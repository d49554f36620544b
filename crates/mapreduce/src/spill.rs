//! Binary spill codec for intermediate records.
//!
//! Hadoop serializes every intermediate record to disk between the map and
//! reduce phases. The simulator keeps records in memory until a shuffle
//! partition outgrows its budget ([`crate::shuffle::ShuffleSpillConfig`]);
//! the spilling shuffle's external sorter then writes its runs in this
//! codec. The format is a simple length-delimited little-endian binary
//! encoding with LEB128 varints.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::MrError;

/// Types that can be written to and read back from a spill buffer.
pub trait SpillCodec: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode one value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, MrError>;
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, MrError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(MrError::Spill("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(MrError::Spill("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl SpillCodec for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        get_varint(buf)
    }
}

impl SpillCodec for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        if !buf.has_remaining() {
            return Err(MrError::Spill("truncated u8".into()));
        }
        Ok(buf.get_u8())
    }
}

impl SpillCodec for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        u32::try_from(get_varint(buf)?).map_err(|_| MrError::Spill("u32 overflow".into()))
    }
}

impl SpillCodec for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        let len = get_varint(buf)? as usize;
        if buf.remaining() < len {
            return Err(MrError::Spill("truncated string".into()));
        }
        let raw = buf.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|e| MrError::Spill(e.to_string()))
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        let len = get_varint(buf)? as usize;
        // Guard against hostile/corrupt lengths: cap the pre-allocation.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, MrError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: SpillCodec + PartialEq + std::fmt::Debug + Clone>(values: Vec<T>) {
        let mut buf = BytesMut::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let back: Vec<T> = values
            .iter()
            .map(|_| T::decode(&mut bytes).unwrap())
            .collect();
        assert_eq!(back, values);
        assert!(!bytes.has_remaining(), "trailing bytes after decode");
    }

    #[test]
    fn round_trip_u64() {
        round_trip(vec![0u64, 1, 127, 128, 300, u64::MAX]);
    }

    #[test]
    fn round_trip_u8_and_block_keys() {
        round_trip(vec![0u8, 1, 127, 128, 255]);
        // The ER pipeline's blocking key shape.
        round_trip(vec![(3u8, "pre".to_string()), (0u8, String::new())]);
    }

    #[test]
    fn round_trip_strings() {
        round_trip(vec![String::new(), "hello".into(), "ünïcode ✓".into()]);
    }

    #[test]
    fn round_trip_nested() {
        round_trip(vec![
            (42u32, vec!["a".to_string(), "b".to_string()]),
            (0u32, vec![]),
        ]);
    }

    #[test]
    fn truncated_decode_errors() {
        let mut buf = BytesMut::new();
        "hello".to_string().encode(&mut buf);
        let mut bytes = buf.freeze().slice(0..3); // cut mid-record
        assert!(String::decode(&mut bytes).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }
}
