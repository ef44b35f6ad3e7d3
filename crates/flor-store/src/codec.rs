//! Binary encoding of values, rows and WAL records.
//!
//! Length-prefixed, self-describing, CRC-protected frames. The format is
//! append-only: a crash can only truncate the tail, never corrupt committed
//! prefixes — the recovery path in [`crate::wal`] relies on this.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use flor_df::Value;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-frame (a truncated tail).
    Truncated,
    /// Unknown type tag.
    BadTag(u8),
    /// Frame checksum mismatch.
    BadChecksum,
    /// Payload is structurally invalid.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadTag(t) => write!(f, "bad type tag {t}"),
            CodecError::BadChecksum => write!(f, "frame checksum mismatch"),
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Append a value's encoding to `buf`.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Decode one value from the front of `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => {
            if buf.remaining() < 1 {
                return Err(CodecError::Truncated);
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        TAG_INT => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Value::Int(buf.get_i64()))
        }
        TAG_FLOAT => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Value::Float(buf.get_f64()))
        }
        TAG_STR => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return Err(CodecError::Truncated);
            }
            let raw = buf.copy_to_bytes(len);
            let s = std::str::from_utf8(&raw).map_err(|e| CodecError::Malformed(e.to_string()))?;
            Ok(Value::Str(s.into()))
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Append a row (value-count-prefixed) to `buf`.
pub fn encode_row(row: &[Value], buf: &mut BytesMut) {
    buf.put_u16(row.len() as u16);
    for v in row {
        encode_value(v, buf);
    }
}

/// Decode one row from `buf`.
pub fn decode_row(buf: &mut Bytes) -> Result<Vec<Value>, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u16() as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(decode_value(buf)?);
    }
    Ok(row)
}

/// A WAL record: either a staged insert belonging to a transaction, or a
/// transaction commit marker.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Row staged into `table` under transaction `txn`.
    Insert {
        /// Owning transaction id.
        txn: u64,
        /// Destination table name.
        table: String,
        /// Row values.
        row: Vec<Value>,
    },
    /// Transaction `txn` committed — all of its staged inserts are durable.
    Commit {
        /// Committed transaction id.
        txn: u64,
    },
}

impl WalRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Insert { txn, .. } | WalRecord::Commit { txn } => *txn,
        }
    }
}

const REC_INSERT: u8 = 10;
const REC_COMMIT: u8 = 11;

/// FNV-1a, used as the frame checksum (fast, good error detection for this
/// purpose; not cryptographic — content hashes use SHA-256 in flor-git).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Encode a record as a `[len:u32][crc:u64][payload]` frame.
pub fn encode_record(rec: &WalRecord) -> Bytes {
    let mut payload = BytesMut::new();
    match rec {
        WalRecord::Insert { txn, table, row } => {
            payload.put_u8(REC_INSERT);
            payload.put_u64(*txn);
            payload.put_u16(table.len() as u16);
            payload.put_slice(table.as_bytes());
            encode_row(row, &mut payload);
        }
        WalRecord::Commit { txn } => {
            payload.put_u8(REC_COMMIT);
            payload.put_u64(*txn);
        }
    }
    let mut frame = BytesMut::with_capacity(payload.len() + 12);
    frame.put_u32(payload.len() as u32);
    frame.put_u64(fnv1a(&payload));
    frame.put_slice(&payload);
    frame.freeze()
}

/// Decode one frame from the front of `buf`. Returns `Ok(None)` at a clean
/// end-of-buffer, `Err(Truncated)` for a torn tail frame.
pub fn decode_record(buf: &mut Bytes) -> Result<Option<WalRecord>, CodecError> {
    if buf.remaining() == 0 {
        return Ok(None);
    }
    if buf.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32() as usize;
    let crc = buf.get_u64();
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let payload = buf.copy_to_bytes(len);
    if fnv1a(&payload) != crc {
        return Err(CodecError::BadChecksum);
    }
    decode_payload(payload).map(Some)
}

/// Decode a frame's already-checksummed payload into a [`WalRecord`].
pub fn decode_payload(payload: Bytes) -> Result<WalRecord, CodecError> {
    let mut p = payload;
    if p.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    match p.get_u8() {
        REC_INSERT => {
            if p.remaining() < 10 {
                return Err(CodecError::Truncated);
            }
            let txn = p.get_u64();
            let tlen = p.get_u16() as usize;
            if p.remaining() < tlen {
                return Err(CodecError::Truncated);
            }
            let traw = p.copy_to_bytes(tlen);
            let table = std::str::from_utf8(&traw)
                .map_err(|e| CodecError::Malformed(e.to_string()))?
                .to_string();
            let row = decode_row(&mut p)?;
            Ok(WalRecord::Insert { txn, table, row })
        }
        REC_COMMIT => {
            if p.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(WalRecord::Commit { txn: p.get_u64() })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut buf = BytesMut::new();
        encode_value(&v, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_value(&mut bytes).unwrap(), v);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn value_round_trips() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Int(-12345));
        round_trip_value(Value::Float(3.25));
        round_trip_value(Value::Float(f64::NAN)); // NaN bits preserved
        round_trip_value(Value::Str("hello 世界".into()));
        round_trip_value(Value::from(""));
    }

    #[test]
    fn nan_round_trip_bits() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Float(f64::NAN), &mut buf);
        let mut b = buf.freeze();
        match decode_value(&mut b).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn row_round_trip() {
        let row = vec![
            Value::Str("proj".into()),
            Value::Int(7),
            Value::Null,
            Value::Bool(false),
        ];
        let mut buf = BytesMut::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&mut buf.freeze()).unwrap(), row);
    }

    #[test]
    fn record_round_trip() {
        let rec = WalRecord::Insert {
            txn: 9,
            table: "logs".into(),
            row: vec![Value::Int(1), Value::Str("loss".into())],
        };
        let frame = encode_record(&rec);
        let mut buf = frame;
        assert_eq!(decode_record(&mut buf).unwrap(), Some(rec));
        assert_eq!(decode_record(&mut buf).unwrap(), None);
    }

    #[test]
    fn commit_record_round_trip() {
        let rec = WalRecord::Commit { txn: 42 };
        let mut buf = encode_record(&rec);
        assert_eq!(decode_record(&mut buf).unwrap(), Some(rec));
    }

    #[test]
    fn truncated_tail_detected() {
        let rec = WalRecord::Insert {
            txn: 1,
            table: "logs".into(),
            row: vec![Value::Int(1)],
        };
        let frame = encode_record(&rec);
        for cut in 1..frame.len() {
            let mut buf = frame.slice(..cut);
            let result = decode_record(&mut buf);
            assert!(
                matches!(result, Err(CodecError::Truncated)),
                "cut at {cut} gave {result:?}"
            );
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let rec = WalRecord::Commit { txn: 7 };
        let frame = encode_record(&rec);
        let mut bytes = frame.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut buf = Bytes::from(bytes);
        assert!(matches!(
            decode_record(&mut buf),
            Err(CodecError::BadChecksum)
        ));
    }

    #[test]
    fn multiple_frames_stream() {
        let recs = vec![
            WalRecord::Insert {
                txn: 1,
                table: "a".into(),
                row: vec![Value::Int(1)],
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::Insert {
                txn: 2,
                table: "b".into(),
                row: vec![Value::Str("x".into())],
            },
        ];
        let mut all = BytesMut::new();
        for r in &recs {
            all.put_slice(&encode_record(r));
        }
        let mut buf = all.freeze();
        let mut out = Vec::new();
        while let Some(r) = decode_record(&mut buf).unwrap() {
            out.push(r);
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
