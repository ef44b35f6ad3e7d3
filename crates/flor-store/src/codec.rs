//! Binary encoding of values, rows and WAL records, and the two
//! primitives every byte format in the workspace is built from.
//!
//! **One checked cursor.** Every decoder — WAL payloads here, the
//! checkpoint sidecar in [`crate::checkpoint`], `flor-serve`'s wire
//! payloads — reads through [`Cursor`], a view over `&[u8]` whose every
//! accessor returns [`CodecError::Truncated`] when the bytes run out. No
//! decoder compares lengths by hand, so a forgotten bounds check is not
//! something a decoder can contain. Integers are big-endian.
//!
//! **The `count` rule.** A length prefix is outside input. [`Cursor::count`]
//! reads one and refuses it unless the bytes still unread could hold that
//! many elements at the element's smallest encoding, so a declared count
//! never sizes an allocation (or a loop) the input itself does not pay
//! for: memory stays within a constant multiple of the input length.
//!
//! **One frame layout.** WAL records and wire messages travel as
//! `[len u32][fnv1a u64 of payload][payload]`, spelled once on each side:
//! one private writer behind [`write_frame`] (any sink, capped) and
//! [`encode_record`] (a record's frame as bytes), and [`read_frame`],
//! which nothing else duplicates. `read_frame` reports
//! *how* a stream stopped yielding frames ([`FrameEnd`]); what that means —
//! a torn tail to cut off, a log rewritten under a follower, a peer to
//! hang up on — is the caller's policy ([`crate::wal::StreamEnd`],
//! `flor-serve`'s `WireError`). The format is append-only: a crash can
//! only truncate the tail, never corrupt committed prefixes — the
//! recovery path in [`crate::wal`] relies on this.
//!
//! Writers are plain `Vec<u8>`s extended through [`Put`].

use flor_df::Value;
use std::io::{self, Read, Write};

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-frame (a truncated tail), or a declared count
    /// exceeds what the remaining bytes could hold.
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

/// A checked read position in a byte slice: each accessor consumes what
/// it returns, or fails with [`CodecError::Truncated`] when the slice
/// does not hold it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: buf }
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[b]| b)
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A big-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_be_bytes)
    }

    /// A big-endian `f64` (bit pattern preserved, NaN payloads included).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_be_bytes)
    }

    /// An element count read with `prefix` (`Cursor::u16`, `Cursor::u32`,
    /// ...), refused unless the unread bytes could hold that many
    /// elements of at least `min_elem_bytes` each — the module's `count`
    /// rule.
    pub fn count<T: Into<u64>>(
        &mut self,
        prefix: fn(&mut Self) -> Result<T, CodecError>,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let declared = prefix(self)?.into();
        usize::try_from(declared)
            .ok()
            .filter(|n| {
                n.checked_mul(min_elem_bytes)
                    .is_some_and(|need| need <= self.rest.len())
            })
            .ok_or(CodecError::Truncated)
    }

    /// A UTF-8 string behind a byte-length `prefix`.
    pub fn str<T: Into<u64>>(
        &mut self,
        prefix: fn(&mut Self) -> Result<T, CodecError>,
    ) -> Result<&'a str, CodecError> {
        let len = self.count(prefix, 1)?;
        std::str::from_utf8(self.take(len)?).map_err(|e| CodecError::Malformed(e.to_string()))
    }
}

/// Big-endian appends on a `Vec<u8>` — the writing side of [`Cursor`].
/// Single bytes and raw slices are `push` / `extend_from_slice`; signed
/// and float cells go as their `u64` bit patterns.
pub trait Put {
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append `[len u32][utf8]` — what [`Cursor::str`] reads back with
    /// `Cursor::u32`.
    fn put_str(&mut self, s: &str);
}

impl Put for Vec<u8> {
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Append a value's encoding to `buf`.
pub fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => buf.extend_from_slice(&[TAG_BOOL, *b as u8]),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.put_u64(*i as u64);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.put_u64(f.to_bits());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            buf.put_str(s);
        }
    }
}

/// Decode one value at the cursor.
pub fn decode_value(c: &mut Cursor) -> Result<Value, CodecError> {
    match c.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::Bool(c.u8()? != 0)),
        TAG_INT => Ok(Value::Int(c.i64()?)),
        TAG_FLOAT => Ok(Value::Float(c.f64()?)),
        TAG_STR => Ok(Value::Str(c.str(Cursor::u32)?.into())),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Append a row (value-count-prefixed) to `buf`.
pub fn encode_row(row: &[Value], buf: &mut Vec<u8>) {
    buf.put_u16(row.len() as u16);
    for v in row {
        encode_value(v, buf);
    }
}

/// Decode one row at the cursor (a value is at least its tag byte).
pub fn decode_row(c: &mut Cursor) -> Result<Vec<Value>, CodecError> {
    let n = c.count(Cursor::u16, 1)?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(decode_value(c)?);
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

/// Encode a record as a frame payload.
pub(crate) fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    match rec {
        WalRecord::Insert { txn, table, row } => {
            payload.push(REC_INSERT);
            payload.put_u64(*txn);
            payload.put_u16(table.len() as u16);
            payload.extend_from_slice(table.as_bytes());
            encode_row(row, &mut payload);
        }
        WalRecord::Commit { txn } => {
            payload.push(REC_COMMIT);
            payload.put_u64(*txn);
        }
    }
    payload
}

/// Decode a frame's already-checksummed payload into a [`WalRecord`].
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut c = Cursor::new(payload);
    match c.u8()? {
        REC_INSERT => Ok(WalRecord::Insert {
            txn: c.u64()?,
            table: c.str(Cursor::u16)?.to_string(),
            row: decode_row(&mut c)?,
        }),
        REC_COMMIT => Ok(WalRecord::Commit { txn: c.u64()? }),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode a record as a whole frame — what [`crate::wal::Wal::append`]
/// puts in the log for it.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    put_frame(&mut frame, &encode_payload(rec));
    frame
}

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

/// Bytes of the `[len u32][fnv1a u64]` header in front of a frame's
/// payload.
pub const FRAME_HEADER_BYTES: usize = 12;

/// The one spelling of the frame layout on the writing side.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.put_u32(payload.len() as u32);
    out.put_u64(fnv1a(payload));
    out.extend_from_slice(payload);
}

/// Write `payload` as one frame, in a single `write_all` (a log tailer
/// then sees a frame's header and payload land together), refusing a
/// payload over `max_bytes` as `InvalidInput`: a reader enforcing the
/// same cap would otherwise class an acknowledged frame as damage.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_bytes: u32) -> io::Result<()> {
    if u32::try_from(payload.len()).map_or(true, |len| len > max_bytes) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {max_bytes}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::new();
    put_frame(&mut frame, payload);
    w.write_all(&frame)
}

/// Why [`read_frame`] yielded no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEnd {
    /// The stream ended exactly at a frame boundary.
    Clean,
    /// The stream ended inside a frame's header or payload.
    Partial,
    /// The header announces `len` payload bytes, over the reader's cap;
    /// nothing was allocated for it.
    TooLarge {
        /// Announced payload length.
        len: u32,
    },
    /// A whole frame arrived but its checksum does not match.
    BadChecksum,
}

/// Read one frame from `r`: its checksummed payload, or how the stream
/// ended instead. The cap is enforced *before* allocating, the checksum
/// *before* returning. `Err` is the reader's own I/O failure only.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> io::Result<Result<Vec<u8>, FrameEnd>> {
    let mut header = Vec::with_capacity(FRAME_HEADER_BYTES);
    r.by_ref()
        .take(FRAME_HEADER_BYTES as u64)
        .read_to_end(&mut header)?;
    let mut h = Cursor::new(&header);
    let (Ok(len), Ok(crc)) = (h.u32(), h.u64()) else {
        return Ok(Err(if header.is_empty() {
            FrameEnd::Clean
        } else {
            FrameEnd::Partial
        }));
    };
    if len > max_bytes {
        return Ok(Err(FrameEnd::TooLarge { len }));
    }
    let mut payload = Vec::with_capacity(len as usize);
    r.by_ref().take(len.into()).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Ok(Err(FrameEnd::Partial));
    }
    if fnv1a(&payload) != crc {
        return Ok(Err(FrameEnd::BadChecksum));
    }
    Ok(Ok(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(decode_value(&mut c).unwrap(), v);
        assert!(c.is_empty());
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
        let mut buf = Vec::new();
        encode_value(&Value::Float(f64::NAN), &mut buf);
        match decode_value(&mut Cursor::new(&buf)).unwrap() {
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
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&mut Cursor::new(&buf)).unwrap(), row);
    }

    #[test]
    fn cursor_reads_are_checked() {
        let mut c = Cursor::new(&[0, 1, 2]);
        assert_eq!(c.u16(), Ok(1));
        assert_eq!(c.u32(), Err(CodecError::Truncated));
        assert_eq!(c.take(2), Err(CodecError::Truncated));
        assert_eq!(c.u8(), Ok(2));
        assert!(c.is_empty());
        assert_eq!(c.u8(), Err(CodecError::Truncated));
        assert_eq!(c.take(0), Ok(&[][..]));
        // A string is its length prefix, then that many UTF-8 bytes.
        assert_eq!(Cursor::new(&[0, 2, b'h', b'i']).str(Cursor::u16), Ok("hi"));
        assert_eq!(
            Cursor::new(&[0, 3, b'h', b'i']).str(Cursor::u16),
            Err(CodecError::Truncated)
        );
        assert!(matches!(
            Cursor::new(&[1, 0xff]).str(Cursor::u8),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn count_refuses_what_the_remaining_bytes_cannot_hold() {
        // Three elements declared, six bytes behind the prefix.
        let bytes = [0, 0, 0, 3, 9, 9, 9, 9, 9, 9];
        assert_eq!(Cursor::new(&bytes).count(Cursor::u32, 2), Ok(3));
        assert_eq!(
            Cursor::new(&bytes).count(Cursor::u32, 3),
            Err(CodecError::Truncated)
        );
        // A count no allocation could honour, and one whose byte need
        // overflows, are the same refusal.
        let huge = (1u64 << 44).to_be_bytes();
        assert_eq!(
            Cursor::new(&huge).count(Cursor::u64, 1),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            Cursor::new(&u64::MAX.to_be_bytes()).count(Cursor::u64, 16),
            Err(CodecError::Truncated)
        );
        // A row declaring more values than bytes never sizes a vector.
        assert_eq!(
            decode_row(&mut Cursor::new(&[0xff, 0xff, TAG_NULL])),
            Err(CodecError::Truncated)
        );
    }

    /// Every frame of `bytes` decoded as a record, and how the stream ended.
    fn read_records(mut bytes: &[u8]) -> (Vec<WalRecord>, FrameEnd) {
        let mut out = Vec::new();
        loop {
            match read_frame(&mut bytes, u32::MAX).unwrap() {
                Ok(payload) => out.push(decode_payload(&payload).unwrap()),
                Err(end) => return (out, end),
            }
        }
    }

    #[test]
    fn record_round_trip() {
        let rec = WalRecord::Insert {
            txn: 9,
            table: "logs".into(),
            row: vec![Value::Int(1), Value::Str("loss".into())],
        };
        let frame = encode_record(&rec);
        assert_eq!(read_records(&frame), (vec![rec], FrameEnd::Clean));
        let commit = WalRecord::Commit { txn: 42 };
        assert_eq!(
            read_records(&encode_record(&commit)),
            (vec![commit], FrameEnd::Clean)
        );
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
            assert_eq!(
                read_records(&frame[..cut]),
                (vec![], FrameEnd::Partial),
                "cut at {cut}"
            );
            // The payload alone, cut anywhere, is a typed error too.
            if cut > FRAME_HEADER_BYTES {
                let payload = &frame[FRAME_HEADER_BYTES..cut];
                assert_eq!(decode_payload(payload), Err(CodecError::Truncated));
            }
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut bytes = encode_record(&WalRecord::Commit { txn: 7 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(read_records(&bytes), (vec![], FrameEnd::BadChecksum));
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
        let all: Vec<u8> = recs.iter().flat_map(encode_record).collect();
        assert_eq!(read_records(&all), (recs, FrameEnd::Clean));
    }

    #[test]
    fn writer_and_reader_enforce_the_same_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7; 8], 8).unwrap();
        assert_eq!(read_frame(&mut wire.as_slice(), 8).unwrap(), Ok(vec![7; 8]));
        // One byte over: refused on write, nothing written...
        let err = write_frame(&mut wire, &[7; 9], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(wire.len(), FRAME_HEADER_BYTES + 8);
        // ...because this is what a reader with that cap makes of it,
        // from the header alone.
        write_frame(&mut wire, &[7; 9], 9).unwrap();
        let mut r = wire.as_slice();
        assert!(read_frame(&mut r, 8).unwrap().is_ok());
        assert_eq!(
            read_frame(&mut r, 8).unwrap(),
            Err(FrameEnd::TooLarge { len: 9 })
        );
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
