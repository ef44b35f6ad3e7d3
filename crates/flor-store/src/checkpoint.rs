//! Checkpoints: O(live-data) recovery instead of O(history) replay.
//!
//! The WAL is append-only and latest-wins tables (`jobs`, and much of
//! `logs`/`loops` after hindsight backfill) accumulate long dead
//! prefixes, so replaying the whole log on `Database::open` costs time
//! proportional to everything that *ever* happened. A checkpoint
//! serializes the committed state — the sealed segments of a pinned
//! [`crate::snapshot::Snapshot`] — into a sidecar file next to the WAL, then
//! truncates the log down to the records the checkpoint does not cover.
//! Recovery becomes: load the sidecar (O(live rows)), then replay only
//! the short WAL tail.
//!
//! Crash safety is rename-based, in two independently-atomic steps:
//!
//! 1. The sidecar is staged at `<wal>.ckpt.tmp`, fsynced, and renamed to
//!    `<wal>.ckpt`. A crash before the rename leaves the old state
//!    (previous sidecar, full WAL) — recovery is unchanged.
//! 2. The WAL is truncated ([`crate::wal::stage_tail`] lock-free, then
//!    [`crate::wal::Wal::finish_rewrite`]: stage, fsync, rename) keeping
//!    only records with `txn > max_txn`. A crash *between* steps leaves
//!    the new sidecar plus the full WAL: replay skips every record the
//!    checkpoint covers (`txn <= max_txn`), so recovery still converges
//!    to the same state — the property the `checkpoint_recovery` tests
//!    assert.
//!
//! Both renames go through the one atomic-replace helper,
//! `wal::replace_file` (fsync contents → rename → fsync directory).
//!
//! The sidecar is one CRC-guarded blob:
//! `[magic u32][version u8][fnv u64 of body][body]` where the body is
//! `[epoch u64][max_txn u64][n_tables u16]` followed by one block per
//! table. Two body versions exist:
//!
//! * **Version 1** (row-major, legacy): per table
//!   `[name_len u16][name][n_rows u64][rows…]` in [`crate::codec`] row
//!   encoding. Never written any more, still *read* — a sidecar is
//!   outside input, so a database checkpointed before the columnar
//!   refactor reopens cleanly, and its next checkpoint rewrites the
//!   sidecar as version 2 (the upgrade-on-open).
//! * **Version 2** (columnar, the only layout written): per table `[name_len u16][name][n_rows u64][n_cols u16]`
//!   then per column `[enc u8]` + payload. `enc = 0` (plain) is
//!   `n_rows` tagged values; `enc = 1` (dictionary) is
//!   `[n_dict u32][dict strings as u32-len + bytes][n_rows × u32
//!   codes]` with the out-of-range code `n_dict` standing for null —
//!   chosen for string columns whose distinct count is at most half the
//!   row count, so string-heavy tables (`logs.value`, `git.contents`)
//!   serialize each distinct string once.
//!
//! [`encode_checkpoint`] writes version 2 and rejects the one shape it
//! cannot express — a table whose rows differ in arity or have none,
//! impossible through the schema'd write path; [`decode_checkpoint`] and
//! [`peek_sidecar`] share one header parser and accept both versions.
//! A sidecar is outside input: it is read through [`crate::codec`]'s
//! checked cursor, and every count in it is held to that module's
//! `count` rule before anything is sized by it.

use crate::codec::{decode_row, decode_value, encode_value, fnv1a, CodecError, Cursor, Put};
use crate::db::StoreError;
use flor_df::Value;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u32 = 0x464C_4F52; // "FLOR"
/// Row-major body layout (legacy; read-only since the columnar bump).
const VERSION_ROW: u8 = 1;
/// Columnar body layout with dictionary-encoded string columns.
const VERSION_COLUMNAR: u8 = 2;

/// `[magic u32][version u8][crc u64]`: the bytes before the checksummed
/// body.
const HEADER_BYTES: usize = 13;
/// The header plus the body's leading `[epoch u64][max_txn u64]` — all a
/// [`peek_sidecar`] reads.
const PEEK_BYTES: usize = HEADER_BYTES + 16;
/// The least a table block occupies, in either version: an empty name's
/// `[name_len u16]` and `[n_rows u64]`.
const MIN_TABLE_BYTES: usize = 10;

/// Plain column payload: `n_rows` tagged values.
const ENC_PLAIN: u8 = 0;
/// Dictionary column payload: distinct strings once + u32 codes.
const ENC_DICT: u8 = 1;

/// A decoded checkpoint: the committed state at `epoch`, covering every
/// transaction with id `<= max_txn`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Epoch (commit count) the snapshot reflects.
    pub epoch: u64,
    /// Highest committed transaction id the snapshot covers; WAL replay
    /// skips records at or below it.
    pub max_txn: u64,
    /// Per-table committed rows, in commit order.
    pub tables: Vec<(String, Vec<Vec<Value>>)>,
}

impl CheckpointData {
    /// Total rows across all tables.
    pub fn rows(&self) -> usize {
        self.tables.iter().map(|(_, r)| r.len()).sum()
    }
}

/// The sidecar path for a WAL at `wal_path`: `<wal>.ckpt` (appended, not
/// substituted, so distinct WALs can never share a sidecar).
pub fn sidecar_path(wal_path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.ckpt", wal_path.display()))
}

/// Serialize a checkpoint in the columnar (version 2) layout — the only
/// one written. A table whose rows disagree on arity, or have no cells,
/// has no columnar form the reader accepts (and cannot come through the
/// schema'd write path): that is an error, not a reason to switch
/// formats.
pub fn encode_checkpoint(data: &CheckpointData) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::new();
    body.put_u64(data.epoch);
    body.put_u64(data.max_txn);
    body.put_u16(data.tables.len() as u16);
    for (name, rows) in &data.tables {
        let n_cols = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != n_cols || r.is_empty()) {
            return Err(CodecError::Malformed(format!(
                "table {name} has rows of differing or zero arity"
            )));
        }
        body.put_u16(name.len() as u16);
        body.extend_from_slice(name.as_bytes());
        body.put_u64(rows.len() as u64);
        body.put_u16(n_cols as u16);
        for c in 0..n_cols {
            encode_column(rows, c, &mut body);
        }
    }
    let mut out = Vec::with_capacity(body.len() + HEADER_BYTES);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION_COLUMNAR);
    out.extend_from_slice(&fnv1a(&body).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Encode one column of a uniform-arity table. String columns (nulls
/// allowed) whose distinct count is at most half the row count use the
/// dictionary layout; everything else is plain tagged values.
fn encode_column(rows: &[Vec<Value>], c: usize, body: &mut Vec<u8>) {
    let dictable = rows
        .iter()
        .all(|r| matches!(&r[c], Value::Str(_) | Value::Null))
        && rows.iter().any(|r| matches!(&r[c], Value::Str(_)));
    if dictable {
        let mut map: HashMap<&str, u32> = HashMap::new();
        let mut dict: Vec<&str> = Vec::new();
        for row in rows {
            if let Value::Str(s) = &row[c] {
                map.entry(s.as_ref()).or_insert_with(|| {
                    dict.push(s.as_ref());
                    dict.len() as u32 - 1
                });
            }
        }
        if dict.len() * 2 <= rows.len() {
            body.push(ENC_DICT);
            body.put_u32(dict.len() as u32);
            for s in &dict {
                body.put_str(s);
            }
            let null_code = dict.len() as u32;
            for row in rows {
                match &row[c] {
                    Value::Str(s) => body.put_u32(map[s.as_ref()]),
                    _ => body.put_u32(null_code),
                }
            }
            return;
        }
    }
    body.push(ENC_PLAIN);
    for row in rows {
        encode_value(&row[c], body);
    }
}

/// Decode one column of `n_rows` cells (the caller has checked that the
/// body can hold `n_rows` of anything).
fn decode_column(c: &mut Cursor, n_rows: usize) -> Result<Vec<Value>, CodecError> {
    match c.u8()? {
        ENC_PLAIN => (0..n_rows).map(|_| decode_value(c)).collect(),
        ENC_DICT => {
            // An entry is at least its `[len u32]`.
            let n_dict = c.count(Cursor::u32, 4)?;
            let dict = (0..n_dict)
                .map(|_| c.str(Cursor::u32).map(Arc::<str>::from))
                .collect::<Result<Vec<_>, _>>()?;
            let mut out = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let code = c.u32()? as usize;
                out.push(match dict.get(code) {
                    Some(s) => Value::Str(Arc::clone(s)),
                    None if code == n_dict => Value::Null,
                    None => {
                        return Err(CodecError::Malformed(format!(
                            "dictionary code {code} out of range ({n_dict} entries)"
                        )))
                    }
                });
            }
            Ok(out)
        }
        other => Err(CodecError::Malformed(format!(
            "unknown column encoding {other}"
        ))),
    }
}

/// Parse the fixed sidecar prefix `[magic u32][version u8][crc u64]
/// [epoch u64][max_txn u64]` — the one header parser under
/// [`decode_checkpoint`] and [`peek_sidecar`]. Returns the body version
/// and the sidecar's identity; the checksum is *not* verified here (a
/// peek never reads the body).
fn parse_header(bytes: &[u8]) -> Result<(u8, SidecarMark), CodecError> {
    let mut c = Cursor::new(bytes);
    if c.u32()? != MAGIC {
        return Err(CodecError::Malformed("bad checkpoint magic".into()));
    }
    let version = c.u8()?;
    if version != VERSION_ROW && version != VERSION_COLUMNAR {
        return Err(CodecError::Malformed(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let mark = SidecarMark {
        crc: c.u64()?,
        epoch: c.u64()?,
        max_txn: c.u64()?,
    };
    Ok((version, mark))
}

/// Decode a checkpoint blob (header, checksum, body) of either body
/// version. The blob is outside input: every table, row, column and
/// dictionary count goes through [`Cursor::count`], so none of them sizes
/// an allocation the blob's own length does not cover.
pub fn decode_checkpoint(bytes: impl AsRef<[u8]>) -> Result<CheckpointData, CodecError> {
    let bytes = bytes.as_ref();
    let (version, mark) = parse_header(bytes)?;
    let mut c = Cursor::new(bytes);
    c.take(HEADER_BYTES)?;
    if fnv1a(c.rest()) != mark.crc {
        return Err(CodecError::BadChecksum);
    }
    c.take(PEEK_BYTES - HEADER_BYTES)?; // epoch + max_txn are already in `mark`
    let n_tables = c.count(Cursor::u16, MIN_TABLE_BYTES)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = c.str(Cursor::u16)?.to_string();
        let rows = if version == VERSION_ROW {
            // A row is at least its `[arity u16]`.
            let n_rows = c.count(Cursor::u64, 2)?;
            (0..n_rows)
                .map(|_| decode_row(&mut c))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            // Every column spends at least a byte per row, so with any
            // column at all `n_rows` cannot exceed the bytes left.
            let n_rows = c.count(Cursor::u64, 1)?;
            let n_cols = c.count(Cursor::u16, 1)?;
            if n_cols == 0 && n_rows > 0 {
                return Err(CodecError::Malformed(format!(
                    "table {name} declares {n_rows} rows and no columns"
                )));
            }
            // Transpose back to the row-major interchange shape.
            let mut rows = vec![Vec::with_capacity(n_cols); n_rows];
            for _ in 0..n_cols {
                for (row, v) in rows.iter_mut().zip(decode_column(&mut c, n_rows)?) {
                    row.push(v);
                }
            }
            rows
        };
        tables.push((name, rows));
    }
    Ok(CheckpointData {
        epoch: mark.epoch,
        max_txn: mark.max_txn,
        tables,
    })
}

/// Write the sidecar for the log at `wal_path` atomically: stage at
/// `<sidecar>.tmp`, then install it through the crate's one
/// atomic-replace helper (fsync, rename, fsync the directory — the
/// rename itself must be durable before the WAL may be truncated).
/// Returns the sidecar's byte size; an in-memory log (`None`) has no
/// sidecar and writes nothing.
pub fn write_sidecar(wal_path: Option<&Path>, data: &CheckpointData) -> std::io::Result<u64> {
    let Some(wal_path) = wal_path else {
        return Ok(0);
    };
    let bytes = encode_checkpoint(data)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let final_path = sidecar_path(wal_path);
    let tmp = PathBuf::from(format!("{}.tmp", final_path.display()));
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    crate::wal::replace_file(&f, &tmp, &final_path)?;
    Ok(bytes.len() as u64)
}

/// Cheap identity of a sidecar file: header fields read without decoding
/// (or checksumming) the body. The `crc` covers the whole body — epoch
/// and max_txn included — so two sidecars with equal marks are the same
/// checkpoint. Followers compare marks around every WAL tail read: a
/// changed mark means a checkpoint replaced the sidecar (and may have
/// truncated the WAL), so byte offsets into the old log are void.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarMark {
    /// FNV-1a checksum of the sidecar body.
    pub crc: u64,
    /// Epoch the checkpoint reflects.
    pub epoch: u64,
    /// Highest committed transaction id the checkpoint covers.
    pub max_txn: u64,
}

/// Read just the header of the sidecar for `wal_path` — magic, version,
/// checksum, epoch, max_txn — without decoding the table payload. `None`
/// when no sidecar exists. O(1) in the sidecar size: this is the
/// per-poll staleness probe a follower runs before and after each tail
/// read.
pub fn peek_sidecar(wal_path: &Path) -> Result<Option<SidecarMark>, StoreError> {
    let mut f = match File::open(sidecar_path(wal_path)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut header = [0u8; PEEK_BYTES];
    f.read_exact(&mut header)
        .map_err(|_| StoreError::Codec(CodecError::Truncated))?;
    let (_, mark) = parse_header(&header).map_err(StoreError::Codec)?;
    Ok(Some(mark))
}

/// Load the sidecar for `wal_path`, if one exists. A corrupt sidecar is
/// an error, not silently ignored: its WAL may already be truncated, so
/// pretending there is no checkpoint would silently drop committed data.
pub fn load_sidecar(wal_path: &Path) -> Result<Option<CheckpointData>, StoreError> {
    let mut f = match File::open(sidecar_path(wal_path)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    decode_checkpoint(bytes)
        .map(Some)
        .map_err(StoreError::Codec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            epoch: 7,
            max_txn: 12,
            tables: vec![
                (
                    "logs".into(),
                    vec![
                        vec![Value::from("p"), Value::Int(1), Value::Null],
                        vec![Value::from("p"), Value::Int(2), Value::Float(0.5)],
                    ],
                ),
                ("loops".into(), Vec::new()),
            ],
        }
    }

    /// `sample()` as the version-1 (row-major) writer serialized it before
    /// that writer was retired — frozen bytes, not a re-encoding, so the
    /// legacy *reader* is pinned to what old builds left on disk.
    const V1_SAMPLE: &str = "464c4f520175e96835fb8ad6600000000000000007000000000000000c\
        000200046c6f677300000000000000020003040000000170020000000000000001000003\
        040000000170020000000000000002033fe000000000000000056c6f6f70730000000000000000";

    fn v1_sample() -> Vec<u8> {
        (0..V1_SAMPLE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V1_SAMPLE[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn checkpoint_round_trips() {
        let data = sample();
        let bytes = encode_checkpoint(&data).unwrap();
        assert_eq!(bytes[4], VERSION_COLUMNAR);
        assert_eq!(decode_checkpoint(bytes).unwrap(), data);
        assert_eq!(data.rows(), 2);
    }

    #[test]
    fn legacy_v1_blob_still_decodes() {
        let bytes = v1_sample();
        assert_eq!(bytes[4], VERSION_ROW);
        assert_eq!(decode_checkpoint(bytes).unwrap(), sample());
    }

    #[test]
    fn legacy_v1_sidecar_loads_and_peeks() {
        let dir = std::env::temp_dir().join(format!("florckpt-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("v1.wal");
        let data = sample();
        std::fs::write(sidecar_path(&wal), v1_sample()).unwrap();
        assert_eq!(load_sidecar(&wal).unwrap(), Some(data.clone()));
        let mark = peek_sidecar(&wal).unwrap().expect("v1 sidecar present");
        assert_eq!(mark.epoch, data.epoch);
        assert_eq!(mark.max_txn, data.max_txn);
        let _ = std::fs::remove_file(sidecar_path(&wal));
    }

    #[test]
    fn dictionary_shrinks_string_heavy_tables() {
        // 256 rows over 3 distinct strings: the dictionary body must be
        // far smaller than the row-major layout that repeats each string.
        let rows: Vec<Vec<Value>> = (0..256)
            .map(|i| {
                vec![
                    Value::from(format!("metric_name_number_{}", i % 3).as_str()),
                    Value::Int(i),
                ]
            })
            .collect();
        let data = CheckpointData {
            epoch: 1,
            max_txn: 1,
            tables: vec![("logs".into(), rows)],
        };
        let v2 = encode_checkpoint(&data).unwrap();
        // What the row-major layout costs: every row repeats its string.
        let mut row_major = Vec::new();
        for row in &data.tables[0].1 {
            crate::codec::encode_row(row, &mut row_major);
        }
        assert!(
            v2.len() * 2 < row_major.len(),
            "dictionary layout should at least halve this blob: v2={} row-major={}",
            v2.len(),
            row_major.len()
        );
        assert_eq!(decode_checkpoint(v2).unwrap(), data);
    }

    #[test]
    fn mixed_arity_is_rejected() {
        let data = CheckpointData {
            epoch: 1,
            max_txn: 1,
            tables: vec![(
                "odd".into(),
                vec![vec![Value::Int(1)], vec![Value::Int(1), Value::Int(2)]],
            )],
        };
        assert!(matches!(
            encode_checkpoint(&data),
            Err(CodecError::Malformed(_))
        ));
        let wal = std::env::temp_dir().join(format!("florckpt-odd-{}.wal", std::process::id()));
        let err = write_sidecar(Some(&wal), &data).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!sidecar_path(&wal).exists(), "nothing was written");
    }

    #[test]
    fn dict_code_out_of_range_is_malformed() {
        let rows: Vec<Vec<Value>> = (0..8).map(|_| vec![Value::from("x")]).collect();
        let data = CheckpointData {
            epoch: 1,
            max_txn: 1,
            tables: vec![("t".into(), rows)],
        };
        let mut bytes = encode_checkpoint(&data).unwrap();
        // Corrupt the last code (the final 4 body bytes) to a huge value,
        // then re-seal the checksum so decoding reaches the dict check.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_be_bytes());
        let crc = fnv1a(&bytes[13..]);
        bytes[5..13].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            decode_checkpoint(bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn rows_without_columns_are_refused_before_allocating() {
        // A checksum-valid 48-byte sidecar: one table, `n_rows` rows, no
        // columns — so no cell ever bounds the declared row count.
        let blob = |n_rows: u64| {
            let mut body = Vec::new();
            body.put_u64(1);
            body.put_u64(1);
            body.put_u16(1);
            body.put_u16(5);
            body.extend_from_slice(b"loops");
            body.put_u64(n_rows);
            body.put_u16(0);
            let mut out = MAGIC.to_be_bytes().to_vec();
            out.push(VERSION_COLUMNAR);
            out.put_u64(fnv1a(&body));
            out.extend_from_slice(&body);
            assert_eq!(out.len(), 48);
            out
        };
        // 2^44 row vectors would abort the process on allocation.
        assert_eq!(decode_checkpoint(blob(1 << 44)), Err(CodecError::Truncated));
        assert!(matches!(
            decode_checkpoint(blob(1)),
            Err(CodecError::Malformed(_))
        ));
        let empty = decode_checkpoint(blob(0)).unwrap();
        assert_eq!(empty.tables, vec![("loops".to_string(), Vec::new())]);
        // The writer refuses the same shape.
        let data = CheckpointData {
            epoch: 1,
            max_txn: 1,
            tables: vec![("loops".into(), vec![Vec::new()])],
        };
        assert!(matches!(
            encode_checkpoint(&data),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let data = sample();
        let mut bytes = encode_checkpoint(&data).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_checkpoint(&bytes[..5]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            decode_checkpoint(bytes),
            Err(CodecError::BadChecksum)
        ));
        let mut bad_magic = encode_checkpoint(&data).unwrap();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_checkpoint(bad_magic),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn sidecar_write_and_load() {
        let dir = std::env::temp_dir().join(format!("florckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("a.wal");
        let _ = std::fs::remove_file(sidecar_path(&wal));
        assert!(load_sidecar(&wal).unwrap().is_none());
        let data = sample();
        write_sidecar(Some(&wal), &data).unwrap();
        assert_eq!(load_sidecar(&wal).unwrap(), Some(data));
        let _ = std::fs::remove_file(sidecar_path(&wal));
    }

    #[test]
    fn peek_matches_full_decode_and_distinguishes_checkpoints() {
        let dir = std::env::temp_dir().join(format!("florckpt-peek-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("b.wal");
        let _ = std::fs::remove_file(sidecar_path(&wal));
        assert!(peek_sidecar(&wal).unwrap().is_none());
        let data = sample();
        write_sidecar(Some(&wal), &data).unwrap();
        let mark1 = peek_sidecar(&wal).unwrap().expect("sidecar written");
        assert_eq!(mark1.epoch, data.epoch);
        assert_eq!(mark1.max_txn, data.max_txn);
        // A different checkpoint (one more row) produces a different mark.
        let mut data2 = sample();
        data2.epoch += 1;
        data2.max_txn += 3;
        data2.tables[0]
            .1
            .push(vec![Value::from("p"), Value::Int(9), Value::Null]);
        write_sidecar(Some(&wal), &data2).unwrap();
        let mark2 = peek_sidecar(&wal).unwrap().expect("sidecar replaced");
        assert_ne!(mark1, mark2);
        assert_eq!(mark2.epoch, data2.epoch);
        let _ = std::fs::remove_file(sidecar_path(&wal));
    }
}
