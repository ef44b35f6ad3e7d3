//! Write-ahead log: durability and crash recovery.
//!
//! `flor.commit()` is the paper's "application-level transaction commit
//! marker supporting visibility control for long-running processes"
//! (§2.1). The WAL gives that marker teeth: a transaction's inserts are
//! sealed into frames as they are staged but kept in one buffer, and
//! reach the log together with their commit marker, in one write before
//! the commit's one fsync ([`Wal::write_txn`]) — the ARIES shape of
//! buffering log records and forcing the log once per commit. A rollback
//! or a crash with a transaction open writes nothing. Recovery still only
//! surfaces rows whose transaction has a commit marker, so a torn batch,
//! or an uncommitted tail an earlier build wrote a record at a time, is
//! invisible, exactly the visibility semantics the paper describes.
//!
//! That rule is implemented once, as [`TxnFold`], and the log is read by
//! one loop, [`read_frames`]; every consumer — the leader's open, the
//! checkpoint truncation, a follower's bootstrap, polls and lag probe —
//! is a policy over those two (what a torn or corrupt end means to it,
//! and what it does with a committed transaction). The frame itself —
//! layout, writer, reader, and the ways a stream can end — is
//! [`crate::codec`]'s; this module only maps those ends to [`StreamEnd`]
//! and holds both sides of the log to one payload cap.
//!
//! Recovery *streams* frames from the log (one buffer per frame) instead
//! of slurping the whole file into memory, so reopening a database costs
//! O(tail) memory no matter how long the history is. With
//! [`crate::checkpoint`] the tail itself is short: `Database::open` loads
//! the sidecar snapshot and replays only the records the checkpoint does
//! not cover (`base_txn` below).

use crate::codec::{
    self, decode_payload, encode_record, fnv1a, CodecError, FrameEnd, WalRecord, FRAME_HEADER_BYTES,
};
use flor_df::Value;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Fsync the directory containing `path`, making a just-completed rename
/// durable (file-content fsyncs alone do not order or persist the
/// directory entry).
fn fsync_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Atomically install the fully written file `staged` (living at `tmp`)
/// as `dest` — the one place this crate replaces a file: fsync the
/// contents, rename over the destination, fsync the directory. A crash at
/// any point leaves either the complete old `dest` or the complete new
/// one. Both the checkpoint sidecar and the WAL truncation go through it.
pub(crate) fn replace_file(staged: &File, tmp: &Path, dest: &Path) -> std::io::Result<()> {
    staged.sync_data()?;
    std::fs::rename(tmp, dest)?;
    fsync_dir(dest)
}

/// Open the appendable (and readable) handle on a log file.
fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)
}

/// Upper bound on a single frame's payload, enforced on both sides of
/// the log. Real frames are far smaller (rows, plus occasional
/// `obj_store` blobs), so a reader treats a length prefix beyond this as
/// tail corruption rather than honouring it with a giant allocation —
/// and [`Wal::stage`] refuses to seal one, or an acknowledged record
/// would read back as crash damage.
const MAX_FRAME_BYTES: u32 = 1 << 30;

/// The capacity the transaction buffer keeps between commits: far above
/// a training step's batch (about 13 KB for 100 rows), far below a
/// transaction that carries a large blob.
const TXN_BUFFER_KEEP_BYTES: usize = 1 << 20;

/// Where the WAL lives: a real file, or in memory (for tests and
/// benchmarks that should not touch disk).
#[derive(Debug)]
pub enum WalBackend {
    /// Append to a file on disk.
    File {
        /// Open appendable handle.
        file: File,
        /// Path (for reopening).
        path: PathBuf,
    },
    /// Keep frames in a growable buffer.
    Memory(Vec<u8>),
}

/// The write-ahead log.
#[derive(Debug)]
pub struct Wal {
    backend: WalBackend,
    /// The open transaction's frames, sealed and summed but not yet on
    /// the log: [`Wal::write_txn`] writes them behind their commit marker,
    /// [`Wal::discard`] drops them.
    txn: Vec<u8>,
    /// Records sealed into `txn`.
    txn_records: u64,
    /// A failed commit left bytes past `bytes_written` that could not be
    /// cut off then; the next [`Wal::write_txn`] cuts them first.
    torn: bool,
    /// Count of records written to the log (for stats; a commit that
    /// failed at its fsync stays counted).
    pub records_written: u64,
    /// Physical log offset: total bytes in the log, including any prefix
    /// recovered from disk. Views use this (with the epoch) for cheap
    /// staleness checks without re-reading the log.
    pub bytes_written: u64,
    /// Write calls made on the log: one per commit.
    pub writes: u64,
}

/// Errors surfaced by WAL recovery: I/O on the log file, or a frame that
/// is structurally bad in a way truncation can't explain.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Frame decode failure.
    Codec(CodecError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Codec(e) => write!(f, "wal codec error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl Wal {
    /// Open (or create) a file-backed WAL.
    pub fn open(path: &Path) -> std::io::Result<Wal> {
        let file = open_append(path)?;
        let existing = file.metadata()?.len();
        Ok(Wal::over(
            WalBackend::File {
                file,
                path: path.to_path_buf(),
            },
            existing,
        ))
    }

    /// Purely in-memory WAL.
    pub fn in_memory() -> Wal {
        Wal::over(WalBackend::Memory(Vec::new()), 0)
    }

    fn over(backend: WalBackend, bytes_written: u64) -> Wal {
        Wal {
            backend,
            txn: Vec::new(),
            txn_records: 0,
            torn: false,
            records_written: 0,
            bytes_written,
            writes: 0,
        }
    }

    /// The path of a file-backed log.
    pub fn path(&self) -> Option<&Path> {
        match &self.backend {
            WalBackend::File { path, .. } => Some(path),
            WalBackend::Memory(_) => None,
        }
    }

    /// Seal an insert of `row` into `table` under `txn` into the open
    /// transaction's buffer, framed and summed as it will sit on the log.
    /// No I/O: the frame reaches the log with its commit marker
    /// ([`Wal::write_txn`]). A row whose payload exceeds the frame cap
    /// recovery enforces is refused (`InvalidInput`) and nothing is
    /// staged.
    pub fn stage(&mut self, txn: u64, table: &str, row: &[Value]) -> std::io::Result<()> {
        codec::seal(&mut self.txn, MAX_FRAME_BYTES, fnv1a, |buf| {
            codec::put_insert(txn, table, row, buf)
        })?;
        self.txn_records += 1;
        Ok(())
    }

    /// Write the open transaction: seal its commit marker behind the
    /// staged frames and put them all on the log in one `write_all` (the
    /// file is opened in append mode; an in-memory log extends its buffer
    /// once). They are durable after the next [`Wal::sync`]. On failure
    /// the caller must [`Wal::abandon_txn`].
    pub fn write_txn(&mut self, txn: u64) -> std::io::Result<()> {
        codec::seal(&mut self.txn, MAX_FRAME_BYTES, fnv1a, |buf| {
            codec::put_commit(txn, buf)
        })?;
        match &mut self.backend {
            WalBackend::File { file, .. } => {
                if self.torn {
                    file.set_len(self.bytes_written)?;
                    self.torn = false;
                }
                file.write_all(&self.txn)?;
            }
            WalBackend::Memory(log) => log.extend_from_slice(&self.txn),
        }
        self.writes += 1;
        self.records_written += self.txn_records + 1;
        self.bytes_written += self.txn.len() as u64;
        self.discard();
        Ok(())
    }

    /// Drop the open transaction's frames unwritten (a rollback). The
    /// buffer keeps its capacity for the next transaction, up to 1 MiB:
    /// one large commit does not pin its size.
    pub fn discard(&mut self) {
        self.txn.clear();
        self.txn.shrink_to(TXN_BUFFER_KEEP_BYTES);
        self.txn_records = 0;
    }

    /// Undo a commit whose write or fsync failed: drop its frames and cut
    /// the log back to `end`, its [`Wal::len_bytes`] before
    /// [`Wal::write_txn`], so the next commit's frames follow the last
    /// good commit's. Best effort: if the cut fails too, the next
    /// `write_txn` makes it before writing.
    pub fn abandon_txn(&mut self, end: u64) {
        self.discard();
        self.bytes_written = end;
        match &mut self.backend {
            WalBackend::File { file, .. } => self.torn = file.set_len(end).is_err(),
            WalBackend::Memory(log) => log.truncate(end as usize),
        }
    }

    /// Force file contents to stable storage (no-op for memory).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if let WalBackend::File { file, .. } = &mut self.backend {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Byte length of the log. Bookkept, not re-read: `bytes_written`
    /// includes any prefix found on disk at open time.
    pub fn len_bytes(&self) -> u64 {
        self.bytes_written
    }

    /// Replay the whole log through `each`, streaming frames (no full-log
    /// buffering) — the leader's recovery read. A torn tail (append-only
    /// format: a crash can only damage the tail) ends the replay quietly
    /// — see [`StreamEnd::accept_torn_tail`] for what counts as one — and
    /// is cut off the log, so the next append lands on a frame boundary:
    /// left in place, it would hide every later commit from the next
    /// recovery.
    pub fn recover(&mut self, each: impl FnMut(WalRecord)) -> Result<(), WalError> {
        let (whole, end) = match &self.backend {
            WalBackend::File { path, .. } => read_frames(BufReader::new(File::open(path)?), each)?,
            WalBackend::Memory(buf) => read_frames(buf.as_slice(), each)?,
        };
        end.accept_torn_tail()?;
        if let WalBackend::File { file, .. } = &mut self.backend {
            if whole < self.bytes_written {
                file.set_len(whole)?;
                file.sync_all()?;
                self.bytes_written = whole;
            }
        }
        Ok(())
    }

    /// Complete a staged truncation under the database write lock: append
    /// the kept records that landed at or past `from` (only what
    /// committed while the stage was built — the fsync pays for the small
    /// delta, not the whole tail), install the staged file over the log
    /// (`replace_file`), and reopen the append handle. An in-memory log
    /// has nothing staged and filters its buffer in place.
    pub fn finish_rewrite(
        &mut self,
        stage: TailStage,
        from: u64,
        keep_txn_above: u64,
    ) -> Result<(), WalError> {
        match (&mut self.backend, stage.out) {
            (WalBackend::File { file, path }, Some((tmp, mut out))) => {
                let mut reader = File::open(&*path)?;
                reader.seek(SeekFrom::Start(from))?;
                // Up to the bookkept end only: bytes a failed commit left
                // past it ([`Wal::abandon_txn`]) are not carried over.
                let delta_bytes = self.bytes_written.saturating_sub(from);
                let (delta, n) =
                    kept_frames(BufReader::new(reader.take(delta_bytes)), keep_txn_above)?;
                out.write_all(&delta)?;
                replace_file(&out, &tmp, path)?;
                // The old handle points at the unlinked inode; reopen.
                *file = open_append(path)?;
                self.torn = false;
                self.records_written = stage.records + n;
                self.bytes_written = file.metadata()?.len();
            }
            (WalBackend::Memory(buf), None) => {
                (*buf, self.records_written) = kept_frames(buf.as_slice(), keep_txn_above)?;
                self.bytes_written = buf.len() as u64;
            }
            _ => {
                return Err(WalError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "staged tail does not belong to this log's backend",
                )))
            }
        }
        Ok(())
    }
}

/// A partially-built replacement log: the kept tail of `[0, upto)`
/// already staged (and fsynced) at `<wal>.rewrite`. Built with *no*
/// database lock held; [`Wal::finish_rewrite`] completes it under the
/// lock by appending only what committed since. Empty for an in-memory
/// log, which has no lock-free phase.
pub struct TailStage {
    out: Option<(PathBuf, File)>,
    records: u64,
}

/// Stage the kept tail of the log file at `path` (`None`: an in-memory
/// log, nothing to stage): decode the frames in `[0, upto)` — `upto` must
/// be an offset captured under the database lock, so every frame below it
/// is complete — keep those with `txn > keep_txn_above`, write them to
/// `<path>.rewrite`, and fsync. Runs lock-free; the bulk of the
/// truncation I/O happens here.
pub fn stage_tail(
    path: Option<&Path>,
    upto: u64,
    keep_txn_above: u64,
) -> Result<TailStage, WalError> {
    let Some(path) = path else {
        return Ok(TailStage {
            out: None,
            records: 0,
        });
    };
    let (kept, records) =
        kept_frames(BufReader::new(File::open(path)?).take(upto), keep_txn_above)?;
    let tmp = PathBuf::from(format!("{}.rewrite", path.display()));
    let mut file = File::create(&tmp)?;
    file.write_all(&kept)?;
    file.sync_data()?;
    Ok(TailStage {
        out: Some((tmp, file)),
        records,
    })
}

/// How a frame stream ended — the fact every log reader's policy keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEnd {
    /// End of stream exactly at a frame boundary.
    Clean,
    /// The stream ended inside a frame: the writer is mid-append, or a
    /// crash tore the tail.
    Partial,
    /// A whole frame was read but is bad: its checksum does not match, or
    /// its payload does not decode.
    Corrupt(CodecError),
}

impl StreamEnd {
    /// The leader-side policy (recovery and truncation): a partial frame
    /// or a checksum mismatch is crash damage at the tail — accepted,
    /// everything from there on is dropped. A frame that checksums but
    /// does not decode is not something a crash can produce: an error.
    pub fn accept_torn_tail(self) -> Result<(), WalError> {
        match self {
            StreamEnd::Corrupt(e) if e != CodecError::BadChecksum => Err(WalError::Codec(e)),
            _ => Ok(()),
        }
    }
}

/// The one log reader: stream every whole frame of `r`
/// ([`codec::read_frame`]) through `each`, in log order, and report the
/// bytes those frames occupy and how the stream ended. A length over the
/// cap is what a torn header looks like — nothing [`Wal::stage`]
/// accepted has one. It interprets nothing else — commit markers are
/// [`TxnFold`]'s job, and what a torn or corrupt end *means* is the
/// caller's policy ([`Wal::recover`], [`stage_tail`], [`tail_from`]).
pub fn read_frames(
    mut r: impl Read,
    mut each: impl FnMut(WalRecord),
) -> Result<(u64, StreamEnd), WalError> {
    let mut bytes = 0u64;
    let end = loop {
        match codec::read_frame(&mut r, MAX_FRAME_BYTES, fnv1a)? {
            Ok(payload) => match decode_payload(&payload) {
                Ok(rec) => {
                    bytes += (FRAME_HEADER_BYTES + payload.len()) as u64;
                    each(rec);
                }
                Err(e) => break StreamEnd::Corrupt(e),
            },
            Err(FrameEnd::Clean) => break StreamEnd::Clean,
            Err(FrameEnd::Partial | FrameEnd::TooLarge { .. }) => break StreamEnd::Partial,
            Err(FrameEnd::BadChecksum) => break StreamEnd::Corrupt(CodecError::BadChecksum),
        }
    };
    Ok((bytes, end))
}

/// The records of `read` with `txn > keep_txn_above`, up to a torn tail,
/// re-framed — what the checkpoint truncation carries into the fresh log:
/// the transactions committed past the checkpoint, plus any uncommitted
/// frames an earlier build left there (an open transaction's frames are
/// not on the log) — and how many there are.
fn kept_frames(read: impl Read, keep_txn_above: u64) -> Result<(Vec<u8>, u64), WalError> {
    let (mut frames, mut records) = (Vec::new(), 0);
    let (_, end) = read_frames(read, |rec| {
        if rec.txn() > keep_txn_above {
            frames.extend_from_slice(&encode_record(&rec));
            records += 1;
        }
    })?;
    end.accept_torn_tail()?;
    Ok((frames, records))
}

/// What [`TxnFold::push`] made of one record.
#[derive(Debug, Clone, PartialEq)]
pub enum Folded {
    /// Nothing became visible: an insert was staged, or the record's
    /// transaction is covered by the base checkpoint (`txn <= base_txn`).
    Skip,
    /// A commit marker landed: `rows` — the transaction's staged inserts,
    /// in insert order — are now visible.
    Committed {
        /// The committed transaction id.
        txn: u64,
        /// Its `(table, row)` inserts.
        rows: Vec<(String, Vec<Value>)>,
    },
    /// The record belongs to a transaction past the base that was already
    /// applied. An append-only log never says that: the log was replaced
    /// under the reader, who must rebuild rather than double-apply.
    Stale,
}

/// The one commit-marker fold: the paper's visibility rule (§2.1) as a
/// state machine over the record stream. Inserts are staged by
/// transaction and surface, in **commit-marker order**, only when their
/// marker arrives; records at or below `base_txn` (what a checkpoint
/// covers) are skipped. The leader's open, a follower's bootstrap, every
/// follower poll and the lag probe all drive this — a follower keeps its
/// fold across polls, so inserts read polls before their marker stay
/// staged, not lost.
#[derive(Debug)]
pub struct TxnFold {
    base_txn: u64,
    last_applied: u64,
    max_txn: u64,
    staged: HashMap<u64, Vec<(String, Vec<Value>)>>,
}

impl TxnFold {
    /// A fold over a log whose transactions `<= base_txn` are already
    /// applied (0: replay everything).
    pub fn new(base_txn: u64) -> TxnFold {
        TxnFold {
            base_txn,
            last_applied: base_txn,
            max_txn: base_txn,
            staged: HashMap::new(),
        }
    }

    /// The newest transaction applied (the base, until a marker lands).
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Highest transaction id seen, committed or not (or the base).
    /// Uncommitted ids from a crashed writer never commit later, so a
    /// reopened writer allocates past this.
    pub fn max_txn(&self) -> u64 {
        self.max_txn
    }

    /// Fold one record.
    pub fn push(&mut self, rec: WalRecord) -> Folded {
        let txn = rec.txn();
        self.max_txn = self.max_txn.max(txn);
        if txn <= self.base_txn {
            return Folded::Skip;
        }
        if txn <= self.last_applied {
            self.staged.remove(&txn);
            return Folded::Stale;
        }
        match rec {
            WalRecord::Insert { table, row, .. } => {
                self.staged.entry(txn).or_default().push((table, row));
                Folded::Skip
            }
            WalRecord::Commit { .. } => {
                self.last_applied = txn;
                Folded::Committed {
                    txn,
                    rows: self.staged.remove(&txn).unwrap_or_default(),
                }
            }
        }
    }
}

/// One incremental read of a live log, produced by [`tail_from`].
#[derive(Debug)]
pub enum TailChunk {
    /// Complete frames decoded from `[offset, new_offset)`. A partial
    /// frame at end of file (the writer mid-append) is left unconsumed:
    /// the next poll re-reads it from `new_offset` once it is whole.
    Frames {
        /// Decoded records, in log order.
        records: Vec<WalRecord>,
        /// Byte offset of the first unconsumed frame.
        new_offset: u64,
    },
    /// The log shrank below `offset`, vanished, or the bytes at `offset`
    /// no longer parse as frames: a checkpoint rewrote the log under the
    /// reader, so byte offsets into the old log are void. Re-bootstrap
    /// from the checkpoint sidecar.
    Truncated,
}

/// Stream complete frames from the log file at `path`, starting at byte
/// `offset` — the follower's incremental tailing primitive. It returns
/// raw records plus the exact offset consumed, so a caller can poll
/// repeatedly and carry uncommitted transactions across polls in its
/// [`TxnFold`].
///
/// The three outcomes:
/// - complete frames (possibly none) and a new offset — the common poll;
/// - a torn final frame — the writer is mid-append; the complete prefix
///   is returned and the torn frame stays unconsumed;
/// - [`TailChunk::Truncated`] — the log was rewritten (checkpoint
///   truncation); the caller must re-bootstrap from the sidecar.
pub fn tail_from(path: &Path, offset: u64) -> Result<TailChunk, WalError> {
    let f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // No log yet is a valid (empty) tail only from the start.
            return Ok(if offset == 0 {
                TailChunk::Frames {
                    records: Vec::new(),
                    new_offset: 0,
                }
            } else {
                TailChunk::Truncated
            });
        }
        Err(e) => return Err(WalError::Io(e)),
    };
    if f.metadata()?.len() < offset {
        return Ok(TailChunk::Truncated);
    }
    let mut r = BufReader::new(f);
    r.seek(SeekFrom::Start(offset))?;
    let mut records = Vec::new();
    let (consumed, end) = read_frames(&mut r, |rec| records.push(rec))?;
    Ok(match end {
        // A frame that a short read cannot explain (checksum/tag/shape):
        // `offset` is not a frame boundary in this file any more — the
        // log was rewritten underneath us.
        StreamEnd::Corrupt(_) => TailChunk::Truncated,
        // A partial frame at EOF is the writer mid-append (or a crash's
        // torn tail): surface the complete prefix; the caller re-reads
        // from `new_offset` next poll.
        StreamEnd::Clean | StreamEnd::Partial => TailChunk::Frames {
            records,
            new_offset: offset + consumed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wal {
        /// One record's frame written straight to the log, committed or
        /// not: the shape of log an earlier build wrote a record at a
        /// time, which every reader below must still take.
        fn append(&mut self, rec: &WalRecord) -> std::io::Result<()> {
            let frame = encode_record(rec);
            match &mut self.backend {
                WalBackend::File { file, .. } => file.write_all(&frame)?,
                WalBackend::Memory(log) => log.extend_from_slice(&frame),
            }
            self.records_written += 1;
            self.bytes_written += frame.len() as u64;
            Ok(())
        }

        /// Put `handle` in place of the log file's handle, returning the
        /// old one: how a test makes a commit's write fail.
        pub(crate) fn swap_handle(&mut self, handle: File) -> Option<File> {
            match &mut self.backend {
                WalBackend::File { file, .. } => Some(std::mem::replace(file, handle)),
                WalBackend::Memory(_) => None,
            }
        }
    }

    fn ins(txn: u64, table: &str, v: i64) -> WalRecord {
        WalRecord::Insert {
            txn,
            table: table.into(),
            row: vec![Value::Int(v)],
        }
    }

    fn frames(recs: &[WalRecord]) -> Vec<u8> {
        let mut all = Vec::new();
        for r in recs {
            all.extend_from_slice(&encode_record(r));
        }
        all
    }

    /// What a leader open makes of `wal`: the committed `(table, row)`s
    /// in commit order, the records read, and the fold afterwards.
    fn replay(wal: &mut Wal, base_txn: u64) -> (Vec<(String, Vec<Value>)>, usize, TxnFold) {
        let mut fold = TxnFold::new(base_txn);
        let (mut committed, mut records) = (Vec::new(), 0);
        wal.recover(|rec| {
            records += 1;
            if let Folded::Committed { rows, .. } = fold.push(rec) {
                committed.extend(rows);
            }
        })
        .unwrap();
        (committed, records, fold)
    }

    /// The same over raw bytes, plus how the stream ended.
    fn replay_bytes(bytes: &[u8]) -> (Vec<(String, Vec<Value>)>, u64, StreamEnd) {
        let mut fold = TxnFold::new(0);
        let mut committed = Vec::new();
        let (consumed, end) = read_frames(bytes, |rec| {
            if let Folded::Committed { rows, .. } = fold.push(rec) {
                committed.extend(rows);
            }
        })
        .unwrap();
        (committed, consumed, end)
    }

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("florwal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Checkpoint-style truncation: drop every record at or below `keep`.
    fn truncate(wal: &mut Wal, keep: u64) {
        let upto = wal.len_bytes();
        let stage = stage_tail(wal.path(), upto, keep).unwrap();
        wal.finish_rewrite(stage, upto, keep).unwrap();
    }

    #[test]
    fn a_transactions_frames_go_out_with_its_marker_in_one_write() {
        let mut wal = Wal::in_memory();
        wal.stage(1, "logs", &[Value::Int(10)]).unwrap();
        wal.stage(1, "logs", &[Value::Int(11)]).unwrap();
        assert_eq!(
            (wal.len_bytes(), wal.writes),
            (0, 0),
            "staging writes nothing"
        );
        wal.write_txn(1).unwrap();
        let batch = frames(&[
            ins(1, "logs", 10),
            ins(1, "logs", 11),
            WalRecord::Commit { txn: 1 },
        ]);
        assert_eq!(wal.len_bytes(), batch.len() as u64);
        assert_eq!((wal.writes, wal.records_written), (1, 3));
        // A discarded transaction leaves nothing behind.
        wal.stage(2, "logs", &[Value::Int(12)]).unwrap();
        wal.discard();
        wal.write_txn(3).unwrap();
        let (committed, records, _) = replay(&mut wal, 0);
        assert_eq!(records, 4, "three frames, then txn 3's lone marker");
        assert_eq!(committed.len(), 2);
        let WalBackend::Memory(log) = &wal.backend else {
            unreachable!("an in-memory log")
        };
        assert_eq!(log[..batch.len()], batch[..]);
    }

    #[test]
    fn committed_rows_recovered_in_order() {
        let mut wal = Wal::in_memory();
        wal.append(&ins(1, "logs", 10)).unwrap();
        wal.append(&ins(1, "logs", 11)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        let (committed, records, _) = replay(&mut wal, 0);
        assert_eq!(committed.len(), 2);
        assert_eq!(committed[0].1[0], Value::Int(10));
        assert_eq!(committed[1].1[0], Value::Int(11));
        assert_eq!(records, 3);
    }

    #[test]
    fn uncommitted_tail_is_invisible() {
        let mut wal = Wal::in_memory();
        wal.append(&ins(1, "logs", 1)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.append(&ins(2, "logs", 2)).unwrap(); // never committed
        let (committed, _, fold) = replay(&mut wal, 0);
        assert_eq!(committed.len(), 1);
        assert_eq!(fold.staged[&2].len(), 1, "staged, never surfaced");
        assert_eq!(fold.last_applied(), 1);
        assert_eq!(fold.max_txn(), 2);
    }

    #[test]
    fn base_txn_skips_checkpointed_transactions() {
        let mut wal = Wal::in_memory();
        wal.append(&ins(1, "logs", 1)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        wal.append(&ins(2, "logs", 2)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        let (committed, records, fold) = replay(&mut wal, 1);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].1[0], Value::Int(2));
        assert_eq!(records, 4, "skipped frames are still read");
        assert_eq!(fold.last_applied(), 2);
        assert_eq!(fold.max_txn(), 2, "max_txn still counts skipped frames");
        let mut skipping = TxnFold::new(1);
        assert_eq!(skipping.push(ins(1, "logs", 1)), Folded::Skip);
        assert_eq!(skipping.push(WalRecord::Commit { txn: 1 }), Folded::Skip);
    }

    #[test]
    fn torn_tail_truncated() {
        let mut bytes = frames(&[ins(1, "logs", 1), WalRecord::Commit { txn: 1 }]);
        let whole = bytes.len() as u64;
        // Simulate a crash mid-append of a new frame.
        let extra = encode_record(&ins(2, "logs", 2));
        bytes.extend_from_slice(&extra[..extra.len() / 2]);
        let (committed, consumed, end) = replay_bytes(&bytes);
        assert_eq!(end, StreamEnd::Partial);
        assert!(end.accept_torn_tail().is_ok());
        assert_eq!(consumed, whole, "the offset stops at the last whole frame");
        assert_eq!(committed.len(), 1);
    }

    #[test]
    fn corrupt_middle_stops_replay_conservatively() {
        let mut bytes = frames(&[
            ins(1, "logs", 1),
            WalRecord::Commit { txn: 1 },
            ins(2, "logs", 2),
            WalRecord::Commit { txn: 2 },
        ]);
        // Flip a payload byte in the third frame.
        let f1 = encode_record(&ins(1, "logs", 1)).len();
        let f2 = encode_record(&WalRecord::Commit { txn: 1 }).len();
        bytes[f1 + f2 + 13] ^= 0xff;
        let (committed, consumed, end) = replay_bytes(&bytes);
        assert_eq!(end, StreamEnd::Corrupt(CodecError::BadChecksum));
        assert!(end.accept_torn_tail().is_ok());
        assert_eq!(consumed, (f1 + f2) as u64);
        assert_eq!(committed.len(), 1);
    }

    #[test]
    fn undecodable_frame_is_an_error_not_a_torn_tail() {
        // A frame whose checksum matches but whose payload carries an
        // unknown tag is not crash damage; the leader refuses it, a
        // follower reads it as a rewritten log.
        let payload = [0xEEu8];
        let mut bytes = frames(&[ins(1, "logs", 1)]);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&codec::fnv1a(&payload).to_be_bytes());
        bytes.extend_from_slice(&payload);
        let (_, _, end) = replay_bytes(&bytes);
        assert_eq!(end, StreamEnd::Corrupt(CodecError::BadTag(0xEE)));
        assert!(matches!(
            end.accept_torn_tail(),
            Err(WalError::Codec(CodecError::BadTag(0xEE)))
        ));
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let path = temp_log("reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&ins(1, "logs", 99)).unwrap();
            wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            let (committed, _, _) = replay(&mut wal, 0);
            assert_eq!(committed.len(), 1);
            assert_eq!(committed[0].1[0], Value::Int(99));
            // Appending after reopen extends, not truncates.
            wal.append(&ins(2, "logs", 100)).unwrap();
            wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(replay(&mut wal, 0).0.len(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_after_a_torn_tail_survives_the_next_recovery() {
        let path = temp_log("torn-append");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&ins(1, "logs", 1)).unwrap();
            wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
            wal.append(&ins(2, "logs", 2)).unwrap();
        }
        // The crash tore the last frame.
        let whole = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(whole - 5).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(replay(&mut wal, 0).0.len(), 1);
            assert!(wal.len_bytes() < whole - 5, "the torn frame is cut off");
            wal.append(&ins(3, "logs", 3)).unwrap();
            wal.append(&WalRecord::Commit { txn: 3 }).unwrap();
        }
        let (committed, _, _) = replay(&mut Wal::open(&path).unwrap(), 0);
        assert_eq!(
            committed.len(),
            2,
            "the commit acknowledged after the crash"
        );
        assert_eq!(committed[1].1[0], Value::Int(3));

        // A frame that checksums but does not decode is not crash damage:
        // recovery refuses it and leaves the file alone.
        let payload = [0xEEu8];
        let mut bad = (payload.len() as u32).to_be_bytes().to_vec();
        bad.extend_from_slice(&codec::fnv1a(&payload).to_be_bytes());
        bad.extend_from_slice(&payload);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&bad).unwrap();
        let len = file.metadata().unwrap().len();
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.recover(|_| {}).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bytes_a_failed_commit_could_not_cut_never_reach_a_later_log() {
        let path = temp_log("torn");
        let mut wal = Wal::open(&path).unwrap();
        let commit = |wal: &mut Wal, txn: u64| {
            wal.stage(txn, "logs", &[Value::Int(txn as i64)]).unwrap();
            wal.write_txn(txn).unwrap();
        };
        // A commit whose batch reached the file whole but whose fsync
        // failed, when cutting it off failed too (a read-only handle).
        let fail_uncut = |wal: &mut Wal, txn: u64| {
            let end = wal.len_bytes();
            commit(wal, txn);
            let writable = wal.swap_handle(File::open(&path).unwrap()).unwrap();
            wal.abandon_txn(end);
            wal.swap_handle(writable);
            assert!(std::fs::metadata(&path).unwrap().len() > end);
        };
        let visible = |wal: &mut Wal| -> Vec<Value> {
            let rows = replay(wal, 0).0;
            rows.into_iter().map(|(_, row)| row[0].clone()).collect()
        };
        commit(&mut wal, 1);
        fail_uncut(&mut wal, 2);
        truncate(&mut wal, 0);
        assert_eq!(visible(&mut Wal::open(&path).unwrap()), [Value::Int(1)]);
        fail_uncut(&mut wal, 3);
        commit(&mut wal, 4);
        assert_eq!(
            visible(&mut Wal::open(&path).unwrap()),
            [Value::Int(1), Value::Int(4)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_log_atomically() {
        let path = temp_log("rw");
        let mut wal = Wal::open(&path).unwrap();
        for t in 1..=5u64 {
            wal.append(&ins(t, "logs", t as i64)).unwrap();
            wal.append(&WalRecord::Commit { txn: t }).unwrap();
        }
        truncate(&mut wal, 3);
        assert_eq!(wal.records_written, 4, "two txns × (insert + commit)");
        // The rewritten log recovers only the preserved tail...
        let (committed, _, _) = replay(&mut wal, 0);
        assert_eq!(committed.len(), 2);
        assert_eq!(committed[0].1[0], Value::Int(4));
        // ...and stays appendable afterwards.
        wal.append(&ins(6, "logs", 6)).unwrap();
        wal.append(&WalRecord::Commit { txn: 6 }).unwrap();
        assert_eq!(replay(&mut Wal::open(&path).unwrap(), 0).0.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_truncation_keeps_the_same_tail() {
        let mut wal = Wal::in_memory();
        for t in 1..=5u64 {
            wal.append(&ins(t, "logs", t as i64)).unwrap();
            wal.append(&WalRecord::Commit { txn: t }).unwrap();
        }
        truncate(&mut wal, 3);
        assert_eq!(wal.records_written, 4);
        let (committed, records, _) = replay(&mut wal, 0);
        assert_eq!(records, 4);
        assert_eq!(committed[0].1[0], Value::Int(4));
        let tail = [
            ins(4, "logs", 4),
            WalRecord::Commit { txn: 4 },
            ins(5, "logs", 5),
            WalRecord::Commit { txn: 5 },
        ];
        assert_eq!(wal.len_bytes(), frames(&tail).len() as u64);
    }

    #[test]
    fn empty_wal_recovers_empty() {
        let (committed, consumed, end) = replay_bytes(&[]);
        assert!(committed.is_empty());
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(consumed, 0);
        assert_eq!(TxnFold::new(0).max_txn(), 0);
    }

    #[test]
    fn tail_from_streams_incrementally() {
        let path = temp_log("tail");
        // Tailing a not-yet-created log from the start is an empty chunk.
        match tail_from(&path, 0).unwrap() {
            TailChunk::Frames {
                records,
                new_offset,
            } => {
                assert!(records.is_empty());
                assert_eq!(new_offset, 0);
            }
            TailChunk::Truncated => panic!("missing log at offset 0 is an empty tail"),
        }
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&ins(1, "logs", 1)).unwrap();
        wal.append(&WalRecord::Commit { txn: 1 }).unwrap();
        let off1 = match tail_from(&path, 0).unwrap() {
            TailChunk::Frames {
                records,
                new_offset,
            } => {
                assert_eq!(records.len(), 2);
                assert_eq!(new_offset, wal.len_bytes());
                new_offset
            }
            TailChunk::Truncated => panic!("clean log"),
        };
        // Append more; a poll from the saved offset sees only the delta.
        wal.append(&ins(2, "logs", 2)).unwrap();
        match tail_from(&path, off1).unwrap() {
            TailChunk::Frames {
                records,
                new_offset,
            } => {
                assert_eq!(records.len(), 1);
                assert_eq!(new_offset, wal.len_bytes());
            }
            TailChunk::Truncated => panic!("clean log"),
        }
        // A torn final frame (writer mid-append) yields the complete
        // prefix and leaves the torn bytes unconsumed.
        let torn = encode_record(&ins(3, "logs", 3));
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&torn[..torn.len() / 2]).unwrap();
        match tail_from(&path, off1).unwrap() {
            TailChunk::Frames {
                records,
                new_offset,
            } => {
                assert_eq!(records.len(), 1, "only the complete frame");
                assert_eq!(new_offset, wal.len_bytes(), "torn bytes unconsumed");
            }
            TailChunk::Truncated => panic!("a torn tail is not a rewrite"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tail_from_detects_rewrite() {
        let path = temp_log("tailrw");
        let mut wal = Wal::open(&path).unwrap();
        for t in 1..=6u64 {
            wal.append(&ins(t, "logs", t as i64)).unwrap();
            wal.append(&WalRecord::Commit { txn: t }).unwrap();
        }
        let old_len = wal.len_bytes();
        // Truncating rewrite: the file shrinks below the reader's offset.
        truncate(&mut wal, 5);
        assert!(wal.len_bytes() < old_len);
        assert!(matches!(
            tail_from(&path, old_len).unwrap(),
            TailChunk::Truncated
        ));
        // An offset inside the new, shorter file that is not a frame
        // boundary reads as a rewrite too (checksum/shape mismatch), not
        // as frames.
        if wal.len_bytes() > 4 {
            match tail_from(&path, 3).unwrap() {
                TailChunk::Truncated => {}
                TailChunk::Frames { records, .. } => {
                    assert!(
                        records.is_empty(),
                        "misaligned offset must never decode records"
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interleaved_transactions() {
        let mut wal = Wal::in_memory();
        wal.append(&ins(1, "a", 1)).unwrap();
        wal.append(&ins(2, "b", 2)).unwrap();
        wal.append(&ins(1, "a", 3)).unwrap();
        wal.append(&WalRecord::Commit { txn: 2 }).unwrap();
        // txn 1 never commits.
        let (committed, _, fold) = replay(&mut wal, 0);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, "b");
        assert_eq!(fold.staged[&1].len(), 2, "txn 1's inserts stay staged");
    }

    #[test]
    fn interleaved_transactions_surface_in_commit_order() {
        // Insert positions interleave; visibility follows the markers.
        let mut fold = TxnFold::new(0);
        let mut seen = Vec::new();
        for rec in [
            ins(1, "t", 10),
            ins(2, "t", 20),
            ins(1, "t", 11),
            WalRecord::Commit { txn: 1 },
            WalRecord::Commit { txn: 2 },
            // A repeated marker must not apply (or count) twice.
            WalRecord::Commit { txn: 2 },
        ] {
            match fold.push(rec) {
                Folded::Committed { txn, rows } => {
                    seen.extend(rows.into_iter().map(|(_, r)| (txn, r[0].clone())))
                }
                Folded::Stale => seen.push((0, Value::Null)),
                Folded::Skip => {}
            }
        }
        assert_eq!(
            seen,
            vec![
                (1, Value::Int(10)),
                (1, Value::Int(11)),
                (2, Value::Int(20)),
                (0, Value::Null),
            ]
        );
    }
}
