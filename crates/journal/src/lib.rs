#![deny(missing_docs)]

//! # journal — crash-safe write-ahead log for campaign work units
//!
//! Long campaigns die in mundane ways — OOM kills, preemptions,
//! SIGKILL — and a harness that keeps its only copy of six hours of
//! results in memory loses all of them. This crate persists each
//! completed work unit (a *shard*: one VM pair, one probe, one
//! replicate) the moment it finishes, so a campaign can be SIGKILLed at
//! any instant and resumed without recomputing — or worse, silently
//! changing — what was already done.
//!
//! ## Durability model
//!
//! The guarantee covers **process crashes** (SIGKILL, OOM kill,
//! preemption), not power loss or kernel crashes. Every append writes
//! one framed record at the end of the file's valid prefix with a
//! single `write_all` and returns only once the bytes are in the file,
//! so a reader (or a crash) after `append` returns sees the record.
//! Records are length-prefixed and checksummed: if the process dies
//! mid-write, the file ends in a torn record, which the next open
//! discards ([`OpenReport::truncated_bytes`] says how much) and the
//! next append truncates away before it writes. Opening never writes.
//! Nothing calls `sync_all` or `sync_data`: written bytes sit in the
//! OS page cache, which survives the death of the process but not of
//! the machine, so a power loss can lose or reorder the last writes.
//!
//! ## Binary format
//!
//! ```text
//! header:  magic "CLDRJNL1" (8 bytes) | config fingerprint (u64 LE)
//! record:  body length (u32 LE) | body | FNV-1a 64 of body (u64 LE)
//! body:    shard (u64) | seed (u64) | result fingerprint (u64)
//!          | payload length (u32) | payload bytes
//! ```
//!
//! The *config fingerprint* binds the journal to one campaign
//! configuration: opening with a different fingerprint is a typed
//! error, never a silent mix of incompatible results. The per-record
//! *result fingerprint* is the caller's 64-bit digest of the result
//! bytes (conventionally [`fingerprint64`] of the payload), used by
//! resume-verification to re-check journaled shards bit for bit.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file (name + format version).
const MAGIC: [u8; 8] = *b"CLDRJNL1";

/// Header length: magic + config fingerprint.
const HEADER_LEN: usize = 16;

/// Fixed part of a record body: shard + seed + fingerprint + payload len.
const BODY_FIXED_LEN: usize = 28;

/// FNV-1a 64-bit digest — the workspace's standard content fingerprint
/// (matches the corpus fingerprint idiom; deterministic across
/// platforms and runs).
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One completed work unit, as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Stable shard index within the campaign (e.g. the fleet pair).
    pub shard: u64,
    /// The derived seed the accepted result was computed under (after
    /// any supervised retries — not necessarily the shard's base seed).
    pub seed: u64,
    /// 64-bit digest of `payload`, re-checked on every open and by
    /// resume-verification.
    pub fingerprint: u64,
    /// Opaque result bytes (the caller's own encoding).
    pub payload: Vec<u8>,
}

/// Why a journal could not be opened or written.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble (create, read, truncate or write).
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        cause: std::io::Error,
    },
    /// The file exists but does not start with a valid journal header.
    BadHeader {
        /// Offending path.
        path: PathBuf,
    },
    /// The journal was written under a different campaign
    /// configuration; resuming would mix incompatible results.
    ConfigMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint found in the file.
        found: u64,
    },
    /// `create` refuses to clobber an existing journal: resuming is
    /// explicit (`open`), overwriting is the caller deleting the file.
    AlreadyExists {
        /// Offending path.
        path: PathBuf,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, cause } => {
                write!(f, "journal {}: {cause}", path.display())
            }
            JournalError::BadHeader { path } => {
                write!(f, "journal {}: not a journal file (bad header)", path.display())
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal config fingerprint mismatch: campaign is {expected:#018x}, journal was written under {found:#018x}"
            ),
            JournalError::AlreadyExists { path } => write!(
                f,
                "journal {} already exists; resume it or delete it explicitly",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// What `open` found on disk, beyond the records themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Records recovered.
    pub records: usize,
    /// Bytes of torn/corrupt tail discarded (0 for a clean file).
    /// `open` leaves them on disk; the next append truncates the file
    /// to its valid prefix before it writes.
    pub truncated_bytes: usize,
}

/// A crash-safe, append-only journal bound to one campaign config.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    config_fingerprint: u64,
    records: Vec<JournalRecord>,
    /// Length of the file's valid prefix: the header plus every record
    /// in `records`. Appends land here.
    valid_len: u64,
    /// Write handle positioned at `valid_len`. `None` after an open
    /// (which never writes) and after a failed write; the next append
    /// then reopens the file and truncates it to `valid_len` first.
    file: Option<File>,
}

impl Journal {
    /// Create a fresh journal at `path` for the given campaign config.
    /// Refuses to overwrite an existing file ([`JournalError::AlreadyExists`]).
    pub fn create(path: &Path, config_fingerprint: u64) -> Result<Journal, JournalError> {
        let io_err = |cause| JournalError::Io { path: path.to_path_buf(), cause };
        let mut file = match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                return Err(JournalError::AlreadyExists { path: path.to_path_buf() })
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..].copy_from_slice(&config_fingerprint.to_le_bytes());
        file.write_all(&header).map_err(io_err)?;
        Ok(Journal {
            path: path.to_path_buf(),
            config_fingerprint,
            records: Vec::new(),
            valid_len: HEADER_LEN as u64,
            file: Some(file),
        })
    }

    /// Open an existing journal, requiring its config fingerprint to
    /// match `expected_config`. A torn final write is detected by the
    /// length prefix / checksum and skipped; how much was dropped is
    /// reported in [`OpenReport`]. The file is not modified.
    pub fn open(path: &Path, expected_config: u64) -> Result<(Journal, OpenReport), JournalError> {
        let (j, report) = Journal::open_unchecked(path)?;
        if j.config_fingerprint != expected_config {
            return Err(JournalError::ConfigMismatch {
                expected: expected_config,
                found: j.config_fingerprint,
            });
        }
        Ok((j, report))
    }

    /// Open a journal without checking its config fingerprint — for
    /// inspection tooling only; resuming a campaign must use [`open`].
    ///
    /// [`open`]: Journal::open
    pub fn open_unchecked(path: &Path) -> Result<(Journal, OpenReport), JournalError> {
        let bytes = fs::read(path).map_err(|cause| JournalError::Io {
            path: path.to_path_buf(),
            cause,
        })?;
        if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
            return Err(JournalError::BadHeader { path: path.to_path_buf() });
        }
        let config_fingerprint = read_u64(&bytes, 8);
        let mut records = Vec::new();
        let mut at = HEADER_LEN;
        // Parse records until the bytes run out or stop making sense.
        // Anything from the first unparseable position onward is a torn
        // or corrupt tail: drop it. Records are never resynchronized
        // past a bad one — the journal is a *prefix* log.
        while let Some((rec, next)) = parse_record(&bytes, at) {
            records.push(rec);
            at = next;
        }
        let report = OpenReport { records: records.len(), truncated_bytes: bytes.len() - at };
        Ok((
            Journal {
                path: path.to_path_buf(),
                config_fingerprint,
                records,
                valid_len: at as u64,
                file: None,
            },
            report,
        ))
    }

    /// Append one completed work unit: one write of the framed record
    /// at the end of the file's valid prefix, in the file before this
    /// returns. The first append after an open truncates a torn tail
    /// away first. On error the record is not added and the next
    /// append truncates back to the valid prefix, so a record never
    /// lands after garbage. Not fsynced; see the crate docs'
    /// durability model.
    pub fn append(&mut self, record: JournalRecord) -> Result<(), JournalError> {
        let written = encode_record(&record)
            .and_then(|frame| self.write_at_tail(&frame).map(|()| frame.len()));
        let len = written.map_err(|cause| JournalError::Io { path: self.path.clone(), cause })?;
        self.valid_len += len as u64;
        self.records.push(record);
        Ok(())
    }

    /// Write `frame` at `valid_len`. The handle is taken out for the
    /// write and put back only on success, so a failed write drops it.
    fn write_at_tail(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut file = match self.file.take() {
            Some(f) => f,
            None => {
                let mut f = OpenOptions::new().write(true).open(&self.path)?;
                f.set_len(self.valid_len)?;
                f.seek(SeekFrom::Start(self.valid_len))?;
                f
            }
        };
        file.write_all(frame)?;
        self.file = Some(file);
        Ok(())
    }

    /// All recovered/appended records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The most recent record for `shard`, if any (later appends for
    /// the same shard supersede earlier ones).
    pub fn lookup(&self, shard: u64) -> Option<&JournalRecord> {
        self.records.iter().rev().find(|r| r.shard == shard)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The campaign configuration fingerprint this journal is bound to.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Little-endian u64 at `at` (caller guarantees bounds).
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian u32 at `at` (caller guarantees bounds).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Frame one record: body length, body, checksum of the body. Fails on
/// a body too long for its `u32` length prefix.
fn encode_record(record: &JournalRecord) -> io::Result<Vec<u8>> {
    let body_len = u32::try_from(BODY_FIXED_LEN + record.payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "record exceeds the u32 length prefix")
    })?;
    let mut frame = Vec::with_capacity(4 + body_len as usize + 8);
    frame.extend_from_slice(&body_len.to_le_bytes());
    frame.extend_from_slice(&record.shard.to_le_bytes());
    frame.extend_from_slice(&record.seed.to_le_bytes());
    frame.extend_from_slice(&record.fingerprint.to_le_bytes());
    frame.extend_from_slice(&(body_len - BODY_FIXED_LEN as u32).to_le_bytes());
    frame.extend_from_slice(&record.payload);
    let crc = fingerprint64(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Parse one record starting at `at`. `None` when the bytes from `at`
/// do not form a complete, checksum-valid record (EOF or torn tail).
fn parse_record(bytes: &[u8], at: usize) -> Option<(JournalRecord, usize)> {
    if bytes.len() < at + 4 {
        return None;
    }
    let body_len = read_u32(bytes, at) as usize;
    if body_len < BODY_FIXED_LEN {
        return None; // nonsense length: corrupt prefix byte(s)
    }
    let body_start = at + 4;
    let crc_start = body_start.checked_add(body_len)?;
    let end = crc_start.checked_add(8)?;
    if bytes.len() < end {
        return None; // torn mid-record
    }
    let body = &bytes[body_start..crc_start];
    if fingerprint64(body) != read_u64(bytes, crc_start) {
        return None; // checksum mismatch: corrupt record
    }
    let shard = read_u64(body, 0);
    let seed = read_u64(body, 8);
    let fingerprint = read_u64(body, 16);
    let payload_len = read_u32(body, 24) as usize;
    if body.len() != BODY_FIXED_LEN + payload_len {
        return None; // inner/outer length disagreement
    }
    let payload = body[BODY_FIXED_LEN..].to_vec();
    Some((JournalRecord { shard, seed, fingerprint, payload }, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("journal_unit_{}_{tag}.wal", std::process::id()))
    }

    fn rec(shard: u64, payload: &[u8]) -> JournalRecord {
        JournalRecord {
            shard,
            seed: shard.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            fingerprint: fingerprint64(payload),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_appends_and_reopens() {
        let path = temp_file("roundtrip");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 0xABCD).unwrap();
        for i in 0..5u64 {
            j.append(rec(i, &vec![i as u8; (i * 7) as usize])).unwrap();
        }
        let (re, report) = Journal::open(&path, 0xABCD).unwrap();
        assert_eq!(report, OpenReport { records: 5, truncated_bytes: 0 });
        assert_eq!(re.records(), j.records());
        assert_eq!(re.config_fingerprint(), 0xABCD);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = temp_file("clobber");
        let _ = fs::remove_file(&path);
        let _j = Journal::create(&path, 1).unwrap();
        match Journal::create(&path, 1) {
            Err(JournalError::AlreadyExists { .. }) => {}
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn config_mismatch_is_typed() {
        let path = temp_file("config");
        let _ = fs::remove_file(&path);
        let _j = Journal::create(&path, 7).unwrap();
        match Journal::open(&path, 8) {
            Err(JournalError::ConfigMismatch { expected: 8, found: 7 }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Unchecked open works for inspection.
        let (j, _) = Journal::open_unchecked(&path).unwrap();
        assert_eq!(j.config_fingerprint(), 7);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_file("torn");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(rec(0, b"alpha")).unwrap();
        j.append(rec(1, b"beta")).unwrap();
        let full = fs::read(&path).unwrap();
        // Tear 5 bytes off the final record.
        let torn = &full[..full.len() - 5];
        fs::write(&path, torn).unwrap();
        let (re, report) = Journal::open(&path, 3).unwrap();
        assert_eq!(re.len(), 1);
        assert_eq!(re.records()[0], rec(0, b"alpha"));
        assert!(report.truncated_bytes > 0);
        // Opening is read-only: the torn tail stays until an append.
        assert_eq!(fs::read(&path).unwrap(), torn);
        // Appending after recovery heals the file.
        let mut re = re;
        re.append(rec(1, b"beta2")).unwrap();
        let (again, rep2) = Journal::open(&path, 3).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(rep2.truncated_bytes, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_byte_invalidates_suffix_not_prefix() {
        let path = temp_file("corrupt");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(rec(0, b"keep me")).unwrap();
        j.append(rec(1, b"flip me")).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10; // inside record 1's body/crc
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (re, report) = Journal::open(&path, 3).unwrap();
        assert_eq!(re.len(), 1, "prefix survives, corrupt suffix dropped");
        assert_eq!(re.records()[0], rec(0, b"keep me"));
        assert!(report.truncated_bytes > 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lookup_prefers_latest_record_per_shard() {
        let path = temp_file("lookup");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 1).unwrap();
        j.append(rec(4, b"first")).unwrap();
        j.append(rec(4, b"second")).unwrap();
        assert_eq!(j.lookup(4).map(|r| r.payload.as_slice()), Some(b"second".as_slice()));
        assert_eq!(j.lookup(9), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_non_journal_files_are_bad_headers() {
        let path = temp_file("badheader");
        fs::write(&path, b"not a journal").unwrap();
        match Journal::open_unchecked(&path) {
            Err(JournalError::BadHeader { .. }) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Journal::open_unchecked(&path),
            Err(JournalError::BadHeader { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_leaves_the_journal_unchanged_and_heals_after() {
        let path = temp_file("failwrite");
        let aside = temp_file("failwrite_aside");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&aside);
        let mut j = Journal::create(&path, 6).unwrap();
        j.append(rec(0, b"one")).unwrap();
        j.append(rec(1, b"two")).unwrap();
        drop(j);
        // A torn tail longer than the record that replaces it, so a
        // missing truncation would leave garbage after the new record.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 64]);
        fs::write(&path, &bytes).unwrap();
        let (mut j, report) = Journal::open(&path, 6).unwrap();
        assert_eq!(report.truncated_bytes, 64);
        // A directory at the journal's path makes the write fail.
        fs::rename(&path, &aside).unwrap();
        fs::create_dir(&path).unwrap();
        match j.append(rec(2, b"lost")) {
            Err(JournalError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
        assert_eq!(j.len(), 2, "a failed append must not add the record");
        fs::remove_dir(&path).unwrap();
        fs::rename(&aside, &path).unwrap();
        j.append(rec(2, b"three")).unwrap();
        let (re, report) = Journal::open(&path, 6).unwrap();
        assert_eq!(report, OpenReport { records: 3, truncated_bytes: 0 });
        assert_eq!(re.records(), j.records());
        assert_eq!(re.records()[2], rec(2, b"three"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint64_is_stable() {
        // FNV-1a 64 test vectors.
        assert_eq!(fingerprint64(b""), 0xcbf29ce484222325);
        assert_eq!(fingerprint64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fingerprint64(b"hello"), 0xa430d84680aabd0b);
    }
}
