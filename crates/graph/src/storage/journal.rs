//! Durable-write primitives and the streaming build journal.
//!
//! Every store-metadata write in this module follows one ordering:
//! **tmp file → `fsync` → atomic `rename` → parent-directory `fsync`** —
//! so a crash at any instant leaves either the old file or the new file,
//! never a torn one. The same helper backs the manifest, the build
//! journal, and the chunked-Linial round checkpoints in `decolor-core`.
//!
//! The [`BuildJournal`] is the crash-safety record of a streaming
//! [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) run: after
//! every durable batch it records how many edges have reached the
//! endpoint spool (`durable_edges`) and a CRC32 over exactly those
//! spooled records (`prefix_crc`). An interrupted build resumes by
//! replaying the same deterministic edge stream: the builder skips the
//! first `durable_edges` edges while re-deriving their CRC, and refuses
//! to continue (typed [`GraphError::Corrupt`]) if the replayed stream
//! does not match the spooled prefix — a resumed build can therefore
//! never silently diverge from an uninterrupted one.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;

use crate::error::GraphError;

use super::checksum::{crc32, Crc32};
use super::fault::{injected, FaultDecision, FaultPlan};
use super::{io_err, read_word, word_bytes};

/// Journal file name inside a store directory.
pub(crate) const JOURNAL_FILE: &str = "journal.bin";

/// Journal magic tag ("DCLR JNL").
const JOURNAL_TAG: u64 = 0x4443_4c52_4a4e_4c00;
/// Journal format version.
const JOURNAL_VERSION: u64 = 1;

/// Syncs a file to stable storage (`fsync(2)` via `File::sync_all`).
pub(crate) fn fsync_file(f: &File, path: &Path) -> Result<(), GraphError> {
    f.sync_all().map_err(|e| io_err("cannot fsync", path, e))
}

/// Syncs a directory's entry table (required after `rename`/`remove` for
/// the new name itself to be durable; on Linux a directory opens
/// read-only like any file and `fsync` applies).
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), GraphError> {
    let f = File::open(dir).map_err(|e| io_err("cannot open directory", dir, e))?;
    f.sync_all()
        .map_err(|e| io_err("cannot fsync directory", dir, e))
}

/// Writes `bytes` to `path` with the full durability ordering
/// (tmp → fsync → rename → dir fsync), consulting `faults` at each step.
///
/// Fault points, in order: `<label>.tmp.write` (payload-carrying, so a
/// short-write plan can tear the tmp file — harmless, the rename never
/// happens), `<label>.tmp.fsync`, `<label>.rename`, `<label>.dirsync`.
pub(crate) fn write_durable_faulty(
    path: &Path,
    bytes: &[u8],
    label: &str,
    faults: Option<&FaultPlan>,
) -> Result<(), GraphError> {
    let tmp = tmp_path(path);
    let parent = path.parent().unwrap_or(Path::new("."));
    let point = |step: &str, len: usize| -> Result<Option<usize>, GraphError> {
        let full = format!("{label}.{step}");
        match faults.map_or(FaultDecision::Proceed, |p| p.decide(&full, len)) {
            FaultDecision::Proceed => Ok(None),
            FaultDecision::Short(n) => Ok(Some(n)),
            FaultDecision::Fail => Err(injected(&full)),
        }
    };

    let mut f = File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
    match point("tmp.write", bytes.len())? {
        None => f
            .write_all(bytes)
            .map_err(|e| io_err("cannot write", &tmp, e))?,
        Some(short) => {
            // lint: allow(result, "fault injection deliberately abandons this write mid-stream")
            let _ = f.write_all(&bytes[..short]);
            return Err(injected(&format!("{label}.tmp.write")));
        }
    }
    point("tmp.fsync", 0)?;
    fsync_file(&f, &tmp)?;
    drop(f);
    point("rename", 0)?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("cannot rename into place", path, e))?;
    point("dirsync", 0)?;
    fsync_dir(parent)
}

/// [`write_durable_faulty`] without fault injection — the public helper
/// `decolor-core` uses for its round checkpoints.
///
/// # Errors
///
/// [`GraphError::Io`] on any filesystem failure.
pub fn write_file_durable(path: &Path, bytes: &[u8]) -> Result<(), GraphError> {
    write_durable_faulty(path, bytes, "file", None)
}

/// Streaming variant of [`write_file_durable`]: `produce` writes the
/// payload through a buffered writer into the staged tmp file, which is
/// then fsynced and atomically renamed into place (same durability
/// ordering, no full in-memory copy of the payload — the chunked-Linial
/// checkpoints use this to avoid doubling their n-word color array).
///
/// # Errors
///
/// [`GraphError::Io`] on any filesystem failure, including errors
/// returned by `produce`.
pub fn write_file_durable_with(
    path: &Path,
    produce: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> Result<(), GraphError> {
    let tmp = tmp_path(path);
    let parent = path.parent().unwrap_or(Path::new("."));
    let f = File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, f);
    produce(&mut w).map_err(|e| io_err("cannot write", &tmp, e))?;
    let f = w
        .into_inner()
        .map_err(|e| io_err("cannot flush", &tmp, e.into_error()))?;
    fsync_file(&f, &tmp)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err("cannot rename into place", path, e))?;
    fsync_dir(parent)
}

/// The tmp sibling a durable write stages into before the rename.
pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads a whole file.
///
/// # Errors
///
/// [`GraphError::Io`] when the file cannot be read.
pub fn read_file(path: &Path) -> Result<Vec<u8>, GraphError> {
    std::fs::read(path).map_err(|e| io_err("cannot read", path, e))
}

/// The checkpoint record of an in-progress streaming build (see the
/// module docs for the resume protocol).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildJournal {
    /// Vertex count of the build.
    pub n: u64,
    /// Shard size exponent of the build.
    pub shard_bits: u64,
    /// Checkpoint cadence (edges per journal update).
    pub journal_every: u64,
    /// Edges durable in the endpoint spool.
    pub durable_edges: u64,
    /// CRC32 over the first `durable_edges` spooled 8-byte records.
    pub prefix_crc: u32,
}

impl BuildJournal {
    /// Serializes the journal (fixed-width words + trailing self-CRC).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let words = [
            JOURNAL_TAG,
            JOURNAL_VERSION,
            self.n,
            self.shard_bits,
            self.journal_every,
            self.durable_edges,
            u64::from(self.prefix_crc),
        ];
        let mut bytes = word_bytes(&words);
        let self_crc = crc32(&bytes);
        bytes.extend_from_slice(&u64::from(self_crc).to_le_bytes());
        bytes
    }

    /// Parses and integrity-checks a journal file's bytes.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming `path` on any malformation.
    pub(crate) fn decode(path: &Path, bytes: &[u8]) -> Result<BuildJournal, GraphError> {
        let corrupt = |reason: String| GraphError::Corrupt {
            path: path.display().to_string(),
            reason,
        };
        if bytes.len() != 8 * 8 {
            return Err(corrupt(format!(
                "journal has {} bytes, expected 64",
                bytes.len()
            )));
        }
        let payload = &bytes[..7 * 8];
        let stored = read_word(bytes, 7);
        if u64::from(crc32(payload)) != stored {
            return Err(corrupt(
                "journal self-checksum mismatch (torn write)".into(),
            ));
        }
        if read_word(bytes, 0) != JOURNAL_TAG {
            return Err(corrupt(format!(
                "bad journal magic {:#018x}",
                read_word(bytes, 0)
            )));
        }
        if read_word(bytes, 1) != JOURNAL_VERSION {
            return Err(corrupt(format!(
                "journal format version {} (this build reads {JOURNAL_VERSION})",
                read_word(bytes, 1)
            )));
        }
        Ok(BuildJournal {
            n: read_word(bytes, 2),
            shard_bits: read_word(bytes, 3),
            journal_every: read_word(bytes, 4),
            durable_edges: read_word(bytes, 5),
            prefix_crc: u32::try_from(read_word(bytes, 6))
                .map_err(|_| corrupt("journal prefix CRC word exceeds u32".into()))?,
        })
    }

    /// Loads the journal of `dir`, or `Ok(None)` when no journal exists.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for an unreadable or inconsistent journal,
    /// [`GraphError::Io`] for filesystem failures other than absence.
    pub fn load(dir: &Path) -> Result<Option<BuildJournal>, GraphError> {
        let path = dir.join(JOURNAL_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(BuildJournal::decode(&path, &bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("cannot read", &path, e)),
        }
    }

    /// Durably writes the journal into `dir` (tmp → fsync → rename).
    pub(crate) fn store(&self, dir: &Path, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        write_durable_faulty(&dir.join(JOURNAL_FILE), &self.encode(), "journal", faults)
    }
}

/// A rolling CRC over spooled endpoint records, updated pair by pair in
/// exactly the byte layout the spool uses — the builder keeps one for the
/// live stream and the resume path re-derives one from the replay.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EdgeCrc(Crc32);

impl EdgeCrc {
    pub(crate) fn update(&mut self, lo: u32, hi: u32) {
        // One 8-byte record: a single slicing-by-8 step.
        let mut rec = [0u8; 8];
        rec[..4].copy_from_slice(&lo.to_le_bytes());
        rec[4..].copy_from_slice(&hi.to_le_bytes());
        self.0.update(&rec);
    }

    pub(crate) fn finish(&self) -> u32 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("decolor-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips() {
        let dir = scratch("roundtrip");
        let j = BuildJournal {
            n: 1000,
            shard_bits: 16,
            journal_every: 4096,
            durable_edges: 12345,
            prefix_crc: 0xDEAD_BEEF,
        };
        j.store(&dir, None).unwrap();
        assert_eq!(BuildJournal::load(&dir).unwrap(), Some(j));
        assert!(!super::tmp_path(&dir.join(JOURNAL_FILE)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_none() {
        let dir = scratch("missing");
        assert_eq!(BuildJournal::load(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_is_corrupt() {
        let dir = scratch("torn");
        let j = BuildJournal {
            n: 10,
            shard_bits: 4,
            journal_every: 8,
            durable_edges: 5,
            prefix_crc: 7,
        };
        let mut bytes = j.encode();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert!(matches!(
            BuildJournal::load(&dir),
            Err(GraphError::Corrupt { .. })
        ));
        // Flipped byte with intact length: self-CRC catches it.
        let mut bytes = j.encode();
        bytes[20] ^= 0x40;
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert!(matches!(
            BuildJournal::load(&dir),
            Err(GraphError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_write_replaces_atomically() {
        let dir = scratch("durable");
        let path = dir.join("value.bin");
        write_file_durable(&path, b"first").unwrap();
        write_file_durable(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_durable_write_leaves_target_untouched() {
        let dir = scratch("faulted");
        let path = dir.join("value.bin");
        write_file_durable(&path, b"old").unwrap();
        for k in 0..3 {
            // Points 0..=2 (tmp.write, tmp.fsync, rename) all fire before
            // the rename lands, so the old content must survive.
            let plan = FaultPlan::kill_at(k);
            let err = write_durable_faulty(&path, b"new", "value", Some(&plan)).unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), b"old", "kill at {k}");
        }
        // Short write tears only the tmp file.
        let plan = FaultPlan::short_write_at(0, 42);
        write_durable_faulty(&path, b"new", "value", Some(&plan)).unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
