//! Versioned, integrity-checked snapshot files.
//!
//! Format (one header line, then the payload):
//!
//! ```text
//! EMDCKPT v8 seq=<n> crc=<16 hex digits>\n
//! <payload JSON>\n
//! ```
//!
//! * `v8` — the [`FORMAT_VERSION`]. The sentence store holds its live
//!   records and `first`, the slot index of the oldest (the records
//!   evicted since its last compaction), but neither of its indexes: the
//!   sentence-id index and the token posting lists are rebuilt from the
//!   records at load. A record holds its tokens' symbols and their
//!   casing shapes, one letter per token in one string, not their text.
//!   Candidates are named by integer ids:
//!   a record's slot in `candidates.records` (`null` for a pruned id,
//!   listed in `candidates.free`), spelled by its `syms`, held by its
//!   CTrie terminal's `cand`, and paired in the `adjacency` ledger as
//!   `[left, right, count]` triples in id order.
//! * v7, v6, v5, v4 and v3 files are still read
//!   ([`OLDEST_READABLE_VERSION`]): the payload's decoder (for the
//!   pipeline state, `GlobalizerState`'s) converts their schema. Up to v7
//!   a record stored its sentence's tokens, text and offsets, from which
//!   the decoder derives the shapes. Up to v6 the sentence store kept a
//!   `null` slot per evicted record, which the decoder reads as `first`,
//!   and stored both indexes, which it ignores. v5 named candidates by key,
//!   their lower-cased, space-joined surface; v4 also kept only evicted
//!   records' pairs (`frozen_adjacency`), to which the decoder adds the
//!   live records' pairs; v3 candidates listed every mention, and one
//!   whose mention count differs from its pooled count is rejected as
//!   corrupt. v2 (bounded-memory schema with per-record embedding
//!   matrices) and v1 payloads are rejected rather than misread.
//! * `seq` — an application-meaning-free sequence number; the
//!   `StreamSupervisor` stores "batches completed" here so recovery knows
//!   which suffix of the stream to replay.
//! * `crc` — FNV-1a 64 over the payload bytes; a torn or bit-flipped file
//!   is detected and reported as [`CheckpointError::ChecksumMismatch`]
//!   instead of deserializing garbage into live state.
//!
//! Writes are atomic: the content goes to a
//! `<path>.tmp.<pid>.<nonce>` sibling first and is `rename`d over the
//! target, so a crash mid-write leaves either the previous checkpoint or
//! a stray temp file — never a half-written checkpoint at the canonical
//! path. The pid + per-process nonce in the temp name keep two
//! supervisors checkpointing into the same directory from clobbering
//! each other's in-flight temp file. The payload streams into the temp
//! file in bounded chunks and is hashed on the way, so a save's memory
//! does not grow with the payload.
//!
//! ## Retained generations
//!
//! [`save_generations`] keeps the last K checkpoints as a fallback
//! ladder: before each save, `<path>` rotates to `<path>.1`, `.1` to
//! `.2`, and so on. [`load_chain`] walks the ladder newest-first and
//! restores the first generation that passes every integrity check,
//! reporting a [`GenerationDiscard`] (path + reason) for each corrupt
//! generation it stepped over — so one torn or bit-flipped file costs
//! one checkpoint interval of replay, not all durable state.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic tag opening every checkpoint file.
pub const MAGIC: &str = "EMDCKPT";

/// Current checkpoint format version (the one [`save`] writes).
pub const FORMAT_VERSION: u32 = 8;

/// Oldest format version [`load`] accepts. Versions in between are
/// handed to the payload's decoder, which migrates their schema.
pub const OLDEST_READABLE_VERSION: u32 = 3;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not exist (a fresh start, not corruption).
    NotFound,
    /// Filesystem-level failure.
    Io(String),
    /// The file does not start with the `EMDCKPT` magic.
    BadMagic,
    /// The file is a checkpoint, but of an unsupported format version.
    UnsupportedVersion(u32),
    /// Payload bytes do not match the header checksum.
    ChecksumMismatch,
    /// Header or payload failed to parse.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotFound => write!(f, "checkpoint file not found"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version v{v} \
                     (this build reads v{OLDEST_READABLE_VERSION}..=v{FORMAT_VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint payload does not match its checksum")
            }
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64 offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64 running hash.
fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for detecting
/// torn writes and accidental corruption (this is an integrity check, not
/// an authentication mechanism).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Passes bytes through to `inner`, hashing them as they go.
struct HashingWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a64_update(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The header line. Its length depends only on `seq`: the crc is always
/// 16 hex digits.
fn header(seq: u64, crc: u64) -> String {
    format!("{MAGIC} v{FORMAT_VERSION} seq={seq} crc={crc:016x}\n")
}

/// Serialize `payload`, wrap it in a current-version header, and atomically replace
/// `path` with the result.
///
/// The payload streams to the temp file in chunks of about
/// [`serde::ser::CHUNK`] bytes, hashed as they go, so a save holds no
/// full-size copy of the encoding. The header goes out first with a zero
/// crc and is rewritten in place once the payload's hash is known.
pub fn save<T: Serialize>(path: &Path, seq: u64, payload: &T) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    let write = || -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
        let mut file = fs::File::create(&tmp).map_err(io)?;
        file.write_all(header(seq, 0).as_bytes()).map_err(io)?;
        let mut body = HashingWriter {
            inner: &mut file,
            hash: FNV_OFFSET,
        };
        serde_json::to_writer(&mut body, payload)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let crc = body.hash;
        file.write_all(b"\n").map_err(io)?;
        file.seek(SeekFrom::Start(0)).map_err(io)?;
        file.write_all(header(seq, crc).as_bytes()).map_err(io)
    };
    write()?;
    // Torn-write injection site: a crash here leaves a stray temp file
    // and the previous checkpoint intact (chaos-tested).
    crate::failpoint::fire("checkpoint_rename");
    fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
}

/// Path of retained generation `k`: the live checkpoint for `k == 0`,
/// the `<path>.k` sibling otherwise.
pub fn generation_path(path: &Path, k: usize) -> PathBuf {
    if k == 0 {
        return path.to_path_buf();
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{k}"));
    path.with_file_name(name)
}

/// Save with a retained-generation ladder: rotate the existing
/// generations down one slot (dropping the oldest), then atomically
/// write the new checkpoint at `path`. `keep == 1` degenerates to a
/// plain [`save`]. Rotation is best-effort — a missing generation is
/// simply skipped, and a failed rotation never blocks the save itself.
pub fn save_generations<T: Serialize>(
    path: &Path,
    seq: u64,
    payload: &T,
    keep: usize,
) -> Result<(), CheckpointError> {
    for k in (1..keep.max(1)).rev() {
        let from = generation_path(path, k - 1);
        if from.exists() {
            let _ = fs::rename(&from, generation_path(path, k));
        }
    }
    save(path, seq, payload)
}

/// One generation the fallback chain stepped over.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationDiscard {
    /// Which generation (0 = newest).
    pub generation: usize,
    /// The file that failed.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: String,
}

/// Walk the generation ladder newest-first and restore the first
/// generation that passes every integrity check. Returns
/// `(seq, payload, generation)` on success plus the discard record for
/// every corrupt generation stepped over on the way; `(None, discards)`
/// when no generation could be restored (an empty discard list means a
/// genuinely fresh start — nothing existed, nothing was corrupt).
#[allow(clippy::type_complexity)]
pub fn load_chain<T: DeserializeOwned>(
    path: &Path,
    keep: usize,
) -> (Option<(u64, T, usize)>, Vec<GenerationDiscard>) {
    let mut discards = Vec::new();
    for k in 0..keep.max(1) {
        let gen_path = generation_path(path, k);
        match load::<T>(&gen_path) {
            Ok((seq, payload)) => return (Some((seq, payload, k)), discards),
            Err(CheckpointError::NotFound) => {}
            Err(e) => discards.push(GenerationDiscard {
                generation: k,
                path: gen_path,
                reason: e.to_string(),
            }),
        }
    }
    (None, discards)
}

/// Read a checkpoint back: verify magic, version, and checksum, then
/// deserialize. Returns `(seq, payload)`.
pub fn load<T: DeserializeOwned>(path: &Path) -> Result<(u64, T), CheckpointError> {
    let content = fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::NotFound
        } else {
            CheckpointError::Io(e.to_string())
        }
    })?;
    let (header, payload) = content
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Corrupt("missing header line".to_string()))?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Corrupt("malformed version field".to_string()))?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let seq: u64 = parts
        .next()
        .and_then(|v| v.strip_prefix("seq="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Corrupt("malformed seq field".to_string()))?;
    let crc: u64 = parts
        .next()
        .and_then(|v| v.strip_prefix("crc="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::Corrupt("malformed crc field".to_string()))?;
    let payload = payload.strip_suffix('\n').unwrap_or(payload);
    if fnv1a64(payload.as_bytes()) != crc {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let value: T =
        serde_json::from_str(payload).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
    Ok((seq, value))
}

/// Sibling temp path: `<file name>.tmp.<pid>.<nonce>` in the same
/// directory, so the final `rename` never crosses a filesystem boundary.
/// The pid plus a per-process counter make every in-flight temp file
/// unique — two supervisors (or two threads) checkpointing to the same
/// path can no longer clobber each other's half-written temp.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        items: Vec<String>,
        weight: f32,
        n: u64,
    }

    fn payload() -> Payload {
        Payload {
            items: vec!["italy".into(), "andy beshear".into()],
            weight: 0.125,
            n: 42,
        }
    }

    /// Unique temp file per test (the suite runs multi-threaded).
    fn temp(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "emd_ckpt_test_{}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
            tag
        ))
    }

    #[test]
    fn round_trip() {
        let path = temp("rt");
        save(&path, 7, &payload()).unwrap();
        let (seq, back): (u64, Payload) = load(&path).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, payload());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_bytes_are_header_line_then_payload_line() {
        let path = temp("bytes");
        save(&path, 7, &payload()).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "EMDCKPT v8 seq=7 crc=fed5dcb25e995d92\n\
             {\"items\":[\"italy\",\"andy beshear\"],\"weight\":0.125,\"n\":42}\n"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// A payload of several MiB: the save streams it in many chunks.
    fn big_payload() -> Vec<Payload> {
        (0..60_000u64)
            .map(|n| Payload {
                items: vec![format!("mention \"{n}\""), "andy beshear\n".into()],
                weight: n as f32 / 7.0,
                n,
            })
            .collect()
    }

    /// Encodes `n` elements, then panics: a save that fails partway.
    struct FailsAfter(u64);

    impl Serialize for FailsAfter {
        fn write_json(&self, out: &mut serde::ser::Out<'_>) {
            let n = self.0;
            let items = (0..).map(move |i| {
                if i == n {
                    crate::failpoint::panic_injected("payload");
                }
                format!("element {i} of a save that fails partway")
            });
            serde::ser::write_seq(items, out);
        }
    }

    /// Temp siblings of `path` left on disk.
    fn temp_siblings(path: &Path) -> Vec<PathBuf> {
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("{stem}.tmp."))
            })
            .map(|e| e.path())
            .collect()
    }

    #[test]
    fn streamed_save_writes_header_then_payload_text_over_many_chunks() {
        let path = temp("stream");
        let payload = big_payload();
        let json = serde_json::to_string(&payload).unwrap();
        assert!(json.len() >= 4 << 20, "{} bytes", json.len());
        save(&path, 11, &payload).unwrap();
        let want = format!(
            "EMDCKPT v8 seq=11 crc={:016x}\n{json}\n",
            fnv1a64(json.as_bytes())
        );
        assert!(
            std::fs::read(&path).unwrap() == want.as_bytes(),
            "file bytes differ from header + to_string + newline"
        );
        let (seq, back): (u64, Vec<Payload>) = load(&path).unwrap();
        assert_eq!((seq, back), (11, payload));

        // A save that fails partway leaves the previous checkpoint as it
        // was, plus the partial temp file.
        crate::failpoint::install_quiet_hook();
        let failed = std::panic::catch_unwind(|| save(&path, 12, &FailsAfter(100_000)));
        assert!(failed.is_err(), "the payload failed mid-encoding");
        assert!(std::fs::read(&path).unwrap() == want.as_bytes());
        let temps = temp_siblings(&path);
        assert_eq!(temps.len(), 1, "{temps:?}");
        let partial = std::fs::read(&temps[0]).unwrap();
        assert!(
            partial.len() > serde::ser::CHUNK,
            "chunks reached the temp file before the failure"
        );
        assert!(partial.starts_with(b"EMDCKPT v8 seq=12 crc=0000000000000000\n"));
        std::fs::remove_file(&temps[0]).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_not_found() {
        let path = temp("missing");
        match load::<Payload>(&path) {
            Err(CheckpointError::NotFound) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let path = temp("magic");
        std::fs::write(&path, "NOTACKPT v1 seq=0 crc=0\n{}\n").unwrap();
        assert!(matches!(
            load::<Payload>(&path),
            Err(CheckpointError::BadMagic)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_version_rejected() {
        let path = temp("version");
        std::fs::write(&path, "EMDCKPT v99 seq=0 crc=0\n{}\n").unwrap();
        assert!(matches!(
            load::<Payload>(&path),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_older_version_checkpoints_rejected() {
        // The v1 payload schema predates bounded-memory state, and v2
        // predates the SoA-arena schema; reading either into a v8 build
        // must fail loudly, not misinterpret fields.
        for stale in [1u32, 2] {
            let path = temp(&format!("stale{stale}"));
            std::fs::write(&path, format!("EMDCKPT v{stale} seq=0 crc=0\n{{}}\n")).unwrap();
            match load::<Payload>(&path) {
                Err(CheckpointError::UnsupportedVersion(v)) => assert_eq!(v, stale),
                other => panic!("v{stale} must be rejected, got {other:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn flipped_payload_bit_detected() {
        let path = temp("flip");
        save(&path, 1, &payload()).unwrap();
        let mut content = std::fs::read_to_string(&path).unwrap();
        // Corrupt one payload character without touching the header.
        let idx = content.find('\n').unwrap() + 5;
        content.replace_range(idx..idx + 1, "~");
        std::fs::write(&path, content).unwrap();
        assert!(matches!(
            load::<Payload>(&path),
            Err(CheckpointError::ChecksumMismatch)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_detected() {
        let path = temp("trunc");
        save(&path, 1, &payload()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &content[..content.len() / 2]).unwrap();
        assert!(load::<Payload>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_overwrites_atomically() {
        let path = temp("overwrite");
        save(&path, 1, &payload()).unwrap();
        let mut p2 = payload();
        p2.n = 99;
        save(&path, 2, &p2).unwrap();
        let (seq, back): (u64, Payload) = load(&path).unwrap();
        assert_eq!((seq, back.n), (2, 99));
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&format!("{stem}.tmp.")))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp siblings must not survive a successful save: {leftovers:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tmp_paths_are_unique_per_call() {
        // Regression: the temp name used to be the deterministic
        // `<name>.tmp`, so two writers targeting the same checkpoint
        // could clobber each other's in-flight temp file.
        let path = temp("nonce");
        let a = tmp_path(&path);
        let b = tmp_path(&path);
        assert_ne!(a, b, "every in-flight temp file is unique");
        let pid = format!(".tmp.{}.", std::process::id());
        assert!(a.to_string_lossy().contains(&pid), "{a:?}");
        assert!(
            a.parent() == path.parent(),
            "temp stays a sibling so the rename never crosses filesystems"
        );
    }

    #[test]
    fn generation_ladder_rotates_and_restores_newest() {
        let path = temp("gens");
        for seq in 1..=4u64 {
            let mut p = payload();
            p.n = seq;
            save_generations(&path, seq, &p, 3).unwrap();
        }
        // Ladder holds seq 4 (live), 3 (.1), 2 (.2); 1 rotated away.
        let (restored, discards) = load_chain::<Payload>(&path, 3);
        let (seq, back, generation) = restored.expect("newest restores");
        assert_eq!((seq, back.n, generation), (4, 4, 0));
        assert!(discards.is_empty());
        let (s1, p1): (u64, Payload) = load(&generation_path(&path, 1)).unwrap();
        assert_eq!((s1, p1.n), (3, 3));
        let (s2, p2): (u64, Payload) = load(&generation_path(&path, 2)).unwrap();
        assert_eq!((s2, p2.n), (2, 2));
        assert!(!generation_path(&path, 3).exists(), "oldest dropped");
        for k in 0..3 {
            let _ = std::fs::remove_file(generation_path(&path, k));
        }
    }

    #[test]
    fn load_chain_steps_over_corrupt_generations_with_reasons() {
        let path = temp("chain");
        for seq in 1..=3u64 {
            let mut p = payload();
            p.n = seq;
            save_generations(&path, seq, &p, 3).unwrap();
        }
        // Corrupt the two newest generations two different ways.
        std::fs::write(&path, "EMDCKPT v3 seq=3 crc=0000000000000000\n{}\n").unwrap();
        let g1 = generation_path(&path, 1);
        let content = std::fs::read_to_string(&g1).unwrap();
        std::fs::write(&g1, &content[..content.len() / 2]).unwrap();
        let (restored, discards) = load_chain::<Payload>(&path, 3);
        let (seq, back, generation) = restored.expect("generation 2 survives");
        assert_eq!((seq, back.n, generation), (1, 1, 2));
        assert_eq!(discards.len(), 2);
        assert_eq!(discards[0].generation, 0);
        assert!(
            discards[0].reason.contains("checksum"),
            "{}",
            discards[0].reason
        );
        assert_eq!(discards[1].generation, 1);
        for k in 0..3 {
            let _ = std::fs::remove_file(generation_path(&path, k));
        }
    }

    #[test]
    fn load_chain_all_corrupt_reports_every_generation() {
        let path = temp("allbad");
        save_generations(&path, 1, &payload(), 2).unwrap();
        save_generations(&path, 2, &payload(), 2).unwrap();
        std::fs::write(&path, "garbage").unwrap();
        std::fs::write(generation_path(&path, 1), "NOTACKPT v1\n{}\n").unwrap();
        let (restored, discards) = load_chain::<Payload>(&path, 2);
        assert!(restored.is_none());
        assert_eq!(discards.len(), 2, "every generation's reason surfaced");
        for k in 0..2 {
            let _ = std::fs::remove_file(generation_path(&path, k));
        }
    }

    #[test]
    fn load_chain_fresh_start_is_clean() {
        let path = temp("freshchain");
        let (restored, discards) = load_chain::<Payload>(&path, 3);
        assert!(restored.is_none());
        assert!(discards.is_empty(), "nothing existed, nothing was corrupt");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
