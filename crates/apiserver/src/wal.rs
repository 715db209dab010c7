//! Write-ahead log and snapshot checkpoints for the store.
//!
//! Every commit, whatever its namespace, appends to one append-only file
//! (`wal.log`), as etcd journals its whole keyspace into one sequential
//! WAL: the store commits serially, so the log is its history in commit
//! order. Records are framed as
//!
//! ```text
//! [u32 le payload length][u32 le checksum][JSON payload]
//! ```
//!
//! over the `dspace_value::json` codec; a torn final record (short frame
//! or checksum mismatch) ends the readable prefix, and recovery truncates
//! the file there so appends resume on a whole-record boundary.
//!
//! Payloads are one of three record types, each carrying its namespace
//! and a sequence number that rises across the whole log, checkpoints
//! and restarts (which is what lets a checkpoint state exactly how much
//! of the log it has absorbed):
//!
//! - `commit` — one mutation verb in its object's shard: the shard
//!   revision it started from (`base`), whether the verb (re)ensured the shard
//!   (which clears a pending retirement), how many events it appended,
//!   and its op if the op succeeded. A failed `create` still ensures the
//!   shard, so it journals a record without an op.
//! - `retire` — the namespace entered deletion draining.
//! - `drop` — the drained shard was dropped (its revision counter resets
//!   if the namespace is ever recreated).
//!
//! A checkpoint (`checkpoint.json`, written to a temp file, fsynced, and
//! renamed) captures every shard's objects and revision counter plus the
//! sequence floor, and the log is truncated once the checkpoint is
//! durable. Records at or below the floor are skipped on replay, so a
//! crash between the rename and the truncation replays nothing twice.
//! Recovery is therefore checkpoint-load + tail-replay.
//!
//! Append and flush failures panic: a store that silently stops
//! journaling is strictly worse than one that crashes and recovers.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use dspace_value::{json, Value};

/// The log's file name inside the durability directory.
const LOG: &str = "wal.log";

/// When appended records are pushed toward disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Buffer appends in user space (the default): bytes reach the
    /// operating system when the writer's 64 KiB buffer fills, at
    /// checkpoints, and when the store is dropped. A hard kill can lose
    /// the buffered tail, and recovery then stops cleanly at the last
    /// whole record — the same contract as losing the OS page cache to a
    /// power cut.
    Batch,
    /// Additionally flush and `fdatasync` the log once per mutation verb.
    /// Survives power loss, at a large per-commit cost.
    Commit,
}

/// Where and how a [`crate::store::Store`] journals.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding `wal.log` and `checkpoint.json`.
    pub dir: PathBuf,
    /// Sync policy for appends.
    pub sync: WalSync,
    /// Roll a checkpoint after this many logged commit records.
    pub checkpoint_every: u64,
}

impl DurabilityOptions {
    /// Durability rooted at `dir` with the default policy: buffered
    /// appends ([`WalSync::Batch`]), checkpoint every 1024 commits.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            sync: WalSync::Batch,
            checkpoint_every: 1024,
        }
    }
}

/// A recovery failure: an I/O error, or a log/checkpoint whose contents
/// are inconsistent with replaying onto the recovered state.
#[derive(Debug)]
pub struct WalError {
    message: String,
}

impl WalError {
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        WalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wal: {}", self.message)
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError {
            message: e.to_string(),
        }
    }
}

/// One replayable log record (its namespace travels beside it in
/// [`Recovered::records`]).
#[derive(Debug)]
pub(crate) enum WalRecord {
    /// One mutation verb in its object's shard.
    Commit {
        /// Sequence number in the log.
        seq: u64,
        /// Shard revision when the verb began; replay asserts it.
        base: u64,
        /// The verb (re)ensured the shard: create it if absent and clear
        /// a pending retirement, exactly like the live path.
        ensure: bool,
        /// Events the verb appended (replay cross-checks its own count).
        appended: u64,
        /// The successful op as a parsed JSON payload; `None` when the
        /// verb only ensured the shard (a failed `create`).
        op: Option<Value>,
    },
    /// The namespace entered deletion draining.
    Retire {
        /// Sequence number in the log.
        seq: u64,
    },
    /// The drained shard was dropped (revision resets on recreation).
    Drop {
        /// Sequence number in the log.
        seq: u64,
    },
}

impl WalRecord {
    fn seq(&self) -> u64 {
        match self {
            WalRecord::Commit { seq, .. } | WalRecord::Retire { seq } | WalRecord::Drop { seq } => {
                *seq
            }
        }
    }
}

/// One object in a checkpoint.
#[derive(Debug)]
pub(crate) struct CheckpointObject {
    /// Object kind.
    pub kind: String,
    /// Object namespace.
    pub namespace: String,
    /// Object name.
    pub name: String,
    /// Resource version at checkpoint time.
    pub resource_version: u64,
    /// The committed model.
    pub model: Value,
}

/// One shard in a checkpoint.
#[derive(Debug)]
pub(crate) struct CheckpointShard {
    /// The shard's namespace.
    pub namespace: String,
    /// Events ever committed in the shard.
    pub committed: u64,
    /// The namespace was draining toward deletion.
    pub retiring: bool,
    /// The shard's objects.
    pub objects: Vec<CheckpointObject>,
}

/// A parsed `checkpoint.json` (empty when none was ever written).
#[derive(Debug, Default)]
pub(crate) struct Checkpoint {
    /// Global commit counter at checkpoint time.
    pub committed_total: u64,
    /// Sequence floor: records at or below it are already reflected in
    /// the checkpoint state.
    pub seq: u64,
    /// Every live shard at checkpoint time.
    pub shards: Vec<CheckpointShard>,
}

/// Everything [`Wal::open`] read back from the durability directory.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The newest durable checkpoint (default/empty when none exists).
    pub checkpoint: Checkpoint,
    /// The log's records above the checkpoint's sequence floor, each with
    /// its namespace, in file (= commit) order.
    pub records: Vec<(String, WalRecord)>,
}

/// The open journal: the `wal.log` appender and the sequence counter.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    sync: WalSync,
    checkpoint_every: u64,
    /// The log, opened with `O_APPEND`. 64 KiB: batch mode drains on
    /// buffer fill, so a bigger buffer means fewer write syscalls per
    /// verb (the buffered tail is already forfeit on hard kill).
    w: io::BufWriter<File>,
    /// Appends since the last commit-mode sync.
    dirty: bool,
    /// Last sequence number handed out. Monotonic across checkpoints and
    /// restarts.
    seq: u64,
    /// Reusable payload buffer for the commit hot path: grows to the
    /// working record size once, then every commit builds in place.
    scratch: String,
}

impl Wal {
    /// Opens the durability directory: loads the checkpoint, scans the
    /// log (truncating a torn tail in place), and returns the journal
    /// handle alongside everything the store must replay.
    pub(crate) fn open(opts: &DurabilityOptions) -> Result<(Wal, Recovered), WalError> {
        fs::create_dir_all(&opts.dir)?;
        // A leftover temp file is a checkpoint that never got renamed
        // into place; its state is fully covered by the log.
        let _ = fs::remove_file(opts.dir.join("checkpoint.json.tmp"));
        let checkpoint = load_checkpoint(&opts.dir)?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(opts.dir.join(LOG))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (mut records, valid_len) = scan_records(&buf);
        if valid_len < buf.len() {
            // Torn tail: drop the partial record so future appends start
            // on a whole-record boundary.
            file.set_len(valid_len as u64)?;
        }
        let floor = checkpoint.seq;
        let seq = records.iter().map(|(_, r)| r.seq()).fold(floor, u64::max);
        // Records at or below the floor survive only a crash between the
        // checkpoint's rename and the log's truncation.
        records.retain(|(_, r)| r.seq() > floor);
        let wal = Wal {
            dir: opts.dir.clone(),
            sync: opts.sync,
            checkpoint_every: opts.checkpoint_every.max(1),
            w: io::BufWriter::with_capacity(64 << 10, file),
            dirty: false,
            seq,
            scratch: String::new(),
        };
        Ok((
            wal,
            Recovered {
                checkpoint,
                records,
            },
        ))
    }

    /// The configured checkpoint interval (in commit records).
    pub(crate) fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Appends a `commit` record for one mutation verb, with the op
    /// record the verb rendered once its op succeeded. One call per
    /// journaled verb; the payload is built in a single reused buffer.
    pub(crate) fn commit(
        &mut self,
        ns: &str,
        base: u64,
        ensure: bool,
        appended: u64,
        op: Option<&str>,
    ) {
        self.seq += 1;
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        payload.push_str("{\"t\":\"commit\",\"seq\":");
        push_exact(&mut payload, self.seq);
        payload.push_str(",\"ns\":");
        json::write_str_to(&mut payload, ns);
        payload.push_str(",\"base\":");
        push_exact(&mut payload, base);
        payload.push_str(",\"ensure\":");
        payload.push_str(if ensure { "true" } else { "false" });
        payload.push_str(",\"appended\":");
        push_exact(&mut payload, appended);
        if let Some(op) = op {
            payload.push_str(",\"op\":");
            payload.push_str(op);
        }
        payload.push('}');
        self.append(&payload);
        self.scratch = payload;
    }

    /// Appends a `retire` record (the namespace entered deletion).
    pub(crate) fn retire(&mut self, ns: &str) {
        self.mark("retire", ns);
    }

    /// Appends a `drop` record (the drained shard was removed).
    pub(crate) fn drop_shard(&mut self, ns: &str) {
        self.mark("drop", ns);
    }

    fn mark(&mut self, tag: &str, ns: &str) {
        self.seq += 1;
        let payload = format!(
            r#"{{"t":"{tag}","seq":{},"ns":{}}}"#,
            exact(self.seq),
            jstr(ns)
        );
        self.append(&payload);
    }

    /// Pushes appended records toward disk per the sync policy. Called
    /// once per mutation verb by the store: a no-op in batch mode (the
    /// buffer drains on its own schedule), flush + `fdatasync` in commit
    /// mode.
    pub(crate) fn flush(&mut self) {
        if self.sync != WalSync::Commit || !self.dirty {
            return;
        }
        self.w
            .flush()
            .unwrap_or_else(|e| panic!("wal: flush failed: {e}"));
        self.w
            .get_ref()
            .sync_data()
            .unwrap_or_else(|e| panic!("wal: fsync failed: {e}"));
        self.dirty = false;
    }

    /// Durably installs a checkpoint of `shards` (rendered shard entries)
    /// with the current sequence floor (write-temp, fsync, rename,
    /// fsync-dir), then truncates the log: all its records are at or
    /// below that floor.
    pub(crate) fn write_checkpoint(&mut self, committed_total: u64, shards: &str) {
        let doc = format!(
            r#"{{"committed_total":{},"seq":{},"shards":[{shards}]}}"#,
            exact(committed_total),
            exact(self.seq)
        );
        let tmp = self.dir.join("checkpoint.json.tmp");
        let target = self.dir.join("checkpoint.json");
        let mut write = || -> io::Result<()> {
            // Drain the buffer first, so no pre-checkpoint record can
            // land after the truncation point.
            self.w.flush()?;
            let mut f = File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, &target)?;
            // Make the rename itself durable; best effort on filesystems
            // where directories cannot be opened.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            // The appender uses O_APPEND, so it keeps writing at the
            // (new) end after the truncate.
            self.w.get_ref().set_len(0)
        };
        write().unwrap_or_else(|e| panic!("wal: checkpoint failed: {e}"));
        self.dirty = false;
    }

    /// Writes one length-prefixed, checksummed frame.
    fn append(&mut self, payload: &str) {
        let bytes = payload.as_bytes();
        let mut frame = || -> io::Result<()> {
            self.w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            self.w.write_all(&checksum(bytes).to_le_bytes())?;
            self.w.write_all(bytes)
        };
        frame().unwrap_or_else(|e| panic!("wal: append failed: {e}"));
        self.dirty = true;
    }
}

/// Appends `n` in the journal's exact-u64 encoding: plain decimal while
/// exactly representable as `f64`, a quoted decimal string beyond 2^53
/// (mirroring [`Value::from_exact_u64`]), without building a `Value`.
fn push_exact(out: &mut String, n: u64) {
    use std::fmt::Write;
    if n <= (1u64 << 53) {
        let _ = write!(out, "{n}");
    } else {
        let _ = write!(out, "\"{n}\"");
    }
}

/// Renders a `u64` exactly, via [`Value::from_exact_u64`]: a JSON number
/// up to 2^53, a decimal string literal beyond.
pub(crate) fn exact(n: u64) -> String {
    json::to_string(&Value::from_exact_u64(n))
}

/// Renders a JSON string literal.
pub(crate) fn jstr(s: &str) -> String {
    json::to_string(&Value::Str(s.to_string()))
}

/// 32-bit frame checksum: 64-bit FNV-1a over 8-byte words (length mixed
/// into the seed, tail zero-padded) folded to 32 bits. Word-at-a-time
/// keeps the serial multiply chain ~8x shorter than byte-wise FNV on the
/// append hot path; a torn or corrupt tail only needs a well-mixed
/// fingerprint, not a cryptographic digest.
fn checksum(bytes: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    (h ^ (h >> 32)) as u32
}

/// Scans the log's bytes into records, returning them with the length of
/// the valid prefix. A short frame, checksum mismatch, or unparseable
/// payload ends the scan — by construction that is a torn tail.
fn scan_records(data: &[u8]) -> (Vec<(String, WalRecord)>, usize) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        if data.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if data.len() - pos - 8 < len {
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if checksum(payload) != sum {
            break;
        }
        let Some(rec) = parse_record(payload) else {
            break;
        };
        out.push(rec);
        pos += 8 + len;
    }
    (out, pos)
}

fn parse_record(payload: &[u8]) -> Option<(String, WalRecord)> {
    let text = std::str::from_utf8(payload).ok()?;
    let Ok(Value::Object(mut map)) = json::parse(text) else {
        return None;
    };
    // Resolve the tag by borrow: replay parses one record per frame and
    // must not clone a fresh `String` for each just to branch on it.
    enum Tag {
        Commit,
        Retire,
        Drop,
    }
    let tag = match map.get("t") {
        Some(Value::Str(s)) => match s.as_str() {
            "commit" => Tag::Commit,
            "retire" => Tag::Retire,
            "drop" => Tag::Drop,
            _ => return None,
        },
        _ => return None,
    };
    let ns = match map.remove("ns") {
        Some(Value::Str(s)) => s,
        _ => return None,
    };
    let seq = map.get("seq")?.as_exact_u64()?;
    let record = match tag {
        Tag::Commit => {
            let base = map.get("base")?.as_exact_u64()?;
            let ensure = map.get("ensure")?.as_bool()?;
            let appended = map.get("appended")?.as_exact_u64()?;
            WalRecord::Commit {
                seq,
                base,
                ensure,
                appended,
                op: map.remove("op"),
            }
        }
        Tag::Retire => WalRecord::Retire { seq },
        Tag::Drop => WalRecord::Drop { seq },
    };
    Some((ns, record))
}

fn load_checkpoint(dir: &Path) -> Result<Checkpoint, WalError> {
    let path = dir.join("checkpoint.json");
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Checkpoint::default()),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |what: &str| WalError::corrupt(format!("checkpoint.json: {what}"));
    let Ok(Value::Object(mut map)) = json::parse(&text) else {
        return Err(corrupt("not a JSON object"));
    };
    let committed_total = map
        .get("committed_total")
        .and_then(Value::as_exact_u64)
        .ok_or_else(|| corrupt("missing committed_total"))?;
    let seq = map
        .get("seq")
        .and_then(Value::as_exact_u64)
        .ok_or_else(|| corrupt("missing seq"))?;
    let mut shards = Vec::new();
    let Some(Value::Array(shard_docs)) = map.remove("shards") else {
        return Err(corrupt("missing shards"));
    };
    for doc in shard_docs {
        let Value::Object(mut sm) = doc else {
            return Err(corrupt("shard entry is not an object"));
        };
        let namespace = match sm.remove("ns") {
            Some(Value::Str(s)) => s,
            _ => return Err(corrupt("shard entry missing ns")),
        };
        let committed = sm
            .get("committed")
            .and_then(Value::as_exact_u64)
            .ok_or_else(|| corrupt("shard entry missing committed"))?;
        let retiring = sm
            .get("retiring")
            .and_then(Value::as_bool)
            .ok_or_else(|| corrupt("shard entry missing retiring"))?;
        let mut objects = Vec::new();
        let Some(Value::Array(object_docs)) = sm.remove("objects") else {
            return Err(corrupt("shard entry missing objects"));
        };
        for doc in object_docs {
            let Value::Object(mut om) = doc else {
                return Err(corrupt("object entry is not an object"));
            };
            let take_str = |m: &mut BTreeMap<String, Value>, k: &str| match m.remove(k) {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            };
            let kind =
                take_str(&mut om, "kind").ok_or_else(|| corrupt("object entry missing kind"))?;
            let ons = take_str(&mut om, "namespace")
                .ok_or_else(|| corrupt("object entry missing namespace"))?;
            let name =
                take_str(&mut om, "name").ok_or_else(|| corrupt("object entry missing name"))?;
            let resource_version = om
                .get("rv")
                .and_then(Value::as_exact_u64)
                .ok_or_else(|| corrupt("object entry missing rv"))?;
            let model = om
                .remove("model")
                .ok_or_else(|| corrupt("object entry missing model"))?;
            objects.push(CheckpointObject {
                kind,
                namespace: ons,
                name,
                resource_version,
                model,
            });
        }
        shards.push(CheckpointShard {
            namespace,
            committed,
            retiring,
            objects,
        });
    }
    Ok(Checkpoint {
        committed_total,
        seq,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dspace-wal-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let opts = DurabilityOptions::new(&dir);
        {
            let (mut wal, recovered) = Wal::open(&opts).unwrap();
            assert!(recovered.records.is_empty());
            wal.commit(
                "default",
                0,
                true,
                1,
                Some(r#"{"op":"del","kind":"K","ns":"default","name":"n"}"#),
            );
            wal.commit("other", 0, true, 0, None);
            wal.retire("default");
            wal.drop_shard("default");
            wal.flush();
        }
        // Append a torn frame: a header promising more bytes than exist.
        let path = dir.join(LOG);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&1000u32.to_le_bytes()).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
        }
        let len_with_torn = fs::metadata(&path).unwrap().len();
        let (_, recovered) = Wal::open(&opts).unwrap();
        let recs = &recovered.records;
        assert_eq!(recs.len(), 4);
        assert!(matches!(
            recs[0],
            (
                ref ns,
                WalRecord::Commit {
                    seq: 1,
                    base: 0,
                    ensure: true,
                    appended: 1,
                    op: Some(_),
                }
            ) if ns == "default"
        ));
        assert!(matches!(
            recs[1],
            (ref ns, WalRecord::Commit { seq: 2, op: None, .. }) if ns == "other"
        ));
        assert!(matches!(recs[2].1, WalRecord::Retire { seq: 3 }));
        assert!(matches!(recs[3].1, WalRecord::Drop { seq: 4 }));
        // The torn tail was truncated away in place.
        assert!(fs::metadata(&path).unwrap().len() < len_with_torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_ends_the_scan() {
        let payload = br#"{"t":"retire","seq":1,"ns":"a"}"#;
        let mut data = Vec::new();
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&checksum(payload).to_le_bytes());
        data.extend_from_slice(payload);
        let good_len = data.len();
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&(checksum(payload) ^ 1).to_le_bytes());
        data.extend_from_slice(payload);
        let (recs, valid) = scan_records(&data);
        assert_eq!(recs.len(), 1);
        assert_eq!(valid, good_len);
    }
}
