//! Kill-and-restart recovery: a durable store reopened from its WAL
//! directory is bit-identical to the store that crashed — same per-shard
//! revisions, same `committed_total`, same models and resource versions,
//! same compaction floors — including after a torn final record, a
//! checkpoint rolled mid-stream, a crash between a checkpoint and the
//! log's truncation, or a namespace delete/recreate cycle.
//!
//! One deliberate carve-out, documented on `Store::open`: watch
//! subscriptions die with the process, so both sides are compared with
//! watchers drained and cancelled (live shards then hold empty logs, just
//! like recovered ones).

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dspace_apiserver::store::{Store, WatchId};
use dspace_apiserver::wal::{DurabilityOptions, WalSync};
use dspace_apiserver::{ApiError, ApiServer, ObjectRef, Query, WriteOp};
use dspace_value::{json, Value};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory (std-only; no tempfile crate in tree).
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dspace-wal-recovery-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const NAMESPACES: [&str; 3] = ["alpha", "beta", "gamma"];
const OBJECTS_PER_NS: usize = 2;

fn oref(ns: usize, obj: usize) -> ObjectRef {
    ObjectRef::new("Thing", NAMESPACES[ns], format!("t{obj}"))
}

fn model(ns: usize, obj: usize) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "Thing", "name": "t{obj}", "namespace": "{}"}}, "n": 0}}"#,
        NAMESPACES[ns]
    ))
    .unwrap()
}

/// Everything recovery promises to restore, as comparable lines: the
/// global commit counter, each shard's revision and compaction floor
/// (`log=0` once drained), and every object bit-for-bit.
fn fingerprint(store: &mut Store) -> Vec<String> {
    let mut out = vec![format!("committed_total={}", store.revision())];
    for ns in store.shard_names() {
        out.push(format!(
            "shard {ns} committed={} log={}",
            store.shard_revision(&ns),
            store.shard_log_len(&ns)
        ));
    }
    for obj in store.query(&Query::all()) {
        out.push(format!(
            "{} rv={} {}",
            obj.oref,
            obj.resource_version,
            json::to_string(&obj.model)
        ));
    }
    out
}

fn opts(dir: &Path) -> DurabilityOptions {
    DurabilityOptions::new(dir.to_path_buf())
}

/// The one log every namespace journals to.
fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

// ---------------------------------------------------------------------------
// Scripted proptest: mutations + checkpoints + polls, then kill & restart
// ---------------------------------------------------------------------------

/// One script step's store verb. Every [`WriteOp`] kind appears, and so
/// do writes that fail and must journal nothing.
#[derive(Debug, Clone)]
enum Op {
    SetN {
        ns: usize,
        obj: usize,
        value: u32,
    },
    /// A set through the string at `.meta.kind`: it fails, journaling
    /// nothing.
    SetThroughScalar {
        ns: usize,
        obj: usize,
    },
    /// A deep merge that sets `.n` and adds `.x.m`.
    Merge {
        ns: usize,
        obj: usize,
        value: u32,
    },
    /// A put guarded by the object's current version, or with `stale`
    /// by the one before it, which conflicts and journals nothing.
    Put {
        ns: usize,
        obj: usize,
        value: u32,
        stale: bool,
    },
    /// Removes `.n`, which every other write of the object sets.
    Remove {
        ns: usize,
        obj: usize,
    },
    /// Jumps the version `ahead` past the current one; `ahead = 0` would
    /// not advance it, so it fails and journals nothing.
    FastForward {
        ns: usize,
        obj: usize,
        ahead: u64,
    },
    Create {
        ns: usize,
        obj: usize,
    },
    Delete {
        ns: usize,
        obj: usize,
    },
    DeleteNamespace {
        ns: usize,
    },
    Checkpoint,
    Poll,
}

#[derive(Debug, Clone)]
enum Step {
    /// A multi-shard burst of serial verbs, back to back.
    Burst(Vec<Op>),
    /// One serial verb (or store-level action).
    Serial(Op),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let target = || ((0usize..3), (0usize..OBJECTS_PER_NS));
    prop_oneof![
        (target(), (0u32..100)).prop_map(|((ns, obj), value)| Op::SetN { ns, obj, value }),
        target().prop_map(|(ns, obj)| Op::SetThroughScalar { ns, obj }),
        (target(), (0u32..100)).prop_map(|((ns, obj), value)| Op::Merge { ns, obj, value }),
        (target(), (0u32..100), any::<bool>()).prop_map(|((ns, obj), value, stale)| Op::Put {
            ns,
            obj,
            value,
            stale
        }),
        target().prop_map(|(ns, obj)| Op::Remove { ns, obj }),
        (target(), (0u64..3)).prop_map(|((ns, obj), ahead)| Op::FastForward { ns, obj, ahead }),
        target().prop_map(|(ns, obj)| Op::Create { ns, obj }),
        target().prop_map(|(ns, obj)| Op::Delete { ns, obj }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Burst),
        arb_op().prop_map(Step::Serial),
        (0usize..3).prop_map(|ns| Step::Serial(Op::DeleteNamespace { ns })),
        Just(Step::Serial(Op::Checkpoint)),
        Just(Step::Serial(Op::Poll)),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), 1..24)
}

/// Sets `.n` on one object through the store's set op.
fn set_n(store: &mut Store, ns: usize, obj: usize, value: u32) -> Result<u64, ApiError> {
    let op = WriteOp::Set(".n".parse().unwrap(), Value::from(value as f64));
    store.write(&oref(ns, obj), &op, None)
}

/// Replaces one object's model through the store's put op.
fn put(
    store: &mut Store,
    ns: usize,
    obj: usize,
    expected_rv: Option<u64>,
) -> Result<u64, ApiError> {
    store.write(&oref(ns, obj), &WriteOp::Put(model(ns, obj)), expected_rv)
}

/// Applies one op through its store verb; failures (a write to a deleted
/// object, a duplicate create, a conflict, a failed set) are part of the
/// script.
fn apply_op(store: &mut Store, w1: WatchId, op: &Op) {
    let write = |store: &mut Store, ns, obj, op: WriteOp, expected_rv| {
        store.write(&oref(ns, obj), &op, expected_rv)
    };
    let rv_of = |store: &Store, ns, obj| store.get(&oref(ns, obj)).map(|o| o.resource_version);
    match *op {
        Op::SetN { ns, obj, value } => {
            let _ = set_n(store, ns, obj, value);
        }
        Op::SetThroughScalar { ns, obj } => {
            let before = store.revision();
            let op = WriteOp::Set(".meta.kind.deeper".parse().unwrap(), true.into());
            assert!(write(store, ns, obj, op, None).is_err());
            assert_eq!(store.revision(), before, "a failed set commits nothing");
        }
        Op::Merge { ns, obj, value } => {
            let patch = json::parse(&format!(r#"{{"n": {value}, "x": {{"m": {value}}}}}"#));
            let _ = write(store, ns, obj, WriteOp::Merge(patch.unwrap()), None);
        }
        Op::Put {
            ns,
            obj,
            value,
            stale,
        } => {
            let mut m = model(ns, obj);
            m.set(&".n".parse().unwrap(), Value::from(value as f64))
                .unwrap();
            let expected = rv_of(store, ns, obj).map(|rv| rv - u64::from(stale));
            let _ = write(store, ns, obj, WriteOp::Put(m), expected);
        }
        Op::Remove { ns, obj } => {
            let _ = write(store, ns, obj, WriteOp::Remove(".n".parse().unwrap()), None);
        }
        Op::FastForward { ns, obj, ahead } => {
            let target = rv_of(store, ns, obj).unwrap_or(0) + ahead;
            let _ = write(store, ns, obj, WriteOp::FastForward(target), None);
        }
        Op::Create { ns, obj } => {
            let _ = store.create(oref(ns, obj), model(ns, obj));
        }
        Op::Delete { ns, obj } => {
            let _ = store.delete(&oref(ns, obj));
        }
        Op::DeleteNamespace { ns } => {
            store.delete_namespace(NAMESPACES[ns]);
        }
        Op::Checkpoint => store.checkpoint(),
        Op::Poll => {
            let _ = store.poll(w1);
        }
    }
}

/// Runs the script against a durable store; watchers are drained and
/// cancelled before the fingerprint so live state matches what recovery
/// can promise (subscriptions die with the process).
fn run_script(script: &[Step], dir: &Path) -> Vec<String> {
    let mut store = Store::open(opts(dir)).unwrap();
    // Two global watchers keep compaction honest without creating shards.
    let w1 = store.watch_query(&Query::all()).unwrap();
    let w2 = store.watch_query(&Query::kind("Thing")).unwrap();
    for step in script {
        match step {
            Step::Burst(ops) => {
                for op in ops {
                    apply_op(&mut store, w1, op);
                }
            }
            Step::Serial(op) => apply_op(&mut store, w1, op),
        }
    }
    let _ = store.poll(w1);
    let _ = store.poll(w2);
    store.cancel_watch(w1);
    store.cancel_watch(w2);
    fingerprint(&mut store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of bursts, serial verbs, namespace deletions,
    /// checkpoints, and polls recovers bit-identically, even with
    /// trailing garbage torn onto a log.
    #[test]
    fn kill_and_restart_recovers_bit_identically(script in arb_script()) {
        let dir = scratch_dir("prop");
        let live = run_script(&script, &dir);

        // Crash: the store is dropped; simulate a torn in-flight append.
        let mut f = OpenOptions::new().append(true).open(log_path(&dir)).unwrap();
        f.write_all(&2000u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);

        let mut recovered = Store::open(opts(&dir)).unwrap();
        prop_assert_eq!(&fingerprint(&mut recovered), &live, "recovery diverged");
        // Reopening is idempotent (the torn tail was truncated away).
        drop(recovered);
        let mut again = Store::open(opts(&dir)).unwrap();
        prop_assert_eq!(&fingerprint(&mut again), &live);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Deterministic edges
// ---------------------------------------------------------------------------

/// Applies a fixed little history: serial verbs across three shards, an
/// OCC failure, and a failed create.
fn seed_history(store: &mut Store) {
    store.create(oref(0, 0), model(0, 0)).unwrap();
    store.create(oref(1, 0), model(1, 0)).unwrap();
    put(store, 0, 0, Some(1)).unwrap();
    assert!(put(store, 0, 0, Some(1)).is_err());
    assert!(store.create(oref(0, 0), model(0, 0)).is_err());
    set_n(store, 0, 0, 7).unwrap();
    store.create(oref(2, 0), model(2, 0)).unwrap();
    store.delete(&oref(1, 0)).unwrap();
}

#[test]
fn restart_recovers_serial_history() {
    let dir = scratch_dir("history");
    let mut store = Store::open(opts(&dir)).unwrap();
    seed_history(&mut store);
    let live = fingerprint(&mut store);
    drop(store);

    let mut recovered = Store::open(opts(&dir)).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    // And the recovered store keeps working: version history continues.
    let mut recovered = recovered;
    let rv = put(&mut recovered, 0, 0, None).unwrap();
    assert_eq!(rv, 4, "create, update, patch, then this");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_truncates_to_previous_commit() {
    let dir = scratch_dir("torn");
    let mut store = Store::open(opts(&dir)).unwrap();
    store.create(oref(0, 0), model(0, 0)).unwrap();
    put(&mut store, 0, 0, None).unwrap();
    let before_last = fingerprint(&mut store);
    // The final op lands in the log as exactly one more record.
    put(&mut store, 0, 0, None).unwrap();
    drop(store);

    // Tear the last record in half: walk whole frames, stop before the
    // final one, cut mid-payload.
    let path = log_path(&dir);
    let data = fs::read(&path).unwrap();
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        frames.push(pos);
        pos += 8 + len;
    }
    assert!(frames.len() >= 2, "expected several records in the log");
    let last = *frames.last().unwrap();
    OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(last as u64 + 11)
        .unwrap();

    let mut recovered = Store::open(opts(&dir)).unwrap();
    assert_eq!(
        fingerprint(&mut recovered),
        before_last,
        "replay must stop cleanly at the last whole record"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_logs_and_recovery_prefers_it() {
    let dir = scratch_dir("ckpt");
    let mut o = opts(&dir);
    o.checkpoint_every = 4; // roll checkpoints mid-stream
    let mut store = Store::open(o.clone()).unwrap();
    for round in 0..10 {
        let _ = store.create(oref(round % 3, 0), model(round % 3, 0));
        let _ = set_n(&mut store, round % 3, 0, round as u32);
    }
    let live = fingerprint(&mut store);
    drop(store);

    assert!(
        dir.join("checkpoint.json").exists(),
        "interval checkpoints must have rolled"
    );
    let log_bytes = fs::metadata(log_path(&dir)).unwrap().len();
    // Only the post-checkpoint tail remains in the log.
    assert!(
        log_bytes < 2048,
        "checkpoint must truncate the log ({log_bytes} bytes left)"
    );

    let mut recovered = Store::open(o).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash after `checkpoint.json` is renamed into place but before the
/// log is truncated leaves records the checkpoint already holds in front
/// of the later tail. Replay skips them by the checkpoint's sequence
/// floor; replaying them again would fail the first record's `base` check.
#[test]
fn crash_between_checkpoint_and_truncation_skips_absorbed_records() {
    let dir = scratch_dir("floor");
    let mut o = opts(&dir);
    o.sync = WalSync::Commit; // every verb reaches the file
    let mut store = Store::open(o.clone()).unwrap();
    seed_history(&mut store);
    let absorbed = fs::read(log_path(&dir)).unwrap();
    assert!(!absorbed.is_empty(), "the history is on disk");
    store.checkpoint();
    set_n(&mut store, 0, 0, 9).unwrap();
    store.create(oref(1, 1), model(1, 1)).unwrap();
    store.delete_namespace(NAMESPACES[2]);
    let live = fingerprint(&mut store);
    drop(store);

    // Undo the truncation: the absorbed records, then the tail.
    let tail = fs::read(log_path(&dir)).unwrap();
    fs::write(log_path(&dir), [absorbed, tail].concat()).unwrap();

    let mut recovered = Store::open(o).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_concurrent_with_writes_recovers() {
    let dir = scratch_dir("ckpt-live");
    let mut store = Store::open(opts(&dir)).unwrap();
    let w = store.watch_query(&Query::all()).unwrap();
    for round in 0..6 {
        store
            .create(
                oref(round % 3, round % OBJECTS_PER_NS),
                model(round % 3, round % OBJECTS_PER_NS),
            )
            .ok();
        if round % 2 == 0 {
            // Checkpoint with a lagging watcher holding live logs: the
            // checkpoint captures objects/revisions, not subscriptions.
            store.checkpoint();
        }
        put(&mut store, round % 3, round % OBJECTS_PER_NS, None).unwrap();
    }
    let _ = store.poll(w);
    store.cancel_watch(w);
    let live = fingerprint(&mut store);
    drop(store);

    let mut recovered = Store::open(opts(&dir)).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn namespace_delete_and_recreate_survives_restart() {
    let dir = scratch_dir("nsdel");
    let mut store = Store::open(opts(&dir)).unwrap();
    store.create(oref(0, 0), model(0, 0)).unwrap();
    put(&mut store, 0, 0, None).unwrap();
    // Drop the namespace (revision counter resets with the shard), then
    // recreate the same oref: rv starts over at 1.
    store.delete_namespace(NAMESPACES[0]);
    assert_eq!(store.shard_revision(NAMESPACES[0]), 0);
    store.create(oref(0, 0), model(0, 0)).unwrap();
    assert_eq!(store.get(&oref(0, 0)).unwrap().resource_version, 1);
    let live = fingerprint(&mut store);
    drop(store);

    let mut recovered = Store::open(opts(&dir)).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fast_forward_past_2_53_recovers_exactly() {
    let dir = scratch_dir("ff");
    let big = (1u64 << 53) + 5;
    let mut store = Store::open(opts(&dir)).unwrap();
    store.create(oref(0, 0), model(0, 0)).unwrap();
    store
        .write(&oref(0, 0), &WriteOp::FastForward(big), None)
        .unwrap();
    let live = fingerprint(&mut store);
    drop(store);

    let mut recovered = Store::open(opts(&dir)).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    assert_eq!(
        recovered.get(&oref(0, 0)).unwrap().resource_version,
        big,
        "versions past 2^53 must round-trip exactly through the WAL"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resumed_watchers_see_no_gaps_and_no_duplicates() {
    let dir = scratch_dir("watch");
    let mut store = Store::open(opts(&dir)).unwrap();
    let doomed = store.watch_query(&Query::all()).unwrap();
    store.create(oref(0, 0), model(0, 0)).unwrap();
    put(&mut store, 0, 0, None).unwrap();
    assert!(
        store.has_pending(doomed),
        "events were pending at crash time"
    );
    drop(store); // crash: `doomed` and its pending events die here

    let mut store = Store::open(opts(&dir)).unwrap();
    let w = store.watch_query(&Query::all()).unwrap();
    // Nothing from before the crash is re-delivered...
    assert!(store.poll(w).is_empty(), "no duplicates from the old life");
    // ...and everything after arrives exactly once, in revision order
    // continuing the recovered counter (no gap, no restart from 1).
    put(&mut store, 0, 0, None).unwrap();
    store.create(oref(0, 1), model(0, 1)).unwrap();
    let evs = store.poll(w);
    assert_eq!(evs.len(), 2);
    assert_eq!(
        evs.iter().map(|e| e.revision).collect::<Vec<_>>(),
        vec![3, 4],
        "revisions continue the pre-crash shard history contiguously"
    );
    assert!(store.poll(w).is_empty(), "delivered exactly once");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn commit_sync_mode_also_recovers() {
    let dir = scratch_dir("sync");
    let mut o = opts(&dir);
    o.sync = WalSync::Commit;
    let mut store = Store::open(o.clone()).unwrap();
    seed_history(&mut store);
    let live = fingerprint(&mut store);
    drop(store);
    let mut recovered = Store::open(o).unwrap();
    assert_eq!(fingerprint(&mut recovered), live);
    let _ = fs::remove_dir_all(&dir);
}

/// The payload of every whole frame in a log, in file order.
fn payloads(data: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(String::from_utf8(data[pos + 8..pos + 8 + len].to_vec()).unwrap());
        pos += 8 + len;
    }
    out
}

/// Every kind of op journals exactly these bytes: one record per kind
/// over a fixed history through the server's verbs, and none for a failed
/// set. A put, and a remove, journal the committed model with `meta.gen`
/// stamped.
#[test]
fn each_op_kind_journals_its_pinned_record() {
    let dir = scratch_dir("records");
    let mut api = ApiServer::open(opts(&dir)).unwrap();
    let (admin, t) = (ApiServer::ADMIN, oref(0, 0));
    api.create(admin, &t, model(0, 0)).unwrap();
    api.update(admin, &t, model(0, 0), Some(1)).unwrap();
    let patch = json::parse(r#"{"n": 1, "x": {"y": true}}"#).unwrap();
    api.patch(admin, &t, patch).unwrap();
    api.patch_path(admin, &t, ".x.z", "a\"b".into()).unwrap();
    assert!(api.patch_path(admin, &t, ".n.deeper", 1.0.into()).is_err());
    api.delete_path(admin, &t, ".x.y").unwrap();
    api.fast_forward(admin, &t, 9).unwrap();
    api.delete(admin, &t).unwrap();
    drop(api);

    let expected = [
        r#"{"t":"commit","seq":1,"ns":"alpha","base":0,"ensure":true,"appended":1,"op":{"op":"create","kind":"Thing","ns":"alpha","name":"t0","model":{"meta":{"gen":1,"kind":"Thing","name":"t0","namespace":"alpha"},"n":0}}}"#,
        r#"{"t":"commit","seq":2,"ns":"alpha","base":1,"ensure":false,"appended":1,"op":{"op":"put","kind":"Thing","ns":"alpha","name":"t0","model":{"meta":{"gen":2,"kind":"Thing","name":"t0","namespace":"alpha"},"n":0}}}"#,
        r#"{"t":"commit","seq":3,"ns":"alpha","base":2,"ensure":false,"appended":1,"op":{"op":"merge","kind":"Thing","ns":"alpha","name":"t0","patch":{"n":1,"x":{"y":true}}}}"#,
        r#"{"t":"commit","seq":4,"ns":"alpha","base":3,"ensure":false,"appended":1,"op":{"op":"set","kind":"Thing","ns":"alpha","name":"t0","path":".x.z","value":"a\"b"}}"#,
        r#"{"t":"commit","seq":5,"ns":"alpha","base":4,"ensure":false,"appended":1,"op":{"op":"put","kind":"Thing","ns":"alpha","name":"t0","model":{"meta":{"gen":5,"kind":"Thing","name":"t0","namespace":"alpha"},"n":1,"x":{"z":"a\"b"}}}}"#,
        r#"{"t":"commit","seq":6,"ns":"alpha","base":5,"ensure":false,"appended":1,"op":{"op":"ff","kind":"Thing","ns":"alpha","name":"t0","rv":9}}"#,
        r#"{"t":"commit","seq":7,"ns":"alpha","base":6,"ensure":false,"appended":1,"op":{"op":"del","kind":"Thing","ns":"alpha","name":"t0"}}"#,
    ];
    assert_eq!(payloads(&fs::read(log_path(&dir)).unwrap()), expected);
    let _ = fs::remove_dir_all(&dir);
}
