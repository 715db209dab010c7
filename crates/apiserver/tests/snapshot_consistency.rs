//! Snapshot consistency: `ApiServer::snapshot` is commit-boundary exact.
//!
//! A snapshot taken between writes must equal the store state at that
//! boundary — bit for bit — and must stay frozen there while later
//! writes commit around it (copy-on-write: the store clones shared maps
//! rather than mutating them in place).
//! A snapshot can never observe half of a write: `snapshot()` borrows
//! the server immutably, every mutation verb borrows it mutably, so the
//! only reachable states are commit boundaries.

use proptest::prelude::*;

use dspace_apiserver::{ApiServer, ObjectRef, Query, StoreSnapshot};
use dspace_value::{json, Value};

const NAMESPACES: [&str; 3] = ["alpha", "beta", "gamma"];
const OBJECTS_PER_NS: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    SetN { ns: usize, obj: usize, value: u32 },
    Delete { ns: usize, obj: usize },
    Create { ns: usize, obj: usize },
}

fn arb_script() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op = prop_oneof![
        ((0usize..3), (0usize..OBJECTS_PER_NS), (0u32..100))
            .prop_map(|(ns, obj, value)| Op::SetN { ns, obj, value }),
        ((0usize..3), (0usize..OBJECTS_PER_NS)).prop_map(|(ns, obj)| Op::Delete { ns, obj }),
        ((0usize..3), (0usize..OBJECTS_PER_NS)).prop_map(|(ns, obj)| Op::Create { ns, obj }),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..10), 1..10)
}

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

/// Runs a burst of ops through the serial verbs, in order; ops that fail
/// (a set on a deleted object, a duplicate create) leave no trace.
fn apply_burst(api: &mut ApiServer, burst: &[Op]) {
    for op in burst {
        let _ = match *op {
            Op::SetN { ns, obj, value } => api.patch_path(
                ApiServer::ADMIN,
                &oref(ns, obj),
                ".n",
                Value::from(value as f64),
            ),
            Op::Delete { ns, obj } => api.delete(ApiServer::ADMIN, &oref(ns, obj)).map(|_| 0),
            Op::Create { ns, obj } => api.create(ApiServer::ADMIN, &oref(ns, obj), model(ns, obj)),
        };
    }
}

fn setup() -> ApiServer {
    let mut api = ApiServer::new();
    for ns in 0..NAMESPACES.len() {
        for obj in 0..OBJECTS_PER_NS {
            api.create(ApiServer::ADMIN, &oref(ns, obj), model(ns, obj))
                .unwrap();
        }
    }
    api
}

/// Serializes everything a snapshot exposes.
fn fingerprint(snap: &StoreSnapshot) -> Vec<String> {
    let mut out = vec![format!("revision={}", snap.revision())];
    for obj in snap.query(&Query::all()) {
        out.push(format!(
            "{} rv={} {}",
            obj.oref,
            obj.resource_version,
            json::to_string(&obj.model)
        ));
    }
    out
}

/// Applies the script once, snapshotting after every burst and keeping
/// every snapshot alive until the very end.
fn run(script: &[Vec<Op>]) -> Vec<StoreSnapshot> {
    let mut api = setup();
    let mut snaps = vec![api.snapshot()];
    for burst in script {
        apply_burst(&mut api, burst);
        snaps.push(api.snapshot());
    }
    snaps
}

proptest! {
    /// Every snapshot equals the commit-boundary state it was taken at,
    /// even though every snapshot was held alive while all later writes
    /// committed (no torn writes, no retroactive mutation through shared
    /// maps).
    #[test]
    fn snapshots_pin_commit_boundaries(script in arb_script()) {
        // Reference history: consume each boundary's fingerprint
        // immediately, before the next burst runs.
        let mut api = setup();
        let mut reference = vec![fingerprint(&api.snapshot())];
        for burst in &script {
            apply_burst(&mut api, burst);
            reference.push(fingerprint(&api.snapshot()));
        }
        let snaps = run(&script);
        prop_assert_eq!(snaps.len(), reference.len());
        for (k, snap) in snaps.iter().enumerate() {
            prop_assert_eq!(&fingerprint(snap), &reference[k], "boundary {}", k);
        }
    }
}

/// Snapshots are `Send + Sync`: a reader thread can chew on one while
/// the writer keeps committing, with no lock between them, and the
/// reader still sees exactly its boundary.
#[test]
fn reader_threads_see_their_boundary_while_writes_continue() {
    let mut api = setup();
    let snap = api.snapshot();
    let pinned = fingerprint(&snap);
    let reader = std::thread::spawn(move || fingerprint(&snap));
    for round in 0..50 {
        for i in 0..6 {
            api.patch_path(
                ApiServer::ADMIN,
                &oref(i % 3, i % OBJECTS_PER_NS),
                ".n",
                Value::from((round * 10 + i) as f64),
            )
            .unwrap();
        }
    }
    assert_eq!(reader.join().unwrap(), pinned);
    assert_ne!(
        fingerprint(&api.snapshot()),
        pinned,
        "the live store moved on"
    );
}

/// The hot read paths bump the snapshot-read counter, never the store's
/// direct-read counter: zero store involvement per read.
#[test]
fn snapshot_reads_never_touch_the_store() {
    let api = setup();
    let direct_before = api.direct_reads();
    let snap_before = api.snapshot_reads();
    let snap = api.snapshot();
    snap.get(&oref(0, 0));
    assert_eq!(snap.query(&Query::kind("Thing")).len(), 6);
    assert_eq!(
        snap.query(&Query::kind("Thing").in_ns("alpha")).len(),
        OBJECTS_PER_NS
    );
    assert_eq!(snap.query(&Query::all()).len(), 6);
    assert_eq!(
        api.snapshot_reads(),
        snap_before + 4,
        "each accessor counts as one snapshot read"
    );
    assert_eq!(
        api.direct_reads(),
        direct_before,
        "snapshot reads take zero store reads (and zero store locks)"
    );
}
