//! Batch equivalence: `ApiServer::apply_batch` must be equivalent to
//! applying the same ops through the serial verbs in ticket order — same
//! per-op results, same watch event streams, same final store. These are
//! the §3.5 ordering guarantees for batches: commit tickets follow arrival
//! order, each shard's slice applies in ticket order, and shards commit in
//! namespace order.

use proptest::prelude::*;

use dspace_apiserver::{ApiServer, BatchOp, ObjectRef, Query, WatchId};
use dspace_value::{json, Value};

const NAMESPACES: [&str; 3] = ["alpha", "beta", "gamma"];
const OBJECTS_PER_NS: usize = 2;

/// One scripted mutation, indexed into the namespace/object grid.
#[derive(Debug, Clone)]
enum Op {
    /// `patch_path(.n, value)` on object `(ns, obj)`.
    SetN { ns: usize, obj: usize, value: u32 },
    /// Strategic-merge a two-field patch.
    Merge { ns: usize, obj: usize, value: u32 },
    /// Delete the object (may fail with NotFound — errors must match too).
    Delete { ns: usize, obj: usize },
    /// (Re-)create the object (may fail with AlreadyExists).
    Create { ns: usize, obj: usize },
}

fn arb_script() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op = prop_oneof![
        ((0usize..3), (0usize..OBJECTS_PER_NS), (0u32..100))
            .prop_map(|(ns, obj, value)| Op::SetN { ns, obj, value }),
        ((0usize..3), (0usize..OBJECTS_PER_NS), (0u32..100))
            .prop_map(|(ns, obj, value)| Op::Merge { ns, obj, value }),
        ((0usize..3), (0usize..OBJECTS_PER_NS)).prop_map(|(ns, obj)| Op::Delete { ns, obj }),
        ((0usize..3), (0usize..OBJECTS_PER_NS)).prop_map(|(ns, obj)| Op::Create { ns, obj }),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..12), 1..12)
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

fn to_batch_op(op: &Op) -> BatchOp {
    match *op {
        Op::SetN { ns, obj, value } => BatchOp::PatchPath {
            oref: oref(ns, obj),
            path: ".n".into(),
            value: Value::from(value as f64),
        },
        Op::Merge { ns, obj, value } => BatchOp::Patch {
            oref: oref(ns, obj),
            patch: dspace_value::object([
                ("n", Value::from(value as f64)),
                ("tag", Value::from(format!("m{value}"))),
            ]),
        },
        Op::Delete { ns, obj } => BatchOp::Delete {
            oref: oref(ns, obj),
        },
        Op::Create { ns, obj } => BatchOp::Create {
            oref: oref(ns, obj),
            model: model(ns, obj),
        },
    }
}

/// A server with the object grid created and one global + one per-ns
/// watcher, with the creation burst already drained.
fn setup() -> (ApiServer, Vec<WatchId>) {
    let mut api = ApiServer::new();
    let global = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
    for ns in 0..NAMESPACES.len() {
        for obj in 0..OBJECTS_PER_NS {
            api.create(ApiServer::ADMIN, &oref(ns, obj), model(ns, obj))
                .unwrap();
        }
    }
    let mut watches = vec![global];
    for ns in NAMESPACES {
        let w = api
            .client(ApiServer::ADMIN)
            .namespace(ns)
            .watch(&Query::kind("Thing"))
            .unwrap();
        watches.push(w);
    }
    (api, watches)
}

/// Serializes everything observable: per-op results, each watcher's event
/// stream (with pending-byte accounting), and the final store contents.
fn fingerprint_poll(api: &mut ApiServer, watches: &[WatchId], out: &mut Vec<String>) {
    for (i, w) in watches.iter().enumerate() {
        out.push(format!("pending[{i}]={}", api.pending_bytes(*w)));
        for ev in api.poll(*w) {
            out.push(format!(
                "w{i} rev={} {:?} {} rv={} {}",
                ev.revision,
                ev.kind,
                ev.oref,
                ev.resource_version,
                json::to_string(&ev.model)
            ));
        }
    }
}

fn fingerprint_store(api: &ApiServer, out: &mut Vec<String>) {
    out.push(format!("revision={}", api.revision()));
    out.push(format!("shards={}", api.shard_count()));
    for obj in api.dump() {
        out.push(format!(
            "{} rv={} {}",
            obj.oref,
            obj.resource_version,
            json::to_string(&obj.model)
        ));
    }
}

/// Runs the whole script through `apply_batch`.
fn run_batched(script: &[Vec<Op>]) -> Vec<String> {
    let (mut api, watches) = setup();
    let mut out = Vec::new();
    fingerprint_poll(&mut api, &watches, &mut out);
    for batch in script {
        let ops: Vec<BatchOp> = batch.iter().map(to_batch_op).collect();
        for (t, r) in api.apply_batch(ApiServer::ADMIN, ops).iter().enumerate() {
            out.push(format!(
                "result[{t}]={}",
                match r {
                    Ok(rv) => format!("ok {rv}"),
                    Err(e) => format!("err {e}"),
                }
            ));
        }
        fingerprint_poll(&mut api, &watches, &mut out);
    }
    fingerprint_store(&api, &mut out);
    out
}

/// Runs the same script through the serial verbs, one op at a time, in
/// ticket order.
fn run_serial(script: &[Vec<Op>]) -> Vec<String> {
    let (mut api, watches) = setup();
    let mut out = Vec::new();
    fingerprint_poll(&mut api, &watches, &mut out);
    for batch in script {
        for (t, op) in batch.iter().enumerate() {
            let r = match *op {
                Op::SetN { ns, obj, value } => api.patch_path(
                    ApiServer::ADMIN,
                    &oref(ns, obj),
                    ".n",
                    Value::from(value as f64),
                ),
                Op::Merge { ns, obj, value } => api.patch(
                    ApiServer::ADMIN,
                    &oref(ns, obj),
                    dspace_value::object([
                        ("n", Value::from(value as f64)),
                        ("tag", Value::from(format!("m{value}"))),
                    ]),
                ),
                Op::Delete { ns, obj } => api
                    .delete(ApiServer::ADMIN, &oref(ns, obj))
                    .map(|o| o.resource_version),
                Op::Create { ns, obj } => {
                    api.create(ApiServer::ADMIN, &oref(ns, obj), model(ns, obj))
                }
            };
            out.push(format!(
                "result[{t}]={}",
                match r {
                    Ok(rv) => format!("ok {rv}"),
                    Err(e) => format!("err {e}"),
                }
            ));
        }
        fingerprint_poll(&mut api, &watches, &mut out);
    }
    fingerprint_store(&api, &mut out);
    out
}

proptest! {
    /// The batch path is equivalent to the serial verbs applied in ticket
    /// order: same results, same streams, same store.
    #[test]
    fn batch_path_matches_serial_verbs(script in arb_script()) {
        let batched = run_batched(&script);
        let serial = run_serial(&script);
        prop_assert_eq!(&batched, &serial);
    }
}

/// A deterministic (non-property) smoke check that multi-shard batches
/// really do split across shards and preserve arrival-order revisions,
/// and that a drained space compacts every shard's log to empty.
#[test]
fn cross_shard_batch_assigns_tickets_in_arrival_order() {
    let (mut api, watches) = setup();
    let mut drain = Vec::new();
    fingerprint_poll(&mut api, &watches, &mut drain);
    let before = api.revision();
    let ops: Vec<BatchOp> = (0..6)
        .map(|i| BatchOp::PatchPath {
            oref: oref(i % 3, i % OBJECTS_PER_NS),
            path: ".n".into(),
            value: Value::from(i as f64),
        })
        .collect();
    let results = api.apply_batch(ApiServer::ADMIN, ops);
    assert_eq!(results.len(), 6);
    for r in &results {
        r.as_ref().expect("all ops valid");
    }
    assert_eq!(api.revision(), before + 6, "one ticket per committed op");
    // The global watcher sees every commit exactly once. Events come back
    // grouped by shard (the §3.5 guarantee is per-shard ordered and
    // gap-free), so per shard the revisions are ascending, and across the
    // whole poll the six tickets are all present.
    let evs = api.poll(watches[0]);
    let mut last_per_ns: std::collections::BTreeMap<String, u64> = Default::default();
    for ev in &evs {
        let last = last_per_ns.entry(ev.oref.namespace.clone()).or_insert(0);
        assert!(ev.revision > *last, "per-shard revisions must ascend");
        *last = ev.revision;
    }
    // Each shard carried two of the six ops; shard revisions are gap-free
    // (the two creates during setup were revisions 1-2, so the batch's
    // writes are 3 and 4 in every shard).
    for ns in NAMESPACES {
        let revs: Vec<u64> = evs
            .iter()
            .filter(|e| e.oref.namespace == ns)
            .map(|e| e.revision)
            .collect();
        assert_eq!(revs, vec![3, 4], "shard {ns}");
    }
    for &w in &watches[1..] {
        assert_eq!(
            api.poll(w).len(),
            2,
            "each namespace watcher sees its slice"
        );
    }
    assert_eq!(api.log_len(), 0, "drained space must compact to empty");
}
