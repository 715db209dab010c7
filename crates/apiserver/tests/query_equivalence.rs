//! Indexed queries are an optimization, not a semantics: under arbitrary
//! churn (bursts of serial creates/patches/deletes, namespace drops,
//! checkpoints) every filtered `Store::query` must return byte-for-byte
//! what the brute-force `Store::scan` returns, and the incrementally
//! maintained index postings must stay identical to a from-scratch
//! rebuild. A second property covers kill-and-restart: reopening a
//! durable store from checkpoint + WAL replay and re-deriving the indexes
//! yields bit-identical postings and query results.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dspace_apiserver::store::Store;
use dspace_apiserver::wal::DurabilityOptions;
use dspace_apiserver::{Object, ObjectRef, Query, WriteOp};
use dspace_value::{json, Value};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory (std-only; no tempfile crate in tree).
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dspace-query-equiv-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const NAMESPACES: [&str; 3] = ["alpha", "beta", "gamma"];
const KINDS: [&str; 2] = ["Lamp", "Plug"];
const OBJECTS_PER_KIND: usize = 3;
const BRIGHTNESS: &str = ".control.brightness.intent";
const POWER: &str = ".control.power.intent";

fn oref(kind: usize, ns: usize, obj: usize) -> ObjectRef {
    ObjectRef::new(
        KINDS[kind],
        NAMESPACES[ns],
        format!("{}{obj}", KINDS[kind].to_lowercase()),
    )
}

fn model(kind: usize, ns: usize, obj: usize, brightness: u32, on: bool) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "{}", "name": "{}{obj}", "namespace": "{}"}},
            "control": {{"brightness": {{"intent": {brightness}}},
                         "power": {{"intent": "{}"}}}}}}"#,
        KINDS[kind],
        KINDS[kind].to_lowercase(),
        NAMESPACES[ns],
        if on { "on" } else { "off" },
    ))
    .unwrap()
}

// ---------------------------------------------------------------------------
// Churn scripts
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Create {
        kind: usize,
        ns: usize,
        obj: usize,
        brightness: u32,
        on: bool,
    },
    SetBrightness {
        kind: usize,
        ns: usize,
        obj: usize,
        value: u32,
    },
    SetPower {
        kind: usize,
        ns: usize,
        obj: usize,
        on: bool,
    },
    Delete {
        kind: usize,
        ns: usize,
        obj: usize,
    },
}

#[derive(Debug, Clone)]
enum Step {
    /// A multi-shard burst of serial verbs, back to back.
    Burst(Vec<Op>),
    /// One serial verb.
    Serial(Op),
    DeleteNamespace {
        ns: usize,
    },
    Checkpoint,
}

fn arb_slot() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        0usize..KINDS.len(),
        0usize..NAMESPACES.len(),
        0usize..OBJECTS_PER_KIND,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_slot(), 0u32..100, any::<bool>()).prop_map(|((kind, ns, obj), brightness, on)| {
            Op::Create {
                kind,
                ns,
                obj,
                brightness,
                on,
            }
        }),
        (arb_slot(), 0u32..100).prop_map(|((kind, ns, obj), value)| Op::SetBrightness {
            kind,
            ns,
            obj,
            value,
        }),
        (arb_slot(), any::<bool>()).prop_map(|((kind, ns, obj), on)| Op::SetPower {
            kind,
            ns,
            obj,
            on,
        }),
        arb_slot().prop_map(|(kind, ns, obj)| Op::Delete { kind, ns, obj }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Burst),
        arb_op().prop_map(Step::Serial),
        arb_op().prop_map(Step::Serial),
        (0usize..NAMESPACES.len()).prop_map(|ns| Step::DeleteNamespace { ns }),
        Just(Step::Checkpoint),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), 1..24)
}

/// Applies one op through its serial store verb; failures (a set on a
/// deleted object, a duplicate create) are part of the script.
fn apply_op(store: &mut Store, op: &Op) {
    match *op {
        Op::Create {
            kind,
            ns,
            obj,
            brightness,
            on,
        } => {
            let _ = store.create(oref(kind, ns, obj), model(kind, ns, obj, brightness, on));
        }
        Op::SetBrightness {
            kind,
            ns,
            obj,
            value,
        } => {
            let op = WriteOp::Set(BRIGHTNESS.parse().unwrap(), Value::from(value as f64));
            let _ = store.write(&oref(kind, ns, obj), &op, None);
        }
        Op::SetPower { kind, ns, obj, on } => {
            let op = WriteOp::Set(
                POWER.parse().unwrap(),
                Value::from(if on { "on" } else { "off" }),
            );
            let _ = store.write(&oref(kind, ns, obj), &op, None);
        }
        Op::Delete { kind, ns, obj } => {
            let _ = store.delete(&oref(kind, ns, obj));
        }
    }
}

fn apply(store: &mut Store, step: &Step) {
    match step {
        Step::Burst(ops) => {
            for op in ops {
                apply_op(store, op);
            }
        }
        Step::Serial(op) => apply_op(store, op),
        Step::DeleteNamespace { ns } => {
            store.delete_namespace(NAMESPACES[*ns]);
        }
        Step::Checkpoint => store.checkpoint(),
    }
}

// ---------------------------------------------------------------------------
// The query pool: every planner shape, scoped and unscoped
// ---------------------------------------------------------------------------

/// Covers Eq (string), Range (both directions, inclusive and exclusive),
/// And, Or, and a `!=` predicate the planner cannot express (Plan::Full
/// fallback — exercises the brute-force path through the same verb).
fn query_pool() -> Vec<Query> {
    let filters: &[(&str, &str)] = &[
        ("Lamp", ".control.brightness.intent > 50"),
        ("Lamp", ".control.brightness.intent <= 20"),
        ("Plug", ".control.power.intent == \"on\""),
        (
            "Lamp",
            ".control.brightness.intent >= 10 and .control.power.intent == \"on\"",
        ),
        (
            "Lamp",
            ".control.brightness.intent < 5 or .control.brightness.intent > 90",
        ),
        // `!=` is not plannable: falls back to a full kind scan.
        ("Plug", ".control.power.intent != \"off\""),
    ];
    let mut qs = vec![
        Query::all(),
        Query::kind("Lamp"),
        Query::kind("Plug").in_ns("beta"),
        Query::kind("Lamp").in_ns("alpha").named("lamp0"),
    ];
    for (kind, expr) in filters {
        qs.push(Query::kind(*kind).filter(expr).unwrap());
        qs.push(Query::kind(*kind).in_ns("alpha").filter(expr).unwrap());
    }
    qs
}

fn line(o: &Object) -> String {
    format!(
        "{} rv={} {}",
        o.oref,
        o.resource_version,
        json::to_string(&o.model)
    )
}

/// Indexed read ≡ brute force, for every query in the pool, plus the
/// incremental-vs-rebuilt index invariant.
fn check_equivalence(store: &mut Store) -> Result<(), TestCaseError> {
    for q in query_pool() {
        let indexed: Vec<String> = store.query(&q).iter().map(line).collect();
        let brute: Vec<String> = store.scan(&q).into_iter().map(line).collect();
        prop_assert_eq!(indexed, brute, "indexed query diverged from scan: {:?}", q);
    }
    if let Err(e) = store.indexes_consistent() {
        return Err(TestCaseError::fail(e));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Property 1: filtered list via indexes ≡ brute-force scan under churn
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every step of an arbitrary churn script, every query shape
    /// returns exactly what `Store::scan`'s brute-force evaluation returns,
    /// and every live index matches a from-scratch rebuild. Querying
    /// *before* the churn matters: it builds the indexes early so the rest
    /// of the script exercises the incremental commit-time maintenance,
    /// not lazy rebuilds.
    #[test]
    fn indexed_queries_match_brute_force_under_churn(script in arb_script()) {
        let mut store = Store::new();
        check_equivalence(&mut store)?;
        for step in &script {
            apply(&mut store, step);
            check_equivalence(&mut store)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Property 2: kill-and-restart rebuilds indexes bit-identically
// ---------------------------------------------------------------------------

/// Flattens every index this suite uses into comparable posting lines,
/// forcing a build where one does not exist yet.
fn dump_all(store: &mut Store) -> Vec<String> {
    let mut out = Vec::new();
    for ns in NAMESPACES {
        for (kind, path) in [("Lamp", BRIGHTNESS), ("Lamp", POWER), ("Plug", POWER)] {
            let p: dspace_value::Path = path.parse().unwrap();
            for (name, key) in store.index_dump(ns, kind, &p) {
                out.push(format!("{ns} {kind} {path} {name} => {key}"));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A durable store churned through an arbitrary script (including
    /// mid-stream checkpoints), killed, and reopened from checkpoint +
    /// WAL replay re-derives bit-identical index postings and query
    /// results — the live side's postings were maintained incrementally,
    /// the recovered side's are rebuilt from replayed objects, and the
    /// two must never be distinguishable.
    #[test]
    fn recovery_rebuilds_indexes_bit_identically(script in arb_script()) {
        let dir = scratch_dir("idx");
        let mut store = Store::open(DurabilityOptions::new(dir.clone())).unwrap();
        // Warm the indexes first so churn maintains them incrementally.
        for q in query_pool() {
            let _ = store.query(&q);
        }
        for step in &script {
            apply(&mut store, step);
        }
        check_equivalence(&mut store)?;
        let live_dump = dump_all(&mut store);
        let live_results: Vec<Vec<String>> = query_pool()
            .iter()
            .map(|q| store.query(q).iter().map(line).collect())
            .collect();
        drop(store); // crash

        let mut recovered = Store::open(DurabilityOptions::new(dir.clone())).unwrap();
        let recovered_dump = dump_all(&mut recovered);
        prop_assert_eq!(recovered_dump, live_dump, "recovered index postings diverged");
        let recovered_results: Vec<Vec<String>> = query_pool()
            .iter()
            .map(|q| recovered.query(q).iter().map(line).collect())
            .collect();
        prop_assert_eq!(recovered_results, live_results, "recovered query results diverged");
        check_equivalence(&mut recovered)?;
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge: mixed-type keys and null ordering
// ---------------------------------------------------------------------------

/// Models whose indexed attribute is a string, null, or absent must sort
/// and filter identically through the index and through reflex: range
/// probes over `IndexKey` order over-approximate, and reflex's own
/// comparison (which errors on mixed types, counting as a non-match)
/// makes the final call on both paths.
#[test]
fn mixed_type_keys_filter_identically() {
    let mut store = Store::new();
    store
        .create(
            ObjectRef::new("Lamp", "alpha", "numeric"),
            json::parse(
                r#"{"meta": {"kind": "Lamp", "name": "numeric", "namespace": "alpha"},
                    "control": {"brightness": {"intent": 42}}}"#,
            )
            .unwrap(),
        )
        .unwrap();
    store
        .create(
            ObjectRef::new("Lamp", "alpha", "stringy"),
            json::parse(
                r#"{"meta": {"kind": "Lamp", "name": "stringy", "namespace": "alpha"},
                    "control": {"brightness": {"intent": "dim"}}}"#,
            )
            .unwrap(),
        )
        .unwrap();
    store
        .create(
            ObjectRef::new("Lamp", "alpha", "absent"),
            json::parse(
                r#"{"meta": {"kind": "Lamp", "name": "absent", "namespace": "alpha"},
                    "control": {}}"#,
            )
            .unwrap(),
        )
        .unwrap();
    for expr in [
        ".control.brightness.intent > 10",
        ".control.brightness.intent < 10",
        ".control.brightness.intent == 42",
        ".control.brightness.intent == \"dim\"",
    ] {
        let q = Query::kind("Lamp").filter(expr).unwrap();
        let indexed: Vec<String> = store.query(&q).iter().map(line).collect();
        let brute: Vec<String> = store.scan(&q).into_iter().map(line).collect();
        assert_eq!(indexed, brute, "diverged on {expr}");
    }
    store.indexes_consistent().unwrap();
}
