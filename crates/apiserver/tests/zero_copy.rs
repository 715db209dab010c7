//! The derived pending counts and the copy-on-write write path have
//! exactness contracts: every watcher's pending count, whether derived
//! from a shared slot cell or kept per member, must equal the events its
//! next poll delivers (the runtime's pump decides wakes from it), and a
//! write to a model nothing else holds must mutate it in place rather
//! than deep-clone it. This suite churns a store through arbitrary
//! create/put/merge/set-path/delete(+recreate) scripts with watchers
//! joining, polling, widening, narrowing, and leaving mid-stream and the
//! runtime's dirty-watcher feed drained between them, auditing the
//! pending counts and the pending-shard sets against freshly computed
//! truth after every step.

use proptest::prelude::*;

use dspace_apiserver::store::Store;
use dspace_apiserver::{ObjectRef, Query, WatchId, WriteOp};
use dspace_value::{json, Value};

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
// Churn scripts: mutations plus watcher lifecycle
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
    /// Full-model replace (`WriteOp::Put`): a fresh snapshot.
    Put {
        kind: usize,
        ns: usize,
        obj: usize,
        brightness: u32,
        on: bool,
    },
    /// Deep merge (`WriteOp::Merge`), adding a key as well as setting one.
    Merge {
        kind: usize,
        ns: usize,
        obj: usize,
        brightness: u32,
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
    /// A multi-shard burst of serial verbs, back to back with no watcher
    /// activity in between.
    Burst(Vec<Op>),
    /// One serial verb.
    Serial(Op),
    /// Open a watch from the subscription pool (index wraps).
    Join {
        query: usize,
    },
    /// Widen an open watch with a query from the selector pool (indexes
    /// wrap; no-op when none are open).
    Extend {
        slot: usize,
        query: usize,
    },
    /// Remove a selector-pool query from an open watch (a no-op when the
    /// watch does not hold it).
    Narrow {
        slot: usize,
        query: usize,
    },
    /// Drain the dirty-watcher feed, as the runtime's pump does before it
    /// schedules wakes.
    Drain,
    /// Cancel an open watch (index wraps over live watchers; no-op when
    /// none are open).
    Leave {
        slot: usize,
    },
    /// Drain one open watch, sharing (then dropping) the event snapshots.
    Poll {
        slot: usize,
    },
    DeleteNamespace {
        ns: usize,
    },
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
        (arb_slot(), 0u32..100, any::<bool>()).prop_map(|((kind, ns, obj), brightness, on)| {
            Op::Put {
                kind,
                ns,
                obj,
                brightness,
                on,
            }
        }),
        (arb_slot(), 0u32..100).prop_map(|((kind, ns, obj), brightness)| Op::Merge {
            kind,
            ns,
            obj,
            brightness,
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
        arb_op().prop_map(Step::Serial),
        arb_op().prop_map(Step::Serial),
        arb_op().prop_map(Step::Serial),
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Burst),
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Burst),
        (0usize..64).prop_map(|query| Step::Join { query }),
        (0usize..64, 0usize..64).prop_map(|(slot, query)| Step::Extend { slot, query }),
        (0usize..64, 0usize..64).prop_map(|(slot, query)| Step::Narrow { slot, query }),
        Just(Step::Drain),
        Just(Step::Drain),
        (0usize..64).prop_map(|slot| Step::Leave { slot }),
        (0usize..64).prop_map(|slot| Step::Poll { slot }),
        (0usize..64).prop_map(|slot| Step::Poll { slot }),
        (0usize..NAMESPACES.len()).prop_map(|ns| Step::DeleteNamespace { ns }),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), 1..32)
}

/// Every selector scope the accounting distinguishes: the shared all/
/// kind/object group cells, single-shard kind-in-namespace registrations,
/// and a predicate watch (exact accounting, commit-time matching).
fn selector_pool() -> Vec<Query> {
    let mut pool = vec![
        Query::all(),
        Query::kind("Lamp"),
        Query::kind("Plug"),
        Query::kind("Plug").in_ns("beta").named("plug0"),
        Query::kind("Lamp")
            .in_ns("gamma")
            .filter(".control.brightness.intent > 50")
            .unwrap(),
    ];
    pool.extend(controller_union());
    pool
}

/// A controller-shaped subscription: one kind-in-namespace selector per
/// kind per namespace, the union spanning every shard.
fn controller_union() -> Vec<Query> {
    NAMESPACES
        .iter()
        .flat_map(|ns| KINDS.iter().map(move |k| Query::kind(*k).in_ns(*ns)))
        .collect()
}

/// Subscriptions a joining watcher opens with: each single selector, and
/// the controller-shaped union.
fn watch_pool() -> Vec<Vec<Query>> {
    let mut pool: Vec<Vec<Query>> = selector_pool().into_iter().map(|q| vec![q]).collect();
    pool.push(controller_union());
    pool
}

fn serial_apply(store: &mut Store, op: &Op) {
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
        Op::Put {
            kind,
            ns,
            obj,
            brightness,
            on,
        } => {
            let op = WriteOp::Put(model(kind, ns, obj, brightness, on));
            let _ = store.write(&oref(kind, ns, obj), &op, None);
        }
        Op::Merge {
            kind,
            ns,
            obj,
            brightness,
        } => {
            let patch = json::parse(&format!(
                r#"{{"control": {{"brightness": {{"intent": {brightness}}}}},
                    "annotations": {{"note": "merge-{brightness}"}}}}"#
            ))
            .unwrap();
            let _ = store.write(&oref(kind, ns, obj), &WriteOp::Merge(patch), None);
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

fn apply(store: &mut Store, watchers: &mut Vec<WatchId>, step: &Step) {
    match step {
        Step::Burst(ops) => {
            for op in ops {
                serial_apply(store, op);
            }
        }
        Step::Serial(op) => serial_apply(store, op),
        Step::Join { query } => {
            let pool = watch_pool();
            let qs = &pool[*query % pool.len()];
            watchers.push(store.watch_queries(qs).unwrap());
        }
        Step::Extend { slot, query } => {
            if !watchers.is_empty() {
                let pool = selector_pool();
                let id = watchers[*slot % watchers.len()];
                assert!(store.extend_watch(id, &pool[*query % pool.len()]).unwrap());
            }
        }
        Step::Narrow { slot, query } => {
            if !watchers.is_empty() {
                let pool = selector_pool();
                let id = watchers[*slot % watchers.len()];
                let _ = store.narrow_watch(id, &pool[*query % pool.len()]);
            }
        }
        Step::Drain => {
            let _ = store.drain_dirty_watchers();
        }
        Step::Leave { slot } => {
            if !watchers.is_empty() {
                let id = watchers.remove(*slot % watchers.len());
                store.cancel_watch(id);
            }
        }
        Step::Poll { slot } => {
            if !watchers.is_empty() {
                let id = watchers[*slot % watchers.len()];
                // Alternate raw and coalesced delivery by slot parity.
                if *slot % 2 == 0 {
                    let _ = store.poll(id);
                } else {
                    let _ = store.poll_coalesced(id);
                }
            }
        }
        Step::DeleteNamespace { ns } => {
            store.delete_namespace(NAMESPACES[*ns]);
        }
    }
}

/// `audit_sizes` recomputes each member's pending count from scratch — a
/// scan of its log window matched against the watcher's selectors — and
/// compares it with what the incremental path maintained, including that
/// every shard with pending events is one the watcher's next poll visits.
fn audit(store: &Store, watchers: &[WatchId]) -> Result<(), TestCaseError> {
    if let Err(e) = store.audit_sizes() {
        return Err(TestCaseError::fail(e));
    }
    for &id in watchers {
        prop_assert_eq!(store.pending_events(id) > 0, store.has_pending(id));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Property: derived pending counts ≡ recomputed truth under churn
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// After every step of an arbitrary churn-plus-watcher script, every
    /// watcher's pending count equals a fresh recount of its log window.
    #[test]
    fn pending_accounting_is_exact_under_churn(script in arb_script()) {
        let mut store = Store::new();
        let mut watchers: Vec<WatchId> = Vec::new();
        // One watcher from the start so the very first writes are
        // accounted, not just post-join churn.
        watchers.push(store.watch_query(&Query::all()).unwrap());
        audit(&store, &watchers)?;
        for step in &script {
            apply(&mut store, &mut watchers, step);
            audit(&store, &watchers)?;
        }
        // Drain everything and re-audit the emptied logs.
        for &id in &watchers {
            let _ = store.poll(id);
        }
        audit(&store, &watchers)?;
    }
}

// ---------------------------------------------------------------------------
// Steady state: writes to a watched object never deep-clone the model
// ---------------------------------------------------------------------------

/// A watcher that keeps up (polls and drops its events) leaves nothing
/// sharing the model's root map but the object itself — the drained log
/// compacts to empty — so create-then-churn over every [`WriteOp`] kind
/// never deep-clones, and a merge, a remove and a fast-forward edit the
/// root map in place. A set builds on a clone (so that a failed set
/// changes nothing) and so moves it; a put installs a new document.
/// A write while the watcher lags copies once: the pending entry keeps
/// the previous snapshot, which the watcher then receives intact.
#[test]
fn steady_state_writes_never_deep_clone() {
    let mut store = Store::new();
    let w = store.watch_query(&Query::kind("Lamp")).unwrap();
    let o = oref(0, 0, 0);
    store.create(o.clone(), model(0, 0, 0, 10, true)).unwrap();
    assert_eq!(store.poll(w).len(), 1, "catch up before the first write");
    let brightness: dspace_value::Path = BRIGHTNESS.parse().unwrap();
    // The root map's address: holding a clone of the map would itself
    // make the model shared.
    let at = |store: &Store| match &store.get(&o).unwrap().model {
        Value::Object(map) => &**map as *const _,
        other => panic!("not an object: {other:?}"),
    };
    for i in 0u32..200 {
        let before = at(&store);
        let op = match i % 5 {
            0 => WriteOp::Set(brightness.clone(), Value::from(f64::from(i))),
            1 => WriteOp::Merge(
                json::parse(&format!(
                    r#"{{"control": {{"power": {{"intent": "{}"}}}}}}"#,
                    if i % 10 == 1 { "on" } else { "off" }
                ))
                .unwrap(),
            ),
            2 => WriteOp::Put(model(0, 0, 0, i % 100, i % 3 == 0)),
            3 => WriteOp::Remove(POWER.parse().unwrap()),
            _ => WriteOp::FastForward(store.get(&o).unwrap().resource_version + 1),
        };
        store.write(&o, &op, None).unwrap();
        let events = store.poll(w);
        assert!(!events.is_empty());
        drop(events); // release the shared snapshots before the next write
        assert_eq!(
            store.watch_stats().deep_clones,
            0,
            "write {i} ({op:?}) deep-cloned a watched model"
        );
        match op {
            // The set's copy is made while the old root map is alive.
            WriteOp::Set(..) => {
                assert_ne!(at(&store), before, "write {i} ({op:?}) kept the root map")
            }
            // A put frees the old root map before its new document is
            // stamped, so the allocator may hand back the same address.
            WriteOp::Put(_) => {}
            _ => assert_eq!(at(&store), before, "write {i} ({op:?}) moved the root map"),
        }
    }
    store.audit_sizes().unwrap();

    // Two writes with no poll between: the second finds the first's
    // snapshot pending in the log and copies the model exactly once.
    let rv = store.get(&o).unwrap().resource_version;
    for v in [1000.0, 2000.0] {
        let op = WriteOp::Set(brightness.clone(), Value::from(v));
        store.write(&o, &op, None).unwrap();
    }
    assert_eq!(store.watch_stats().deep_clones, 1);
    let events = store.poll(w);
    let got: Vec<(u64, Option<f64>, Option<f64>)> = events
        .iter()
        .map(|e| {
            (
                e.resource_version,
                e.model.get_path(".meta.gen").unwrap().as_f64(),
                e.model.get(&brightness).unwrap().as_f64(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (rv + 1, Some((rv + 1) as f64), Some(1000.0)),
            (rv + 2, Some((rv + 2) as f64), Some(2000.0)),
        ]
    );
    store.audit_sizes().unwrap();
}
