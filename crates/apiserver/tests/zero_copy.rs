//! The zero-copy event path is an optimization with an exact-accounting
//! contract: every write carries an incremental `encoded_len` hint, the
//! per-shard `enc_cache` and every watcher's pending-byte totals must
//! mirror the true encoded sizes *exactly* (driver wake sizing and WAL
//! rendering depend on them), and steady-state writes to watched objects
//! must never deep-clone the model. This suite churns a store through
//! arbitrary create/put/merge/set-path/delete(+recreate) scripts with
//! watchers joining, polling, widening, narrowing, and leaving
//! mid-stream and the runtime's dirty-watcher feed drained between them
//! — at one shard worker thread and at the machine's maximum — auditing
//! the size bookkeeping and the pending-shard sets against freshly
//! computed truth after every step.

use proptest::prelude::*;

use dspace_apiserver::store::Store;
use dspace_apiserver::{ObjectRef, Query, StoreOp, WatchId};
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
    /// Full-model replace (`shard_update`): the hint comes from the
    /// sized WAL render, not from a path delta.
    Put {
        kind: usize,
        ns: usize,
        obj: usize,
        brightness: u32,
        on: bool,
    },
    /// Deep merge (`shard_merge`): delta accumulated key-by-key.
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
    /// One multi-shard `apply_batch` call.
    Batch(Vec<Op>),
    /// One serial verb (exercises the per-verb WAL/hint plumbing).
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
    /// sizes wakes.
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
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Batch),
        prop::collection::vec(arb_op(), 1..8).prop_map(Step::Batch),
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

fn to_store_op(op: &Op) -> StoreOp {
    match *op {
        Op::Create {
            kind,
            ns,
            obj,
            brightness,
            on,
        } => StoreOp::Create {
            oref: oref(kind, ns, obj),
            model: model(kind, ns, obj, brightness, on),
        },
        Op::Put {
            kind,
            ns,
            obj,
            brightness,
            on,
        } => StoreOp::Put {
            oref: oref(kind, ns, obj),
            model: model(kind, ns, obj, brightness, on),
            expected_rv: None,
        },
        Op::Merge {
            kind,
            ns,
            obj,
            brightness,
        } => StoreOp::Merge {
            oref: oref(kind, ns, obj),
            patch: json::parse(&format!(
                r#"{{"control": {{"brightness": {{"intent": {brightness}}}}},
                    "annotations": {{"note": "merge-{brightness}"}}}}"#
            ))
            .unwrap(),
        },
        Op::SetBrightness {
            kind,
            ns,
            obj,
            value,
        } => StoreOp::SetPath {
            oref: oref(kind, ns, obj),
            path: BRIGHTNESS.parse().unwrap(),
            value: Value::from(value as f64),
        },
        Op::SetPower { kind, ns, obj, on } => StoreOp::SetPath {
            oref: oref(kind, ns, obj),
            path: POWER.parse().unwrap(),
            value: Value::from(if on { "on" } else { "off" }),
        },
        Op::Delete { kind, ns, obj } => StoreOp::Delete {
            oref: oref(kind, ns, obj),
        },
    }
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
            let _ = store.update(
                &oref(kind, ns, obj),
                model(kind, ns, obj, brightness, on),
                None,
            );
        }
        Op::Merge { .. } | Op::SetBrightness { .. } | Op::SetPower { .. } => {
            match to_store_op(op) {
                StoreOp::Merge { oref, patch } => {
                    let _ = store.update_via_merge(&oref, &patch);
                }
                StoreOp::SetPath { oref, path, value } => {
                    let _ = store.update_via_set(&oref, &path, &value);
                }
                _ => unreachable!(),
            };
        }
        Op::Delete { kind, ns, obj } => {
            let _ = store.delete(&oref(kind, ns, obj));
        }
    }
}

fn apply(store: &mut Store, watchers: &mut Vec<WatchId>, step: &Step) {
    match step {
        Step::Batch(ops) => {
            let _ = store.apply_batch(ops.iter().map(to_store_op).collect());
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

/// `audit_sizes` recomputes truth from scratch — live `encoded_len`
/// walks for the cache, event-log materialization (rollback replay) for
/// stamped entry sizes, and a full scan for each member's pending
/// totals — and compares it with what the incremental path maintained,
/// including that every shard with pending events is one the watcher's
/// next poll visits.
fn audit(store: &Store, watchers: &[WatchId]) -> Result<(), TestCaseError> {
    if let Err(e) = store.audit_sizes() {
        return Err(TestCaseError::fail(e));
    }
    for &id in watchers {
        let (pending, bytes) = store.pending_totals(id);
        prop_assert_eq!(pending > 0, store.has_pending(id));
        prop_assert_eq!(bytes, store.pending_bytes(id));
    }
    Ok(())
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Property: incremental size accounting ≡ recomputed truth under churn
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// After every step of an arbitrary churn-plus-watcher script, the
    /// enc cache, every stamped log-entry size, and every watcher's
    /// pending event/byte totals equal freshly recomputed truth — at
    /// shard worker caps 1 and max. `verify_sizes` additionally makes
    /// every hinted append assert its hint against a full walk inside
    /// the shard, so a wrong delta fails at the write that produced it.
    #[test]
    fn size_accounting_is_exact_under_churn(script in arb_script()) {
        for threads in [1usize, max_threads()] {
            let mut store = Store::new();
            store.set_executor_threads(threads);
            store.set_verify_sizes(true);
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
}

// ---------------------------------------------------------------------------
// Steady state: writes to a watched object never deep-clone the model
// ---------------------------------------------------------------------------

/// A watcher that keeps up (polls and drops its events) leaves only the
/// event log holding the model's `Arc` — and the write path steals that
/// snapshot back into rollback form, so create-then-churn over every
/// verb performs zero `Shared::make_mut` deep-clones.
#[test]
fn steady_state_writes_never_deep_clone() {
    let mut store = Store::new();
    store.set_verify_sizes(true);
    let w = store.watch_query(&Query::kind("Lamp")).unwrap();
    let o = oref(0, 0, 0);
    store.create(o.clone(), model(0, 0, 0, 10, true)).unwrap();
    let brightness: dspace_value::Path = BRIGHTNESS.parse().unwrap();
    for i in 0u32..200 {
        match i % 4 {
            0 => {
                store
                    .update_via_set(&o, &brightness, &Value::from(f64::from(i)))
                    .unwrap();
            }
            1 => {
                let patch = json::parse(&format!(
                    r#"{{"control": {{"power": {{"intent": "{}"}}}}}}"#,
                    if i % 8 == 1 { "on" } else { "off" }
                ))
                .unwrap();
                store.update_via_merge(&o, &patch).unwrap();
            }
            2 => {
                store
                    .update(&o, model(0, 0, 0, i % 100, i % 3 == 0), None)
                    .unwrap();
            }
            _ => {
                let rv = store.get(&o).unwrap().resource_version;
                store.fast_forward(&o, rv + 1).unwrap();
            }
        }
        let events = store.poll(w);
        assert!(!events.is_empty());
        drop(events); // release the shared snapshots before the next write
        assert_eq!(
            store.watch_stats().deep_clones,
            0,
            "write {i} deep-cloned a watched model"
        );
    }
    store.audit_sizes().unwrap();
}
