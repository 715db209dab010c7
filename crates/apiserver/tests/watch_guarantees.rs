//! Property tests for the §3.5 runtime guarantee.
//!
//! "The dSpace runtime guarantees that if a writer sees updates to a model
//! with two version numbers Va and Vb (Va < Vb), then it must have also
//! seen all updates with version number between the two" — we test the
//! stronger invariant the store provides: watchers observe every version
//! of every object they watch, in order, with no gaps or duplicates,
//! regardless of how reads interleave with writes.

use proptest::prelude::*;

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchEventKind, WatchId};
use dspace_value::Value;

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Write to object `i`.
    Write(usize),
    /// Poll watcher `j`.
    Poll(usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..3).prop_map(Step::Write),
            (0usize..2).prop_map(Step::Poll),
        ],
        1..120,
    )
}

proptest! {
    #[test]
    fn watchers_see_ordered_gap_free_versions(steps in arb_steps()) {
        let mut api = ApiServer::new();
        let objects: Vec<ObjectRef> = (0..3)
            .map(|i| ObjectRef::default_ns("Thing", format!("t{i}")))
            .collect();
        for oref in &objects {
            let model = dspace_value::json::parse(&format!(
                r#"{{"meta": {{"kind": "Thing", "name": "{}", "namespace": "default"}}, "n": 0}}"#,
                oref.name
            )).unwrap();
            api.create(ApiServer::ADMIN, oref, model).unwrap();
        }
        let watchers = [
            api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap(),
            api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap(),
        ];
        // seen[w][obj] = versions delivered so far to watcher w.
        let mut seen: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 2];
        let mut writes = [0u64; 3];
        // Each write stores the object's own write count in `.n`, so every
        // version has distinct content: a lagging watcher must receive
        // each version's own model, not a later one.
        let run_step = |api: &mut ApiServer,
                        step: &Step,
                        seen: &mut Vec<Vec<Vec<u64>>>,
                        writes: &mut [u64; 3]| {
            match step {
                Step::Write(i) => {
                    writes[*i] += 1;
                    let n = Value::from(writes[*i] as f64);
                    api.patch_path(ApiServer::ADMIN, &objects[*i], ".n", n).unwrap();
                }
                Step::Poll(j) => {
                    let mut last_rev = 0;
                    for ev in api.poll(watchers[*j]) {
                        prop_assert!(ev.revision > last_rev, "revisions out of order");
                        last_rev = ev.revision;
                        prop_assert_eq!(ev.kind, WatchEventKind::Modified);
                        let rv = ev.resource_version;
                        prop_assert_eq!(
                            ev.model.get_path(".n").and_then(Value::as_f64),
                            Some((rv - 1) as f64),
                            "version {} carries another version's model", rv
                        );
                        prop_assert_eq!(
                            ev.model.get_path(".meta.gen").and_then(Value::as_exact_u64),
                            Some(rv)
                        );
                        let idx = objects.iter().position(|o| *o == ev.oref).unwrap();
                        seen[*j][idx].push(rv);
                    }
                }
            }
            Ok(())
        };
        for step in &steps {
            run_step(&mut api, step, &mut seen, &mut writes)?;
        }
        // Final drain so every watcher catches up.
        for j in 0..2 {
            run_step(&mut api, &Step::Poll(j), &mut seen, &mut writes)?;
        }
        for (w, streams) in seen.iter().enumerate() {
            for (i, versions) in streams.iter().enumerate() {
                // Versions start at 2 (creation was before the watch) and
                // are consecutive: no gaps, no duplicates, no reordering.
                let expect: Vec<u64> = (2..2 + writes[i]).collect();
                prop_assert_eq!(versions, &expect, "watcher {} object {}", w, i);
            }
        }
    }

    /// Optimistic concurrency: with randomized interleavings of two
    /// read-modify-write actors, every successful OCC write is based on
    /// the version it observed, so no update is ever lost.
    #[test]
    fn occ_prevents_lost_updates(ops in prop::collection::vec(0usize..2, 1..60)) {
        let mut api = ApiServer::new();
        let oref = ObjectRef::default_ns("Counter", "c");
        let model = dspace_value::json::parse(
            r#"{"meta": {"kind": "Counter", "name": "c", "namespace": "default"}, "n": 0}"#,
        ).unwrap();
        api.create(ApiServer::ADMIN, &oref, model).unwrap();

        // Each actor holds a possibly-stale snapshot and tries OCC writes.
        let mut snapshots: Vec<Option<(u64, f64)>> = vec![None, None];
        let mut successful_increments = 0u64;
        for actor in ops {
            match snapshots[actor].take() {
                None => {
                    let obj = api.get(ApiServer::ADMIN, &oref).unwrap();
                    let n = obj.model.get_path(".n").unwrap().as_f64().unwrap();
                    snapshots[actor] = Some((obj.resource_version, n));
                }
                Some((rv, n)) => {
                    let mut m = api.get(ApiServer::ADMIN, &oref).unwrap().model;
                    m.set(&".n".parse().unwrap(), Value::from(n + 1.0)).unwrap();
                    match api.update(ApiServer::ADMIN, &oref, m, Some(rv)) {
                        Ok(_) => successful_increments += 1,
                        Err(dspace_apiserver::ApiError::Conflict { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
        }
        let final_n = api
            .get_path(ApiServer::ADMIN, &oref, ".n")
            .unwrap()
            .as_f64()
            .unwrap() as u64;
        prop_assert_eq!(final_n, successful_increments, "an update was lost");
    }

    /// The §3.5 guarantee holds per *filtered* stream: a per-object
    /// subscription (what digi drivers use) sees every version of its
    /// object in order with no gaps — and nothing else — even while log
    /// compaction runs underneath for faster watchers.
    #[test]
    fn object_selector_streams_are_gap_free_across_compaction(steps in arb_steps()) {
        let mut api = ApiServer::new();
        let objects: Vec<ObjectRef> = (0..3)
            .map(|i| ObjectRef::default_ns("Thing", format!("t{i}")))
            .collect();
        for oref in &objects {
            let model = dspace_value::json::parse(&format!(
                r#"{{"meta": {{"kind": "Thing", "name": "{}", "namespace": "default"}}, "n": 0}}"#,
                oref.name
            )).unwrap();
            api.create(ApiServer::ADMIN, oref, model).unwrap();
        }
        // One per-object subscription per digi. The random Poll steps only
        // ever touch watchers 0 and 1, so watcher 2 lags arbitrarily far:
        // its entries must survive compaction until the final drain.
        let watchers: Vec<WatchId> = objects
            .iter()
            .map(|o| {
                let q = Query::kind(o.kind.as_str()).in_ns(o.namespace.as_str()).named(o.name.as_str());
                api.watch_query(ApiServer::ADMIN, &q).unwrap()
            })
            .collect();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut writes = [0u64; 3];
        for step in &steps {
            match step {
                Step::Write(i) => {
                    writes[*i] += 1;
                    api.patch_path(ApiServer::ADMIN, &objects[*i], ".n", Value::from(1.0)).unwrap();
                }
                Step::Poll(j) => {
                    for ev in api.poll(watchers[*j]) {
                        prop_assert_eq!(&ev.oref, &objects[*j], "foreign event leaked into object stream");
                        seen[*j].push(ev.resource_version);
                    }
                }
            }
        }
        // Final drain: every stream — including the laggard's — is complete.
        for j in 0..3 {
            for ev in api.poll(watchers[j]) {
                prop_assert_eq!(&ev.oref, &objects[j], "foreign event leaked into object stream");
                seen[j].push(ev.resource_version);
            }
        }
        for (i, versions) in seen.iter().enumerate() {
            let expect: Vec<u64> = (2..2 + writes[i]).collect();
            prop_assert_eq!(versions, &expect, "object {} stream has gaps/reorders", i);
        }
        // All drained: the log is fully compacted regardless of how many
        // writes the run made.
        prop_assert_eq!(api.log_len(), 0, "drained watchers must not hold the log");
    }

    /// Cancelling a subscription releases its compaction hold: a laggard
    /// watcher pins the log tail only while it is alive.
    #[test]
    fn cancel_watch_releases_compaction_hold(writes in 1usize..80) {
        let mut api = ApiServer::new();
        let oref = ObjectRef::default_ns("Thing", "t");
        let model = dspace_value::json::parse(
            r#"{"meta": {"kind": "Thing", "name": "t", "namespace": "default"}, "n": 0}"#,
        ).unwrap();
        api.create(ApiServer::ADMIN, &oref, model).unwrap();
        let laggard = api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap();
        for _ in 0..writes {
            api.patch_path(ApiServer::ADMIN, &oref, ".n", Value::from(1.0)).unwrap();
        }
        prop_assert_eq!(api.log_len(), writes, "laggard must pin undelivered events");
        api.cancel_watch(laggard);
        prop_assert_eq!(api.log_len(), 0, "cancel must release the log");
        prop_assert!(api.poll(laggard).is_empty());
    }
}

// ---------------------------------------------------------------------------
// Regressions: polls visit only shards with pending events
// ---------------------------------------------------------------------------

fn thing(kind: &str, ns: &str, name: &str) -> (ObjectRef, Value) {
    let model = dspace_value::json::parse(&format!(
        r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "{ns}"}}, "n": 0}}"#
    ))
    .unwrap();
    (ObjectRef::new(kind, ns, name), model)
}

fn create(api: &mut ApiServer, kind: &str, ns: &str, name: &str) -> ObjectRef {
    let (oref, model) = thing(kind, ns, name);
    api.create(ApiServer::ADMIN, &oref, model).unwrap();
    oref
}

fn bump(api: &mut ApiServer, oref: &ObjectRef, n: f64) {
    api.patch_path(ApiServer::ADMIN, oref, ".n", Value::from(n))
        .unwrap();
}

/// A poll skips shards where the watcher is caught up, so its cursor
/// there can trail events it did not match. Widening the subscription
/// must not let a later scan reach those events: a controller-shaped
/// watcher (two kinds in 32 namespaces) is caught up in `ns7` while a
/// second watcher pins `ns7`'s log with events of a third kind; after
/// `extend_watch` adds that kind, only the one write that follows is
/// delivered.
#[test]
fn widening_a_caught_up_shard_delivers_only_later_events() {
    let mut api = ApiServer::new();
    let queries: Vec<Query> = (0..32)
        .flat_map(|i| ["A", "B"].map(|k| Query::kind(k).in_ns(format!("ns{i}"))))
        .collect();
    let w = api.watch_queries(ApiServer::ADMIN, &queries).unwrap();
    create(&mut api, "A", "ns7", "a");
    api.drain_dirty_watchers();
    assert_eq!(api.poll(w).len(), 1);
    // Events `w` does not match, held in the log by another watcher.
    let pin = api
        .watch_query(ApiServer::ADMIN, &Query::kind("C").in_ns("ns7"))
        .unwrap();
    let c = create(&mut api, "C", "ns7", "c");
    bump(&mut api, &c, 1.0);
    bump(&mut api, &c, 2.0);
    // A poll driven by pending events elsewhere leaves `ns7` untouched.
    create(&mut api, "A", "ns0", "a");
    api.drain_dirty_watchers();
    let evs = api.poll(w);
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].oref.namespace, "ns0");
    assert_eq!(api.shard_log_len("ns7"), 3, "the pin holds the log");

    api.extend_watch(ApiServer::ADMIN, w, &Query::kind("C").in_ns("ns7"))
        .unwrap();
    bump(&mut api, &c, 3.0);
    api.audit_sizes().unwrap();
    api.drain_dirty_watchers();
    let evs = api.poll(w);
    assert_eq!(evs.len(), 1, "only the write after the widening: {evs:?}");
    assert_eq!(evs[0].oref, c);
    assert_eq!(evs[0].kind, WatchEventKind::Modified);
    assert_eq!(evs[0].revision, 5);
    assert_eq!(
        api.poll(pin).len(),
        4,
        "the pin still sees its whole stream"
    );
    api.audit_sizes().unwrap();
}

/// Widening a member that still has events pending cannot fast-forward
/// its cursor; the new selector must still cover only what commits after
/// it. The pending event and the one later write are delivered, the
/// earlier events of the added kind are not.
#[test]
fn widening_a_pending_shard_delivers_only_later_events() {
    let mut api = ApiServer::new();
    let w = api
        .watch_query(ApiServer::ADMIN, &Query::kind("A").in_ns("ns"))
        .unwrap();
    let a = create(&mut api, "A", "ns", "a");
    let c = create(&mut api, "C", "ns", "c");
    bump(&mut api, &c, 1.0);
    api.extend_watch(ApiServer::ADMIN, w, &Query::kind("C").in_ns("ns"))
        .unwrap();
    bump(&mut api, &c, 2.0);
    api.audit_sizes().unwrap();
    api.drain_dirty_watchers();
    let evs = api.poll(w);
    let got: Vec<(&ObjectRef, u64)> = evs.iter().map(|e| (&e.oref, e.revision)).collect();
    assert_eq!(got, vec![(&a, 1), (&c, 4)]);
    api.audit_sizes().unwrap();
}

/// A namespace deleted and re-created under the same name is a fresh
/// shard: a `Query::all()` watcher with events pending in another
/// namespace receives the new shard's events from revision 1, gap-free,
/// in namespace order — whether or not the dirty-watcher feed was
/// drained in between.
#[test]
fn recreated_namespace_streams_from_revision_one() {
    for drain in [false, true] {
        let mut api = ApiServer::new();
        let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
        create(&mut api, "Thing", "home", "x");
        let y = create(&mut api, "Thing", "other", "y");
        api.drain_dirty_watchers();
        assert_eq!(api.poll(w).len(), 2);
        api.delete_namespace(ApiServer::ADMIN, "home").unwrap();
        api.drain_dirty_watchers();
        let evs = api.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, WatchEventKind::Deleted);
        assert_eq!(api.shard_count(), 1, "the drained shard is dropped");

        bump(&mut api, &y, 1.0);
        api.drain_dirty_watchers();
        let x2 = create(&mut api, "Thing", "home", "x2");
        bump(&mut api, &x2, 1.0);
        bump(&mut api, &x2, 2.0);
        if drain {
            api.drain_dirty_watchers();
        }
        api.audit_sizes().unwrap();
        assert_eq!(api.pending_events(w), 4);
        let evs = api.poll(w);
        let home: Vec<u64> = evs
            .iter()
            .filter(|e| e.oref.namespace == "home")
            .map(|e| e.revision)
            .collect();
        assert_eq!(home, vec![1, 2, 3], "drain={drain}: {evs:?}");
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[3].oref, y, "namespace order: home before other");
        assert!(!api.has_pending(w));
        api.audit_sizes().unwrap();
    }
}
