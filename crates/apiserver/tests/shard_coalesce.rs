//! Property tests for namespace shards and coalesced delivery.
//!
//! The §3.5 ordered/gap-free guarantee holds *per namespace shard*: random
//! cross-namespace interleavings of writes, polls, and the compaction that
//! runs underneath must never produce a gap, reorder, or leak across a
//! namespace-scoped subscription. Coalesced polls must collapse bursts
//! without ever skipping the newest snapshot or under-reporting how many
//! raw events were absorbed.

use proptest::prelude::*;

use dspace_apiserver::{ApiServer, ObjectRef, Query};
use dspace_value::Value;

const NS: [&str; 3] = ["ns-a", "ns-b", "ns-c"];

/// One scripted step: write object `obj` of namespace `ns`, or poll
/// watcher `w`.
#[derive(Debug, Clone)]
enum Step {
    Write { ns: usize, obj: usize },
    Poll(usize),
}

fn arb_steps(watchers: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            ((0usize..3), (0usize..2)).prop_map(|(ns, obj)| Step::Write { ns, obj }),
            (0..watchers).prop_map(Step::Poll),
        ],
        1..150,
    )
}

fn setup() -> (ApiServer, Vec<Vec<ObjectRef>>) {
    let mut api = ApiServer::new();
    let objects: Vec<Vec<ObjectRef>> = NS
        .iter()
        .map(|ns| {
            (0..2)
                .map(|i| {
                    let name = format!("t{i}");
                    let model = dspace_value::json::parse(&format!(
                        r#"{{"meta": {{"kind": "Thing", "name": "{name}", "namespace": "{ns}"}}, "n": 0}}"#,
                    ))
                    .unwrap();
                    let oref = ObjectRef::new("Thing", *ns, name);
                    api.create(ApiServer::ADMIN, &oref, model).unwrap();
                    oref
                })
                .collect()
        })
        .collect();
    (api, objects)
}

fn in_namespace(ns: &str) -> Query {
    Query::kind("Thing").in_ns(ns)
}

proptest! {
    /// Per-shard §3.5: under random cross-namespace interleavings, every
    /// watcher — global or namespace-scoped — sees each object's versions
    /// consecutively with no gaps, namespace-scoped watchers never see a
    /// foreign namespace, per-shard revisions stay strictly increasing
    /// within a poll batch, and a full drain compacts every shard to zero.
    #[test]
    fn shard_streams_are_ordered_and_gap_free(steps in arb_steps(4)) {
        let (mut api, objects) = setup();
        // Watcher 0 is global (joins all shards); 1..=3 are scoped to one
        // namespace each. The random polls leave some arbitrarily lagged.
        let watchers = [
            api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap(),
            api.watch_query(ApiServer::ADMIN, &in_namespace(NS[0])).unwrap(),
            api.watch_query(ApiServer::ADMIN, &in_namespace(NS[1])).unwrap(),
            api.watch_query(ApiServer::ADMIN, &in_namespace(NS[2])).unwrap(),
        ];
        // seen[w][ns][obj] = resource versions delivered so far.
        let mut seen: Vec<Vec<Vec<Vec<u64>>>> = vec![vec![vec![Vec::new(); 2]; 3]; 4];
        let mut writes = [[0u64; 2]; 3];
        let drain = |api: &mut ApiServer, w: usize, seen: &mut Vec<Vec<Vec<Vec<u64>>>>| {
            let mut last_rev_by_ns = [0u64; 3];
            for ev in api.poll(watchers[w]) {
                let ns = NS.iter().position(|n| ev.oref.namespace == *n).unwrap();
                if w > 0 {
                    prop_assert_eq!(w - 1, ns, "event leaked across namespaces");
                }
                // Within one poll batch, each shard's sub-stream arrives in
                // strictly increasing revision order.
                prop_assert!(
                    ev.revision > last_rev_by_ns[ns],
                    "shard revisions out of order"
                );
                last_rev_by_ns[ns] = ev.revision;
                let obj = if ev.oref.name == "t0" { 0 } else { 1 };
                seen[w][ns][obj].push(ev.resource_version);
            }
            Ok(())
        };
        for step in &steps {
            match step {
                Step::Write { ns, obj } => {
                    writes[*ns][*obj] += 1;
                    api.patch_path(ApiServer::ADMIN, &objects[*ns][*obj], ".n", Value::from(1.0))
                        .unwrap();
                }
                Step::Poll(w) => drain(&mut api, *w, &mut seen)?,
            }
        }
        for w in 0..4 {
            drain(&mut api, w, &mut seen)?;
        }
        for (w, by_ns) in seen.iter().enumerate() {
            for (ns, by_obj) in by_ns.iter().enumerate() {
                if w > 0 && w - 1 != ns {
                    continue; // scoped watchers verified empty above
                }
                for (obj, versions) in by_obj.iter().enumerate() {
                    // Creation (version 1) predates the watch; versions are
                    // consecutive from 2 — no gaps, drops, or reorders.
                    let expect: Vec<u64> = (2..2 + writes[ns][obj]).collect();
                    prop_assert_eq!(
                        versions, &expect,
                        "watcher {} ns {} obj {}", w, ns, obj
                    );
                }
            }
        }
        prop_assert_eq!(api.log_len(), 0, "drained watchers must not hold any shard");
    }

    /// A namespace-scoped watcher is structurally isolated: writes in other
    /// namespaces never even mark it pending, and its shard's log never
    /// grows past its own namespace's unpolled writes.
    #[test]
    fn scoped_watchers_never_pend_on_foreign_namespaces(steps in arb_steps(1)) {
        let (mut api, objects) = setup();
        let w = api.watch_query(ApiServer::ADMIN, &in_namespace(NS[0])).unwrap();
        let mut unpolled = 0u64;
        for step in &steps {
            match step {
                Step::Write { ns, obj } => {
                    api.patch_path(ApiServer::ADMIN, &objects[*ns][*obj], ".n", Value::from(1.0))
                        .unwrap();
                    if *ns == 0 {
                        unpolled += 1;
                    }
                    prop_assert_eq!(
                        api.has_pending(w),
                        unpolled > 0,
                        "pending must track only the watcher's own namespace"
                    );
                }
                Step::Poll(_) => {
                    api.poll(w);
                    unpolled = 0;
                }
            }
            prop_assert_eq!(api.shard_log_len(NS[0]), unpolled as usize);
            // Shards without members compact eagerly on every append.
            prop_assert_eq!(api.shard_log_len(NS[1]), 0);
            prop_assert_eq!(api.shard_log_len(NS[2]), 0);
        }
    }

    /// Coalescing contract: against a raw mirror subscription polled in
    /// lock-step, every coalesced batch must (a) cover exactly the objects
    /// of the raw batch in first-occurrence order, (b) report precisely the
    /// per-object raw event count, and (c) carry each object's newest
    /// snapshot — never an earlier one.
    #[test]
    fn coalesced_polls_match_raw_stream(steps in arb_steps(1)) {
        let (mut api, objects) = setup();
        let coalesced = api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap();
        let mirror = api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap();
        let drains = |api: &mut ApiServer| {
            let batch = api.poll_coalesced(coalesced);
            let raw = api.poll(mirror);
            // (a) same objects, first-occurrence order, no duplicates.
            let mut order: Vec<&ObjectRef> = Vec::new();
            let mut counts: std::collections::BTreeMap<&ObjectRef, u64> = Default::default();
            let mut newest: std::collections::BTreeMap<&ObjectRef, u64> = Default::default();
            for ev in &raw {
                if !counts.contains_key(&ev.oref) {
                    order.push(&ev.oref);
                }
                *counts.entry(&ev.oref).or_insert(0) += 1;
                newest.insert(&ev.oref, ev.resource_version);
            }
            prop_assert_eq!(batch.len(), order.len(), "object coverage differs");
            for (ce, expected_oref) in batch.iter().zip(order) {
                prop_assert_eq!(&ce.event.oref, expected_oref, "delivery order differs");
                // (b) exact absorbed count — never under-reported.
                prop_assert_eq!(
                    ce.coalesced, counts[expected_oref],
                    "coalesced count wrong for {}", expected_oref
                );
                // (c) the snapshot is the newest raw event's, and its model
                // gen agrees with that version.
                prop_assert_eq!(
                    ce.event.resource_version, newest[expected_oref],
                    "stale snapshot delivered for {}", expected_oref
                );
                prop_assert_eq!(
                    ce.event.model.get_path("meta.gen").and_then(Value::as_f64),
                    Some(ce.event.resource_version as f64)
                );
            }
            Ok(())
        };
        for step in &steps {
            match step {
                Step::Write { ns, obj } => {
                    api.patch_path(ApiServer::ADMIN, &objects[*ns][*obj], ".n", Value::from(1.0))
                        .unwrap();
                }
                Step::Poll(_) => drains(&mut api)?,
            }
        }
        drains(&mut api)?;
        prop_assert_eq!(api.log_len(), 0);
        // Bookkeeping: absorbed = appended − delivered-as-batches, and the
        // stats agree with the raw mirror's view of total traffic.
        let st = api.watch_stats();
        prop_assert_eq!(
            st.events_coalesced + st.coalesced_deliveries,
            st.events_delivered / 2, // the mirror saw the other half
            "coalescing stats must account for every raw event"
        );
    }
}
