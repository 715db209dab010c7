//! Namespace lifecycle: deleting a namespace drops its shard, cancels the
//! watch selectors homed in it, and delivers terminal `Deleted` events to
//! global watchers — ordered and gap-free (§3.5), even for watchers that
//! were lagging when the deletion ran.

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchEventKind};
use dspace_value::json;

fn oref(ns: &str, name: &str) -> ObjectRef {
    ObjectRef::new("Thing", ns, name)
}

fn model(ns: &str, name: &str) -> dspace_value::Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "Thing", "name": "{name}", "namespace": "{ns}"}}, "n": 0}}"#
    ))
    .unwrap()
}

/// Two namespaces, three objects in `doomed`, two in `keeper`.
fn setup() -> ApiServer {
    let mut api = ApiServer::new();
    for name in ["a", "b", "c"] {
        api.create(
            ApiServer::ADMIN,
            &oref("doomed", name),
            model("doomed", name),
        )
        .unwrap();
    }
    for name in ["x", "y"] {
        api.create(
            ApiServer::ADMIN,
            &oref("keeper", name),
            model("keeper", name),
        )
        .unwrap();
    }
    api
}

/// A lagging global watcher must see the full history of the deleted
/// namespace — every `Added` then every terminal `Deleted`, with per-shard
/// revisions consecutive — and the drained shard is dropped only after it
/// catches up.
#[test]
fn global_watcher_sees_terminal_deletes_gap_free() {
    let mut api = ApiServer::new();
    let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
    for name in ["a", "b", "c"] {
        api.create(
            ApiServer::ADMIN,
            &oref("doomed", name),
            model("doomed", name),
        )
        .unwrap();
    }
    api.create(ApiServer::ADMIN, &oref("keeper", "x"), model("keeper", "x"))
        .unwrap();
    assert_eq!(api.shard_count(), 2);

    // Delete while the watcher is lagging: it has never polled.
    let deleted = api.delete_namespace(ApiServer::ADMIN, "doomed").unwrap();
    assert_eq!(deleted, 3);
    assert!(api.get(ApiServer::ADMIN, &oref("doomed", "a")).is_err());
    // The retiring shard must survive until the lagging watcher drains it.
    assert_eq!(api.shard_count(), 2, "shard held for the lagging watcher");

    let evs = api.poll(w);
    let doomed: Vec<_> = evs
        .iter()
        .filter(|e| e.oref.namespace == "doomed")
        .collect();
    assert_eq!(doomed.len(), 6, "3 creates + 3 terminal deletes");
    let revs: Vec<u64> = doomed.iter().map(|e| e.revision).collect();
    assert_eq!(revs, vec![1, 2, 3, 4, 5, 6], "gap-free shard history");
    let kinds: Vec<_> = doomed.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            WatchEventKind::Added,
            WatchEventKind::Added,
            WatchEventKind::Added,
            WatchEventKind::Deleted,
            WatchEventKind::Deleted,
            WatchEventKind::Deleted,
        ]
    );
    // Terminal events carry the last committed model.
    assert!(doomed
        .iter()
        .all(|e| !matches!(*e.model, dspace_value::Value::Null)));

    // Drained: the shard is gone, the keeper namespace is untouched.
    assert_eq!(api.shard_count(), 1);
    assert!(api.get(ApiServer::ADMIN, &oref("keeper", "x")).is_ok());
    assert!(api.poll(w).is_empty());
}

/// Selectors homed in the deleted namespace are cancelled outright: their
/// undelivered events are refunded, and the watcher goes quiet instead of
/// receiving events for a scope that no longer exists.
#[test]
fn homed_watchers_are_cancelled_and_refunded() {
    let mut api = setup();
    let homed = api
        .client(ApiServer::ADMIN)
        .namespace("doomed")
        .watch(&Query::kind("Thing"))
        .unwrap();
    api.patch_path(
        ApiServer::ADMIN,
        &oref("doomed", "a"),
        ".n",
        dspace_value::Value::from(1.0),
    )
    .unwrap();
    assert!(api.has_pending(homed), "event queued before the deletion");

    api.delete_namespace(ApiServer::ADMIN, "doomed").unwrap();
    assert!(!api.has_pending(homed), "pending refunded on cancellation");
    assert_eq!(api.pending_events(homed), 0);
    assert!(api.poll(homed).is_empty());

    // With no lagging member left, the shard drops immediately.
    assert_eq!(api.shard_count(), 1);
}

/// A namespace can be recreated after deletion: it gets a fresh shard with
/// revisions starting over, and watchers opened afterwards see only the
/// new incarnation.
#[test]
fn namespace_can_be_recreated_with_fresh_history() {
    let mut api = setup();
    api.delete_namespace(ApiServer::ADMIN, "doomed").unwrap();
    assert_eq!(api.shard_count(), 1);

    let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
    api.create(ApiServer::ADMIN, &oref("doomed", "a"), model("doomed", "a"))
        .unwrap();
    assert_eq!(api.shard_count(), 2);
    let evs = api.poll(w);
    assert_eq!(evs.len(), 1);
    assert_eq!(
        evs[0].revision, 1,
        "fresh shard restarts its revision clock"
    );
    assert_eq!(evs[0].kind, WatchEventKind::Added);
}

/// Deleting a namespace that does not exist is a no-op reporting zero
/// objects deleted.
#[test]
fn deleting_missing_namespace_is_a_noop() {
    let mut api = setup();
    assert_eq!(api.delete_namespace(ApiServer::ADMIN, "ghost").unwrap(), 0);
    assert_eq!(api.shard_count(), 2);
}
