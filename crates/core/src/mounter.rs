//! The Mounter controller (§5.2 of the paper).
//!
//! When digi A is mounted to digivice B, the mounter synchronizes state
//! between A's model and the *model replica* of A stored under B's
//! `.mount.<Kind>.<name>` attribute:
//!
//! - **northbound** (A → replica): `control.*.status`, `control.*.intent`
//!   (so parent drivers observe child-initiated intent changes and can run
//!   intent reconciliation, §3.5), `obs`, `data.*`, and — under `expose`
//!   mode — A's own `.mount` subtree; the replica's `gen` is set to A's
//!   model version.
//! - **southbound** (replica → A): `control.*.intent` and `data.input.*`
//!   writes made by B's driver, *never* `.status` ("status information
//!   should never flow southbound"), only while B's mount is **active**
//!   (not yielded), and only when the replica's version number is no less
//!   than A's (the version gate of §5.2).
//!
//! Concurrent parent/child writes are resolved with a three-way merge
//! against the replica content the mounter last wrote (its *shadow*):
//! fields the parent changed since then are parent-pending southbound
//! writes and survive northbound refreshes.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use dspace_apiserver::{ApiServer, ObjectRef, WatchEvent, WriteOp};
use dspace_simnet::Time;
use dspace_value::{Map, Name, Path, Value};

use crate::batch::WriteBatch;
use crate::graph::{DigiGraph, EdgeState, MountEdge, MountMode};
use crate::model::{at, MOUNT_ACTIVE, MOUNT_YIELDED};
use crate::trace::{Trace, TraceKind};

/// The apiserver subject the mounter authenticates as.
pub const SUBJECT: &str = "controller:mounter";

/// A trace entry to emit iff the write behind `ticket` commits.
struct TraceEffect {
    ticket: usize,
    subject: String,
    detail: String,
}

/// A planned mounter cycle: writes (committed per-op, or queued for one
/// batch) plus success-gated trace effects. Planning runs against the
/// wake-time store; the plan lands immediately (inline cycle) or later,
/// after simulated reconcile/link/admission delays (deferred cycle).
pub(crate) struct MounterPlan {
    pub(crate) batch: WriteBatch,
    effects: Vec<TraceEffect>,
}

impl MounterPlan {
    /// Commits the plan's batch (OCC re-validated against its plan-time
    /// reads) and emits gated traces; returns how many objects failed
    /// validation.
    pub(crate) fn land(self, api: &mut ApiServer, trace: &mut Trace, now: Time) -> u64 {
        let (results, conflicts) = self.batch.commit(api);
        for e in self.effects {
            if results[e.ticket].is_ok() {
                trace.push(now, TraceKind::Composition, e.subject, e.detail);
            }
        }
        conflicts
    }
}

/// The Mounter controller.
///
/// Holds no handle to the runtime's digi-graph: every pass is handed the
/// live graph cell to read.
pub struct Mounter {
    /// Replica content as last written by the mounter, per (parent, child).
    shadows: BTreeMap<(ObjectRef, ObjectRef), Value>,
}

impl Default for Mounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Mounter {
    /// Creates a mounter.
    pub fn new() -> Self {
        Mounter {
            shadows: BTreeMap::new(),
        }
    }

    /// Processes a batch of watch events inline: re-synchronizes every
    /// mount edge adjacent to an object that changed, committing each
    /// write as it is decided. Trace entries for southbound syncs are
    /// gated on their write's result.
    pub fn process(
        &mut self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        events: &[WatchEvent],
        trace: &mut Trace,
        now: Time,
    ) {
        let plan = self.plan(api, graph, events, false);
        plan.land(api, trace, now);
    }

    /// Drains a batch of watch events into a landable plan: re-synchronizes
    /// every mount edge adjacent to an object that changed. With `batched`
    /// the writes queue on the plan's read-your-writes overlay and land
    /// after the cycle's delays, each through its serial verb (a deferred
    /// cycle); otherwise each commits immediately (an inline cycle).
    /// Either way success-gated trace effects ride on the returned plan.
    ///
    /// The graph is borrowed per lookup, never across a write: per-op
    /// commits run the admission chain, whose topology webhook re-borrows
    /// the same cell mutably.
    pub(crate) fn plan(
        &mut self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        events: &[WatchEvent],
        batched: bool,
    ) -> MounterPlan {
        // Dedup with a set: a burst batch repeats the same oref many
        // times, and `Vec::contains` made this scan quadratic.
        let mut affected: BTreeSet<ObjectRef> = BTreeSet::new();
        for ev in events {
            if ev.oref.kind == "Sync" || ev.oref.kind == "Policy" {
                continue;
            }
            affected.insert(ev.oref.clone());
        }
        let mut batch = WriteBatch::new(SUBJECT, batched);
        let mut effects: Vec<TraceEffect> = Vec::new();
        for oref in affected {
            // One O(degree) pass per changed digi: the graph's endpoint
            // index hands back full edges (payload included), so there is
            // no per-neighbor `edge()` re-lookup.
            let edges = graph.borrow().adjacent_edges(&oref);
            for edge in edges {
                self.sync_edge(api, &mut batch, edge, &mut effects);
            }
        }
        MounterPlan { batch, effects }
    }

    /// Synchronizes one mount edge in both directions, queueing writes on
    /// `batch` and success-gated trace entries on `effects`.
    fn sync_edge(
        &mut self,
        api: &mut ApiServer,
        batch: &mut WriteBatch,
        edge: MountEdge,
        effects: &mut Vec<TraceEffect>,
    ) {
        let MountEdge { parent, child, .. } = &edge;
        // Reads go through the batch so an edge synced later in the pass
        // observes the writes of earlier edges, exactly as it would have
        // observed their commits under per-op writes.
        let Ok((parent_model, _)) = batch.get(api, parent) else {
            return;
        };
        let Ok((child_model, _)) = batch.get(api, child) else {
            return;
        };
        let replica_keys = ["mount", child.kind.as_str(), child.name.as_str()];
        let replica_cur = at(&parent_model, &replica_keys)
            .cloned()
            .unwrap_or(Value::Null);
        if replica_cur.is_null() {
            // The mount reference is gone from the model (unmount raced);
            // the topology webhook will drop the edge shortly.
            return;
        }
        // Release the parent read handle before any write: the batch
        // overlay mutates in place only while no reader still holds the
        // model, so keeping this alive would make every queued northbound
        // refresh copy the parent's root map and the maps along the
        // replica path.
        drop(parent_model);
        let key = (parent.clone(), child.clone());

        let shadow = self.shadows.get(&key);
        if in_sync(&edge, &replica_cur, shadow, &child_model) {
            return;
        }

        // --- Northbound: build the replica candidate from the child. -----
        let child_gen = gen_of(&child_model);
        // Keys come from the replica and the child where they have them,
        // so building the candidate copies no key text.
        let replica_map = replica_cur.as_object();
        let name = |k: &str| {
            replica_map
                .and_then(|m| m.get_key_value(k))
                .map_or_else(|| Name::from(k), |(n, _)| n.clone())
        };
        let mut fields = BTreeMap::from([
            (name("mode"), Value::from(edge.mode.as_str())),
            (name("status"), Value::from(status_of(edge.state))),
            (name("gen"), Value::from_exact_u64(child_gen)),
        ]);
        let child_map = child_model.as_object();
        for section in sections(edge.mode) {
            if let Some((k, v)) = child_map.and_then(|m| m.get_key_value(section)) {
                fields.insert(k.clone(), v.clone());
            }
        }
        let mut candidate = Value::Object(fields.into());
        // The northbound-only view, before parent-pending writes are
        // merged in: this is what the shadow reverts to when the version
        // gate blocks, so blocked writes stay pending instead of being
        // silently absorbed.
        let fresh = candidate.clone();
        // Three-way merge: parent writes pending since the last mounter
        // write survive the refresh.
        let mut pending: Vec<(Path, Value)> = Vec::new();
        southbound_diffs(&replica_cur, shadow, &mut |path, v| {
            if !v.is_null() {
                pending.push((path, v.clone()));
            }
        });
        for (path, v) in &pending {
            let _ = candidate.set(path, v.clone());
        }

        let unchanged = candidate == replica_cur;
        if !unchanged {
            // Errors are ignored (as before): no effect rides on this op.
            let set = WriteOp::Set(Path::keys(replica_keys), candidate.clone());
            let _ = batch.write(api, parent, set);
        }

        // --- Southbound: apply parent-pending intent/input writes. -------
        // Version gate (§5.2): only sync when the *stored* replica is at
        // least as fresh as the child's model. A stale replica means the
        // parent acted on an outdated view of the child; the northbound
        // refresh above (which advances `.gen` to the child's version)
        // must land first, and the retry happens on its event.
        let stored_gen = at(&replica_cur, &["gen"])
            .and_then(Value::as_exact_u64)
            .unwrap_or(0);
        let gate_ok = stored_gen >= child_gen;
        let mut synced_south = false;
        if edge.state == EdgeState::Active && gate_ok {
            synced_south = true;
            let mut patch = dspace_value::obj();
            let mut wrote = false;
            southbound_diffs(&candidate, Some(&child_model), &mut |path, v| {
                if !v.is_null() {
                    let _ = patch.set(&path, v.clone());
                    wrote = true;
                }
            });
            // Same copy-on-write discipline as the parent handle above: a
            // live read handle would make a queued child write copy the
            // child's root map and the maps along its path.
            drop(child_model);
            if wrote {
                // The trace entry is deferred: it only appears if the op
                // commits, matching the old per-op success gate.
                let ticket = batch.patch(api, child, patch);
                effects.push(TraceEffect {
                    ticket,
                    subject: child.to_string(),
                    detail: format!("southbound sync from {parent}"),
                });
            }
        }
        // Only a southbound-synced candidate becomes the new shadow; when
        // the gate (or a yielded edge) blocked, the pending parent writes
        // must be re-detected on the next round. A shadow equal to the
        // stored replica keeps the replica's map, so that the next sync of
        // this edge can return early.
        let next = if synced_south { candidate } else { fresh };
        let next = if unchanged && next == replica_cur {
            replica_cur
        } else {
            next
        };
        self.shadows.insert(key, next);
    }
}

/// Returns `true` when a full sync of `edge` would queue no write and
/// store an equal shadow, so that it can return at once: the stored
/// `replica` is the `shadow` itself, its `mode`, `status` and `gen` are the
/// edge's mode and state and the `child`'s generation, each section the
/// child contributes is equal in the replica or absent from both, and the
/// replica holds no other key.
fn in_sync(edge: &MountEdge, replica: &Value, shadow: Option<&Value>, child: &Value) -> bool {
    let (Value::Object(r), Some(Value::Object(s))) = (replica, shadow) else {
        return false;
    };
    if !Map::ptr_eq(r, s)
        || r.get("mode").and_then(Value::as_str) != Some(edge.mode.as_str())
        || r.get("status").and_then(Value::as_str) != Some(status_of(edge.state))
        || r.get("gen") != Some(&Value::from_exact_u64(gen_of(child)))
    {
        return false;
    }
    let mut keys = 3;
    for section in sections(edge.mode) {
        let theirs = at(child, &[section]);
        if r.get(section) != theirs {
            return false;
        }
        keys += usize::from(theirs.is_some());
    }
    r.len() == keys
}

/// The child's model version (`meta.gen`, 0 when missing). Generations are
/// compared exactly as u64: an f64 round-trip collapses adjacent versions
/// past 2^53 and mis-orders the gate.
fn gen_of(model: &Value) -> u64 {
    at(model, &["meta", "gen"])
        .and_then(Value::as_exact_u64)
        .unwrap_or(0)
}

/// The replica's `status` for an edge in `state`.
fn status_of(state: EdgeState) -> &'static str {
    match state {
        EdgeState::Active => MOUNT_ACTIVE,
        EdgeState::Yielded => MOUNT_YIELDED,
    }
}

/// The child's sections a replica carries: `control`, `obs` and `data`,
/// and the child's own `mount` under expose.
fn sections(mode: MountMode) -> impl Iterator<Item = &'static str> {
    let exposed = (mode == MountMode::Expose).then_some("mount");
    ["control", "obs", "data"].into_iter().chain(exposed)
}

/// Visits every *southbound-capable* leaf of `doc` — `control.<attr>.intent`
/// or under `data.input`, possibly nested below one or more
/// `mount.<Kind>.<name>` prefixes (writes through exposed grandchild
/// replicas) — whose value differs from `base` at the same path, where a
/// path missing from `base` reads as `Null`. The two documents are walked
/// side by side, and a subtree they share is skipped without a look.
fn southbound_diffs(doc: &Value, base: Option<&Value>, visit: &mut impl FnMut(Path, &Value)) {
    fn walk<'a>(
        keys: &mut Vec<&'a str>,
        v: &'a Value,
        base: Option<&Value>,
        visit: &mut impl FnMut(Path, &Value),
    ) {
        let Value::Object(map) = v else {
            if is_southbound(keys) && base.unwrap_or(&Value::Null) != v {
                visit(Path::keys(keys.iter().copied()), v);
            }
            return;
        };
        let base = match base {
            Some(Value::Object(b)) if Map::ptr_eq(map, b) => return,
            Some(Value::Object(b)) => Some(b),
            _ => None,
        };
        for (k, child) in map {
            keys.push(k);
            if could_lead_southbound(keys) {
                walk(keys, child, base.and_then(|b| b.get(k)), visit);
            }
            keys.pop();
        }
    }
    walk(&mut Vec::new(), doc, base, visit)
}

/// Returns `true` when the key path (relative to a replica root)
/// addresses a southbound-writable location.
fn is_southbound(keys: &[&str]) -> bool {
    matches!(
        strip_mount_prefixes(keys),
        ["control", _, "intent", ..] | ["data", "input", _, ..]
    )
}

/// Returns `true` if descending further below the key path could still
/// reach a southbound location (used to prune the walk).
fn could_lead_southbound(keys: &[&str]) -> bool {
    match strip_mount_prefixes(keys) {
        [] | ["control" | "data" | "mount"] | ["control", _] | ["control", _, "intent"] => true,
        ["data", "input"] | ["mount", _] => true,
        _ => is_southbound(keys),
    }
}

/// Strips leading `mount.<Kind>.<name>` triples.
fn strip_mount_prefixes<'k, 'a>(mut keys: &'k [&'a str]) -> &'k [&'a str] {
    while let ["mount", _, _, rest @ ..] = keys {
        keys = rest;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::json::parse;

    fn keys(p: &str) -> Vec<&str> {
        p.trim_start_matches('.').split('.').collect()
    }

    /// Every `(path, value)` that [`southbound_diffs`] visits, in order.
    fn diffs(doc: &Value, base: Option<&Value>) -> Vec<(String, Value)> {
        let mut found = Vec::new();
        southbound_diffs(doc, base, &mut |p, v| {
            found.push((p.to_string(), v.clone()))
        });
        found
    }

    fn set(doc: &mut Value, path: &str, v: Value) {
        doc.set(&path.parse().unwrap(), v).unwrap();
    }

    fn replica() -> Value {
        parse(
            r#"{
                "mode": "expose", "status": "active", "gen": 3,
                "control": {"power": {"intent": "on", "status": "off"}},
                "data": {"input": {"url": "rtsp://x"}, "output": {"objects": []}},
                "mount": {"Room": {"r1": {"gen": 2,
                    "control": {"brightness": {"intent": 0.5, "status": 0.5}},
                    "mount": {"Speaker": {"s1": {"gen": 1,
                        "control": {"mode": {"intent": "pause", "status": "play"}}}}}}}}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn southbound_classification() {
        let yes = [
            ".control.power.intent",
            ".control.brightness.intent",
            ".data.input.url",
            ".mount.Speaker.s1.control.mode.intent",
            ".mount.Room.r1.mount.Speaker.s1.control.mode.intent",
            ".mount.Scene.sc.data.input.url",
        ];
        for p in yes {
            assert!(is_southbound(&keys(p)), "{p} should be southbound");
        }
        let no = [
            ".control.power.status",
            ".obs.objects",
            ".data.output.objects",
            ".mount.Speaker.s1.control.mode.status",
            ".gen",
            ".mode",
            ".status",
        ];
        for p in no {
            assert!(!is_southbound(&keys(p)), "{p} should not be southbound");
        }
    }

    #[test]
    fn southbound_diffs_finds_nested_leaves() {
        let paths: Vec<String> = diffs(&replica(), Some(&dspace_value::obj()))
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(
            paths,
            vec![
                ".control.power.intent",
                ".data.input.url",
                ".mount.Room.r1.control.brightness.intent",
                ".mount.Room.r1.mount.Speaker.s1.control.mode.intent",
            ]
        );
        // A missing base reads as `Null` throughout, like an empty one.
        assert_eq!(diffs(&replica(), None).len(), 4);
    }

    #[test]
    fn shared_base_yields_nothing_without_a_walk() {
        let doc = replica();
        assert!(diffs(&doc, Some(&doc.clone())).is_empty());
        // A NaN intent differs from itself, so only a skipped subtree can
        // yield nothing here: an unshared copy reports it.
        let mut nan = replica();
        set(&mut nan, ".control.power.intent", Value::Num(f64::NAN));
        assert!(diffs(&nan, Some(&nan.clone())).is_empty());
        let mut nan_copy = replica();
        set(&mut nan_copy, ".control.power.intent", Value::Num(f64::NAN));
        assert_eq!(diffs(&nan, Some(&nan_copy)).len(), 1);
    }

    #[test]
    fn one_changed_nested_intent_yields_that_leaf() {
        let base = replica();
        let mut doc = base.clone();
        let leaf = ".mount.Room.r1.mount.Speaker.s1.control.mode.intent";
        set(&mut doc, leaf, Value::from("play"));
        assert_eq!(
            diffs(&doc, Some(&base)),
            vec![(leaf.to_string(), Value::from("play"))]
        );
    }

    #[test]
    fn status_gen_mode_and_output_are_never_visited() {
        let base = replica();
        let mut doc = base.clone();
        for (path, v) in [
            (".status", Value::from("yielded")),
            (".gen", Value::from(9.0)),
            (".mode", Value::from("hide")),
            (".control.power.status", Value::from("on")),
            (".data.output.objects", Value::from(vec!["cat"])),
            (".data.output.fresh", Value::from(1.0)),
            (".mount.Room.r1.gen", Value::from(7.0)),
            (".mount.Room.r1.control.brightness.status", Value::from(0.9)),
            (
                ".mount.Room.r1.mount.Speaker.s1.status",
                Value::from("active"),
            ),
            (
                ".mount.Room.r1.mount.Speaker.s1.control.mode.status",
                Value::from("stop"),
            ),
        ] {
            set(&mut doc, path, v);
        }
        assert!(diffs(&doc, Some(&base)).is_empty());
        assert!(diffs(&base, Some(&doc)).is_empty());
    }

    /// One `Lamp` child mounted under one `Room` parent on a bare server,
    /// its edge synced one call at a time.
    struct Edge {
        api: ApiServer,
        graph: RefCell<DigiGraph>,
        mounter: Mounter,
        parent: ObjectRef,
        child: ObjectRef,
    }

    impl Edge {
        /// An active edge in `mode` over a child with every replica
        /// section, synced until a sync writes nothing.
        fn settled(mode: MountMode) -> Edge {
            Edge::settled_over(
                mode,
                r#"{"control": {"power": {"intent": "on", "status": "on"}},
                    "obs": {"note": "ok"}, "data": {"input": {"url": "a"}},
                    "mount": {"Bulb": {"b": {"gen": 1}}}}"#,
            )
        }

        /// An active edge in `mode` over a child with the `model` given in
        /// JSON, synced until a sync writes nothing.
        fn settled_over(mode: MountMode, model: &str) -> Edge {
            let mut api = ApiServer::new();
            api.rbac_mut().bind(SUBJECT, "cluster-admin");
            let parent = ObjectRef::default_ns("Room", "p");
            let child = ObjectRef::default_ns("Lamp", "c");
            api.create(ApiServer::ADMIN, &child, parse(model).unwrap())
                .unwrap();
            let replica = parse(r#"{"mount": {"Lamp": {"c": {"mode": "hide"}}}}"#);
            api.create(ApiServer::ADMIN, &parent, replica.unwrap())
                .unwrap();
            let mut graph = DigiGraph::new();
            graph.mount(&child, &parent, mode).unwrap();
            let mut edge = Edge {
                api,
                graph: RefCell::new(graph),
                mounter: Mounter::new(),
                parent,
                child,
            };
            edge.settle();
            edge
        }

        /// Syncs until a sync writes nothing, then checks that the next
        /// sync returns early and leaves the shadow on the stored replica.
        fn settle(&mut self) {
            for _ in 0..4 {
                if self.sync() == (0, 0) {
                    assert!(self.in_sync(), "a sync that wrote nothing settles");
                    assert_eq!(self.sync(), (0, 0));
                    assert!(self.shadow_is_replica());
                    return;
                }
            }
            panic!("the edge did not settle");
        }

        /// Runs one inline sync of the edge; returns how many writes it
        /// committed to the parent and to the child.
        fn sync(&mut self) -> (u64, u64) {
            let before = (self.rv(&self.parent), self.rv(&self.child));
            let edge = self.edge();
            let mut batch = WriteBatch::new(SUBJECT, false);
            self.mounter
                .sync_edge(&mut self.api, &mut batch, edge, &mut Vec::new());
            (
                self.rv(&self.parent) - before.0,
                self.rv(&self.child) - before.1,
            )
        }

        /// Whether the next sync returns early.
        fn in_sync(&self) -> bool {
            let child = self.model(&self.child);
            in_sync(&self.edge(), &self.replica(), self.shadow(), &child)
        }

        /// Whether the shadow is the stored replica's own map.
        fn shadow_is_replica(&self) -> bool {
            match (self.replica(), self.shadow()) {
                (Value::Object(r), Some(Value::Object(s))) => Map::ptr_eq(&r, s),
                _ => false,
            }
        }

        fn edge(&self) -> MountEdge {
            self.graph.borrow().edge(&self.parent, &self.child).unwrap()
        }

        fn shadow(&self) -> Option<&Value> {
            let key = (self.parent.clone(), self.child.clone());
            self.mounter.shadows.get(&key)
        }

        fn replica(&self) -> Value {
            let parent = self.model(&self.parent);
            at(&parent, &["mount", "Lamp", "c"]).cloned().unwrap()
        }

        fn model(&self, oref: &ObjectRef) -> Value {
            self.api.get(ApiServer::ADMIN, oref).unwrap().model
        }

        fn rv(&self, oref: &ObjectRef) -> u64 {
            self.api
                .get(ApiServer::ADMIN, oref)
                .unwrap()
                .resource_version
        }

        fn write(&mut self, oref: &ObjectRef, path: &str, v: Value) {
            self.api
                .patch_path(ApiServer::ADMIN, oref, path, v)
                .unwrap();
        }
    }

    #[test]
    fn a_settled_edge_returns_early_and_keeps_its_shadow() {
        for mode in [MountMode::Hide, MountMode::Expose] {
            let mut e = Edge::settled(mode);
            assert!(e.in_sync(), "{mode:?}");
            assert!(e.shadow_is_replica(), "{mode:?}");
            assert_eq!(e.sync(), (0, 0), "{mode:?}");
            assert!(e.shadow_is_replica(), "{mode:?}");
        }
    }

    #[test]
    fn a_sync_that_writes_nothing_keeps_the_replica_as_shadow() {
        let mut e = Edge::settled(MountMode::Expose);
        // A new Mounter has no shadow: its first sync is a full one.
        e.mounter = Mounter::new();
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (0, 0));
        assert!(e.shadow_is_replica());
        assert!(e.in_sync());
    }

    #[test]
    fn in_sync_needs_every_condition() {
        let e = Edge::settled(MountMode::Expose);
        let (edge, child, replica) = (e.edge(), e.model(&e.child), e.replica());
        assert!(in_sync(&edge, &replica, Some(&replica), &child));
        // An equal shadow that is not the replica's own map, or none.
        let copy = parse(&replica.to_string()).unwrap();
        assert!(!in_sync(&edge, &replica, Some(&copy), &child));
        assert!(!in_sync(&edge, &replica, None, &child));
        // One edit each, the edited replica being its own shadow.
        for (path, v) in [
            (".mode", Value::from("hide")),
            (".status", MOUNT_YIELDED.into()),
            (".gen", 0.0.into()),
            (".control.power.intent", "off".into()),
            (".obs.note", "moved".into()),
            (".data.input.url", "b".into()),
            (".mount.Bulb.b.gen", 2.0.into()),
            (".extra", 1.0.into()),
        ] {
            let mut edited = replica.clone();
            edited.set(&path.parse().unwrap(), v).unwrap();
            assert!(!in_sync(&edge, &edited, Some(&edited), &child), "{path}");
        }
        // A section absent from both sides is in sync, from one side not.
        let data: Path = ".data".parse().unwrap();
        let (mut bare_replica, mut bare_child) = (replica.clone(), child.clone());
        bare_replica.remove(&data);
        bare_child.remove(&data);
        assert!(in_sync(
            &edge,
            &bare_replica,
            Some(&bare_replica),
            &bare_child
        ));
        assert!(!in_sync(&edge, &replica, Some(&replica), &bare_child));
        assert!(!in_sync(&edge, &bare_replica, Some(&bare_replica), &child));
    }

    #[test]
    fn a_child_change_refreshes_the_replica() {
        for mode in [MountMode::Hide, MountMode::Expose] {
            for (path, v) in [
                (".control.power.intent", Value::from("off")),
                (".control.power.status", Value::from("off")),
                (".obs.note", Value::from("moved")),
                (".data.input.url", Value::from("b")),
                (".mount.Bulb.b.gen", Value::from(2.0)),
                // Rewriting a value it holds bumps only `meta.gen`.
                (".control.power.intent", Value::from("on")),
            ] {
                let mut e = Edge::settled(mode);
                let child = e.child.clone();
                e.write(&child, path, v.clone());
                assert!(!e.in_sync(), "{mode:?} {path}");
                assert_eq!(e.sync(), (1, 0), "{mode:?} {path}");
                let carried = e.replica().get_path(path) == Some(&v);
                let hidden = mode == MountMode::Hide && path.starts_with(".mount");
                assert_eq!(carried, !hidden, "{mode:?} {path}");
                e.settle();
            }
        }
    }

    #[test]
    fn a_parent_intent_write_syncs_southbound() {
        let mut e = Edge::settled(MountMode::Hide);
        let parent = e.parent.clone();
        e.write(&parent, ".mount.Lamp.c.control.power.intent", "off".into());
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (0, 1));
        // The candidate equalled the stored replica: the shadow keeps its map.
        assert!(e.shadow_is_replica());
        let intent = e.model(&e.child).get_path(".control.power.intent").cloned();
        assert_eq!(intent, Some(Value::from("off")));
        // The child's write bumped its generation: the replica catches up.
        assert_eq!(e.sync(), (1, 0));
        e.settle();
    }

    #[test]
    fn mode_and_state_changes_refresh_the_replica() {
        // A child without a `mount` section differs between the modes
        // only in the replica's `mode`.
        let mut e = Edge::settled_over(MountMode::Hide, r#"{"obs": {"note": "ok"}}"#);
        for mode in [MountMode::Expose, MountMode::Hide] {
            let edge = e.edge();
            e.graph.borrow_mut().restore(MountEdge { mode, ..edge });
            assert!(!e.in_sync(), "{mode:?}");
            assert_eq!(e.sync(), (1, 0), "{mode:?}");
            assert_eq!(e.replica().get_path(".mode"), Some(&mode.as_str().into()));
            e.settle();
        }
        let mut e = Edge::settled(MountMode::Hide);
        let edge = e.edge();
        e.graph.borrow_mut().restore(MountEdge {
            mode: MountMode::Expose,
            ..edge
        });
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (1, 0));
        assert!(e.replica().get_path(".mount.Bulb.b").is_some());
        e.settle();
        let (child, parent) = (e.child.clone(), e.parent.clone());
        e.graph.borrow_mut().yield_edge(&child, &parent).unwrap();
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (1, 0));
        assert_eq!(e.replica().get_path(".status"), Some(&MOUNT_YIELDED.into()));
        e.settle();
        e.graph.borrow_mut().unyield_edge(&child, &parent).unwrap();
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (1, 0));
        assert_eq!(e.replica().get_path(".status"), Some(&MOUNT_ACTIVE.into()));
        e.settle();
    }

    #[test]
    fn an_extra_replica_key_is_dropped() {
        let mut e = Edge::settled(MountMode::Hide);
        let parent = e.parent.clone();
        e.write(&parent, ".mount.Lamp.c.extra", 1.0.into());
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (1, 0));
        assert!(e.replica().get_path(".extra").is_none());
        e.settle();
    }

    #[test]
    fn a_stale_replica_gen_blocks_the_southbound_write() {
        let mut e = Edge::settled(MountMode::Hide);
        let (parent, child) = (e.parent.clone(), e.child.clone());
        e.write(&parent, ".mount.Lamp.c.control.power.intent", "off".into());
        e.write(&child, ".obs.note", "moved".into());
        assert!(!e.in_sync());
        // The gate blocks: only the northbound refresh lands, keeping the
        // parent's pending intent.
        assert_eq!(e.sync(), (1, 0));
        let replica = e.replica();
        assert_eq!(
            replica.get_path(".control.power.intent"),
            Some(&"off".into())
        );
        assert_eq!(replica.get_path(".obs.note"), Some(&"moved".into()));
        // With the replica's gen caught up, the pending intent goes south.
        assert!(!e.in_sync());
        assert_eq!(e.sync(), (0, 1));
        assert_eq!(e.sync(), (1, 0));
        e.settle();
    }
}
