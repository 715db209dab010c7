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
use dspace_value::{Map, Path, Value};

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

        // --- Northbound: build the replica candidate from the child. -----
        // Generations are compared exactly as u64: an f64 round-trip
        // collapses adjacent versions past 2^53 and mis-orders the gate.
        let child_gen = at(&child_model, &["meta", "gen"])
            .and_then(Value::as_exact_u64)
            .unwrap_or(0);
        let status = match edge.state {
            EdgeState::Active => MOUNT_ACTIVE,
            EdgeState::Yielded => MOUNT_YIELDED,
        };
        let mut fields = BTreeMap::from([
            ("mode".to_string(), Value::from(edge.mode.as_str())),
            ("status".to_string(), Value::from(status)),
            ("gen".to_string(), Value::from_exact_u64(child_gen)),
        ]);
        let exposed = (edge.mode == MountMode::Expose).then_some("mount");
        for section in ["control", "obs", "data"].into_iter().chain(exposed) {
            if let Some(v) = at(&child_model, &[section]) {
                fields.insert(section.to_string(), v.clone());
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
        southbound_diffs(&replica_cur, self.shadows.get(&key), &mut |path, v| {
            if !v.is_null() {
                pending.push((path, v.clone()));
            }
        });
        for (path, v) in &pending {
            let _ = candidate.set(path, v.clone());
        }

        if candidate != replica_cur {
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
        // must be re-detected on the next round.
        self.shadows
            .insert(key, if synced_south { candidate } else { fresh });
    }
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
}
