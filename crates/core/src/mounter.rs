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

use dspace_apiserver::{ApiServer, ObjectRef, WatchEvent};
use dspace_simnet::Time;
use dspace_value::{Path, Segment, Value};

use crate::batch::WriteBatch;
use crate::graph::{DigiGraph, EdgeState, MountEdge, MountMode};
use crate::model::{MOUNT_ACTIVE, MOUNT_YIELDED};
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
    /// the writes queue on the plan's read-your-writes overlay for one
    /// `apply_batch` landing (a deferred cycle); otherwise each commits
    /// immediately (an inline cycle). Either way success-gated trace
    /// effects ride on the returned plan.
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
        let replica_path = crate::model::replica_path(&child.kind, &child.name);
        let replica_cur = parent_model
            .get_path(&replica_path)
            .cloned()
            .unwrap_or(Value::Null);
        if replica_cur.is_null() {
            // The mount reference is gone from the model (unmount raced);
            // the topology webhook will drop the edge shortly.
            return;
        }
        // Release the parent read handle before any write: the batch
        // overlay mutates in place only while no reader still holds the
        // model, so keeping this alive would force a deep clone of the
        // whole parent model on every northbound refresh.
        drop(parent_model);
        let key = (parent.clone(), child.clone());
        let shadow = self
            .shadows
            .get(&key)
            .cloned()
            .unwrap_or_else(dspace_value::obj);

        // --- Northbound: build the replica candidate from the child. -----
        // Generations are compared exactly as u64: an f64 round-trip
        // collapses adjacent versions past 2^53 and mis-orders the gate.
        let child_gen = child_model
            .get_path(".meta.gen")
            .and_then(Value::as_exact_u64)
            .unwrap_or(0);
        let mut candidate = dspace_value::obj();
        set(&mut candidate, ".mode", Value::from(edge.mode.as_str()));
        set(
            &mut candidate,
            ".status",
            Value::from(match edge.state {
                EdgeState::Active => MOUNT_ACTIVE,
                EdgeState::Yielded => MOUNT_YIELDED,
            }),
        );
        set(&mut candidate, ".gen", Value::from_exact_u64(child_gen));
        for section in ["control", "obs", "data"] {
            if let Some(v) = child_model.get_path(section) {
                set(&mut candidate, &format!(".{section}"), v.clone());
            }
        }
        if edge.mode == MountMode::Expose {
            if let Some(v) = child_model.get_path("mount") {
                set(&mut candidate, ".mount", v.clone());
            }
        }
        // The northbound-only view, before parent-pending writes are
        // merged in: this is what the shadow reverts to when the version
        // gate blocks, so blocked writes stay pending instead of being
        // silently absorbed.
        let fresh = candidate.clone();
        // Three-way merge: parent writes pending since the last mounter
        // write survive the refresh.
        let mut pending: Vec<(Path, Value)> = Vec::new();
        collect_southbound_leaves(&replica_cur, &Path::root(), &mut |path, v| {
            let in_shadow = shadow.get(path).cloned().unwrap_or(Value::Null);
            if *v != in_shadow && !v.is_null() {
                pending.push((path.clone(), v.clone()));
            }
        });
        for (path, v) in &pending {
            let _ = candidate.set(path, v.clone());
        }

        if candidate != replica_cur {
            // Errors are ignored (as before): no effect rides on this op.
            let _ = batch.patch_path(api, parent, &replica_path, candidate.clone());
        }

        // --- Southbound: apply parent-pending intent/input writes. -------
        // Version gate (§5.2): only sync when the *stored* replica is at
        // least as fresh as the child's model. A stale replica means the
        // parent acted on an outdated view of the child; the northbound
        // refresh above (which advances `.gen` to the child's version)
        // must land first, and the retry happens on its event.
        let stored_gen = replica_cur
            .get_path(".gen")
            .and_then(Value::as_exact_u64)
            .unwrap_or(0);
        let gate_ok = stored_gen >= child_gen;
        let mut synced_south = false;
        if edge.state == EdgeState::Active && gate_ok {
            synced_south = true;
            let mut patch = dspace_value::obj();
            let mut wrote = false;
            collect_southbound_leaves(&candidate, &Path::root(), &mut |path, v| {
                if v.is_null() {
                    return;
                }
                let child_val = child_model.get(path).cloned().unwrap_or(Value::Null);
                if *v != child_val {
                    let _ = patch.set(path, v.clone());
                    wrote = true;
                }
            });
            // Same copy-on-write discipline as the parent handle above.
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

fn set(doc: &mut Value, path: &str, v: Value) {
    let p: Path = path.parse().expect("static path");
    doc.set(&p, v).expect("object document");
}

/// Visits every leaf under `doc` whose path is *southbound-capable*:
/// `control.<attr>.intent`, `data.input.<...>`, possibly nested below one
/// or more `mount.<Kind>.<name>` prefixes (writes through exposed
/// grandchild replicas).
fn collect_southbound_leaves(doc: &Value, base: &Path, visit: &mut impl FnMut(&Path, &Value)) {
    fn walk(v: &Value, path: &Path, visit: &mut impl FnMut(&Path, &Value)) {
        if is_southbound(path) {
            // Leaves only: intent scalars or anything under data.input.
            match v {
                Value::Object(map) => {
                    for (k, child) in map {
                        walk(child, &path.child(k.clone()), visit);
                    }
                }
                other => visit(path, other),
            }
            return;
        }
        if let Value::Object(map) = v {
            for (k, child) in map {
                let p = path.child(k.clone());
                if could_lead_southbound(&p) {
                    walk(child, &p, visit);
                }
            }
        }
    }
    walk(doc, base, visit)
}

/// Returns `true` when `path` (relative to a replica root) addresses a
/// southbound-writable location.
fn is_southbound(path: &Path) -> bool {
    let segs = strip_mount_prefixes(path.segments());
    match segs {
        [Segment::Key(c), Segment::Key(_attr), Segment::Key(i), ..]
            if c == "control" && i == "intent" =>
        {
            true
        }
        [Segment::Key(d), Segment::Key(i), _, ..] if d == "data" && i == "input" => true,
        _ => false,
    }
}

/// Returns `true` if descending further below `path` could still reach a
/// southbound location (used to prune the walk).
fn could_lead_southbound(path: &Path) -> bool {
    let segs = strip_mount_prefixes(path.segments());
    match segs {
        [] => true,
        [Segment::Key(k)] => k == "control" || k == "data" || k == "mount",
        [Segment::Key(c), _] if c == "control" => true,
        [Segment::Key(c), _, Segment::Key(i)] if c == "control" => i == "intent",
        [Segment::Key(d), Segment::Key(i)] if d == "data" => i == "input",
        [Segment::Key(m), _] if m == "mount" => true,
        _ => is_southbound(path),
    }
}

/// Strips leading `mount.<Kind>.<name>` triples.
fn strip_mount_prefixes(mut segs: &[Segment]) -> &[Segment] {
    loop {
        match segs {
            [Segment::Key(m), _, _, rest @ ..] if m == "mount" => {
                segs = rest;
            }
            _ => return segs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let path: Path = p.parse().unwrap();
            assert!(is_southbound(&path), "{p} should be southbound");
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
            let path: Path = p.parse().unwrap();
            assert!(!is_southbound(&path), "{p} should not be southbound");
        }
    }

    #[test]
    fn collect_southbound_finds_nested_leaves() {
        let doc = dspace_value::json::parse(
            r#"{
                "mode": "expose", "status": "active", "gen": 3,
                "control": {"power": {"intent": "on", "status": "off"}},
                "data": {"input": {"url": "rtsp://x"}, "output": {"objects": []}},
                "mount": {"Speaker": {"s1": {"control": {"mode": {"intent": "pause", "status": "play"}}}}}
            }"#,
        )
        .unwrap();
        let mut found = Vec::new();
        collect_southbound_leaves(&doc, &Path::root(), &mut |p, v| {
            found.push((p.to_string(), v.clone()));
        });
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let paths: Vec<&str> = found.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                ".control.power.intent",
                ".data.input.url",
                ".mount.Speaker.s1.control.mode.intent",
            ]
        );
    }
}
