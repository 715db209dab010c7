//! The topology admission webhook (§5.2 of the paper).
//!
//! "Topology webhook tracks the latest status of the digi-graph and rejects
//! any invalid changes (e.g., an invalid mount/pipe request) that lead to
//! an invalid digi-graph."
//!
//! The webhook owns the authoritative [`DigiGraph`]: it *reviews* proposed
//! model writes that would change mount references (rejecting mount-rule,
//! cycle, and single-writer violations) and *observes* committed writes to
//! keep the graph current. Pipe requests (`Sync` objects) are checked for
//! the single-writer-per-port rule of §3.2.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dspace_apiserver::{
    AdmissionResponse, AdmissionReview, AdmissionWebhook, Object, ObjectRef, Verb,
};
use dspace_value::path::is_key;
use dspace_value::{Map, Value};

use crate::graph::{DigiGraph, EdgeState, MountMode};
#[cfg(test)]
use crate::model::MOUNT_ACTIVE;
use crate::model::MOUNT_YIELDED;

/// A mount reference as written in a parent model's `.mount` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountRef {
    /// Child object.
    pub child: ObjectRef,
    /// Expose/hide.
    pub mode: MountMode,
    /// Active/yielded.
    pub state: EdgeState,
}

/// Extracts all mount references from a model document.
///
/// The child's namespace is taken from the parent (mounts are
/// namespace-local in this reproduction).
pub fn mount_refs(model: &Value, namespace: &str) -> Vec<MountRef> {
    let mut out = Vec::new();
    let Some(kinds) = model.get_path(".mount").and_then(Value::as_object) else {
        return out;
    };
    for (kind, names) in kinds {
        let Some(names) = names.as_object() else {
            continue;
        };
        for (name, body) in names {
            let mode = body
                .get_path("mode")
                .and_then(Value::as_str)
                .and_then(MountMode::parse)
                .unwrap_or(MountMode::Expose);
            let state = match body.get_path("status").and_then(Value::as_str) {
                Some(MOUNT_YIELDED) => EdgeState::Yielded,
                _ => EdgeState::Active,
            };
            out.push(MountRef {
                child: ObjectRef::new(kind.clone(), namespace, name.clone()),
                mode,
                state,
            });
        }
    }
    out
}

/// Returns `true` when `old` and `new` hold the same mount references:
/// the same children, each with equal raw `mode` and `status` values, so
/// that [`mount_refs`] would return equal lists for the two and neither
/// review nor observe has anything to do. A map both sides share is equal
/// at once. Conservative: `false` means only that the lists may differ.
fn same_mounts(old: Option<&Value>, new: Option<&Value>) -> bool {
    /// Both objects with the same keys whose values pair up under `same`,
    /// or neither an object (`mount_refs` reads nothing from either).
    fn same_map(a: &Value, b: &Value, same: fn(&Value, &Value) -> bool) -> bool {
        match (a, b) {
            (Value::Object(a), Value::Object(b)) => {
                Map::ptr_eq(a, b)
                    || (a.len() == b.len()
                        && a.iter()
                            .zip(b)
                            .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb)))
            }
            (a, b) => a.as_object().is_none() && b.as_object().is_none(),
        }
    }
    fn mounts(model: Option<&Value>) -> &Value {
        model
            .and_then(|m| m.get_path("mount"))
            .unwrap_or(&Value::Null)
    }
    same_map(mounts(old), mounts(new), |a, b| {
        same_map(a, b, |a, b| {
            ["mode", "status"]
                .iter()
                .all(|f| a.get_path(f) == b.get_path(f))
        })
    })
}

/// A pipe target, used for the single-writer-per-port check.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Port {
    target: ObjectRef,
    path: String,
}

fn sync_spec_ports(model: &Value) -> Option<(ObjectRef, Port)> {
    let tgt = model.get_path(".spec.target")?;
    let target = ObjectRef::new(
        tgt.get_path("kind")?.as_str()?,
        tgt.get_path("namespace")
            .and_then(Value::as_str)
            .unwrap_or("default"),
        tgt.get_path("name")?.as_str()?,
    );
    let path = tgt.get_path("path")?.as_str()?.to_string();
    let src = model.get_path(".spec.source")?;
    let source = ObjectRef::new(
        src.get_path("kind")?.as_str()?,
        src.get_path("namespace")
            .and_then(Value::as_str)
            .unwrap_or("default"),
        src.get_path("name")?.as_str()?,
    );
    Some((source, Port { target, path }))
}

/// The topology webhook. Shares the digi-graph with the rest of the
/// runtime through `Rc<RefCell<_>>`.
pub struct TopologyWebhook {
    graph: Rc<RefCell<DigiGraph>>,
    /// Sync object → its target port (for pipe single-writer enforcement).
    ports: BTreeMap<ObjectRef, Port>,
}

impl TopologyWebhook {
    /// Creates the webhook around a shared graph.
    pub fn new(graph: Rc<RefCell<DigiGraph>>) -> Self {
        TopologyWebhook {
            graph,
            ports: BTreeMap::new(),
        }
    }

    fn review_digi(&self, review: &AdmissionReview<'_>) -> AdmissionResponse {
        if same_mounts(review.old, review.new) {
            return AdmissionResponse::Allow;
        }
        let parent = review.oref.clone();
        let ns = &parent.namespace;
        let old_refs = review.old.map(|m| mount_refs(m, ns)).unwrap_or_default();
        let new_refs = review.new.map(|m| mount_refs(m, ns)).unwrap_or_default();
        let graph = self.graph.borrow();

        // Additions must satisfy the mount rule and the single-writer rule.
        for r in &new_refs {
            let existed = old_refs.iter().any(|o| o.child == r.child);
            if !existed {
                if let Err(e) = graph.check_mount(&r.child, &parent) {
                    return AdmissionResponse::Deny(e.to_string());
                }
                if r.state == EdgeState::Active {
                    if let Some(holder) = graph.active_parent(&r.child) {
                        if holder != parent {
                            return AdmissionResponse::Deny(format!(
                                "{} already has an active parent ({holder}); \
                                 new mounts must start yielded",
                                r.child
                            ));
                        }
                    }
                }
            } else {
                // State transitions: yielded -> active needs the writer slot
                // to be free.
                let was = old_refs
                    .iter()
                    .find(|o| o.child == r.child)
                    .expect("existed");
                if was.state == EdgeState::Yielded && r.state == EdgeState::Active {
                    if let Some(holder) = graph.active_parent(&r.child) {
                        if holder != parent {
                            return AdmissionResponse::Deny(format!(
                                "cannot unyield {}: {holder} holds write access",
                                r.child
                            ));
                        }
                    }
                }
            }
        }
        AdmissionResponse::Allow
    }

    fn review_sync(&self, review: &AdmissionReview<'_>) -> AdmissionResponse {
        if review.verb == Verb::Delete {
            return AdmissionResponse::Allow;
        }
        let Some(new) = review.new else {
            return AdmissionResponse::Allow;
        };
        let Some((_source, port)) = sync_spec_ports(new) else {
            return AdmissionResponse::Deny("malformed Sync spec".into());
        };
        // At most one digidata can pipe to an input attribute (§3.2).
        for (existing_ref, existing_port) in &self.ports {
            if existing_ref != review.oref && *existing_port == port {
                return AdmissionResponse::Deny(format!(
                    "port {}{} already written by {existing_ref}",
                    port.target, port.path
                ));
            }
        }
        AdmissionResponse::Allow
    }

    fn observe_digi(&mut self, review: &AdmissionReview<'_>) {
        if same_mounts(review.old, review.new) {
            return;
        }
        let parent = review.oref.clone();
        let ns = &parent.namespace;
        let old_refs = review.old.map(|m| mount_refs(m, ns)).unwrap_or_default();
        let new_refs = review.new.map(|m| mount_refs(m, ns)).unwrap_or_default();
        let mut graph = self.graph.borrow_mut();
        // Removals.
        for o in &old_refs {
            if !new_refs.iter().any(|n| n.child == o.child) {
                let _ = graph.unmount(&o.child, &parent);
            }
        }
        // Additions and state changes.
        for n in &new_refs {
            match old_refs.iter().find(|o| o.child == n.child) {
                None => {
                    // Review already validated; mount() may still downgrade
                    // to yielded per the single-writer rule.
                    let _ = graph.mount(&n.child, &parent, n.mode);
                    if n.state == EdgeState::Yielded {
                        let _ = graph.yield_edge(&n.child, &parent);
                    }
                }
                Some(o) if o.state != n.state => match n.state {
                    EdgeState::Yielded => {
                        let _ = graph.yield_edge(&n.child, &parent);
                    }
                    EdgeState::Active => {
                        let _ = graph.unyield_edge(&n.child, &parent);
                    }
                },
                _ => {}
            }
        }
    }

    /// Rebuilds the webhook's derived state — graph edges and Sync port
    /// claims — from objects recovered out of durable storage. The models
    /// were admitted when they first committed, so edges are re-installed
    /// verbatim ([`DigiGraph::restore`]) rather than re-reviewed: replay
    /// order is namespace order, not commit order, and re-running the
    /// yield-on-second-parent transition could flip edge states.
    pub fn restore(&mut self, objects: &[Object]) {
        let mut graph = self.graph.borrow_mut();
        for obj in objects {
            match obj.oref.kind.as_str() {
                "Sync" => {
                    if let Some((_s, port)) = sync_spec_ports(&obj.model) {
                        self.ports.insert(obj.oref.clone(), port);
                    }
                }
                "Policy" => {}
                _ => {
                    for r in mount_refs(&obj.model, &obj.oref.namespace) {
                        graph.restore(crate::graph::MountEdge {
                            parent: obj.oref.clone(),
                            child: r.child,
                            mode: r.mode,
                            state: r.state,
                        });
                    }
                }
            }
        }
    }

    fn observe_sync(&mut self, review: &AdmissionReview<'_>) {
        match review.verb {
            Verb::Delete => {
                self.ports.remove(review.oref);
            }
            _ => {
                if let Some((_s, port)) = review.new.and_then(sync_spec_ports) {
                    self.ports.insert(review.oref.clone(), port);
                }
            }
        }
    }
}

impl AdmissionWebhook for TopologyWebhook {
    fn name(&self) -> &str {
        "topology"
    }

    fn review(&mut self, review: &AdmissionReview<'_>) -> AdmissionResponse {
        // Digi kinds and names become path keys of the parent's replica
        // (`.mount.<Kind>.<name>`): a dot inside one splits the key, and
        // any other character outside the key grammar makes the replica
        // path unparseable (`[1]` even reads as an index), so such names
        // never enter the space.
        if review.verb == Verb::Create {
            let (kind, name) = (&review.oref.kind, &review.oref.name);
            if name.contains('.') || kind.contains('.') {
                return AdmissionResponse::Deny(format!(
                    "name {} contains '.', which is reserved as the model path separator",
                    review.oref
                ));
            }
            if !is_key(kind) || !is_key(name) {
                return AdmissionResponse::Deny(format!(
                    "name {} is not a model path key: a kind or name must be non-empty \
                     and hold only letters, digits, '_', '-', '/' or ':'",
                    review.oref
                ));
            }
        }
        match review.oref.kind.as_str() {
            "Sync" => self.review_sync(review),
            "Policy" => AdmissionResponse::Allow,
            _ => self.review_digi(review),
        }
    }

    fn observe(&mut self, review: &AdmissionReview<'_>) {
        match review.oref.kind.as_str() {
            "Sync" => self.observe_sync(review),
            "Policy" => {}
            _ => self.observe_digi(review),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_apiserver::{ApiError, ApiServer};
    use dspace_value::json;

    fn digi_model(kind: &str, name: &str) -> Value {
        json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                 "control": {{}}, "mount": {{}}, "obs": {{}}}}"#
        ))
        .unwrap()
    }

    fn setup() -> (ApiServer, Rc<RefCell<DigiGraph>>) {
        let graph = Rc::new(RefCell::new(DigiGraph::new()));
        let mut api = ApiServer::new();
        api.register_webhook(Box::new(TopologyWebhook::new(graph.clone())));
        for (k, n) in [
            ("Lamp", "l1"),
            ("Room", "r1"),
            ("Room", "r2"),
            ("Power", "pc"),
        ] {
            api.create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns(k, n),
                digi_model(k, n),
            )
            .unwrap();
        }
        (api, graph)
    }

    fn mount_patch(kind: &str, name: &str, status: &str) -> (String, Value) {
        (
            format!(".mount.{kind}.{name}"),
            json::parse(&format!(
                r#"{{"mode": "expose", "status": "{status}", "gen": 0}}"#
            ))
            .unwrap(),
        )
    }

    #[test]
    fn dotted_names_are_rejected_at_admission() {
        let (mut api, _graph) = setup();
        // A dot in the digi name would shear `.mount.Lamp.bad.name` into
        // four segments and corrupt the replica path.
        let err = api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Lamp", "bad.name"),
                digi_model("Lamp", "bad.name"),
            )
            .unwrap_err();
        assert!(
            matches!(&err, ApiError::AdmissionDenied { webhook, reason }
                if webhook == "topology" && reason.contains("path separator")),
            "got {err:?}"
        );
        // Dotted kinds are just as unrepresentable.
        assert!(api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("La.mp", "ok"),
                digi_model("La.mp", "ok"),
            )
            .is_err());
        // Dot-free names still pass.
        api.create(
            ApiServer::ADMIN,
            &ObjectRef::default_ns("Lamp", "dot-free"),
            digi_model("Lamp", "dot-free"),
        )
        .unwrap();
    }

    #[test]
    fn names_outside_the_key_grammar_are_rejected_at_admission() {
        let (mut api, _graph) = setup();
        // Each would make `.mount.Node.<name>` unparseable (`[1]` even
        // reads as an index), so the digi could never be mounted.
        for (kind, name) in [
            ("Node", "c h"),
            ("Node", "c[1]"),
            ("Node", "c#1"),
            ("Node", ""),
            ("No de", "ok"),
        ] {
            let err = api
                .create(
                    ApiServer::ADMIN,
                    &ObjectRef::default_ns(kind, name),
                    digi_model(kind, name),
                )
                .unwrap_err();
            assert!(
                matches!(&err, ApiError::AdmissionDenied { webhook, reason }
                    if webhook == "topology" && reason.contains("not a model path key")),
                "{kind}/{name:?}: got {err:?}"
            );
        }
        // Every character the key grammar holds is fine.
        for name in ["c-1", "c_1", "a/b:c", "é1", "42"] {
            api.create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Node", name),
                digi_model("Node", name),
            )
            .unwrap();
        }
    }

    /// A replica body as the Mounter writes it.
    fn replica(mode: &str, status: &str, gen: f64, brightness: f64) -> Value {
        json::parse(&format!(
            r#"{{"mode": "{mode}", "status": "{status}", "gen": {gen},
                 "control": {{"brightness": {{"intent": {brightness}}}}}}}"#
        ))
        .unwrap()
    }

    fn with_mounts(mounts: Value) -> Value {
        let mut m = digi_model("Room", "r1");
        m.set(&".mount".parse().unwrap(), mounts).unwrap();
        m
    }

    #[test]
    fn same_mounts_sees_every_mount_ref_change() {
        let base = with_mounts(dspace_value::object([(
            "Lamp",
            dspace_value::object([
                ("l1", replica("expose", "active", 1.0, 0.5)),
                ("l2", replica("expose", "yielded", 1.0, 0.5)),
            ]),
        )]));
        let edit = |path: &str, v: Value| {
            let mut m = base.clone();
            m.set(&path.parse().unwrap(), v).unwrap();
            m
        };
        // Equal mount references: a shared map, or replica fields other
        // than mode and status changed.
        assert!(same_mounts(Some(&base), Some(&base.clone())));
        assert!(same_mounts(
            Some(&base),
            Some(&edit(
                ".mount.Lamp.l1.control.brightness.intent",
                0.9.into()
            ))
        ));
        assert!(same_mounts(
            Some(&base),
            Some(&edit(
                ".mount.Lamp.l2",
                replica("expose", "yielded", 7.0, 0.1)
            ))
        ));
        assert!(same_mounts(Some(&base), Some(&edit(".obs.x", 1.0.into()))));
        let unmounting = json::parse(r#"{"obs": {}}"#).unwrap();
        assert!(same_mounts(None, Some(&unmounting)));
        // Changed ones: a status flip, a mode change, an added, removed or
        // renamed child, a kind whose entry stops being an object.
        let changed = [
            edit(".mount.Lamp.l2.status", MOUNT_ACTIVE.into()),
            edit(".mount.Lamp.l1.mode", "hide".into()),
            edit(".mount.Lamp.l3", replica("expose", "yielded", 0.0, 0.0)),
            edit(
                ".mount.Scene",
                dspace_value::object([("s1", dspace_value::obj())]),
            ),
            edit(
                ".mount.Lamp",
                dspace_value::object([("l1", replica("expose", "active", 1.0, 0.5))]),
            ),
            edit(".mount.Lamp", Value::Null),
            with_mounts(dspace_value::obj()),
        ];
        for new in &changed {
            assert!(!same_mounts(Some(&base), Some(new)), "{new}");
            assert!(!same_mounts(Some(new), Some(&base)), "{new}");
        }
        assert!(!same_mounts(Some(&base), None));
    }

    #[test]
    fn whole_replica_writes_still_reach_review_and_observe() {
        let (mut api, graph) = setup();
        let r1 = ObjectRef::default_ns("Room", "r1");
        let pc = ObjectRef::default_ns("Power", "pc");
        let lamp = ObjectRef::default_ns("Lamp", "l1");
        api.patch_path(
            ApiServer::ADMIN,
            &r1,
            ".mount.Lamp.l1",
            replica("expose", "active", 0.0, 0.5),
        )
        .unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &pc,
            ".mount.Lamp.l1",
            replica("expose", "yielded", 0.0, 0.5),
        )
        .unwrap();
        // Refreshing pc's yielded replica (new gen and intent) passes and
        // leaves the edges as they were.
        api.patch_path(
            ApiServer::ADMIN,
            &pc,
            ".mount.Lamp.l1",
            replica("expose", "yielded", 3.0, 0.8),
        )
        .unwrap();
        assert_eq!(graph.borrow().active_parent(&lamp), Some(r1.clone()));
        // The same refresh flipping the status to active while r1 holds
        // the child is denied.
        let err = api
            .patch_path(
                ApiServer::ADMIN,
                &pc,
                ".mount.Lamp.l1",
                replica("expose", "active", 4.0, 0.8),
            )
            .unwrap_err();
        assert!(err.to_string().contains("write access"), "{err}");
        // Removing a mount in a write that also edits other sections still
        // updates the graph, and so does adding one.
        let mut model = api.get(ApiServer::ADMIN, &r1).unwrap().model;
        model
            .set(&".obs.note".parse().unwrap(), "x".into())
            .unwrap();
        model.remove(&".mount.Lamp.l1".parse().unwrap());
        api.update(ApiServer::ADMIN, &r1, model.clone(), None)
            .unwrap();
        assert!(graph.borrow().active_parent(&lamp).is_none());
        model
            .set(
                &".mount.Lamp.l1".parse().unwrap(),
                replica("expose", "yielded", 0.0, 0.5),
            )
            .unwrap();
        model
            .set(&".obs.note".parse().unwrap(), "y".into())
            .unwrap();
        api.update(ApiServer::ADMIN, &r1, model, None).unwrap();
        assert_eq!(graph.borrow().parents_of(&lamp).len(), 2);
    }

    #[test]
    fn mount_write_updates_graph() {
        let (mut api, graph) = setup();
        let room = ObjectRef::default_ns("Room", "r1");
        let (path, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &room, &path, v).unwrap();
        let g = graph.borrow();
        assert_eq!(
            g.active_parent(&ObjectRef::default_ns("Lamp", "l1")),
            Some(room)
        );
    }

    #[test]
    fn cycle_rejected_at_admission() {
        let (mut api, _graph) = setup();
        let room = ObjectRef::default_ns("Room", "r1");
        let lamp = ObjectRef::default_ns("Lamp", "l1");
        let (path, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &room, &path, v).unwrap();
        // Now mount the room under the lamp: cycle.
        let (path, v) = mount_patch("Room", "r1", "active");
        let err = api
            .patch_path(ApiServer::ADMIN, &lamp, &path, v)
            .unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn second_active_parent_rejected() {
        let (mut api, _graph) = setup();
        let r1 = ObjectRef::default_ns("Room", "r1");
        let pc = ObjectRef::default_ns("Power", "pc");
        let (path, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &r1, &path, v).unwrap();
        // Power controller claims active: denied.
        let (path, v) = mount_patch("Lamp", "l1", "active");
        let err = api.patch_path(ApiServer::ADMIN, &pc, &path, v).unwrap_err();
        assert!(err.to_string().contains("active parent"), "{err}");
        // Yielded mount is fine.
        let (path, v) = mount_patch("Lamp", "l1", "yielded");
        api.patch_path(ApiServer::ADMIN, &pc, &path, v).unwrap();
    }

    #[test]
    fn yield_transition_tracked_and_unyield_guarded() {
        let (mut api, graph) = setup();
        let r1 = ObjectRef::default_ns("Room", "r1");
        let pc = ObjectRef::default_ns("Power", "pc");
        let lamp = ObjectRef::default_ns("Lamp", "l1");
        let (p1, v1) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &r1, &p1, v1).unwrap();
        let (p2, v2) = mount_patch("Lamp", "l1", "yielded");
        api.patch_path(ApiServer::ADMIN, &pc, &p2, v2).unwrap();
        // Unyield by pc while r1 active: denied.
        let err = api
            .patch_path(
                ApiServer::ADMIN,
                &pc,
                ".mount.Lamp.l1.status",
                MOUNT_ACTIVE.into(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("write access"), "{err}");
        // r1 yields, then pc can take over.
        api.patch_path(
            ApiServer::ADMIN,
            &r1,
            ".mount.Lamp.l1.status",
            MOUNT_YIELDED.into(),
        )
        .unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &pc,
            ".mount.Lamp.l1.status",
            MOUNT_ACTIVE.into(),
        )
        .unwrap();
        assert_eq!(graph.borrow().active_parent(&lamp), Some(pc));
    }

    #[test]
    fn unmount_removes_edge_from_graph() {
        let (mut api, graph) = setup();
        let r1 = ObjectRef::default_ns("Room", "r1");
        let (p, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &r1, &p, v).unwrap();
        api.delete_path(ApiServer::ADMIN, &r1, ".mount.Lamp.l1")
            .unwrap();
        assert!(graph
            .borrow()
            .parents_of(&ObjectRef::default_ns("Lamp", "l1"))
            .is_empty());
        // Can now mount to another room.
        let r2 = ObjectRef::default_ns("Room", "r2");
        let (p, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &r2, &p, v).unwrap();
        assert_eq!(
            graph
                .borrow()
                .active_parent(&ObjectRef::default_ns("Lamp", "l1")),
            Some(r2)
        );
    }

    #[test]
    fn pipe_single_writer_per_port() {
        let (mut api, _graph) = setup();
        let mk = |name: &str, src: &str, dst: &str| {
            json::parse(&format!(
                r#"{{"meta": {{"kind": "Sync", "name": "{name}", "namespace": "default"}},
                     "spec": {{
                        "source": {{"kind": "Scene", "name": "{src}", "path": ".data.output.objects"}},
                        "target": {{"kind": "Stats", "name": "{dst}", "path": ".data.input.objects"}}
                     }}}}"#
            ))
            .unwrap()
        };
        let s1 = ObjectRef::default_ns("Sync", "s1");
        api.create(ApiServer::ADMIN, &s1, mk("s1", "scA", "stats"))
            .unwrap();
        // A second writer to the same target port is rejected.
        let s2 = ObjectRef::default_ns("Sync", "s2");
        let err = api
            .create(ApiServer::ADMIN, &s2, mk("s2", "scB", "stats"))
            .unwrap_err();
        assert!(err.to_string().contains("already written"), "{err}");
        // Deleting the first frees the port.
        api.delete(ApiServer::ADMIN, &s1).unwrap();
        api.create(ApiServer::ADMIN, &s2, mk("s2", "scB", "stats"))
            .unwrap();
    }

    #[test]
    fn diamond_rejected_at_admission() {
        let (mut api, _g) = setup();
        let r1 = ObjectRef::default_ns("Room", "r1");
        let r2 = ObjectRef::default_ns("Room", "r2");
        let pc = ObjectRef::default_ns("Power", "pc");
        // pc -> r1, r1 -> l1. Then pc -> l1 would create a diamond.
        let (p, v) = mount_patch("Room", "r1", "active");
        api.patch_path(ApiServer::ADMIN, &pc, &p, v).unwrap();
        let (p, v) = mount_patch("Lamp", "l1", "active");
        api.patch_path(ApiServer::ADMIN, &r1, &p, v).unwrap();
        let (p, v) = mount_patch("Lamp", "l1", "yielded");
        let err = api.patch_path(ApiServer::ADMIN, &pc, &p, v).unwrap_err();
        assert!(err.to_string().contains("mount rule"), "{err}");
        // An unrelated room can still mount it (multi-root is fine).
        let (p, v) = mount_patch("Lamp", "l1", "yielded");
        api.patch_path(ApiServer::ADMIN, &r2, &p, v).unwrap();
    }
}
