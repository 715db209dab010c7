//! The Syncer controller (§5.2): data-flow composition for `pipe`.
//!
//! `pipe(A, B)` is implemented as a `Sync` API object naming a source
//! `(digi, path)` and a target `(digi, path)`. The syncer watches `Sync`
//! objects and the models they reference: whenever the value at a source
//! path changes, it is copied to the target path. If the source value is a
//! pointer to data (e.g. a stream URL), only the pointer is copied (§3.2) —
//! which falls out naturally from value semantics.

use std::collections::BTreeMap;

use dspace_apiserver::{ApiServer, ObjectRef, WatchEvent, WatchEventKind};
use dspace_value::Value;

use crate::batch::WriteBatch;

/// The apiserver subject the syncer authenticates as.
pub const SUBJECT: &str = "controller:syncer";

/// A parsed Sync spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncSpec {
    /// Source digi.
    pub source: ObjectRef,
    /// Attribute path in the source model.
    pub source_path: String,
    /// Target digi.
    pub target: ObjectRef,
    /// Attribute path in the target model.
    pub target_path: String,
}

impl SyncSpec {
    /// Parses a Sync object's model.
    pub fn parse(model: &Value) -> Option<SyncSpec> {
        let end = |side: &str, field: &str| -> Option<String> {
            model
                .get_path(&format!(".spec.{side}.{field}"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let oref = |side: &str| -> Option<ObjectRef> {
            Some(ObjectRef::new(
                end(side, "kind")?,
                end(side, "namespace").unwrap_or_else(|| "default".into()),
                end(side, "name")?,
            ))
        };
        Some(SyncSpec {
            source: oref("source")?,
            source_path: end("source", "path")?,
            target: oref("target")?,
            target_path: end("target", "path")?,
        })
    }

    /// Builds the Sync object's model document.
    pub fn to_model(&self, name: &str) -> Value {
        let side = |oref: &ObjectRef, path: &str| {
            dspace_value::object([
                ("kind", Value::from(oref.kind.as_str())),
                ("namespace", Value::from(oref.namespace.as_str())),
                ("name", Value::from(oref.name.as_str())),
                ("path", Value::from(path)),
            ])
        };
        dspace_value::object([
            (
                "meta",
                dspace_value::object([
                    ("kind", Value::from("Sync")),
                    ("name", Value::from(name)),
                    ("namespace", Value::from("default")),
                ]),
            ),
            (
                "spec",
                dspace_value::object([
                    ("source", side(&self.source, &self.source_path)),
                    ("target", side(&self.target, &self.target_path)),
                ]),
            ),
        ])
    }
}

/// A `last`-cache insert to apply after the cycle's writes commit.
struct LastEffect {
    /// Gate: only insert if this ticket's op committed. `None` means no
    /// write was needed (target already matched) — insert unconditionally.
    ticket: Option<usize>,
    id: ObjectRef,
    value: Value,
}

/// A planned syncer cycle: propagation writes (committed per-op, or
/// queued for one batch) plus the commit-gated `last`-cache inserts that
/// ride on them. Planning runs against the wake-time store; the plan lands
/// immediately (inline cycle) or later (deferred cycle).
pub(crate) struct SyncerPlan {
    pub(crate) batch: WriteBatch,
    effects: Vec<LastEffect>,
}

/// The Syncer controller.
#[derive(Debug, Default)]
pub struct Syncer {
    specs: BTreeMap<ObjectRef, SyncSpec>,
    /// Last value propagated per Sync object, to avoid redundant writes.
    last: BTreeMap<ObjectRef, Value>,
}

impl Syncer {
    /// Creates an empty syncer.
    pub fn new() -> Self {
        Syncer::default()
    }

    /// Number of active Sync specs (for tests/diagnostics).
    pub fn active_syncs(&self) -> usize {
        self.specs.len()
    }

    /// Processes a batch of watch events inline: each propagation write
    /// commits as it is decided; `last`-cache updates are applied
    /// afterwards, gated on their write's result.
    pub fn process(&mut self, api: &mut ApiServer, events: &[WatchEvent]) {
        let plan = self.plan(api, events, false);
        self.land(api, plan);
    }

    /// Drains a batch of watch events into a landable plan: Sync
    /// registrations are applied eagerly (spec/cache bookkeeping);
    /// propagation writes queue on the plan's read-your-writes overlay
    /// when `batched` (a deferred cycle) and land after the cycle's delays,
    /// each through its serial verb; otherwise they commit immediately (an
    /// inline cycle).
    pub(crate) fn plan(
        &mut self,
        api: &mut ApiServer,
        events: &[WatchEvent],
        batched: bool,
    ) -> SyncerPlan {
        let mut batch = WriteBatch::new(SUBJECT, batched);
        let mut effects: Vec<LastEffect> = Vec::new();
        for ev in events {
            if ev.oref.kind == "Sync" {
                match ev.kind {
                    WatchEventKind::Deleted => {
                        self.specs.remove(&ev.oref);
                        self.last.remove(&ev.oref);
                        // Drop pending cache inserts for the dead sync:
                        // per-op they would have been inserted and then
                        // removed right here.
                        effects.retain(|e| e.id != ev.oref);
                    }
                    _ => {
                        if let Some(spec) = SyncSpec::parse(&ev.model) {
                            self.specs.insert(ev.oref.clone(), spec);
                            // Initial propagation on pipe creation.
                            self.propagate_for_sync(
                                api,
                                &mut batch,
                                &mut effects,
                                &ev.oref.clone(),
                            );
                        }
                    }
                }
                continue;
            }
            // A model changed: propagate every sync sourced from it.
            let sync_ids: Vec<ObjectRef> = self
                .specs
                .iter()
                .filter(|(_, s)| s.source == ev.oref)
                .map(|(id, _)| id.clone())
                .collect();
            for id in sync_ids {
                self.propagate_for_sync(api, &mut batch, &mut effects, &id);
            }
        }
        SyncerPlan { batch, effects }
    }

    /// Commits a plan's batch (OCC re-validated against its plan-time
    /// reads), applies the gated `last`-cache inserts, and returns how many
    /// objects failed validation.
    pub(crate) fn land(&mut self, api: &mut ApiServer, plan: SyncerPlan) -> u64 {
        let (results, conflicts) = plan.batch.commit(api);
        for e in plan.effects {
            let committed = match e.ticket {
                Some(t) => results[t].is_ok(),
                None => true,
            };
            if committed {
                self.last.insert(e.id, e.value);
            }
        }
        conflicts
    }

    fn propagate_for_sync(
        &mut self,
        api: &mut ApiServer,
        batch: &mut WriteBatch,
        effects: &mut Vec<LastEffect>,
        id: &ObjectRef,
    ) {
        let Some(spec) = self.specs.get(id).cloned() else {
            return;
        };
        // Reads go through the batch: a propagation later in the pass
        // observes earlier queued writes, exactly as it would have
        // observed their commits under per-op writes.
        let Ok(value) = batch.get_path(api, &spec.source, &spec.source_path) else {
            return;
        };
        if value.is_null() {
            return;
        }
        if self.last.get(id) == Some(&value) {
            return;
        }
        // Read the current target value: skip the write when it already
        // matches (keeps the event log quiet and loops convergent).
        let current = batch
            .get_path(api, &spec.target, &spec.target_path)
            .unwrap_or(Value::Null);
        let ticket = if current != value {
            Some(batch.patch_path(api, &spec.target, &spec.target_path, value.clone()))
        } else {
            None
        };
        effects.push(LastEffect {
            ticket,
            id: id.clone(),
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_apiserver::{ApiServer, Query};
    use dspace_value::json;

    fn digidata(kind: &str, name: &str) -> Value {
        json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                 "data": {{"input": {{"url": null, "objects": null}},
                            "output": {{"url": null, "objects": null}}}}}}"#
        ))
        .unwrap()
    }

    fn setup() -> (ApiServer, Syncer, ObjectRef, ObjectRef) {
        let mut api = ApiServer::new();
        api.rbac_mut().add_role(dspace_apiserver::Role::new(
            "controller",
            vec![dspace_apiserver::Rule::allow_all()],
        ));
        api.rbac_mut().bind(SUBJECT, "controller");
        let cam = ObjectRef::default_ns("Xcdr", "x1");
        let scene = ObjectRef::default_ns("Scene", "sc1");
        api.create(ApiServer::ADMIN, &cam, digidata("Xcdr", "x1"))
            .unwrap();
        api.create(ApiServer::ADMIN, &scene, digidata("Scene", "sc1"))
            .unwrap();
        (api, Syncer::new(), cam, scene)
    }

    fn create_sync(api: &mut ApiServer, syncer: &mut Syncer, spec: &SyncSpec, name: &str) {
        let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
        let sref = ObjectRef::default_ns("Sync", name);
        api.create(ApiServer::ADMIN, &sref, spec.to_model(name))
            .unwrap();
        let evs = api.poll(w);
        syncer.process(api, &evs);
        api.cancel_watch(w);
    }

    #[test]
    fn pipe_copies_output_to_input() {
        let (mut api, mut syncer, xcdr, scene) = setup();
        let spec = SyncSpec {
            source: xcdr.clone(),
            source_path: ".data.output.url".into(),
            target: scene.clone(),
            target_path: ".data.input.url".into(),
        };
        create_sync(&mut api, &mut syncer, &spec, "s1");
        assert_eq!(syncer.active_syncs(), 1);
        // Source update propagates.
        let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &xcdr,
            ".data.output.url",
            "rtsp://out/1".into(),
        )
        .unwrap();
        let evs = api.poll(w);
        syncer.process(&mut api, &evs);
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &scene, ".data.input.url")
                .unwrap()
                .as_str(),
            Some("rtsp://out/1")
        );
    }

    #[test]
    fn initial_value_propagates_on_pipe_creation() {
        let (mut api, mut syncer, xcdr, scene) = setup();
        api.patch_path(
            ApiServer::ADMIN,
            &xcdr,
            ".data.output.url",
            "rtsp://pre".into(),
        )
        .unwrap();
        let spec = SyncSpec {
            source: xcdr.clone(),
            source_path: ".data.output.url".into(),
            target: scene.clone(),
            target_path: ".data.input.url".into(),
        };
        create_sync(&mut api, &mut syncer, &spec, "s1");
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &scene, ".data.input.url")
                .unwrap()
                .as_str(),
            Some("rtsp://pre")
        );
    }

    #[test]
    fn deleted_sync_stops_propagating() {
        let (mut api, mut syncer, xcdr, scene) = setup();
        let spec = SyncSpec {
            source: xcdr.clone(),
            source_path: ".data.output.url".into(),
            target: scene.clone(),
            target_path: ".data.input.url".into(),
        };
        create_sync(&mut api, &mut syncer, &spec, "s1");
        let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
        api.delete(ApiServer::ADMIN, &ObjectRef::default_ns("Sync", "s1"))
            .unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &xcdr,
            ".data.output.url",
            "rtsp://late".into(),
        )
        .unwrap();
        let evs = api.poll(w);
        syncer.process(&mut api, &evs);
        assert_eq!(syncer.active_syncs(), 0);
        assert!(api
            .get_path(ApiServer::ADMIN, &scene, ".data.input.url")
            .unwrap()
            .is_null());
    }

    #[test]
    fn fan_out_to_multiple_targets() {
        // One digidata may pipe to multiple others (§3.2).
        let (mut api, mut syncer, xcdr, scene) = setup();
        let stats = ObjectRef::default_ns("Stats", "st1");
        api.create(ApiServer::ADMIN, &stats, digidata("Stats", "st1"))
            .unwrap();
        for (i, target) in [&scene, &stats].into_iter().enumerate() {
            let spec = SyncSpec {
                source: xcdr.clone(),
                source_path: ".data.output.objects".into(),
                target: target.clone(),
                target_path: ".data.input.objects".into(),
            };
            create_sync(&mut api, &mut syncer, &spec, &format!("s{i}"));
        }
        let w = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &xcdr,
            ".data.output.objects",
            dspace_value::array(["person".into()]),
        )
        .unwrap();
        let evs = api.poll(w);
        syncer.process(&mut api, &evs);
        for target in [&scene, &stats] {
            assert_eq!(
                api.get_path(ApiServer::ADMIN, target, ".data.input.objects")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .len(),
                1,
                "target {target} did not receive the objects"
            );
        }
    }

    #[test]
    fn spec_roundtrip() {
        let spec = SyncSpec {
            source: ObjectRef::default_ns("A", "a"),
            source_path: ".data.output.x".into(),
            target: ObjectRef::default_ns("B", "b"),
            target_path: ".data.input.x".into(),
        };
        let model = spec.to_model("s");
        assert_eq!(SyncSpec::parse(&model), Some(spec));
        assert_eq!(SyncSpec::parse(&Value::Null), None);
    }
}
