//! The Policer controller (§5.2): adaptive composition via policies.
//!
//! "The policy controller watches all Policy objects … starts watching for
//! changes on these digis and enforces the policy if any of the conditions
//! are triggered." Conditions are reflex programs over the watched digis'
//! models; actions are composition verbs (mount/yield/transfer/…). This is
//! what makes composition *adaptive* (§3.4): a roomba is remounted as it
//! moves between rooms, a home yields to an emergency service when the
//! alarm fires — with no human in the loop.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchEvent, WatchEventKind, WatchId};
use dspace_reflex::Env;
use dspace_simnet::Time;

use crate::graph::DigiGraph;
use crate::policy::{Policy, PolicyAction};
use crate::trace::{Trace, TraceKind};
use crate::verbs;

/// The apiserver subject the policer authenticates as.
pub const SUBJECT: &str = "controller:policer";

/// A planned policer cycle: the policies to (re-)evaluate, decided from
/// the wake-time event batch. Registration bookkeeping (watch extension/
/// narrowing, spec parsing) happens at plan time; condition evaluation
/// and actions run at landing time against landing-time state, exactly
/// as the inline path evaluates against post-registration state.
pub(crate) struct PolicerPlan {
    to_evaluate: Vec<ObjectRef>,
}

impl PolicerPlan {
    /// True when no policy needs evaluation (nothing travels the link).
    pub(crate) fn is_empty(&self) -> bool {
        self.to_evaluate.is_empty()
    }
}

/// The Policer controller.
///
/// Holds no handle to the runtime's digi-graph: graph-reading verbs are
/// handed the live graph cell at landing time.
pub struct Policer {
    policies: BTreeMap<ObjectRef, Policy>,
    /// Last condition value per policy (for edge triggering).
    state: BTreeMap<ObjectRef, bool>,
    /// Reverse map: watched digi → policies watching it. Event dispatch is
    /// one lookup instead of a scan over every policy's watch list, and the
    /// key set is exactly the set of object subscriptions the policer holds
    /// on the apiserver.
    by_watched: BTreeMap<ObjectRef, BTreeSet<ObjectRef>>,
}

impl Default for Policer {
    fn default() -> Self {
        Self::new()
    }
}

impl Policer {
    /// Creates a policer.
    pub fn new() -> Self {
        Policer {
            policies: BTreeMap::new(),
            state: BTreeMap::new(),
            by_watched: BTreeMap::new(),
        }
    }

    /// Number of registered policies.
    pub fn active_policies(&self) -> usize {
        self.policies.len()
    }

    /// Digis the policer currently subscribes to (one object subscription
    /// per entry, refcounted across policies).
    pub fn watched_digis(&self) -> usize {
        self.by_watched.len()
    }

    /// The exact query a policy's watch entry subscribes on the apiserver.
    fn object_query(w: &ObjectRef) -> Query {
        Query::kind(w.kind.as_str())
            .in_ns(w.namespace.as_str())
            .named(w.name.as_str())
    }

    /// Subscribes the policer's watch to every digi in `watch` (one
    /// occurrence per policy; the store refcounts overlapping selectors).
    fn watch_digis(
        &mut self,
        api: &mut ApiServer,
        id: WatchId,
        policy: &ObjectRef,
        watch: &[ObjectRef],
    ) {
        for w in watch {
            if api
                .extend_watch(SUBJECT, id, &Self::object_query(w))
                .is_ok()
            {
                self.by_watched
                    .entry(w.clone())
                    .or_default()
                    .insert(policy.clone());
            }
        }
    }

    /// Drops the subscriptions a removed (or re-parsed) policy held.
    fn unwatch_digis(
        &mut self,
        api: &mut ApiServer,
        id: WatchId,
        policy: &ObjectRef,
        watch: &[ObjectRef],
    ) {
        for w in watch {
            let _ = api.narrow_watch(id, &Self::object_query(w));
            if let Some(holders) = self.by_watched.get_mut(w) {
                holders.remove(policy);
                if holders.is_empty() {
                    self.by_watched.remove(w);
                }
            }
        }
    }

    /// Processes a batch of watch events drained from subscription `watch`.
    ///
    /// The policer owns that subscription's selector set: as policies come
    /// and go it extends the watch with one object query per watched digi
    /// and narrows it back when the last policy watching a digi is deleted.
    /// Events for digis no policy watches are therefore never queued — the
    /// policer does not wake for them at all, rather than waking to discard.
    pub fn process(
        &mut self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        watch: WatchId,
        events: &[WatchEvent],
        trace: &mut Trace,
        now: Time,
    ) {
        let plan = self.plan(api, watch, events, trace, now);
        self.land(api, graph, plan, trace, now);
    }

    /// Drains a batch of watch events into a landable plan: policy
    /// add/remove bookkeeping is applied eagerly (it owns the watch's
    /// selector set and must not lag behind the event stream), while
    /// evaluation is deferred to the returned plan.
    pub(crate) fn plan(
        &mut self,
        api: &mut ApiServer,
        watch: WatchId,
        events: &[WatchEvent],
        trace: &mut Trace,
        now: Time,
    ) -> PolicerPlan {
        let mut to_evaluate: Vec<ObjectRef> = Vec::new();
        for ev in events {
            if ev.oref.kind == "Policy" {
                match ev.kind {
                    WatchEventKind::Deleted => {
                        if let Some(old) = self.policies.remove(&ev.oref) {
                            let targets = old.watch.clone();
                            self.unwatch_digis(api, watch, &ev.oref, &targets);
                        }
                        self.state.remove(&ev.oref);
                    }
                    _ => match Policy::parse(&ev.model) {
                        Ok(p) => {
                            let new_watch = p.watch.clone();
                            let old_watch = self
                                .policies
                                .insert(ev.oref.clone(), p)
                                .map(|old| old.watch)
                                .unwrap_or_default();
                            let added: Vec<ObjectRef> = new_watch
                                .iter()
                                .filter(|w| !old_watch.contains(w))
                                .cloned()
                                .collect();
                            let removed: Vec<ObjectRef> = old_watch
                                .into_iter()
                                .filter(|w| !new_watch.contains(w))
                                .collect();
                            self.unwatch_digis(api, watch, &ev.oref, &removed);
                            self.watch_digis(api, watch, &ev.oref, &added);
                            self.state.remove(&ev.oref);
                            if !to_evaluate.contains(&ev.oref) {
                                to_evaluate.push(ev.oref.clone());
                            }
                        }
                        Err(e) => trace.push(
                            now,
                            TraceKind::PolicyFired,
                            ev.oref.to_string(),
                            format!("rejected: {e}"),
                        ),
                    },
                }
                continue;
            }
            if let Some(holders) = self.by_watched.get(&ev.oref) {
                for id in holders {
                    if !to_evaluate.contains(id) {
                        to_evaluate.push(id.clone());
                    }
                }
            }
        }
        PolicerPlan { to_evaluate }
    }

    /// Evaluates every policy in the plan against current state. `now` is
    /// the landing time; conditions referencing `time` and all emitted
    /// traces use it. `graph` is the *live* digi-graph cell: an action may
    /// mutate the graph through the topology webhook, and the next action
    /// of the same policy must see that mutation (s8's unmount→mount
    /// pair), so freshness cannot come from a wake-time snapshot.
    pub(crate) fn land(
        &mut self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        plan: PolicerPlan,
        trace: &mut Trace,
        now: Time,
    ) {
        let now_s = now as f64 / 1e9;
        for id in plan.to_evaluate {
            self.evaluate(api, graph, &id, trace, now, now_s);
        }
    }

    fn evaluate(
        &mut self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        id: &ObjectRef,
        trace: &mut Trace,
        now: Time,
        now_s: f64,
    ) {
        let Some(policy) = self.policies.get(id).cloned() else {
            return;
        };
        let mut models = Vec::new();
        for w in &policy.watch {
            let Ok(obj) = api.get(SUBJECT, w) else { return };
            models.push((w.name.clone(), (*obj.model).clone()));
        }
        let ctx = policy.context(&models);
        let env = Env::new().with_var("time", now_s.into());
        let value = match policy.condition.eval(&ctx, &env) {
            Ok(v) => v.truthy(),
            Err(e) => {
                trace.push(
                    now,
                    TraceKind::PolicyFired,
                    id.to_string(),
                    format!("error: {e}"),
                );
                return;
            }
        };
        let prev = self.state.insert(id.clone(), value);
        let actions: &[PolicyAction] = match (prev, value) {
            // Rising edge, or a freshly registered policy whose condition
            // already holds: enforce.
            (None, true) | (Some(false), true) => &policy.on_rising,
            (Some(true), false) => &policy.on_falling,
            _ => return,
        };
        if actions.is_empty() {
            return;
        }
        trace.push(
            now,
            TraceKind::PolicyFired,
            id.to_string(),
            format!("condition -> {value}, {} action(s)", actions.len()),
        );
        for action in actions {
            if let Err(e) = self.run_action(api, graph, action) {
                trace.push(
                    now,
                    TraceKind::PolicyFired,
                    id.to_string(),
                    format!("action failed: {e}"),
                );
            } else {
                trace.push(
                    now,
                    TraceKind::Composition,
                    id.to_string(),
                    format!("{action:?}"),
                );
            }
        }
    }

    fn run_action(
        &self,
        api: &mut ApiServer,
        graph: &RefCell<DigiGraph>,
        action: &PolicyAction,
    ) -> Result<(), verbs::VerbError> {
        // Graph-reading verbs get the live cell: the previous action may
        // have moved an edge through the admission webhook, and each verb
        // must see the current topology, not the cycle-start one.
        match action {
            PolicyAction::Mount {
                child,
                parent,
                mode,
            } => verbs::mount(api, graph, SUBJECT, child, parent, *mode).map(|_| ()),
            PolicyAction::Unmount { child, parent } => verbs::unmount(api, SUBJECT, child, parent),
            PolicyAction::Yield { child, parent } => verbs::yield_(api, SUBJECT, child, parent),
            PolicyAction::Unyield { child, parent } => verbs::unyield(api, SUBJECT, child, parent),
            PolicyAction::Transfer { child, from, to } => {
                verbs::transfer(api, graph, SUBJECT, child, from, to)
            }
            PolicyAction::SetIntent {
                target,
                attr,
                value,
            } => verbs::set_intent(api, SUBJECT, target, attr, value.clone()),
            PolicyAction::Pipe {
                source,
                source_attr,
                target,
                target_attr,
            } => {
                let spec = crate::syncer::SyncSpec {
                    source: source.clone(),
                    source_path: format!(".data.output.{source_attr}"),
                    target: target.clone(),
                    target_path: format!(".data.input.{target_attr}"),
                };
                verbs::pipe(api, SUBJECT, &spec).map(|_| ())
            }
            PolicyAction::Unpipe {
                source,
                source_attr,
                target,
                target_attr,
            } => {
                let spec = crate::syncer::SyncSpec {
                    source: source.clone(),
                    source_path: format!(".data.output.{source_attr}"),
                    target: target.clone(),
                    target_path: format!(".data.input.{target_attr}"),
                };
                verbs::unpipe_matching(api, SUBJECT, &spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::topology::TopologyWebhook;
    use dspace_value::{json, yaml, Value};

    fn digi(kind: &str, name: &str) -> Value {
        json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                 "control": {{}}, "mount": {{}}, "obs": {{}}}}"#
        ))
        .unwrap()
    }

    struct Rig {
        api: ApiServer,
        policer: Policer,
        graph: Rc<RefCell<DigiGraph>>,
        watch: dspace_apiserver::WatchId,
        trace: Trace,
    }

    impl Rig {
        fn new() -> Rig {
            let graph = Rc::new(RefCell::new(DigiGraph::new()));
            let mut api = ApiServer::new();
            api.register_webhook(Box::new(TopologyWebhook::new(graph.clone())));
            api.rbac_mut().add_role(dspace_apiserver::Role::new(
                "controller",
                vec![dspace_apiserver::Rule::allow_all()],
            ));
            api.rbac_mut().bind(SUBJECT, "controller");
            let watch = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
            Rig {
                api,
                policer: Policer::new(),
                graph,
                watch,
                trace: Trace::new(),
            }
        }

        /// Drains events and runs the policer until quiescent.
        fn settle(&mut self) {
            for _ in 0..10 {
                let evs = self.api.poll(self.watch);
                if evs.is_empty() {
                    return;
                }
                self.policer.process(
                    &mut self.api,
                    &self.graph,
                    self.watch,
                    &evs,
                    &mut self.trace,
                    0,
                );
            }
        }
    }

    #[test]
    fn s10_emergency_delegation() {
        let mut rig = Rig::new();
        let room = ObjectRef::default_ns("Room", "lvroom");
        let home = ObjectRef::default_ns("Home", "home");
        let city = ObjectRef::default_ns("Emergency", "city");
        for (k, n) in [("Room", "lvroom"), ("Home", "home"), ("Emergency", "city")] {
            rig.api
                .create(ApiServer::ADMIN, &ObjectRef::default_ns(k, n), digi(k, n))
                .unwrap();
        }
        // home controls room.
        verbs::mount(
            &mut rig.api,
            &rig.graph,
            ApiServer::ADMIN,
            &room,
            &home,
            crate::graph::MountMode::Expose,
        )
        .unwrap();
        rig.settle();
        let policy = yaml::parse(
            "
meta: {kind: Policy, name: emergency-yield, namespace: default}
spec:
  watch: [\"Emergency/default/city\"]
  condition: .city.obs.alarm == true
  on_rising:
    - {action: transfer, child: Room/default/lvroom, from: Home/default/home, to: Emergency/default/city}
  on_falling:
    - {action: transfer, child: Room/default/lvroom, from: Emergency/default/city, to: Home/default/home}
",
        )
        .unwrap();
        rig.api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Policy", "emergency-yield"),
                policy,
            )
            .unwrap();
        rig.settle();
        assert_eq!(rig.policer.active_policies(), 1);
        assert_eq!(rig.graph.borrow().active_parent(&room), Some(home.clone()));

        // Alarm fires: control transfers to the city service.
        rig.api
            .patch_path(ApiServer::ADMIN, &city, ".obs.alarm", true.into())
            .unwrap();
        rig.settle();
        assert_eq!(rig.graph.borrow().active_parent(&room), Some(city.clone()));

        // Alarm clears: control returns to the home.
        rig.api
            .patch_path(ApiServer::ADMIN, &city, ".obs.alarm", false.into())
            .unwrap();
        rig.settle();
        assert_eq!(rig.graph.borrow().active_parent(&room), Some(home));
        // The city keeps a yielded mount (it continues to watch).
        assert_eq!(
            rig.graph.borrow().edge(&city, &room).unwrap().state,
            crate::graph::EdgeState::Yielded
        );
    }

    #[test]
    fn s8_mobility_mount_policy() {
        let mut rig = Rig::new();
        let roomba = ObjectRef::default_ns("Roomba", "rb");
        let room_a = ObjectRef::default_ns("Room", "a");
        let room_b = ObjectRef::default_ns("Room", "b");
        for (k, n) in [("Roomba", "rb"), ("Room", "a"), ("Room", "b")] {
            rig.api
                .create(ApiServer::ADMIN, &ObjectRef::default_ns(k, n), digi(k, n))
                .unwrap();
        }
        verbs::mount(
            &mut rig.api,
            &rig.graph,
            ApiServer::ADMIN,
            &roomba,
            &room_a,
            crate::graph::MountMode::Expose,
        )
        .unwrap();
        rig.settle();
        // Unmount from A and mount to B when A no longer sees the roomba
        // in its objects list (S8's mount policy).
        let policy = yaml::parse(
            "
meta: {kind: Policy, name: roomba-mobility, namespace: default}
spec:
  watch: [\"Room/default/a\"]
  condition: .a.obs.objects and (.a.obs.objects | contains([\"roomba\"]) | not)
  on_rising:
    - {action: unmount, child: Roomba/default/rb, parent: Room/default/a}
    - {action: mount, child: Roomba/default/rb, parent: Room/default/b}
",
        )
        .unwrap();
        rig.api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Policy", "roomba-mobility"),
                policy,
            )
            .unwrap();
        rig.settle();
        // Roomba still visible in room a: nothing happens.
        rig.api
            .patch_path(
                ApiServer::ADMIN,
                &room_a,
                ".obs.objects",
                dspace_value::array(["person".into(), "roomba".into()]),
            )
            .unwrap();
        rig.settle();
        assert_eq!(
            rig.graph.borrow().active_parent(&roomba),
            Some(room_a.clone())
        );
        // Roomba left the camera view of room a: remounted to room b.
        rig.api
            .patch_path(
                ApiServer::ADMIN,
                &room_a,
                ".obs.objects",
                dspace_value::array(["person".into()]),
            )
            .unwrap();
        rig.settle();
        assert_eq!(rig.graph.borrow().active_parent(&roomba), Some(room_b));
        assert!(rig.graph.borrow().edge(&room_a, &roomba).is_none());
    }

    #[test]
    fn consecutive_set_intents_fan_out_across_namespaces() {
        let mut rig = Rig::new();
        let alarm = ObjectRef::default_ns("Alarm", "alarm");
        rig.api
            .create(ApiServer::ADMIN, &alarm, digi("Alarm", "alarm"))
            .unwrap();
        // Lamps in two tenant namespaces: the fan-out spans shards.
        for ns in ["tenant-a", "tenant-b"] {
            let mut m = digi("Lamp", "l1");
            m.set(&".meta.namespace".parse().unwrap(), ns.into())
                .unwrap();
            rig.api
                .create(ApiServer::ADMIN, &ObjectRef::new("Lamp", ns, "l1"), m)
                .unwrap();
        }
        rig.settle();
        let policy = yaml::parse(
            "
meta: {kind: Policy, name: lights-out, namespace: default}
spec:
  watch: [\"Alarm/default/alarm\"]
  condition: .alarm.obs.night == true
  on_rising:
    - {action: set-intent, target: Lamp/tenant-a/l1, attr: power, value: \"off\"}
    - {action: set-intent, target: Lamp/tenant-b/l1, attr: power, value: \"off\"}
",
        )
        .unwrap();
        rig.api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Policy", "lights-out"),
                policy,
            )
            .unwrap();
        rig.settle();
        rig.api
            .patch_path(ApiServer::ADMIN, &alarm, ".obs.night", true.into())
            .unwrap();
        rig.settle();
        for ns in ["tenant-a", "tenant-b"] {
            let v = rig
                .api
                .get_path(
                    ApiServer::ADMIN,
                    &ObjectRef::new("Lamp", ns, "l1"),
                    ".control.power.intent",
                )
                .unwrap();
            assert_eq!(v.as_str(), Some("off"), "{ns} lamp not switched off");
        }
        // Both actions traced as committed compositions.
        let composed = rig
            .trace
            .entries()
            .iter()
            .filter(|e| e.kind == TraceKind::Composition && e.detail.contains("SetIntent"))
            .count();
        assert_eq!(composed, 2);
    }

    #[test]
    fn broken_policy_is_rejected_not_fatal() {
        let mut rig = Rig::new();
        let bad = yaml::parse(
            "meta: {kind: Policy, name: bad, namespace: default}\nspec:\n  condition: \"true\"\n",
        )
        .unwrap();
        rig.api
            .create(
                ApiServer::ADMIN,
                &ObjectRef::default_ns("Policy", "bad"),
                bad,
            )
            .unwrap();
        rig.settle();
        assert_eq!(rig.policer.active_policies(), 0);
        assert!(rig
            .trace
            .entries()
            .iter()
            .any(|e| e.kind == TraceKind::PolicyFired && e.detail.contains("rejected")));
    }
}
