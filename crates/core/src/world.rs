//! The runtime world: components exchanging state through the apiserver.
//!
//! The paper's architecture (§5, Fig. 5) runs digis and controllers as
//! separate pods that coordinate *only* via the apiserver. This module
//! keeps that discipline in a deterministic, simulated form: each
//! component (Mounter, Syncer, Policer, every digi driver, and the user's
//! CLI) owns a watch subscription; when the apiserver has pending events
//! for a component, a *wake* is scheduled after that component's network
//! link latency; the woken component drains its watch and reacts, possibly
//! committing further model writes — which schedule further wakes.
//!
//! This per-hop wake latency is exactly what the paper measures as forward
//! and backward propagation time (Figure 7).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use dspace_apiserver::{
    ApiServer, CoalescedEvent, Object, ObjectRef, Query, Role, Rule, Verb, WalError, WatchId,
};
use dspace_simnet::{Delivery, LatencyModel, Link, Metrics, RetryPolicy, Rng, Sim, Stopwatch};
use dspace_value::{KindSchema, Value};

use crate::actuator::Actuator;
use crate::driver::{Driver, Effect};
use crate::graph::DigiGraph;
use crate::mounter::Mounter;
use crate::policer::Policer;
use crate::space::SpaceConfig;
use crate::syncer::Syncer;
use crate::topology::TopologyWebhook;
use crate::trace::{Trace, TraceKind};

/// Network link latencies for the deployment being simulated.
#[derive(Debug, Clone)]
pub struct LinkSet {
    /// Controllers ↔ apiserver (same node or control-plane-local).
    pub controller: Link,
    /// Digi driver pods ↔ apiserver.
    pub driver: Link,
    /// The user's CLI ↔ apiserver.
    pub user: Link,
}

impl Default for LinkSet {
    /// On-prem-ish defaults (minikube on a single host).
    fn default() -> Self {
        LinkSet {
            controller: Link::new("controller", dspace_simnet::LatencyModel::FixedMs(2.0)),
            driver: Link::new("driver", dspace_simnet::LatencyModel::FixedMs(8.0)),
            user: Link::new("user", dspace_simnet::LatencyModel::FixedMs(10.0)),
        }
    }
}

/// A digi driver plus its reconcile-loop state.
pub struct DriverRuntime {
    /// The digi this driver reconciles.
    pub oref: ObjectRef,
    /// Authenticated subject of this driver.
    pub subject: String,
    driver: Driver,
    last_model: Value,
    last_written: Option<u64>,
}

/// The user's CLI session: watches models and records when updates become
/// visible to the user (the BPT endpoint of Figure 7).
#[derive(Default)]
struct UserCli {
    cache: BTreeMap<ObjectRef, Value>,
}

enum Component {
    Mounter(Mounter),
    Syncer(Syncer),
    Policer(Policer),
    Driver(DriverRuntime),
    User(UserCli),
}

/// A controller cycle's planned work, decided against wake-time snapshots
/// and carried through the deferred busy → link → admission → landing
/// pipeline.
enum ControllerPlan {
    Mounter(crate::mounter::MounterPlan),
    Syncer(crate::syncer::SyncerPlan),
    Policer(crate::policer::PolicerPlan),
}

impl ControllerPlan {
    /// True when nothing travels the wire (no queued write / evaluation).
    fn is_empty(&self) -> bool {
        match self {
            ControllerPlan::Mounter(p) => p.batch.queued_ops() == 0,
            ControllerPlan::Syncer(p) => p.batch.queued_ops() == 0,
            ControllerPlan::Policer(p) => p.is_empty(),
        }
    }
}

/// One reconcile step a driver cycle computed for a single watch event.
/// Traces, error counts, and device effects replay at landing, in step
/// order, so actuator RNG draws follow the event order.
struct DriverStep {
    /// First 8 changed paths, `;`-joined (the `DriverReconciled` detail).
    changed: String,
    errors: Vec<String>,
    effects: Vec<Effect>,
}

/// A computed driver cycle: per-event steps plus the model commits queued
/// for transmission over the driver link.
struct DriverCycle {
    foreign_events: u64,
    steps: Vec<DriverStep>,
    commits: VecDeque<PendingCommit>,
}

/// The compute of one driver reconcile cycle: a function of the runtime's
/// cached model, the drained events, and the landing-time clock — no
/// store, graph, shared-RNG, or trace access.
fn run_driver_cycle(rt: &mut DriverRuntime, events: &[CoalescedEvent], now_s: f64) -> DriverCycle {
    let mut cycle = DriverCycle {
        foreign_events: 0,
        steps: Vec::new(),
        commits: VecDeque::new(),
    };
    for ce in events {
        let ev = &ce.event;
        if ev.oref != rt.oref {
            // With per-object subscriptions this never fires; the counter
            // exists so tests/benches can assert drivers no longer receive
            // (and discard) other digis' events.
            cycle.foreign_events += 1;
            continue;
        }
        if ev.kind == dspace_apiserver::WatchEventKind::Deleted {
            continue;
        }
        // Skip the echo of the driver's own previous write (Fig. 4:
        // "unless the update is caused by the previous reconciliation").
        if rt.last_written == Some(ev.resource_version) {
            rt.last_model = ev.model.clone();
            continue;
        }
        let result = rt.driver.reconcile(&rt.last_model, &ev.model, now_s);
        // The first 8 of `result.changes`, rendered without their paths.
        let changed = dspace_value::changed_paths(&rt.last_model, &ev.model, 8);
        rt.last_model = ev.model.clone();
        if result.model != ev.model {
            cycle.commits.push_back(PendingCommit {
                model: result.model,
                expected: ev.resource_version,
            });
        }
        cycle.steps.push(DriverStep {
            changed,
            errors: result.errors,
            effects: result.effects,
        });
    }
    cycle
}

/// How a component's watch subscription is maintained.
#[derive(Clone, Copy)]
enum SlotScope {
    /// The subscription is fixed at creation (drivers, the user CLI).
    Fixed,
    /// A space-wide controller: its subscription grows to cover
    /// `(system_kinds ∪ digi kinds) × namespaces` as kinds are registered
    /// and namespaces appear — every shard it owns, and nothing else.
    Space {
        /// Non-digi kinds this controller owns (e.g. `Sync` for the
        /// syncer), subscribed alongside every digi kind.
        system_kinds: &'static [&'static str],
    },
    /// A controller that subscribes only to its system kinds per
    /// namespace and manages any further subscriptions itself (the
    /// policer: it extends its watch with one object query per digi a
    /// policy watches, and narrows it back when the policy goes away —
    /// so digi churn no policy cares about never wakes it).
    System {
        /// The system kinds subscribed in every namespace.
        system_kinds: &'static [&'static str],
    },
}

struct ComponentSlot {
    name: String,
    watch: WatchId,
    link: Link,
    woken: bool,
    /// A reconcile cycle is in flight (its completion event is scheduled).
    /// Driver slots and — under the async controller runtime — controller
    /// slots go busy; the user CLI stays synchronous.
    busy: bool,
    /// A wake arrived while busy. Completion re-polls, so however many
    /// events queued up mid-reconcile, they land as exactly one follow-up
    /// cycle.
    dirty: bool,
    scope: SlotScope,
    /// Per-slot counter keys, interned at registration so the hot drop/
    /// retry paths never re-allocate the `"metric:{name}"` strings.
    wake_drops_key: String,
    retries_key: String,
    gave_up_key: String,
    followups_key: String,
    kind: Component,
}

/// A simulated device or data engine attached to a leaf digi, with the
/// names its actuations are counted under, built once when it is attached.
struct Attached {
    actuator: Box<dyn Actuator>,
    /// The device name, for `DeviceDone` trace details.
    device: Rc<str>,
    /// `bytes:<device>`: the bytes its actuations transfer.
    bytes_key: String,
    /// `dt_ms:<digi>`: the device time of each actuation that lands.
    dt_key: Rc<str>,
}

/// A model write a driver decided on during a reconcile, waiting to
/// traverse the driver link (and survive its faults) before committing.
struct PendingCommit {
    model: Value,
    /// OCC precondition: the resource version the reconcile ran against.
    expected: u64,
}

/// The complete runtime state mutated by simulation events.
pub struct World {
    /// The apiserver (object store + admission + RBAC).
    pub api: ApiServer,
    /// The digi-graph, shared with the topology webhook.
    ///
    /// Deliberately `Rc`, not `Arc`: admission (and thus every webhook)
    /// runs on the thread that drives the world, the same one that
    /// commits every write, so the graph needs no `Send` bound.
    pub graph: Rc<RefCell<DigiGraph>>,
    /// Deterministic randomness for links and devices.
    pub rng: Rng,
    /// Experiment metrics.
    pub metrics: Metrics,
    /// Structured event trace.
    pub trace: Trace,
    /// Link latencies.
    pub links: LinkSet,
    slots: Vec<ComponentSlot>,
    /// Slots that may have undelivered watch events, maintained from the
    /// store's dirty-watcher feed so `pump` never scans quiescent slots.
    pending_slots: BTreeSet<usize>,
    /// Watch subscription → owning slot, for routing the dirty feed.
    watch_slots: BTreeMap<WatchId, usize>,
    /// Duration of one driver reconcile cycle (the work between draining
    /// the watch and deciding on a commit). `FixedMs(0)` keeps the legacy
    /// instantaneous behavior.
    reconcile_latency: LatencyModel,
    /// Duration of one controller reconcile cycle (mounter/syncer/policer).
    /// `FixedMs(0)` keeps the legacy instantaneous behavior.
    controller_reconcile: LatencyModel,
    /// Apiserver-side admission stage for deferred controller batches,
    /// modeled separately from the link so the two delays are
    /// independently attributable.
    admission: LatencyModel,
    /// Link the controllers' deferred writes travel (their wake link when
    /// unset).
    controller_write: Option<Link>,
    actuators: BTreeMap<ObjectRef, Attached>,
    /// Digi kinds registered so far; space-scoped controllers subscribe to
    /// each of them in every known namespace.
    digi_kinds: BTreeSet<String>,
    /// Namespaces with at least one digi (always includes `default`).
    namespaces: BTreeSet<String>,
}

impl World {
    /// Builds a world from `config`: the three dSpace controllers, the
    /// topology webhook and a user CLI component, on an in-memory
    /// apiserver or, with `config.durability`, on a durable one that
    /// recovers whatever a previous incarnation committed there. Recovered
    /// models come back through the store, and the digi-graph plus Sync
    /// port claims are rebuilt from them before the topology webhook starts
    /// reviewing new writes. Components (drivers, devices) are *not*
    /// persisted — re-add them after opening, exactly as on a fresh world.
    pub fn open(config: SpaceConfig) -> Result<Self, WalError> {
        let mut api = match config.durability {
            Some(opts) => ApiServer::open(opts)?,
            None => ApiServer::new(),
        };
        let graph = Rc::new(RefCell::new(DigiGraph::new()));
        let mut topology = TopologyWebhook::new(graph.clone());
        // A recovered store already holds committed models; rebuild the
        // webhook's derived state from them before it reviews anything.
        let recovered: Vec<Object> = api.dump();
        if !recovered.is_empty() {
            topology.restore(&recovered);
        }
        api.register_webhook(Box::new(topology));
        // Controller and user roles (§3.6): controllers get broad access;
        // the user (home owner) gets full access to digi models.
        api.rbac_mut()
            .add_role(Role::new("controller", vec![Rule::allow_all()]));
        for subject in [
            crate::mounter::SUBJECT,
            crate::syncer::SUBJECT,
            crate::policer::SUBJECT,
        ] {
            api.rbac_mut().bind(subject, "controller");
        }
        api.rbac_mut().add_role(Role::new(
            "home-owner",
            vec![Rule::new(
                [
                    Verb::Get,
                    Verb::List,
                    Verb::Watch,
                    Verb::Patch,
                    Verb::Create,
                    Verb::Update,
                    Verb::Delete,
                ],
                ["*"],
                ["*"],
            )],
        ));
        api.rbac_mut().bind("user", "home-owner");

        let mut world = World {
            api,
            graph: graph.clone(),
            rng: Rng::new(config.seed),
            metrics: Metrics::new(),
            trace: Trace::new(),
            links: config.links,
            slots: Vec::new(),
            pending_slots: BTreeSet::new(),
            watch_slots: BTreeMap::new(),
            reconcile_latency: config.reconcile,
            controller_reconcile: config.controller_reconcile,
            admission: config.admission,
            controller_write: config.controller_write,
            actuators: BTreeMap::new(),
            digi_kinds: BTreeSet::new(),
            namespaces: BTreeSet::new(),
        };
        let controller_link = world.links.controller.clone();
        let user_link = world.links.user.clone();
        // Controllers start with empty subscriptions that grow to exactly
        // the kinds/namespaces they own (via `register_kind` and
        // `ensure_namespace`); only the user CLI keeps the global view.
        // Digi drivers (added later) subscribe to their own object.
        world.add_slot(
            "mounter",
            ApiServer::ADMIN,
            Vec::new(),
            controller_link.clone(),
            SlotScope::Space { system_kinds: &[] },
            Component::Mounter(Mounter::new()),
        );
        world.add_slot(
            "syncer",
            ApiServer::ADMIN,
            Vec::new(),
            controller_link.clone(),
            SlotScope::Space {
                system_kinds: &["Sync"],
            },
            Component::Syncer(Syncer::new()),
        );
        world.add_slot(
            "policer",
            ApiServer::ADMIN,
            Vec::new(),
            controller_link,
            SlotScope::System {
                system_kinds: &["Policy"],
            },
            Component::Policer(Policer::new()),
        );
        world.add_slot(
            "user-cli",
            "user",
            vec![Query::all()],
            user_link,
            SlotScope::Fixed,
            Component::User(UserCli::default()),
        );
        world.ensure_namespace("default");
        // Recovered namespaces are live: re-announce them so space-scoped
        // controllers subscribe there just as they would have pre-crash.
        for obj in &recovered {
            world.ensure_namespace(&obj.oref.namespace);
        }
        Ok(world)
    }

    fn add_slot(
        &mut self,
        name: &str,
        subject: &str,
        queries: Vec<Query>,
        link: Link,
        scope: SlotScope,
        kind: Component,
    ) {
        let watch = self
            .api
            .watch_queries(subject, &queries)
            .expect("component subject authorized to watch its queries");
        let tier = if matches!(kind, Component::Driver(_)) {
            "driver"
        } else {
            "controller"
        };
        self.watch_slots.insert(watch, self.slots.len());
        self.slots.push(ComponentSlot {
            name: name.to_string(),
            watch,
            link,
            woken: false,
            busy: false,
            dirty: false,
            scope,
            wake_drops_key: format!("wake_drops:{name}"),
            retries_key: format!("{tier}_retries:{name}"),
            gave_up_key: format!("{tier}_gave_up:{name}"),
            followups_key: format!("{tier}_followups:{name}"),
            kind,
        });
    }

    /// Returns `true` while the named driver has a reconcile in flight.
    pub fn driver_busy(&self, name: &str) -> bool {
        let slot_name = format!("driver:{name}");
        self.slots.iter().any(|s| s.name == slot_name && s.busy)
    }

    /// Returns `true` while the named controller slot (`mounter`,
    /// `syncer`, `policer`) has a deferred cycle in flight.
    pub fn controller_busy(&self, name: &str) -> bool {
        self.slots.iter().any(|s| s.name == name && s.busy)
    }

    /// Registers a digi kind's schema and widens every space-scoped
    /// controller to watch it in all known namespaces.
    pub fn register_kind(&mut self, schema: KindSchema) {
        let kind = schema.kind.clone();
        self.api.register_schema(schema);
        if !self.digi_kinds.insert(kind.clone()) {
            return;
        }
        let namespaces: Vec<String> = self.namespaces.iter().cloned().collect();
        for i in 0..self.slots.len() {
            if matches!(self.slots[i].scope, SlotScope::Space { .. }) {
                for ns in &namespaces {
                    self.subscribe(i, &kind, ns);
                }
            }
        }
    }

    /// Makes `ns` known to the space, widening every space-scoped
    /// controller to watch its owned kinds in the new namespace's shard.
    /// Must run before the namespace's first object is created, so
    /// controllers see the `Added` event.
    pub fn ensure_namespace(&mut self, ns: &str) {
        if !self.namespaces.insert(ns.to_string()) {
            return;
        }
        let kinds: Vec<String> = self.digi_kinds.iter().cloned().collect();
        for i in 0..self.slots.len() {
            match self.slots[i].scope {
                SlotScope::Space { system_kinds } => {
                    for kind in system_kinds {
                        self.subscribe(i, kind, ns);
                    }
                    for kind in &kinds {
                        self.subscribe(i, kind, ns);
                    }
                }
                SlotScope::System { system_kinds } => {
                    for kind in system_kinds {
                        self.subscribe(i, kind, ns);
                    }
                }
                SlotScope::Fixed => {}
            }
        }
    }

    /// Deletes a whole namespace: every digi model in it is deleted (each
    /// watcher observes a terminal `Deleted` event, gap-free), its shard is
    /// dropped once drained, devices are detached, and mount edges with an
    /// endpoint in the namespace are GC'd from the digi-graph.
    ///
    /// Driver slots for the deleted digis stay registered but go silent:
    /// the apiserver cancels their (namespace-homed) subscriptions as part
    /// of the namespace teardown, so they can never wake again.
    pub fn delete_namespace(&mut self, ns: &str) -> Result<u64, dspace_apiserver::ApiError> {
        let deleted = self.api.delete_namespace(ApiServer::ADMIN, ns)?;
        // Edges where the deleted digis were *children* live in their
        // parents' models and survive the per-object deletes; sweep them.
        self.graph.borrow_mut().remove_namespace(ns);
        // Detached devices stop re-arming: the next periodic tick finds no
        // actuator entry and does not reschedule.
        self.actuators.retain(|oref, _| oref.namespace != ns);
        self.namespaces.remove(ns);
        Ok(deleted)
    }

    fn subscribe(&mut self, i: usize, kind: &str, ns: &str) {
        self.api
            .extend_watch(
                ApiServer::ADMIN,
                self.slots[i].watch,
                &Query::kind(kind).in_ns(ns),
            )
            .expect("controller subscription is live");
    }

    /// Registers a digi driver component with its RBAC identity: subject
    /// `driver:<ns>/<name>`, bound to role `digi:<ns>/<name>`. Its slot
    /// keeps the name `driver:<name>`.
    pub fn add_driver(&mut self, oref: ObjectRef, driver: Driver) {
        let subject = driver_subject(&oref);
        let role = format!("digi:{}/{}", oref.namespace, oref.name);
        self.api.rbac_mut().add_role(Role::new(
            role.clone(),
            // A digi driver may only access its own model (§3.6), in its
            // own namespace — the Watch verb included, so its subscription
            // can cover nothing beyond its own change stream.
            vec![Rule::for_object(
                [Verb::Get, Verb::Update, Verb::Patch, Verb::Watch],
                &oref,
            )],
        ));
        self.api.rbac_mut().bind(subject.clone(), role);
        let last_model = self
            .api
            .get(ApiServer::ADMIN, &oref)
            .map(|o| o.model)
            .unwrap_or_default();
        let link = self.links.driver.clone();
        self.add_slot(
            &format!("driver:{}", oref.name),
            &subject,
            vec![Query::kind(oref.kind.as_str())
                .in_ns(oref.namespace.as_str())
                .named(oref.name.as_str())],
            link,
            SlotScope::Fixed,
            Component::Driver(DriverRuntime {
                oref,
                subject: subject.clone(),
                driver,
                last_model,
                last_written: None,
            }),
        );
    }

    /// Attaches a simulated device/data engine to a leaf digi and arms its
    /// periodic step hook.
    pub fn attach_actuator(
        &mut self,
        sim: &mut Sim<World>,
        oref: ObjectRef,
        actuator: Box<dyn Actuator>,
    ) {
        let subject = device_subject(&oref);
        let role = format!("device-role:{}/{}", oref.namespace, oref.name);
        self.api.rbac_mut().add_role(Role::new(
            role.clone(),
            vec![Rule::for_object([Verb::Get, Verb::Patch], &oref)],
        ));
        self.api.rbac_mut().bind(subject, role);
        let interval = actuator.poll_interval();
        let device = actuator.name();
        let attached = Attached {
            device: device.into(),
            bytes_key: format!("bytes:{device}"),
            dt_key: format!("dt_ms:{}", oref.name).into(),
            actuator,
        };
        self.actuators.insert(oref.clone(), attached);
        if let Some(interval) = interval {
            let target = oref.clone();
            // Background: the re-arming tick alone must not look like
            // pending propagation to quiescence checks (`Space::settle`).
            sim.schedule_background(interval, move |w: &mut World, sim| {
                w.device_tick(target.clone(), sim);
            });
        }
    }

    /// Returns `true` if any component has undelivered watch events or a
    /// reconcile cycle still in flight.
    pub fn has_pending_work(&self) -> bool {
        self.slots
            .iter()
            .any(|s| s.busy || s.dirty || (!s.woken && self.api.has_pending(s.watch)))
    }

    /// Schedules wakes for every component with pending watch events.
    /// Called by the space loop after every simulation event.
    ///
    /// Only the *shortlist* of possibly-pending slots is scanned: the
    /// store marks a watcher dirty when an event is appended to it, and
    /// `pump` drains that feed into `pending_slots`, so slots with no
    /// traffic cost nothing per sim event. The shortlist is conservative
    /// (a slot is only charged in `shard_append`, so pending can never
    /// appear without a dirty mark) and iterated in ascending slot order —
    /// the same order the full scan used, which keeps the RNG draw
    /// sequence of faulty-link transfers identical.
    ///
    /// The notification travels the component's link; a faulty link may
    /// drop it, in which case the apiserver retransmits after the link's
    /// RTO.
    pub fn pump(&mut self, sim: &mut Sim<World>) {
        for id in self.api.drain_dirty_watchers() {
            if let Some(&i) = self.watch_slots.get(&id) {
                self.pending_slots.insert(i);
            }
        }
        for i in std::mem::take(&mut self.pending_slots) {
            if self.slots[i].woken {
                // A scheduled wake drains the whole queue; the slot
                // re-enters the shortlist on its next append.
                continue;
            }
            if !self.api.has_pending(self.slots[i].watch) {
                continue;
            }
            self.slots[i].woken = true;
            match self.slots[i].link.transfer(sim.now(), &mut self.rng) {
                Delivery::After(delay) => {
                    sim.schedule(delay, move |w: &mut World, sim| w.wake(i, sim));
                }
                Delivery::Dropped => {
                    self.metrics.count("wake_drops", 1);
                    self.metrics.count(&self.slots[i].wake_drops_key, 1);
                    let rto = self.slots[i].link.rto();
                    sim.schedule(rto, move |w: &mut World, sim| {
                        w.slots[i].woken = false;
                        // The dirty mark was consumed when this slot was
                        // shortlisted; re-add it for the retransmit scan.
                        w.pending_slots.insert(i);
                        w.pump(sim);
                    });
                }
            }
        }
    }

    fn wake(&mut self, i: usize, sim: &mut Sim<World>) {
        if self.slots[i].busy {
            // Mid-reconcile: note the wake and let completion re-poll.
            // `woken` stays set so `pump` doesn't schedule more wakes for
            // events that will all drain in the one follow-up cycle.
            self.slots[i].dirty = true;
            return;
        }
        self.slots[i].woken = false;
        if matches!(self.slots[i].kind, Component::Driver(_)) {
            // Drivers drain coalesced: a burst of N writes to the digi is
            // one wake, one reconcile, against the newest snapshot.
            let events = self.api.poll_coalesced(self.slots[i].watch);
            if events.is_empty() {
                return;
            }
            self.count_driver_delivery(&events);
            self.start_reconcile(i, events, sim);
            return;
        }
        let events = self.api.poll(self.slots[i].watch);
        if events.is_empty() {
            return;
        }
        if let Component::User(u) = &mut self.slots[i].kind {
            for ev in &events {
                let old = u.cache.get(&ev.oref).unwrap_or(&Value::Null);
                let detail = dspace_value::changed_paths(old, &ev.model, 8);
                self.trace.push(
                    sim.now(),
                    TraceKind::UserObserved,
                    ev.oref.to_string(),
                    detail,
                );
                u.cache.insert(ev.oref.clone(), ev.model.clone());
            }
            return;
        }
        self.controller_cycle(i, events, sim);
    }

    /// Starts one controller cycle over a drained event batch.
    ///
    /// With all-zero latency models and no write link the cycle runs
    /// inline, committing each write as it is decided (a `FixedMs` sample
    /// consumes no RNG draws). Otherwise the cycle is deferred: plan (wake
    /// time, against the drained snapshots, writes queued on a
    /// read-your-writes overlay) → busy latency → link transfer (with
    /// retries) → admission → landing (an OCC re-check of every written
    /// object, then each surviving write through its serial verb, in
    /// issue order), with the slot busy throughout so concurrent wakes
    /// coalesce into one follow-up via the dirty bit. Both modes make the
    /// same decisions and leave the same store.
    fn controller_cycle(
        &mut self,
        i: usize,
        events: Vec<dspace_apiserver::WatchEvent>,
        sim: &mut Sim<World>,
    ) {
        // Foreign-event accounting: with subscriptions narrowed to owned
        // kinds, controllers should never receive another controller's
        // system objects. The counters exist so tests can assert it.
        let foreign = |kinds: &[&str]| {
            events
                .iter()
                .filter(|e| kinds.contains(&e.oref.kind.as_str()))
                .count() as u64
        };
        let (metric, n) = match &self.slots[i].kind {
            Component::Mounter(_) => ("mounter_foreign_events", foreign(&["Sync", "Policy"])),
            Component::Syncer(_) => ("syncer_foreign_events", foreign(&["Policy"])),
            Component::Policer(_) => ("policer_foreign_events", foreign(&["Sync"])),
            _ => unreachable!("only controller slots reach controller_cycle"),
        };
        if n > 0 {
            self.metrics.count(metric, n);
        }
        // Hard invariant: one cycle in flight per slot. The busy check in
        // `wake` and the completion re-poll make this unreachable; if it
        // ever fires, refuse the second cycle (the dirty bit re-polls the
        // already-drained events' successors) and count it, rather than
        // corrupting plan/land interleaving in release builds.
        if self.slots[i].busy {
            self.metrics.count("reconcile_invariant_violations", 1);
            self.slots[i].dirty = true;
            return;
        }
        let d = self.controller_reconcile.sample(&mut self.rng);
        let deferred = d > 0
            || self.controller_write.is_some()
            || self.admission != LatencyModel::FixedMs(0.0);
        if !deferred {
            self.controller_inline(i, &events, sim);
            return;
        }
        self.metrics
            .record("controller_reconcile_ms", d as f64 / 1e6);
        let slot = &mut self.slots[i];
        slot.busy = true;
        // Plan against the wake-time live store; writes queue on the plan's
        // batch overlay and land, one serial verb each, at the end of the
        // cycle.
        let sw = Stopwatch::start();
        let plan = match &mut slot.kind {
            Component::Mounter(m) => {
                ControllerPlan::Mounter(m.plan(&mut self.api, &self.graph, &events, true))
            }
            Component::Syncer(s) => ControllerPlan::Syncer(s.plan(&mut self.api, &events, true)),
            Component::Policer(p) => ControllerPlan::Policer(p.plan(
                &mut self.api,
                slot.watch,
                &events,
                &mut self.trace,
                sim.now(),
            )),
            _ => unreachable!("only controller slots defer"),
        };
        self.metrics.record_elapsed("plan_ns", sw);
        if d == 0 {
            // Schedule-or-inline: an event scheduled at delay 0 would land
            // after other same-timestamp events and change batching.
            self.controller_transmit(i, plan, 0, sim);
        } else {
            sim.schedule(d, move |w: &mut World, sim| {
                w.controller_transmit(i, plan, 0, sim);
            });
        }
    }

    /// Inline controller processing, when every deferral stage is zero:
    /// each write commits as it is decided.
    fn controller_inline(
        &mut self,
        i: usize,
        events: &[dspace_apiserver::WatchEvent],
        sim: &mut Sim<World>,
    ) {
        let slot = &mut self.slots[i];
        match &mut slot.kind {
            Component::Mounter(m) => m.process(
                &mut self.api,
                &self.graph,
                events,
                &mut self.trace,
                sim.now(),
            ),
            Component::Syncer(s) => s.process(&mut self.api, events),
            Component::Policer(p) => p.process(
                &mut self.api,
                &self.graph,
                slot.watch,
                events,
                &mut self.trace,
                sim.now(),
            ),
            _ => unreachable!("only controller slots reach controller_inline"),
        }
    }

    /// Offers a planned controller batch to the slot's write link.
    /// Delivered batches proceed to admission after the transfer delay;
    /// drops retry on the exponential backoff until the budget runs out
    /// (`controller_retries` / `controller_gave_up`).
    fn controller_transmit(
        &mut self,
        i: usize,
        plan: ControllerPlan,
        attempt: u32,
        sim: &mut Sim<World>,
    ) {
        if plan.is_empty() {
            // Nothing travels the wire: land directly (cache effects and
            // empty-batch bookkeeping still apply).
            self.controller_land(i, plan, sim);
            return;
        }
        let link = self
            .controller_write
            .as_ref()
            .unwrap_or(&self.slots[i].link);
        let retry = RetryPolicy::default();
        match link.transfer(sim.now(), &mut self.rng) {
            Delivery::After(0) => self.controller_admit(i, plan, sim),
            Delivery::After(delay) => {
                sim.schedule(delay, move |w: &mut World, sim| {
                    w.controller_admit(i, plan, sim);
                });
            }
            Delivery::Dropped if attempt < retry.budget => {
                self.metrics.count("controller_retries", 1);
                self.metrics.count(&self.slots[i].retries_key, 1);
                let backoff = retry.backoff(attempt);
                sim.schedule(backoff, move |w: &mut World, sim| {
                    w.controller_transmit(i, plan, attempt + 1, sim);
                });
            }
            Delivery::Dropped => {
                self.metrics.count("controller_gave_up", 1);
                self.metrics.count(&self.slots[i].gave_up_key, 1);
                let name = self.slots[i].name.clone();
                self.trace.push(
                    sim.now(),
                    TraceKind::Composition,
                    name,
                    format!("gave up after {attempt} retries"),
                );
                // The batch is lost; close the cycle without landing. Any
                // state the drained events should have produced is
                // re-derived when their objects next change.
                self.controller_complete(i, sim);
            }
        }
    }

    /// The batch arrived at the apiserver: spend the admission stage, then
    /// land. Modeled separately from the link so the two delays are
    /// independently attributable in metrics.
    fn controller_admit(&mut self, i: usize, plan: ControllerPlan, sim: &mut Sim<World>) {
        let a = self.admission.sample(&mut self.rng);
        self.metrics.record("admission_ms", a as f64 / 1e6);
        if a == 0 {
            self.controller_land(i, plan, sim);
        } else {
            sim.schedule(a, move |w: &mut World, sim| {
                w.controller_land(i, plan, sim);
            });
        }
    }

    /// Lands a deferred controller batch: OCC re-validation against the
    /// plan-time snapshot rvs, per-op commits in issue order,
    /// success-gated effects — then the cycle completes.
    fn controller_land(&mut self, i: usize, plan: ControllerPlan, sim: &mut Sim<World>) {
        let sw = Stopwatch::start();
        let conflicts = match (&mut self.slots[i].kind, plan) {
            (Component::Mounter(_), ControllerPlan::Mounter(p)) => {
                p.land(&mut self.api, &mut self.trace, sim.now())
            }
            (Component::Syncer(s), ControllerPlan::Syncer(p)) => s.land(&mut self.api, p),
            (Component::Policer(p), ControllerPlan::Policer(plan)) => {
                p.land(&mut self.api, &self.graph, plan, &mut self.trace, sim.now());
                0
            }
            _ => unreachable!("plan variant matches its slot's component"),
        };
        self.metrics.record_elapsed("land_ns", sw);
        if conflicts > 0 {
            self.metrics.count("controller_conflicts", conflicts);
        }
        self.controller_complete(i, sim);
    }

    /// Ends a controller cycle. Wakes that arrived while busy drain
    /// through one re-poll — the single follow-up cycle the busy-state
    /// machine guarantees for an N-event mid-cycle burst.
    fn controller_complete(&mut self, i: usize, sim: &mut Sim<World>) {
        self.slots[i].busy = false;
        if !self.slots[i].dirty {
            return;
        }
        self.slots[i].dirty = false;
        // The wake that set the dirty bit already traveled the link, so
        // the re-poll is immediate.
        self.slots[i].woken = false;
        let events = self.api.poll(self.slots[i].watch);
        if events.is_empty() {
            return;
        }
        self.metrics.count("controller_followup_cycles", 1);
        self.metrics.count(&self.slots[i].followups_key, 1);
        self.controller_cycle(i, events, sim);
    }

    fn count_driver_delivery(&mut self, events: &[CoalescedEvent]) {
        self.metrics.count("driver_deliveries", events.len() as u64);
        let absorbed: u64 = events.iter().map(|e| e.coalesced - 1).sum();
        if absorbed > 0 {
            self.metrics.count("driver_coalesced_events", absorbed);
        }
    }

    /// Begins a driver reconcile cycle: the slot goes busy for a duration
    /// drawn from the reconcile latency model, then the cycle's decisions
    /// (effects, commits) land at completion time.
    fn start_reconcile(&mut self, i: usize, events: Vec<CoalescedEvent>, sim: &mut Sim<World>) {
        // Hard invariant: one cycle in flight per driver. The busy check
        // in `wake` and the completion re-poll make this unreachable; if
        // it ever fires, refuse the second cycle (the dirty bit re-polls)
        // and count it, rather than interleaving two reconciles' commits
        // in release builds.
        if self.slots[i].busy {
            self.metrics.count("reconcile_invariant_violations", 1);
            self.slots[i].dirty = true;
            return;
        }
        self.slots[i].busy = true;
        let duration = self.reconcile_latency.sample(&mut self.rng);
        self.metrics.record("reconcile_ms", duration as f64 / 1e6);
        sim.schedule(duration, move |w: &mut World, sim| {
            w.finish_reconcile(i, events, sim);
        });
    }

    /// Completion of the reconcile work: runs the driver logic against the
    /// snapshots drained at wake time, then lands the cycle.
    fn finish_reconcile(&mut self, i: usize, events: Vec<CoalescedEvent>, sim: &mut Sim<World>) {
        let Component::Driver(rt) = &mut self.slots[i].kind else {
            unreachable!("only driver slots run reconcile cycles");
        };
        let sw = Stopwatch::start();
        let cycle = run_driver_cycle(rt, &events, sim.now() as f64 / 1e9);
        let oref = rt.oref.clone();
        self.metrics.record_elapsed("plan_ns", sw);
        self.land_driver_cycle(i, oref, cycle, sim);
    }

    /// Lands a completed driver cycle: replays traces, error counts, and
    /// device effects in step order — actuator RNG draws happen here, on
    /// the shared stream — then transmits the queued commits over the
    /// driver link.
    fn land_driver_cycle(
        &mut self,
        i: usize,
        oref: ObjectRef,
        cycle: DriverCycle,
        sim: &mut Sim<World>,
    ) {
        let sw = Stopwatch::start();
        if cycle.foreign_events > 0 {
            self.metrics
                .count("driver_foreign_events", cycle.foreign_events);
        }
        let subject = oref.to_string();
        for step in cycle.steps {
            self.trace.push(
                sim.now(),
                TraceKind::DriverReconciled,
                subject.clone(),
                step.changed,
            );
            for err in step.errors {
                self.metrics.count("driver_errors", 1);
                self.trace.push(
                    sim.now(),
                    TraceKind::DriverReconciled,
                    subject.clone(),
                    format!("error: {err}"),
                );
            }
            for effect in step.effects {
                match effect {
                    Effect::Device(cmd) => {
                        self.trace.push(
                            sim.now(),
                            TraceKind::DeviceCommand,
                            subject.clone(),
                            dspace_value::json::to_string(&cmd),
                        );
                        self.actuate(oref.clone(), cmd, sim);
                    }
                    Effect::Log(msg) => {
                        self.trace.push(
                            sim.now(),
                            TraceKind::DriverReconciled,
                            subject.clone(),
                            format!("log: {msg}"),
                        );
                    }
                }
            }
        }
        self.metrics.record_elapsed("land_ns", sw);
        self.run_commits(i, cycle.commits, sim);
    }

    /// Sends the next queued commit, or closes the cycle when none remain.
    fn run_commits(
        &mut self,
        i: usize,
        mut commits: VecDeque<PendingCommit>,
        sim: &mut Sim<World>,
    ) {
        match commits.pop_front() {
            Some(commit) => self.attempt_commit(i, commit, 0, commits, sim),
            None => self.complete_cycle(i, sim),
        }
    }

    /// Offers one commit to the driver link. Delivered writes apply after
    /// the transfer delay; drops retry on an exponential backoff until the
    /// budget runs out (`driver_retries` / `driver_gave_up`).
    fn attempt_commit(
        &mut self,
        i: usize,
        commit: PendingCommit,
        attempt: u32,
        rest: VecDeque<PendingCommit>,
        sim: &mut Sim<World>,
    ) {
        let retry = RetryPolicy::default();
        match self.slots[i].link.transfer(sim.now(), &mut self.rng) {
            Delivery::After(delay) => {
                sim.schedule(delay, move |w: &mut World, sim| {
                    w.apply_commit(i, commit, sim);
                    w.run_commits(i, rest, sim);
                });
            }
            Delivery::Dropped if attempt < retry.budget => {
                self.metrics.count("driver_retries", 1);
                self.metrics.count(&self.slots[i].retries_key, 1);
                let backoff = retry.backoff(attempt);
                sim.schedule(backoff, move |w: &mut World, sim| {
                    w.attempt_commit(i, commit, attempt + 1, rest, sim);
                });
            }
            Delivery::Dropped => {
                let name = self.slots[i].name.clone();
                self.metrics.count("driver_gave_up", 1);
                self.metrics.count(&self.slots[i].gave_up_key, 1);
                self.trace.push(
                    sim.now(),
                    TraceKind::DriverReconciled,
                    name,
                    format!("gave up after {attempt} retries"),
                );
                self.run_commits(i, rest, sim);
            }
        }
    }

    /// A commit arrived at the apiserver: apply it with OCC. A conflict
    /// means a newer event is already queued and will retrigger the cycle.
    fn apply_commit(&mut self, i: usize, commit: PendingCommit, sim: &mut Sim<World>) {
        let Component::Driver(rt) = &mut self.slots[i].kind else {
            unreachable!("only driver slots commit");
        };
        match self
            .api
            .client(&rt.subject)
            .namespace(&rt.oref.namespace)
            .update(
                &rt.oref.kind,
                &rt.oref.name,
                commit.model.clone(),
                Some(commit.expected),
            ) {
            Ok(rv) => {
                rt.last_written = Some(rv);
                rt.last_model = commit.model;
            }
            Err(dspace_apiserver::ApiError::Conflict { .. }) => {
                self.metrics.count("reconcile_conflicts", 1);
            }
            Err(e) => {
                self.metrics.count("driver_errors", 1);
                self.trace.push(
                    sim.now(),
                    TraceKind::DriverReconciled,
                    rt.oref.to_string(),
                    format!("write failed: {e}"),
                );
            }
        }
    }

    /// Ends a reconcile cycle. If wakes arrived while busy, everything
    /// that queued up mid-cycle drains through one coalesced re-poll —
    /// the single follow-up reconcile the busy-state machine guarantees.
    fn complete_cycle(&mut self, i: usize, sim: &mut Sim<World>) {
        self.slots[i].busy = false;
        if !self.slots[i].dirty {
            return;
        }
        self.slots[i].dirty = false;
        // The wake that set the dirty bit already traveled the link, so
        // the re-poll is immediate.
        self.slots[i].woken = false;
        let events = self.api.poll_coalesced(self.slots[i].watch);
        if events.is_empty() {
            return;
        }
        self.metrics.count("driver_followup_cycles", 1);
        self.count_driver_delivery(&events);
        self.start_reconcile(i, events, sim);
    }

    /// Sends a command to the actuator attached to `oref` and schedules the
    /// resulting patches.
    fn actuate(&mut self, oref: ObjectRef, cmd: Value, sim: &mut Sim<World>) {
        let Some(attached) = self.actuators.get_mut(&oref) else {
            self.metrics.count("commands_without_actuator", 1);
            return;
        };
        let acts = attached.actuator.actuate(sim.now(), &cmd, &mut self.rng);
        self.schedule_actuations(oref, acts, sim);
    }

    /// Periodic device poll: spontaneous physical events (motion, manual
    /// toggles, robot movement) surface here.
    fn device_tick(&mut self, oref: ObjectRef, sim: &mut Sim<World>) {
        if !self.actuators.contains_key(&oref) {
            return;
        }
        let model = self
            .api
            .get(ApiServer::ADMIN, &oref)
            .map(|o| o.model)
            .unwrap_or_default();
        let attached = self.actuators.get_mut(&oref).expect("checked above");
        let acts = attached.actuator.step(sim.now(), &model, &mut self.rng);
        let interval = attached.actuator.poll_interval();
        self.schedule_actuations(oref.clone(), acts, sim);
        if let Some(interval) = interval {
            sim.schedule_background(interval, move |w: &mut World, sim| {
                w.device_tick(oref.clone(), sim);
            });
        }
    }

    /// Counts the bytes of the actuations of the device attached to `oref`
    /// and schedules their patches to land after their delays.
    fn schedule_actuations(
        &mut self,
        oref: ObjectRef,
        acts: Vec<crate::actuator::Actuation>,
        sim: &mut Sim<World>,
    ) {
        let attached = &self.actuators[&oref];
        for act in acts {
            if act.bytes > 0 {
                self.metrics.count(&attached.bytes_key, act.bytes as u64);
            }
            // Pure bandwidth-accounting actuations carry no model change;
            // committing them would spam every watcher with no-op events.
            if act
                .patch
                .as_object()
                .map(|m| m.is_empty())
                .unwrap_or(act.patch.is_null())
            {
                continue;
            }
            let target = oref.clone();
            let dev = attached.device.clone();
            let dt_key = attached.dt_key.clone();
            let delay_ms = act.delay as f64 / 1e6;
            sim.schedule(act.delay, move |w: &mut World, sim| {
                let subject = device_subject(&target);
                let committed = w
                    .api
                    .client(subject)
                    .namespace(&target.namespace)
                    .patch(&target.kind, &target.name, act.patch.clone())
                    .is_ok();
                if committed {
                    w.trace.push(
                        sim.now(),
                        TraceKind::DeviceDone,
                        target.to_string(),
                        format!("{dev} {delay_ms:.1}ms"),
                    );
                    w.metrics.record(&dt_key, delay_ms);
                }
            });
        }
    }

    /// Injects a physical-world event directly on a digi's model (e.g. a
    /// user manually flips the lamp switch — scenario S2).
    pub fn physical_event(&mut self, oref: &ObjectRef, patch: Value, sim: &Sim<World>) {
        let subject = if self.actuators.contains_key(oref) {
            device_subject(oref)
        } else {
            ApiServer::ADMIN.to_string()
        };
        let committed = self
            .api
            .client(subject)
            .namespace(&oref.namespace)
            .patch(&oref.kind, &oref.name, patch)
            .is_ok();
        if committed {
            self.trace.push(
                sim.now(),
                TraceKind::DeviceDone,
                oref.to_string(),
                "physical-event".to_string(),
            );
        }
    }

    /// Names of the registered components, in registration order.
    pub fn component_names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.name.as_str()).collect()
    }
}

/// The RBAC subject a digi's driver acts as: `driver:<ns>/<name>`, so two
/// homes' drivers of the same digi name are different subjects (§3.6).
fn driver_subject(oref: &ObjectRef) -> String {
    format!("driver:{}/{}", oref.namespace, oref.name)
}

/// The RBAC subject a digi's attached device acts as:
/// `device:<ns>/<name>`.
fn device_subject(oref: &ObjectRef) -> String {
    format!("device:{}/{}", oref.namespace, oref.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The one-cycle-in-flight invariant is a hard, counted
    // error path (not a debug_assert) — a second cycle against a busy
    // slot is refused, counted, and deferred via the dirty bit.
    #[test]
    fn double_cycle_is_refused_and_counted() {
        let mut world = World::open(SpaceConfig::default()).unwrap();
        let mut sim: Sim<World> = Sim::new();
        let mounter = world
            .slots
            .iter()
            .position(|s| s.name == "mounter")
            .expect("mounter slot");
        world.slots[mounter].busy = true;
        world.controller_cycle(mounter, Vec::new(), &mut sim);
        assert_eq!(world.metrics.counter("reconcile_invariant_violations"), 1);
        assert!(
            world.slots[mounter].dirty,
            "refused cycle must re-poll via the dirty bit"
        );
        // The driver path shares the invariant (any slot hits the guard
        // before driver-specific work).
        world.slots[mounter].dirty = false;
        world.start_reconcile(mounter, Vec::new(), &mut sim);
        assert_eq!(world.metrics.counter("reconcile_invariant_violations"), 2);
        assert!(world.slots[mounter].dirty);
    }
}
