//! The [`Space`]: the top-level facade tying the simulator and the world
//! together (§2.4 of the paper: "a developer selects digivices and
//! digidata, composes them into a hierarchy, and programs the space via
//! the declarative API exposed by the root digivice").

use dspace_apiserver::{ApiError, ApiServer, DurabilityOptions, ObjectRef, WalError};
use dspace_simnet::{millis, LatencyModel, Sim, Time};
use dspace_value::{KindSchema, Value};

use std::collections::BTreeMap;
use std::fmt;

use crate::actuator::Actuator;
use crate::driver::Driver;
use crate::graph::{EdgeState, MountMode};
use crate::syncer::SyncSpec;
use crate::trace::TraceKind;
use crate::verbs::{self, VerbError};
use crate::world::{LinkSet, World};

/// Configuration for a space.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// Network links for the deployment being simulated.
    pub links: LinkSet,
    /// RNG seed (experiments are deterministic per seed).
    pub seed: u64,
    /// Duration of one driver reconcile cycle. The zero default keeps
    /// reconciles instantaneous (the pre-async behavior).
    pub reconcile: LatencyModel,
    /// Duration of one controller reconcile cycle (mounter/syncer/
    /// policer). With the zero default (and no `admission` latency or
    /// `controller_write` link) controller cycles run inline, committing
    /// each write as it is decided; anything else defers them to one
    /// landing per cycle, which commits the cycle's writes op by op.
    pub controller_reconcile: LatencyModel,
    /// Apiserver-side admission latency for deferred controller batches —
    /// a separate stage from the write link, so the two delays are
    /// independently attributable.
    pub admission: LatencyModel,
    /// When set, deferred controller writes travel this link (with its
    /// full fault surface) instead of the controllers' wake link.
    pub controller_write: Option<dspace_simnet::Link>,
    /// Ignored: the apiserver commits every write on the calling thread.
    /// The field remains only for configurations that still set it.
    pub threads: usize,
    /// When set, the apiserver journals every commit to this WAL/checkpoint
    /// directory and recovers from it on open ([`Space::open`]). `None`
    /// (the default) keeps the store purely in-memory.
    pub durability: Option<DurabilityOptions>,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            links: LinkSet::default(),
            seed: 7,
            reconcile: LatencyModel::FixedMs(0.0),
            controller_reconcile: LatencyModel::FixedMs(0.0),
            admission: LatencyModel::FixedMs(0.0),
            controller_write: None,
            threads: 0,
            durability: None,
        }
    }
}

/// Errors surfaced by [`Space`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// The apiserver rejected the request.
    Api(ApiError),
    /// A composition verb failed.
    Verb(VerbError),
    /// No digi with that name exists.
    UnknownDigi(String),
    /// The attribute spec could not be parsed (`"digi/attr"` expected).
    BadSpec(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::Api(e) => write!(f, "{e}"),
            SpaceError::Verb(e) => write!(f, "{e}"),
            SpaceError::UnknownDigi(n) => write!(f, "unknown digi: {n}"),
            SpaceError::BadSpec(s) => write!(f, "bad attribute spec: {s}"),
        }
    }
}

impl std::error::Error for SpaceError {}

impl From<ApiError> for SpaceError {
    fn from(e: ApiError) -> Self {
        SpaceError::Api(e)
    }
}

impl From<VerbError> for SpaceError {
    fn from(e: VerbError) -> Self {
        SpaceError::Verb(e)
    }
}

/// A running smart space: apiserver, controllers, digis, devices, and the
/// discrete-event clock.
pub struct Space {
    /// The event simulator.
    pub sim: Sim<World>,
    /// The runtime state.
    pub world: World,
    names: BTreeMap<String, ObjectRef>,
}

impl Default for Space {
    fn default() -> Self {
        Self::new(SpaceConfig::default())
    }
}

impl Space {
    /// The subject used for user-initiated operations.
    pub const USER: &'static str = "user";

    /// Creates a space. Panics if `config.durability` names a directory
    /// whose journal cannot be opened; use [`Space::open`] to handle that.
    pub fn new(config: SpaceConfig) -> Self {
        Self::open(config).expect("store recovery failed")
    }

    /// Creates a space, recovering durable state when
    /// `config.durability` is set. Digi models, revisions, graph edges,
    /// and Sync port claims come back; drivers and devices do not —
    /// re-attach them (by the same names) after opening.
    pub fn open(config: SpaceConfig) -> Result<Self, WalError> {
        let world = World::open(config)?;
        // Recovered digis are addressable by name again (system objects
        // aren't digis and never enter the name table).
        let mut names = BTreeMap::new();
        for obj in world.api.dump() {
            if matches!(obj.oref.kind.as_str(), "Sync" | "Policy") {
                continue;
            }
            names.entry(obj.oref.name.clone()).or_insert(obj.oref);
        }
        Ok(Space {
            sim: Sim::new(),
            world,
            names,
        })
    }

    /// Forces a store checkpoint now (no-op on a non-durable space).
    pub fn checkpoint(&mut self) {
        self.world.api.checkpoint();
    }

    /// Registers a digi kind schema and widens the controllers' watch
    /// subscriptions to cover it.
    pub fn register_kind(&mut self, schema: KindSchema) {
        self.world.register_kind(schema);
    }

    /// Creates a digi of a registered kind in the `default` namespace and
    /// attaches its driver.
    ///
    /// Returns the digi's object reference. Names must be unique within
    /// the space.
    pub fn create_digi(
        &mut self,
        kind: &str,
        name: &str,
        driver: Driver,
    ) -> Result<ObjectRef, SpaceError> {
        self.create_digi_in(kind, "default", name, driver)
    }

    /// Creates a digi in an explicit namespace (multi-tenant spaces: each
    /// tenant's digis live in their own namespace shard, so one tenant's
    /// bursts never wake another's watchers).
    pub fn create_digi_in(
        &mut self,
        kind: &str,
        namespace: &str,
        name: &str,
        driver: Driver,
    ) -> Result<ObjectRef, SpaceError> {
        let schema = self
            .world
            .api
            .schema(kind)
            .ok_or_else(|| SpaceError::Api(ApiError::UnknownKind(kind.to_string())))?;
        let model = schema.new_model(name, namespace);
        let oref = ObjectRef::new(kind, namespace, name);
        // Widen controller subscriptions before the create commits, so
        // they observe the digi's `Added` event.
        self.world.ensure_namespace(namespace);
        self.world.api.create(ApiServer::ADMIN, &oref, model)?;
        self.world.add_driver(oref.clone(), driver);
        self.names.insert(name.to_string(), oref.clone());
        self.pump();
        Ok(oref)
    }

    /// Attaches a simulated device / data engine to a digi.
    pub fn attach_actuator(&mut self, oref: &ObjectRef, actuator: Box<dyn Actuator>) {
        self.world
            .attach_actuator(&mut self.sim, oref.clone(), actuator);
    }

    /// Resolves a digi name to its reference.
    pub fn resolve(&self, name: &str) -> Result<ObjectRef, SpaceError> {
        self.names
            .get(name)
            .cloned()
            .ok_or_else(|| SpaceError::UnknownDigi(name.to_string()))
    }

    fn split_spec<'a>(&self, spec: &'a str) -> Result<(ObjectRef, &'a str), SpaceError> {
        let (name, attr) = spec
            .split_once('/')
            .ok_or_else(|| SpaceError::BadSpec(spec.to_string()))?;
        Ok((self.resolve(name)?, attr))
    }

    // ----- Composition verbs (§3.2) ------------------------------------

    /// `mount(child, parent)` with a mode. Returns the created edge state
    /// (yielded when the child already had an active parent).
    pub fn mount(
        &mut self,
        child: &ObjectRef,
        parent: &ObjectRef,
        mode: MountMode,
    ) -> Result<EdgeState, SpaceError> {
        let st = verbs::mount(
            &mut self.world.api,
            &self.world.graph,
            Self::USER,
            child,
            parent,
            mode,
        )?;
        self.pump();
        Ok(st)
    }

    /// Removes a mount.
    pub fn unmount(&mut self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), SpaceError> {
        verbs::unmount(&mut self.world.api, Self::USER, child, parent)?;
        self.pump();
        Ok(())
    }

    /// Revokes the parent's write access over the child.
    pub fn yield_(&mut self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), SpaceError> {
        verbs::yield_(&mut self.world.api, Self::USER, child, parent)?;
        self.pump();
        Ok(())
    }

    /// Restores the parent's write access over the child.
    pub fn unyield(&mut self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), SpaceError> {
        verbs::unyield(&mut self.world.api, Self::USER, child, parent)?;
        self.pump();
        Ok(())
    }

    /// Creates a pipe (a `Sync` object) between two digidata attributes.
    pub fn pipe(
        &mut self,
        source: &ObjectRef,
        source_attr: &str,
        target: &ObjectRef,
        target_attr: &str,
    ) -> Result<ObjectRef, SpaceError> {
        let spec = SyncSpec {
            source: source.clone(),
            source_path: format!(".data.output.{source_attr}"),
            target: target.clone(),
            target_path: format!(".data.input.{target_attr}"),
        };
        let sref = verbs::pipe(&mut self.world.api, Self::USER, &spec)?;
        self.pump();
        Ok(sref)
    }

    /// Removes a pipe.
    pub fn unpipe(&mut self, sync: &ObjectRef) -> Result<(), SpaceError> {
        verbs::unpipe(&mut self.world.api, Self::USER, sync)?;
        self.pump();
        Ok(())
    }

    /// Installs a composition policy from its model document (see
    /// [`crate::policy::Policy`] for the shape).
    pub fn add_policy(&mut self, name: &str, model: Value) -> Result<ObjectRef, SpaceError> {
        let oref = ObjectRef::default_ns("Policy", name);
        self.world
            .api
            .client(Self::USER)
            .namespace("default")
            .create("Policy", name, model)?;
        self.pump();
        Ok(oref)
    }

    /// Adds (or reconfigures) an on-model reflex policy on a digi (§4.2).
    pub fn add_reflex(
        &mut self,
        target: &ObjectRef,
        name: &str,
        policy: &str,
        priority: i64,
    ) -> Result<(), SpaceError> {
        let body = dspace_value::object([
            ("policy", Value::from(policy)),
            ("priority", Value::from(priority as f64)),
            ("processor", Value::from("jq")),
        ]);
        self.world
            .api
            .patch_path(Self::USER, target, &format!(".reflex.{name}"), body)?;
        self.pump();
        Ok(())
    }

    // ----- User interaction ---------------------------------------------

    /// Issues an intent update from the user's CLI: `spec` is
    /// `"<digi>/<attr>"`. The write reaches the apiserver after the user
    /// link latency; this is the t₀ of a Figure-7 trial.
    pub fn set_intent(&mut self, spec: &str, value: Value) -> Result<(), SpaceError> {
        let (oref, attr) = self.split_spec(spec)?;
        let path = format!(".control.{attr}.intent");
        self.world.trace.push(
            self.sim.now(),
            TraceKind::UserIntent,
            oref.to_string(),
            path.clone(),
        );
        let delay = self.world.links.user.delay(&mut self.world.rng);
        let value2 = value.clone();
        self.sim.schedule(delay, move |w: &mut World, sim| {
            if w.api
                .patch_path(Self::USER, &oref, &path, value2.clone())
                .is_ok()
            {
                w.trace
                    .push(sim.now(), TraceKind::Commit, oref.to_string(), path.clone());
            }
        });
        Ok(())
    }

    /// Sets an intent synchronously (test convenience; skips link latency).
    pub fn set_intent_now(&mut self, spec: &str, value: Value) -> Result<(), SpaceError> {
        let (oref, attr) = self.split_spec(spec)?;
        self.world
            .api
            .client(Self::USER)
            .namespace(&oref.namespace)
            .patch_path(
                &oref.kind,
                &oref.name,
                &format!(".control.{attr}.intent"),
                value,
            )?;
        self.pump();
        Ok(())
    }

    /// Reads `control.<attr>.status` of `"<digi>/<attr>"`.
    pub fn status(&self, spec: &str) -> Result<Value, SpaceError> {
        let (oref, attr) = self.split_spec(spec)?;
        self.read_oref(&oref, &format!(".control.{attr}.status"))
    }

    /// Reads `control.<attr>.intent` of `"<digi>/<attr>"`.
    pub fn intent(&self, spec: &str) -> Result<Value, SpaceError> {
        let (oref, attr) = self.split_spec(spec)?;
        self.read_oref(&oref, &format!(".control.{attr}.intent"))
    }

    /// Reads `obs.<attr>` of `"<digi>/<attr>"`.
    pub fn obs(&self, spec: &str) -> Result<Value, SpaceError> {
        let (oref, attr) = self.split_spec(spec)?;
        self.read_oref(&oref, &format!(".obs.{attr}"))
    }

    /// Reads an arbitrary model path of a digi by name.
    pub fn read(&self, name: &str, path: &str) -> Result<Value, SpaceError> {
        let oref = self.resolve(name)?;
        self.read_oref(&oref, path)
    }

    fn read_oref(&self, oref: &ObjectRef, path: &str) -> Result<Value, SpaceError> {
        Ok(self.world.api.get_path(ApiServer::ADMIN, oref, path)?)
    }

    /// Deletes every digi in `namespace` (multi-tenant teardown): models
    /// are deleted one by one — watchers observe terminal `Deleted` events
    /// with the §3.5 guarantee intact — and the namespace's shard, drivers,
    /// devices, and mount edges are released. Returns the number of digis
    /// deleted.
    pub fn delete_namespace(&mut self, namespace: &str) -> Result<u64, SpaceError> {
        let deleted = self.world.delete_namespace(namespace)?;
        self.names.retain(|_, oref| oref.namespace != namespace);
        self.pump();
        Ok(deleted)
    }

    /// Injects a physical-world event on a digi (manual switch flip, etc.).
    pub fn physical_event(&mut self, name: &str, patch: Value) -> Result<(), SpaceError> {
        let oref = self.resolve(name)?;
        self.world.physical_event(&oref, patch, &self.sim);
        self.pump();
        Ok(())
    }

    // ----- Execution ----------------------------------------------------

    /// Schedules wakes for pending watch events (called automatically by
    /// the verbs; exposed for advanced drivers of the loop).
    pub fn pump(&mut self) {
        self.world.pump(&mut self.sim);
    }

    /// Executes one simulation event (plus notification pumping).
    pub fn step(&mut self) -> bool {
        let progressed = self.sim.step(&mut self.world);
        self.world.pump(&mut self.sim);
        progressed
    }

    /// Runs the space for `ms` milliseconds of virtual time.
    pub fn run_for_ms(&mut self, ms: u64) {
        self.run_for(millis(ms));
    }

    /// Runs the space for a virtual-time span, pumping watch notifications
    /// between every pair of events.
    pub fn run_for(&mut self, span: Time) {
        let deadline = self.sim.now().saturating_add(span);
        self.pump();
        while matches!(self.sim.next_at(), Some(t) if t <= deadline) {
            self.sim.step(&mut self.world);
            self.world.pump(&mut self.sim);
        }
        // Advance the clock to the deadline (no events remain before it).
        self.sim.run_until(&mut self.world, deadline);
    }

    /// Runs until no component has pending work and the event queue is
    /// quiet, up to `max_ms` of virtual time (devices with periodic ticks
    /// keep the queue non-empty, hence the bound).
    ///
    /// Returns as soon as the space is quiescent instead of burning the
    /// whole budget: if nothing is scheduled and no watcher has pending
    /// events, the clock stops where the last event left it.
    /// Periodic device ticks are *background* events: a queue that holds
    /// nothing but re-arming ticks counts as quiescent, so a space with
    /// polling devices settles as fast as one without.
    pub fn settle(&mut self, max_ms: u64) {
        let deadline = self.sim.now().saturating_add(millis(max_ms));
        self.pump();
        loop {
            if self.sim.foreground_pending() == 0 && !self.world.has_pending_work() {
                return; // Only background ticks (if anything) remain.
            }
            match self.sim.next_at() {
                Some(t) if t <= deadline => {
                    self.sim.step(&mut self.world);
                    self.world.pump(&mut self.sim);
                }
                // Foreground work exists but is past the horizon (or only
                // un-pumped watch events remain): burn out the budget.
                _ => break,
            }
        }
        self.sim.run_until(&mut self.world, deadline);
    }

    /// The current virtual time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.sim.now() as f64 / 1e6
    }
}
