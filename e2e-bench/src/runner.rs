//! The bench's own drive loop: generator actions at their due virtual time,
//! `Sim::step` + `World::pump` in between, and fulfilment detection over the
//! trace the runtime appends.
//!
//! A run is a fixed number of epochs, so it does the same work for a given
//! seed however fast the host is. Each epoch injects inputs for a fixed
//! virtual window (or a fixed number of closed-loop intents), then drains
//! until every intent is fulfilled and the space is quiescent, and then
//! checks convergence outside the measured time.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dspace_apiserver::{ApiServer, ObjectRef, Query};
use dspace_core::trace::TraceKind;
use dspace_core::Space;
use dspace_digis::lamps::{from_vendor_brightness, to_vendor_brightness};
use dspace_digis::power::SAVING_BRIGHTNESS;
use dspace_simnet::{Histogram, Rng, Time};
use dspace_value::Value;

use crate::fleet::{Fleet, SpaceStats, Subject};
use crate::spans::{Layer, Spans};
use crate::stats::Chunks;
use crate::workload::{Drive, HomeKind, Spec};

/// Distance within which a room status fulfils a brightness intent. The
/// room reports the mean of its lamps' universal statuses rounded to 1e-3,
/// and the vendor scales quantize by at most 1/990 — well inside this.
const TOL: f64 = 0.002;
/// New intents keep at least this distance from the room's current intent
/// and status, so fulfilment is always an observable change.
const MIN_STEP: f64 = 0.015;
/// Virtual time allowed after the last input for outstanding intents.
const DRAIN: Time = 10_000_000_000;
const GEN_SALT: u64 = 0x5EED_0E2E;
/// Samples per chunk of intent latencies and of query timings.
const CHUNK: usize = 50;

/// The dashboard query every workload runs.
pub fn dashboard_query() -> Query {
    Query::kind("GeeniLamp")
        .filter(".control.brightness.status > 900")
        .expect("dashboard query compiles")
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Intent { home: Option<usize> },
    Flip { home: usize },
    Query,
    Churn,
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Level(f64),
    Activity { idle: bool },
}

struct Pending {
    target: Target,
    t_commit: Time,
    wall: Instant,
    /// Host probe time spent before the commit (excluded from latency).
    probed_ns: u64,
    /// First leaf device command after the commit, and its completion.
    cmd: Option<(String, Time)>,
    done: Option<Time>,
}

/// Intent outcomes and bench-timed samples of the measured phase.
pub struct Tally {
    pub attempted: u64,
    pub fulfilled: u64,
    pub superseded: u64,
    pub api_errors: u64,
    pub unfulfilled: u64,
    /// Wall latency per intent, in chunks of `CHUNK` fulfilments.
    pub wall_ms: Chunks,
    /// Fulfilments per wall second of each `wall_ms` chunk.
    pub chunk_rate: Histogram,
    /// Virtual samples.
    pub ttf_ms: Histogram,
    pub fpt_ms: Histogram,
    pub dt_ms: Histogram,
    pub bpt_ms: Histogram,
    pub commit_us: Histogram,
    pub query_us: Chunks,
    pub step_us: Histogram,
    pub step_ns: u64,
    pub pump_ns: u64,
    /// The bench's own bookkeeping: generator decisions and detection.
    pub bench_ns: u64,
    pub user_observed: u64,
    pub measured_ns: u64,
    /// Wall time of the epochs including host probes (the span clock).
    pub raw_ns: u64,
    pub epochs: usize,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            fulfilled: 0,
            superseded: 0,
            api_errors: 0,
            unfulfilled: 0,
            wall_ms: Chunks::new(CHUNK),
            chunk_rate: Histogram::new(),
            ttf_ms: Histogram::new(),
            fpt_ms: Histogram::new(),
            dt_ms: Histogram::new(),
            bpt_ms: Histogram::new(),
            commit_us: Histogram::new(),
            query_us: Chunks::new(CHUNK),
            step_us: Histogram::new(),
            step_ns: 0,
            pump_ns: 0,
            bench_ns: 0,
            user_observed: 0,
            measured_ns: 0,
            raw_ns: 0,
            epochs: 0,
        }
    }

    pub fn failed(&self) -> u64 {
        self.api_errors + self.unfulfilled
    }
}

/// Named correctness checks: pass count and the first failure.
#[derive(Default)]
pub struct Checks(pub BTreeMap<&'static str, (u64, Option<String>)>);

impl Checks {
    pub fn record(&mut self, name: &'static str, result: Result<(), String>) {
        let entry = self.0.entry(name).or_default();
        match result {
            Ok(()) => entry.0 += 1,
            Err(e) => {
                entry.1.get_or_insert(e);
            }
        }
    }

    pub fn all_ok(&self) -> bool {
        self.0.values().all(|(_, fail)| fail.is_none())
    }
}

/// Cheap public markers read around a step to attribute it to a layer.
#[derive(Clone, Copy)]
struct Marks {
    trace_len: usize,
    revision: u64,
    deliveries: u64,
    delivered: u64,
    plans: usize,
    lands: usize,
}

fn marks(space: &Space) -> Marks {
    let w = &space.world;
    let count = |h: &str| w.metrics.histogram(h).map_or(0, Histogram::count);
    Marks {
        trace_len: w.trace.len(),
        revision: w.api.revision(),
        deliveries: w.metrics.counter("driver_deliveries"),
        delivered: w.api.watch_stats().events_delivered,
        plans: count("plan_ns"),
        lands: count("land_ns"),
    }
}

/// The layer a step (or pump) worked for, from the effects it left: the
/// first trace kind it appended, else a driver delivery, else plan/land
/// work, a commit or a watch delivery — controller work, since drivers and
/// the user CLI leave their own marks — else nothing attributable.
fn classify(space: &Space, before: Marks, after: Marks) -> Layer {
    if after.trace_len > before.trace_len {
        return match space.world.trace.entries()[before.trace_len].kind {
            TraceKind::DriverReconciled => Layer::Driver,
            TraceKind::DeviceCommand | TraceKind::DeviceDone => Layer::Device,
            TraceKind::UserObserved => Layer::UserCli,
            TraceKind::PolicyFired | TraceKind::Composition => Layer::Controller,
            TraceKind::UserIntent | TraceKind::Commit => Layer::Other,
        };
    }
    if after.deliveries > before.deliveries {
        Layer::Driver
    } else if after.plans > before.plans
        || after.lands > before.lands
        || after.revision > before.revision
        || after.delivered > before.delivered
    {
        Layer::Controller
    } else {
        Layer::Other
    }
}

fn read_f64(api: &ApiServer, oref: &ObjectRef, path: &str) -> Option<f64> {
    api.get_path(Space::USER, oref, path).ok()?.as_f64()
}

fn read_str(api: &ApiServer, oref: &ObjectRef, path: &str) -> Option<String> {
    api.get_path(Space::USER, oref, path)
        .ok()?
        .as_str()
        .map(str::to_string)
}

fn close(a: Option<f64>, b: f64, tol: f64) -> bool {
    a.is_some_and(|a| (a - b).abs() <= tol)
}

/// FNV-1a over the trace (t, kind, subject, detail) and the rendered store.
pub fn digest(space: &Space) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in space.world.trace.entries() {
        eat(&e.t.to_le_bytes());
        eat(format!("{:?}", e.kind).as_bytes());
        eat(e.subject.as_bytes());
        eat(e.detail.as_bytes());
    }
    for o in space.world.api.dump() {
        eat(o.oref.to_string().as_bytes());
        eat(&o.resource_version.to_le_bytes());
        eat(dspace_value::json::to_string(&o.model).as_bytes());
    }
    h
}

pub struct Runner {
    spec: Spec,
    seed: u64,
    pub fleet: Fleet,
    pub space_stats: SpaceStats,
    actions: BTreeMap<(Time, u64), Action>,
    seq: u64,
    gen: Rng,
    outstanding: Vec<Vec<Option<Pending>>>,
    n_outstanding: usize,
    epoch_end: Time,
    issued: usize,
    quota: usize,
    last_input: Time,
    scan_pos: usize,
    query: Query,
    next_id: u64,
    pub spans: Spans,
    pub tally: Tally,
    pub checks: Checks,
    epoch_t0: Instant,
    chunk_start_ns: u64,
}

impl Runner {
    pub fn new(spec: Spec, seed: u64, fleet: Fleet, space_stats: SpaceStats, spans: Spans) -> Self {
        let outstanding = fleet
            .homes
            .iter()
            .map(|h| h.rooms.iter().map(|_| None).collect())
            .collect();
        let scan_pos = fleet.space.world.trace.len();
        Runner {
            spec,
            seed,
            fleet,
            space_stats,
            actions: BTreeMap::new(),
            seq: 0,
            gen: Rng::new(seed),
            outstanding,
            n_outstanding: 0,
            epoch_end: 0,
            issued: 0,
            quota: 0,
            last_input: 0,
            scan_pos,
            query: dashboard_query(),
            next_id: 0,
            spans,
            tally: Tally::new(),
            checks: Checks::default(),
            epoch_t0: Instant::now(),
            chunk_start_ns: 0,
        }
    }

    fn now(&self) -> Time {
        self.fleet.space.sim.now()
    }

    fn push(&mut self, due: Time, action: Action) {
        self.seq += 1;
        self.actions.insert((due, self.seq), action);
    }

    /// Schedules `action` after an exponential gap, if still inside the
    /// epoch's injection window.
    fn push_poisson(&mut self, mean_s: f64, action: Action) {
        let gap = (self.gen.exponential(mean_s) * 1e9) as Time;
        let due = self.now() + gap.max(1);
        if due < self.epoch_end {
            self.push(due, action);
        }
    }

    fn push_periodic(&mut self, every: Time, action: Action) {
        let due = self.now() + every;
        let injecting = match self.spec.drive {
            Drive::ClosedIntents { .. } => self.issued < self.quota,
            _ => due < self.epoch_end,
        };
        if injecting {
            self.push(due, action);
        }
    }

    /// Runs `epochs` epochs, or fewer if the host is so slow that `cutoff`
    /// passes first, recording spans throughout when `trace` is set.
    pub fn measure(&mut self, epochs: usize, cutoff: Instant, trace: bool) {
        self.spans.active = trace;
        for e in 0..epochs {
            if e > 0 && Instant::now() >= cutoff {
                break;
            }
            let start = Instant::now();
            self.epoch_t0 = start;
            self.run_epoch(e);
            // `epoch_t0` moved forward by every probe, `start` did not.
            self.tally.measured_ns += self.epoch_t0.elapsed().as_nanos() as u64;
            self.tally.raw_ns += start.elapsed().as_nanos() as u64;
            self.tally.epochs += 1;
            self.spans.active = false;
            self.check_epoch();
            self.spans.active = trace;
        }
        self.spans.active = false;
    }

    fn run_epoch(&mut self, e: usize) {
        self.gen = Rng::new(self.seed ^ GEN_SALT).stream(e as u64);
        let start = self.now();
        self.epoch_end = start + self.spec.epoch;
        self.last_input = start;
        let live: Vec<usize> = self.fleet.live.iter().copied().collect();
        match self.spec.drive {
            Drive::OpenIntents { mean_s } => {
                for &home in &live {
                    self.push_poisson(mean_s, Action::Intent { home: Some(home) });
                }
            }
            Drive::Flips { mean_s } => {
                for &home in &live {
                    self.push_poisson(mean_s, Action::Flip { home });
                }
            }
            Drive::ClosedIntents { per_epoch } => {
                self.epoch_end = Time::MAX;
                self.issued = 0;
                self.quota = per_epoch;
                self.push(start, Action::Intent { home: None });
            }
        }
        self.push_periodic(self.spec.query_every, Action::Query);
        if let Some(every) = self.spec.churn_every {
            self.push_periodic(every, Action::Churn);
        }
        loop {
            let next_event = self.fleet.space.sim.next_at();
            if let Some((&(due, seq), _)) = self.actions.first_key_value() {
                if next_event.is_none_or(|t| due < t) {
                    let action = self.actions.remove(&(due, seq)).expect("queued action");
                    let sp = &mut self.fleet.space;
                    sp.sim.run_until(&mut sp.world, due);
                    self.last_input = due;
                    self.execute(action);
                    continue;
                }
            } else if self.drained(next_event) {
                break;
            }
            let sp = &mut self.fleet.space;
            let traced = self.spans.active;
            let m0 = traced.then(|| marks(sp));
            let t0 = Instant::now();
            sp.sim.step(&mut sp.world);
            let t1 = Instant::now();
            let m1 = traced.then(|| marks(sp));
            let t1m = Instant::now();
            sp.world.pump(&mut sp.sim);
            let t2 = Instant::now();
            let vt = sp.sim.now();
            let (step_ns, pump_ns) = (t1 - t0, t2 - t1m);
            self.tally.step_ns += step_ns.as_nanos() as u64;
            self.tally.pump_ns += pump_ns.as_nanos() as u64;
            self.tally.step_us.record(step_ns.as_secs_f64() * 1e6);
            if let (Some(m0), Some(m1)) = (m0, m1) {
                let sp = &self.fleet.space;
                let step_layer = classify(sp, m0, m1);
                let pump_layer = if marks(sp).plans > m1.plans {
                    Layer::Controller
                } else {
                    Layer::Pump
                };
                self.spans.record("core.step", step_layer, t0, t1, vt);
                self.spans.record("core.pump", pump_layer, t1m, t2, vt);
                // Reading the markers is work only a traced run does.
                self.spans.charge(t1m - t1 + t2.elapsed());
            }
            self.detect();
            let probe = self.space_stats.host.tick(t2);
            if !probe.is_zero() {
                // Probe time is not measured time.
                self.epoch_t0 += probe;
                self.spans
                    .record("bench.probe", Layer::Bench, t2, t2 + probe, vt);
            }
        }
        // Whatever is still outstanding after the drain has failed.
        for slot in self.outstanding.iter_mut().flatten() {
            if slot.take().is_some() {
                self.tally.unfulfilled += 1;
            }
        }
        self.n_outstanding = 0;
        self.spans.intent_abort();
    }

    /// True once the epoch has nothing left to do: every intent resolved
    /// and the space quiescent, or the drain allowance is spent.
    fn drained(&self, next_event: Option<Time>) -> bool {
        let sp = &self.fleet.space;
        if self.n_outstanding == 0
            && sp.sim.foreground_pending() == 0
            && !sp.world.has_pending_work()
        {
            return true;
        }
        next_event.is_none_or(|t| t > self.last_input.saturating_add(DRAIN))
    }

    fn pump(&mut self) {
        let t0 = Instant::now();
        let sp = &mut self.fleet.space;
        sp.world.pump(&mut sp.sim);
        let t1 = Instant::now();
        self.tally.pump_ns += (t1 - t0).as_nanos() as u64;
        let vt = self.now();
        self.spans.record("core.pump", Layer::Pump, t0, t1, vt);
    }

    fn execute(&mut self, action: Action) {
        match action {
            Action::Intent { home } => self.inject_intent(home),
            Action::Flip { home } => self.inject_flip(home),
            Action::Query => self.run_query(),
            Action::Churn => self.churn(),
        }
    }

    fn register(&mut self, home: usize, room: usize, target: Target, wall: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let pending = Pending {
            target,
            t_commit: self.now(),
            wall,
            probed_ns: self.space_stats.host.probe_ns,
            cmd: None,
            done: None,
        };
        let slot = &mut self.outstanding[home][room];
        if slot.replace(pending).is_some() {
            self.tally.superseded += 1;
        } else {
            self.n_outstanding += 1;
        }
        id
    }

    fn inject_intent(&mut self, home: Option<usize>) {
        let t0 = Instant::now();
        let home = match home {
            Some(h) => h,
            None => {
                let i = self.gen.uniform_u64(0, self.fleet.live.len() as u64) as usize;
                self.fleet.live[i]
            }
        };
        if !self.fleet.homes[home].live {
            return;
        }
        let rooms = self.fleet.homes[home].rooms.len() as u64;
        let room = self.gen.uniform_u64(0, rooms) as usize;
        let oref = self.fleet.homes[home].rooms[room].oref.clone();
        let api = &self.fleet.space.world.api;
        let avoid = [
            read_f64(api, &oref, ".control.brightness.intent"),
            read_f64(api, &oref, ".control.brightness.status"),
        ];
        let level = loop {
            let v = self.gen.uniform_u64(5, 96) as f64 / 100.0;
            if avoid.iter().flatten().all(|a| (a - v).abs() >= MIN_STEP) {
                break v;
            }
        };
        let t1 = Instant::now();
        let committed = self.fleet.space.world.api.patch_path(
            Space::USER,
            &oref,
            ".control.brightness.intent",
            Value::from(level),
        );
        let t2 = Instant::now();
        self.tally.attempted += 1;
        self.tally.commit_us.record((t2 - t1).as_secs_f64() * 1e6);
        let id = match committed {
            Ok(_) => Some(self.register(home, room, Target::Level(level), t1)),
            Err(_) => {
                self.tally.api_errors += 1;
                None
            }
        };
        match self.spec.drive {
            Drive::ClosedIntents { .. } => {
                self.issued += 1;
                match id {
                    Some(id) => self.spans.intent_open(id, t1),
                    // Nothing to wait for: the client sends its next intent.
                    None if self.issued < self.quota => {
                        self.push(self.now(), Action::Intent { home: None })
                    }
                    None => {}
                }
            }
            Drive::OpenIntents { mean_s } => {
                self.push_poisson(mean_s, Action::Intent { home: Some(home) })
            }
            Drive::Flips { .. } => {}
        }
        let t3 = Instant::now();
        self.tally.bench_ns += ((t3 - t0) - (t2 - t1)).as_nanos() as u64;
        let calls = [("apiserver.patch_path", Layer::Apiserver, t1, t2)];
        self.spans
            .action("gen.inject", t0, t3, self.now(), id, &calls);
        self.pump();
    }

    fn inject_flip(&mut self, home: usize) {
        let t0 = Instant::now();
        if !self.fleet.homes[home].live {
            return;
        }
        let idle = !self.fleet.homes[home].idle;
        self.fleet.homes[home].idle = idle;
        let oref = self.fleet.homes[home].rooms[0].oref.clone();
        let activity = if idle { "IDLE" } else { "ACTIVE" };
        let patch = dspace_value::object([(
            "obs",
            dspace_value::object([("activity", Value::from(activity))]),
        )]);
        let t1 = Instant::now();
        let sp = &mut self.fleet.space;
        sp.world.physical_event(&oref, patch, &sp.sim);
        let t2 = Instant::now();
        self.tally.attempted += 1;
        self.tally.commit_us.record((t2 - t1).as_secs_f64() * 1e6);
        let id = self.register(home, 0, Target::Activity { idle }, t1);
        if let Drive::Flips { mean_s } = self.spec.drive {
            self.push_poisson(mean_s, Action::Flip { home });
        }
        let t3 = Instant::now();
        self.tally.bench_ns += ((t3 - t0) - (t2 - t1)).as_nanos() as u64;
        let calls = [("world.physical_event", Layer::Apiserver, t1, t2)];
        self.spans
            .action("gen.flip", t0, t3, self.now(), Some(id), &calls);
        self.pump();
    }

    fn run_query(&mut self) {
        let t0 = Instant::now();
        let result = self.fleet.space.world.api.query(Space::USER, &self.query);
        let t1 = Instant::now();
        let scale = self.space_stats.host.scale();
        self.tally
            .query_us
            .record((t1 - t0).as_secs_f64() * 1e6 * scale);
        self.checks
            .record("query_ok", result.map(drop).map_err(|e| e.to_string()));
        self.push_periodic(self.spec.query_every, Action::Query);
        let t2 = Instant::now();
        self.tally.bench_ns += (t2 - t1).as_nanos() as u64;
        let calls = [("apiserver.query", Layer::Apiserver, t0, t1)];
        self.spans
            .action("gen.query", t0, t2, self.now(), None, &calls);
    }

    fn churn(&mut self) {
        let t0 = Instant::now();
        let left = self.fleet.leave_oldest(&mut self.space_stats);
        let t1 = Instant::now();
        let joined = self.fleet.join(&mut self.space_stats);
        let t2 = Instant::now();
        match left {
            Ok(home) => {
                for slot in &mut self.outstanding[home] {
                    if slot.take().is_some() {
                        // Cancelled by the tenant leaving: counted apart.
                        self.tally.superseded += 1;
                        self.n_outstanding -= 1;
                    }
                }
            }
            Err(e) => self.checks.record("churn_ok", Err(e)),
        }
        match joined {
            Ok(home) => {
                let rooms = self.fleet.homes[home].rooms.len();
                self.outstanding.push((0..rooms).map(|_| None).collect());
                if let Drive::OpenIntents { mean_s } = self.spec.drive {
                    self.push_poisson(mean_s, Action::Intent { home: Some(home) });
                }
            }
            Err(e) => self.checks.record("churn_ok", Err(e)),
        }
        if let Some(every) = self.spec.churn_every {
            self.push_periodic(every, Action::Churn);
        }
        let t3 = Instant::now();
        self.tally.bench_ns += (t3 - t2).as_nanos() as u64;
        let calls = [
            ("space.leave", Layer::Space, t0, t1),
            ("space.join", Layer::Space, t1, t2),
        ];
        self.spans
            .action("gen.churn", t0, t3, self.now(), None, &calls);
    }

    /// Scans the trace entries appended since the last pass: device
    /// commands and completions for the Figure-7 split, and user-CLI
    /// observations of rooms for fulfilment.
    fn detect(&mut self) {
        let len = self.fleet.space.world.trace.len();
        if len == self.scan_pos {
            return;
        }
        let t0 = Instant::now();
        let vt = self.now();
        let mut fulfilled = Vec::new();
        for i in self.scan_pos..len {
            let e = &self.fleet.space.world.trace.entries()[i];
            let subject = self.fleet.subjects.get(&e.subject).copied();
            match (&e.kind, subject) {
                (TraceKind::UserObserved, Some(Subject::Room { home, room })) => {
                    self.tally.user_observed += 1;
                    if let Some(p) = &self.outstanding[home][room] {
                        if self.fulfils(home, room, p.target) {
                            fulfilled.push((home, room));
                        }
                    }
                }
                (TraceKind::UserObserved, _) => self.tally.user_observed += 1,
                (TraceKind::DeviceCommand, Some(Subject::Leaf { home, room })) => {
                    if let Some(p) = &mut self.outstanding[home][room] {
                        if p.cmd.is_none() {
                            p.cmd = Some((e.subject.clone(), e.t));
                        }
                    }
                }
                (TraceKind::DeviceDone, Some(Subject::Leaf { home, room })) => {
                    if let Some(p) = &mut self.outstanding[home][room] {
                        if p.done.is_none() && p.cmd.as_ref().is_some_and(|c| c.0 == e.subject) {
                            p.done = Some(e.t);
                        }
                    }
                }
                _ => {}
            }
        }
        self.scan_pos = len;
        let at = Instant::now();
        for (home, room) in fulfilled {
            if let Some(p) = self.outstanding[home][room].take() {
                self.fulfil(p, vt, at, t0);
            }
        }
        let t1 = Instant::now();
        self.tally.bench_ns += (t1 - t0).as_nanos() as u64;
        self.spans.record("bench.detect", Layer::Bench, t0, t1, vt);
    }

    fn fulfil(&mut self, p: Pending, vt: Time, at: Instant, detect_start: Instant) {
        self.n_outstanding -= 1;
        self.tally.fulfilled += 1;
        let host = &self.space_stats.host;
        let probed = host.probe_ns - p.probed_ns;
        let wall_ns = at.duration_since(p.wall).as_nanos() as u64 - probed;
        if self
            .tally
            .wall_ms
            .record(wall_ns as f64 / 1e6 * host.scale())
        {
            let now_ns =
                self.tally.measured_ns + at.duration_since(self.epoch_t0).as_nanos() as u64;
            let secs = (now_ns - self.chunk_start_ns) as f64 / 1e9;
            self.chunk_start_ns = now_ns;
            self.tally
                .chunk_rate
                .record(CHUNK as f64 / secs / host.scale());
        }
        // The Figure-7 split, with the boundaries `dspace_bench::fig7`
        // uses: commit → leaf command (FPT) → device done (DT) → the user
        // CLI observing the room (BPT).
        let ms = |t: Time| t as f64 / 1e6;
        self.tally.ttf_ms.record(ms(vt - p.t_commit));
        if let (Some((_, cmd)), Some(done)) = (p.cmd, p.done) {
            self.tally.fpt_ms.record(ms(cmd - p.t_commit));
            self.tally.dt_ms.record(ms(done - cmd));
            self.tally.bpt_ms.record(ms(vt - done));
        }
        if let Drive::ClosedIntents { .. } = self.spec.drive {
            self.spans.intent_close(at, detect_start);
            if self.issued < self.quota {
                self.push(vt, Action::Intent { home: None });
            }
        }
    }

    /// Whether the room, as the user CLI just observed it, fulfils `target`.
    fn fulfils(&self, home: usize, room: usize, target: Target) -> bool {
        let api = &self.fleet.space.world.api;
        let r = &self.fleet.homes[home].rooms[room];
        let status = read_f64(api, &r.oref, ".control.brightness.status");
        match target {
            Target::Level(v) => close(status, v, TOL),
            Target::Activity { idle } => {
                let want = if idle { "yielded" } else { "active" };
                let mounts_ok = r.lamps.iter().all(|l| {
                    let path = format!(".mount.UniLamp.{}.status", l.unilamp.name);
                    read_str(api, &r.oref, &path).as_deref() == Some(want)
                });
                mounts_ok && (!idle || close(status, SAVING_BRIGHTNESS, TOL))
            }
        }
    }

    /// Every live room and its lamps agree with each other and with the
    /// room's intent (or, on policy homes, with whichever parent the
    /// policy put in control); the dashboard query matches a brute-force
    /// scan of the store.
    pub fn check_epoch(&mut self) {
        let result = converged(&self.fleet, &self.spec);
        self.checks.record("converged", result);
        let result = query_matches_scan(&mut self.fleet.space, &self.query);
        self.checks.record("query_equals_scan", result);
    }
}

/// The convergence check over every live home.
pub fn converged(fleet: &Fleet, spec: &Spec) -> Result<(), String> {
    let api = &fleet.space.world.api;
    let graph = fleet.space.world.graph.borrow();
    for &h in &fleet.live {
        let home = &fleet.homes[h];
        for room in &home.rooms {
            let mut sum = 0.0;
            for lamp in &room.lamps {
                let (ul, vendor) = (&lamp.unilamp, &lamp.vendor);
                let ul_i = read_f64(api, ul, ".control.brightness.intent");
                let ul_s = read_f64(api, ul, ".control.brightness.status");
                let v_i = read_f64(api, vendor, ".control.brightness.intent");
                let v_s = read_f64(api, vendor, ".control.brightness.status");
                let expect_v = ul_i.and_then(|u| to_vendor_brightness(&vendor.kind, u));
                let back = v_s.and_then(|v| from_vendor_brightness(&vendor.kind, v));
                if expect_v.is_none() || v_i != expect_v || v_s != v_i || ul_s != back {
                    return Err(format!(
                        "{vendor} not converged: unilamp intent {ul_i:?} status {ul_s:?}, \
                         vendor intent {v_i:?} status {v_s:?}"
                    ));
                }
                sum += ul_s.unwrap_or(0.0);
                if spec.home == HomeKind::Motion {
                    let expect = if home.idle {
                        home.pc.as_ref()
                    } else {
                        Some(&room.oref)
                    };
                    let parent = graph.active_parent(ul);
                    if parent.as_ref() != expect {
                        return Err(format!("{ul} controlled by {parent:?}, want {expect:?}"));
                    }
                    if home.idle && !close(ul_i, SAVING_BRIGHTNESS, 1e-9) {
                        return Err(format!("{ul} at {ul_i:?} while the power controller saves"));
                    }
                }
            }
            let r_s = read_f64(api, &room.oref, ".control.brightness.status");
            let mean = sum / room.lamps.len() as f64;
            if !close(r_s, (mean * 1000.0).round() / 1000.0, 1e-9) {
                return Err(format!(
                    "{} status {r_s:?}, lamps average {mean}",
                    room.oref
                ));
            }
            let r_i = read_f64(api, &room.oref, ".control.brightness.intent");
            if spec.home != HomeKind::Motion && r_i.is_some_and(|i| !close(r_s, i, TOL)) {
                return Err(format!("{} status {r_s:?}, intent {r_i:?}", room.oref));
            }
        }
    }
    Ok(())
}

/// Indexed dashboard query ≡ brute-force filter over the store dump.
pub fn query_matches_scan(space: &mut Space, q: &Query) -> Result<(), String> {
    let indexed: BTreeSet<ObjectRef> = space
        .world
        .api
        .query(Space::USER, q)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|o| o.oref)
        .collect();
    let scanned: BTreeSet<ObjectRef> = space
        .world
        .api
        .dump()
        .into_iter()
        .filter(|o| {
            o.oref.kind == "GeeniLamp"
                && o.model
                    .get_path(".control.brightness.status")
                    .and_then(Value::as_f64)
                    .is_some_and(|v| v > 900.0)
        })
        .map(|o| o.oref)
        .collect();
    if indexed == scanned {
        Ok(())
    } else {
        Err(format!(
            "indexed query returned {} objects, scan {}",
            indexed.len(),
            scanned.len()
        ))
    }
}
