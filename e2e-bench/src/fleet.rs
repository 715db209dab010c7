//! Building and tearing down a fleet of homes, one namespace per home, from
//! the catalogue digis and the S1/S3/S4/S9 scenario configurations.
//!
//! Every public runtime call the bench makes here is timed from outside
//! (`Space::create_digi_in`, `Space::mount`, `Space::delete_namespace`), and
//! every device is wrapped in a [`Probe`] that times its `Actuator` calls.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dspace_apiserver::{DurabilityOptions, ObjectRef};
use dspace_bench::fig7::Setup;
use dspace_core::actuator::{Actuation, Actuator};
use dspace_core::policy::parse_ref;
use dspace_core::{MountMode, Space, SpaceConfig};
use dspace_devices::{GeeniLamp, LifxLamp, RingMotionSensor};
use dspace_digis::scenarios::{s1, s3, s4, s9};
use dspace_simnet::{Histogram, LatencyModel, Rng, Time};
use dspace_value::{yaml, Value};

use crate::stats::{Chunks, Host};
use crate::workload::{HomeKind, Spec};

/// A universal lamp and the vendor lamp mounted below it.
pub struct Lamp {
    pub unilamp: ObjectRef,
    pub vendor: ObjectRef,
}

/// A room digivice and the lamps it controls.
pub struct Room {
    pub oref: ObjectRef,
    pub lamps: Vec<Lamp>,
}

/// One tenant: a namespace holding one home's digis.
pub struct Home {
    pub ns: String,
    pub rooms: Vec<Room>,
    /// The S9 power controller, on `Motion` homes.
    pub pc: Option<ObjectRef>,
    /// Last activity the generator set (`Motion` homes).
    pub idle: bool,
    pub live: bool,
}

/// What a trace subject belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Subject {
    Room { home: usize, room: usize },
    Leaf { home: usize, room: usize },
}

/// Wall-clock samples of the space-level calls (µs) and of whole home
/// joins and leaves (ms).
pub struct SpaceStats {
    /// Scales join and leave times to the reference host.
    pub host: Host,
    pub create_us: Histogram,
    pub mount_us: Histogram,
    pub join_ms: Chunks,
    pub leave_ms: Chunks,
}

impl Default for SpaceStats {
    fn default() -> Self {
        SpaceStats {
            host: Host::new(),
            create_us: Histogram::new(),
            mount_us: Histogram::new(),
            join_ms: Chunks::new(32),
            leave_ms: Chunks::new(32),
        }
    }
}

/// What the device probes saw.
#[derive(Default)]
pub struct DeviceStats {
    pub commands: u64,
    pub actuate_us: Histogram,
    pub ticks: u64,
    /// Wall time inside `actuate` and `step`.
    pub busy_ns: u64,
}

/// An `Actuator` wrapper that counts and times every call into the
/// device it wraps.
struct Probe {
    inner: Box<dyn Actuator>,
    stats: Rc<RefCell<DeviceStats>>,
}

impl Actuator for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn actuate(&mut self, now: Time, cmd: &Value, rng: &mut Rng) -> Vec<Actuation> {
        let t0 = Instant::now();
        let acts = self.inner.actuate(now, cmd, rng);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.commands += 1;
        s.actuate_us.record(ns as f64 / 1e3);
        s.busy_ns += ns;
        acts
    }

    fn step(&mut self, now: Time, model: &Value, rng: &mut Rng) -> Vec<Actuation> {
        let t0 = Instant::now();
        let acts = self.inner.step(now, model, rng);
        let mut s = self.stats.borrow_mut();
        s.ticks += 1;
        s.busy_ns += t0.elapsed().as_nanos() as u64;
        acts
    }

    fn poll_interval(&self) -> Option<Time> {
        self.inner.poll_interval()
    }
}

/// A WAL/checkpoint directory next to the bench binary (inside the build
/// directory), removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> std::io::Result<ScratchDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let tag = NEXT.fetch_add(1, Ordering::Relaxed);
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .unwrap_or(std::path::Path::new("."))
            .join("e2e-wal");
        let dir = base.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// Total bytes of the files in the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(base) = self.0.parent() {
            let _ = std::fs::remove_dir(base); // only succeeds once empty
        }
    }
}

/// A running fleet. `space` is declared before `wal` so the store (and its
/// journal handles) drops before the directory is removed.
pub struct Fleet {
    pub space: Space,
    pub homes: Vec<Home>,
    /// Live homes, oldest first.
    pub live: VecDeque<usize>,
    pub subjects: HashMap<String, Subject>,
    pub devices: Rc<RefCell<DeviceStats>>,
    pub wal: Option<ScratchDir>,
    kind: HomeKind,
    motion_mean_s: f64,
}

/// The shard worker cap a spec runs at on this host.
pub fn thread_cap(spec: &Spec, threads_override: Option<usize>) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads_override
        .unwrap_or(spec.max_threads.min(cores))
        .max(1)
}

impl Fleet {
    /// An empty space configured for `spec`: catalogue kinds registered,
    /// latency models and shard cap set, durable when the spec asks.
    pub fn new(spec: &Spec, seed: u64, threads: usize) -> Result<Fleet, String> {
        let wal = if spec.durable {
            Some(ScratchDir::new().map_err(|e| format!("WAL directory: {e}"))?)
        } else {
            None
        };
        let mut config = SpaceConfig {
            links: Setup::OnPrem.links(),
            seed,
            threads,
            durability: wal.as_ref().map(|d| DurabilityOptions::new(&d.0)),
            ..SpaceConfig::default()
        };
        if spec.slow_controllers {
            config.reconcile = LatencyModel::FixedMs(10.0);
            config.controller_reconcile = LatencyModel::FixedMs(40.0);
            config.admission = LatencyModel::FixedMs(1.0);
        }
        let mut space = Space::open(config).map_err(|e| format!("open store: {e}"))?;
        dspace_digis::register_all(&mut space);
        Ok(Fleet {
            space,
            homes: Vec::new(),
            live: VecDeque::new(),
            subjects: HashMap::new(),
            devices: Rc::new(RefCell::new(DeviceStats::default())),
            wal,
            kind: spec.home,
            motion_mean_s: spec.motion_mean_s,
        })
    }

    /// Builds a spec's homes and settles the space until quiescent.
    pub fn populate(&mut self, homes: usize, stats: &mut SpaceStats) -> Result<(), String> {
        for _ in 0..homes {
            stats.host.tick(Instant::now());
            self.join(stats)?;
        }
        self.space.settle(120_000);
        Ok(())
    }

    /// A new home joins in its own namespace: creates, device attachment,
    /// mounts, reflexes, policies and initial intents of its scenarios.
    /// Returns the home's index.
    pub fn join(&mut self, stats: &mut SpaceStats) -> Result<usize, String> {
        let t0 = Instant::now();
        let id = self.homes.len();
        let ns = format!("h{id}");
        let mut names: BTreeMap<&'static str, ObjectRef> = BTreeMap::new();
        for &(digis, mounts, config) in recipe(self.kind) {
            for &(kind, name) in digis {
                self.create(&ns, kind, name, &mut names, stats)?;
            }
            for &(child, parent) in mounts {
                self.mount(&names[child], &names[parent], stats)?;
            }
            self.apply_config(&ns, config, &names, stats)?;
        }
        let rooms: Vec<Room> = match self.kind {
            HomeKind::S1 | HomeKind::Motion => {
                vec![room_of(&names, "lvroom", &[("ul1", "l1"), ("ul2", "l2")])]
            }
            HomeKind::S4 => vec![
                room_of(&names, "lvroom", &[("ul1", "l1")]),
                room_of(&names, "bedroom", &[("ul2", "l2")]),
            ],
        };
        for (r, room) in rooms.iter().enumerate() {
            let home = id;
            self.subjects
                .insert(room.oref.to_string(), Subject::Room { home, room: r });
            for lamp in &room.lamps {
                let leaf = Subject::Leaf { home, room: r };
                self.subjects.insert(lamp.vendor.to_string(), leaf);
            }
        }
        self.homes.push(Home {
            ns,
            rooms,
            pc: names.get("pc").cloned(),
            idle: false,
            live: true,
        });
        self.live.push_back(id);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        stats.join_ms.record(ms * stats.host.scale());
        Ok(id)
    }

    /// The oldest live home leaves: its namespace is deleted.
    pub fn leave_oldest(&mut self, stats: &mut SpaceStats) -> Result<usize, String> {
        let id = self.live.pop_front().ok_or("no live home to leave")?;
        let t0 = Instant::now();
        self.space
            .delete_namespace(&self.homes[id].ns)
            .map_err(|e| format!("delete_namespace {}: {e}", self.homes[id].ns))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        stats.leave_ms.record(ms * stats.host.scale());
        let home = &mut self.homes[id];
        home.live = false;
        for room in &home.rooms {
            self.subjects.remove(&room.oref.to_string());
            for lamp in &room.lamps {
                self.subjects.remove(&lamp.vendor.to_string());
            }
        }
        Ok(id)
    }

    /// Every live home leaves, oldest first.
    pub fn teardown(&mut self, stats: &mut SpaceStats) -> Result<(), String> {
        while !self.live.is_empty() {
            stats.host.tick(Instant::now());
            self.leave_oldest(stats)?;
        }
        Ok(())
    }

    fn create(
        &mut self,
        ns: &str,
        kind: &str,
        name: &'static str,
        names: &mut BTreeMap<&'static str, ObjectRef>,
        stats: &mut SpaceStats,
    ) -> Result<(), String> {
        let driver = dspace_digis::driver_for(kind).ok_or(format!("no driver for {kind}"))?;
        let t0 = Instant::now();
        let oref = self
            .space
            .create_digi_in(kind, ns, name, driver)
            .map_err(|e| format!("create {kind}/{ns}/{name}: {e}"))?;
        stats.create_us.record(t0.elapsed().as_secs_f64() * 1e6);
        let device: Option<Box<dyn Actuator>> = match kind {
            "GeeniLamp" => Some(Box::new(GeeniLamp::new())),
            "LifxLamp" => Some(Box::new(LifxLamp::new())),
            "RingMotion" => Some(Box::new(RingMotionSensor::with_poisson(self.motion_mean_s))),
            _ => None,
        };
        if let Some(inner) = device {
            let probe = Probe {
                inner,
                stats: Rc::clone(&self.devices),
            };
            self.space.attach_actuator(&oref, Box::new(probe));
        }
        names.insert(name, oref);
        Ok(())
    }

    fn mount(
        &mut self,
        child: &ObjectRef,
        parent: &ObjectRef,
        stats: &mut SpaceStats,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        self.space
            .mount(child, parent, MountMode::Expose)
            .map_err(|e| format!("mount {child} -> {parent}: {e}"))?;
        stats.mount_us.record(t0.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    /// Applies a scenario's end-user configuration inside namespace `ns`:
    /// the catalogue YAML names digis as `Kind/name` in `default`, so refs
    /// are re-homed and policy documents rewritten to the home's namespace.
    fn apply_config(
        &mut self,
        ns: &str,
        config: &str,
        names: &BTreeMap<&'static str, ObjectRef>,
        stats: &mut SpaceStats,
    ) -> Result<(), String> {
        let text = config
            .replace("/default/", &format!("/{ns}/"))
            .replace("namespace: default", &format!("namespace: {ns}"));
        let doc = yaml::parse(&text).map_err(|e| format!("scenario config: {e}"))?;
        let rehome = |v: &Value, field: &str| -> Result<ObjectRef, String> {
            let s = v.get_path(field).and_then(Value::as_str).unwrap_or("");
            let r = parse_ref(s).map_err(|e| format!("config ref {s}: {e}"))?;
            Ok(ObjectRef::new(r.kind.as_str(), ns, r.name.as_str()))
        };
        for m in section(&doc, ".mounts") {
            self.mount(&rehome(&m, "child")?, &rehome(&m, "parent")?, stats)?;
        }
        for r in section(&doc, ".reflexes") {
            let target = rehome(&r, "target")?;
            let field = |f: &str| r.get_path(f).and_then(Value::as_str).unwrap_or("");
            let priority = r
                .get_path("priority")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            self.space
                .add_reflex(&target, field("name"), field("policy"), priority as i64)
                .map_err(|e| format!("reflex on {target}: {e}"))?;
        }
        for p in section(&doc, ".policies") {
            let name = p
                .get_path("meta.name")
                .and_then(Value::as_str)
                .unwrap_or("policy")
                .to_string();
            self.space
                .world
                .api
                .client(Space::USER)
                .namespace(ns)
                .create("Policy", &name, p)
                .map_err(|e| format!("policy {ns}/{name}: {e}"))?;
            self.space.pump();
        }
        for i in section(&doc, ".intents") {
            let spec = i.get_path("target").and_then(Value::as_str).unwrap_or("");
            let (name, attr) = spec.split_once('/').ok_or(format!("intent {spec}"))?;
            let oref = names.get(name).ok_or(format!("intent target {name}"))?;
            let value = i.get_path("value").cloned().unwrap_or(Value::Null);
            let path = format!(".control.{attr}.intent");
            self.space
                .world
                .api
                .patch_path(Space::USER, oref, &path, value)
                .map_err(|e| format!("intent {oref}{path}: {e}"))?;
            self.space.pump();
        }
        Ok(())
    }
}

/// Catalogue digis `(kind, name)`, mounts `(child, parent)` made in code,
/// and the scenario configuration applied after them.
type Stage = (
    &'static [(&'static str, &'static str)],
    &'static [(&'static str, &'static str)],
    &'static str,
);

const S1_DIGIS: &[(&str, &str)] = &[
    ("GeeniLamp", "l1"),
    ("LifxLamp", "l2"),
    ("UniLamp", "ul1"),
    ("UniLamp", "ul2"),
    ("Room", "lvroom"),
];

/// What a home of each kind is built from, in order. S4 mounts its lamps
/// in code (as `S4::build` does); its configuration mounts the rooms.
fn recipe(kind: HomeKind) -> &'static [Stage] {
    match kind {
        HomeKind::S1 => &[(S1_DIGIS, &[], s1::CONFIG)],
        HomeKind::Motion => &[
            (S1_DIGIS, &[], s1::CONFIG),
            (&[("RingMotion", "motion1")], &[], s3::CONFIG),
            (&[("PowerController", "pc")], &[], s9::CONFIG),
        ],
        HomeKind::S4 => &[(
            &[
                ("GeeniLamp", "l1"),
                ("UniLamp", "ul1"),
                ("Room", "lvroom"),
                ("LifxLamp", "l2"),
                ("UniLamp", "ul2"),
                ("Room", "bedroom"),
                ("Home", "home"),
            ],
            &[
                ("l1", "ul1"),
                ("l2", "ul2"),
                ("ul1", "lvroom"),
                ("ul2", "bedroom"),
            ],
            s4::CONFIG,
        )],
    }
}

fn section(doc: &Value, path: &str) -> Vec<Value> {
    doc.get_path(path)
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default()
}

fn room_of(names: &BTreeMap<&'static str, ObjectRef>, room: &str, lamps: &[(&str, &str)]) -> Room {
    Room {
        oref: names[room].clone(),
        lamps: lamps
            .iter()
            .map(|(ul, vendor)| Lamp {
                unilamp: names[ul].clone(),
                vendor: names[vendor].clone(),
            })
            .collect(),
    }
}
