//! Scenes and run fingerprints shared by the runtime integration tests.
//!
//! Each scene is a fixed script over the whole controller runtime
//! (mounter, syncer, policer, drivers); [`summarize`] captures everything
//! observable about a finished run and [`digest`] folds the same fields
//! into one 64-bit FNV-1a value for the committed golden digests.

// Every test binary uses its own subset of the helpers.
#![allow(dead_code)]

use dspace_core::driver::{Driver, Filter};
use dspace_core::graph::MountMode;
use dspace_core::world::LinkSet;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::{LatencyModel, Link};
use dspace_value::{json, AttrType, KindSchema};

/// The machine's available parallelism: the "max" shard-thread cap.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn lamp_schema() -> KindSchema {
    KindSchema::digivice("digi.dev", "v1", "Lamp")
        .control("brightness", AttrType::Number)
        .mounts("Lamp")
}

fn cam_schema() -> KindSchema {
    KindSchema::digidata("digi.dev", "v1", "Cam")
        .output("frames", AttrType::String)
        .obs("motion", AttrType::Bool)
}

fn scene_schema() -> KindSchema {
    KindSchema::digidata("digi.dev", "v1", "Scene").input("frames", AttrType::String)
}

/// A driver that acknowledges intent by writing status into its own model.
pub fn ack_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::on_control(), 0, "ack", |ctx| {
        let intent = ctx.digi().intent("brightness");
        if !intent.is_null() && intent != ctx.digi().status("brightness") {
            ctx.digi().set_status("brightness", intent);
        }
    });
    d
}

/// Registers the scene kinds and creates a mounted lamp pair (`kid` under
/// `hub`, acked by `kid`'s driver), ready for mounter traffic.
pub fn lamp_pair(config: SpaceConfig, kid_driver: Driver) -> Space {
    let mut space = Space::new(config);
    space.register_kind(lamp_schema());
    let kid = space.create_digi("Lamp", "kid", kid_driver).unwrap();
    let hub = space.create_digi("Lamp", "hub", Driver::new()).unwrap();
    space.settle(30_000);
    space.mount(&kid, &hub, MountMode::Expose).unwrap();
    space.settle(30_000);
    space
}

/// A scene that exercises all three controllers: a mounted lamp pair (the
/// mounter maintains the hub's replica), a camera piped into a scene digi
/// (the syncer propagates frames), and a motion policy whose rising edge
/// sets brightness 1.0 on each lamp in `rising` — two or more consecutive
/// set-intents take the policer's batched action path.
pub fn build_scene(config: SpaceConfig, rising: &[&str]) -> Space {
    let mut space = Space::new(config);
    space.register_kind(lamp_schema());
    space.register_kind(cam_schema());
    space.register_kind(scene_schema());
    let kid = space.create_digi("Lamp", "kid", ack_driver()).unwrap();
    let hub = space.create_digi("Lamp", "hub", Driver::new()).unwrap();
    let cam = space.create_digi("Cam", "cam", Driver::new()).unwrap();
    let sink = space.create_digi("Scene", "sink", Driver::new()).unwrap();
    space.settle(30_000);
    space.mount(&kid, &hub, MountMode::Expose).unwrap();
    space.pipe(&cam, "frames", &sink, "frames").unwrap();
    let on_rising: String = rising
        .iter()
        .map(|lamp| {
            format!(
                "    - {{action: set-intent, target: Lamp/default/{lamp}, attr: brightness, value: 1.0}}\n"
            )
        })
        .collect();
    let policy = format!(
        r#"
meta: {{kind: Policy, name: motion-lights, namespace: default}}
spec:
  watch: ["Cam/default/cam"]
  condition: .cam.obs.motion == true
  on_rising:
{on_rising}  on_falling:
    - {{action: set-intent, target: Lamp/default/kid, attr: brightness, value: 0.25}}
"#
    );
    space
        .add_policy("motion-lights", dspace_value::yaml::parse(&policy).unwrap())
        .unwrap();
    space.settle(30_000);
    space
}

/// Rounds of user/world activity on a [`build_scene`] space: an intent on
/// the mounted child, a new camera frame through the pipe, and a motion
/// edge for the policy.
pub fn drive(space: &mut Space, rounds: usize) {
    for i in 1..=rounds {
        space
            .set_intent_now("kid/brightness", (i as f64 / 100.0).into())
            .unwrap();
        space.settle(60_000);
        space
            .world
            .api
            .client(dspace_apiserver::ApiServer::ADMIN)
            .namespace("default")
            .patch_path(
                "Cam",
                "cam",
                ".data.output.frames",
                format!("frame-{i}").into(),
            )
            .unwrap();
        space.pump();
        space.settle(60_000);
        space
            .physical_event(
                "cam",
                dspace_value::json::parse(&format!(r#"{{"obs": {{"motion": {}}}}}"#, i % 2 == 1))
                    .unwrap(),
            )
            .unwrap();
        space.settle(60_000);
    }
}

/// The deferred controller path under `drop_pct`% drops on BOTH fault
/// surfaces: the driver wake/commit link (dropped wakes retransmit after
/// RTO, dropped commits retry with backoff) and the controller write link.
/// Nonzero reconcile/controller/admission latencies send every cycle
/// through plan → transmit → admit → land.
pub fn faulty_config(seed: u64, drop_pct: u32, threads: usize) -> SpaceConfig {
    let p = drop_pct as f64 / 100.0;
    let driver_link = Link::new("driver", LatencyModel::FixedMs(8.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 4.0))
        .with_drop_probability(p);
    let write_link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 3.0))
        .with_drop_probability(p);
    SpaceConfig {
        seed,
        threads,
        links: LinkSet {
            driver: driver_link,
            ..LinkSet::default()
        },
        reconcile: LatencyModel::FixedMs(15.0),
        controller_reconcile: LatencyModel::FixedMs(10.0),
        admission: LatencyModel::FixedMs(1.0),
        controller_write: Some(write_link),
        ..SpaceConfig::default()
    }
}

fn power_lamp_schema() -> KindSchema {
    KindSchema::digivice("digi.dev", "v1", "Lamp")
        .control("power", AttrType::String)
        .control("brightness", AttrType::Number)
}

fn room_schema() -> KindSchema {
    KindSchema::digivice("digi.dev", "v1", "Room")
        .control("brightness", AttrType::Number)
        .mounts("Lamp")
}

fn feed_schema() -> KindSchema {
    KindSchema::digidata("digi.dev", "v1", "Feed")
        .input("url", AttrType::String)
        .output("url", AttrType::String)
}

fn power_lamp_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::on_control(), 0, "ack", |ctx| {
        for attr in ["power", "brightness"] {
            let intent = ctx.digi().intent(attr);
            if !intent.is_null() && intent != ctx.digi().status(attr) {
                ctx.digi().set_status(attr, intent);
            }
        }
    });
    d
}

fn room_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::any(), 0, "fan-out", |ctx| {
        let target = ctx.digi().intent("brightness");
        if let Some(t) = target.as_f64() {
            for n in ctx.digi().mounted_names("Lamp") {
                let cur = ctx.digi().replica("Lamp", &n, ".control.brightness.intent");
                if cur.as_f64() != Some(t) {
                    ctx.digi()
                        .set_replica("Lamp", &n, ".control.brightness.intent", t.into());
                }
            }
        }
    });
    d
}

/// The controller-write script: a room fanning brightness out to three
/// mounted lamps (several mounter writes per cycle) and one feed piped to
/// two consumers (several syncer writes per cycle), driven through user
/// intents and source updates.
pub fn batching_script(config: SpaceConfig) -> Space {
    let mut space = Space::new(config);
    space.register_kind(power_lamp_schema());
    space.register_kind(room_schema());
    space.register_kind(feed_schema());

    let room = space.create_digi("Room", "room", room_driver()).unwrap();
    for i in 0..3 {
        let lamp = space
            .create_digi("Lamp", &format!("lamp{i}"), power_lamp_driver())
            .unwrap();
        space.mount(&lamp, &room, MountMode::Expose).unwrap();
    }
    let src = space.create_digi("Feed", "src", Driver::new()).unwrap();
    let sink_a = space.create_digi("Feed", "sink-a", Driver::new()).unwrap();
    let sink_b = space.create_digi("Feed", "sink-b", Driver::new()).unwrap();
    space.pipe(&src, "url", &sink_a, "url").unwrap();
    space.pipe(&src, "url", &sink_b, "url").unwrap();
    space.run_for_ms(2_000);

    space.set_intent("room/brightness", 0.7.into()).unwrap();
    space.run_for_ms(2_000);
    space.set_intent("lamp1/power", "on".into()).unwrap();
    space.run_for_ms(2_000);
    for round in 0..3 {
        space
            .world
            .api
            .patch_path(
                dspace_apiserver::ApiServer::ADMIN,
                &src,
                ".data.output.url",
                format!("rtsp://feed/{round}").into(),
            )
            .unwrap();
        space.pump();
        space.run_for_ms(1_000);
    }
    space.set_intent("room/brightness", 0.3.into()).unwrap();
    space.run_for_ms(3_000);
    space
}

/// Everything observable about one run: final virtual clock, all counters
/// (timings are histograms, never counters), the full causal trace, and a
/// dump of every stored object with its resource version.
#[derive(Debug, PartialEq)]
pub struct RunSummary {
    pub now: u64,
    pub counters: Vec<(String, u64)>,
    pub trace: Vec<(u64, String, String, String)>,
    pub store: Vec<(String, u64, String)>,
}

pub fn summarize(space: &Space) -> RunSummary {
    RunSummary {
        now: space.sim.now(),
        counters: space
            .world
            .metrics
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        trace: space
            .world
            .trace
            .entries()
            .iter()
            .map(|e| {
                (
                    e.t,
                    format!("{:?}", e.kind),
                    e.subject.clone(),
                    e.detail.clone(),
                )
            })
            .collect(),
        store: space
            .world
            .api
            .dump()
            .into_iter()
            .map(|o| {
                (
                    o.oref.to_string(),
                    o.resource_version,
                    json::to_string(&o.model),
                )
            })
            .collect(),
    }
}

impl RunSummary {
    /// 64-bit FNV-1a over every field, in order; strings are
    /// NUL-terminated so adjacent fields cannot alias.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.now);
        for (k, v) in &self.counters {
            h.text(k);
            h.u64(*v);
        }
        for (t, kind, subject, detail) in &self.trace {
            h.u64(*t);
            h.text(kind);
            h.text(subject);
            h.text(detail);
        }
        for (oref, rv, model) in &self.store {
            h.text(oref);
            h.u64(*rv);
            h.text(model);
        }
        h.0
    }
}

/// A 64-bit FNV-1a hasher.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
}

/// The golden fingerprint of a finished run.
pub fn digest(space: &Space) -> u64 {
    summarize(space).digest()
}
