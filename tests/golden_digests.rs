//! Golden digests of the paper's scenarios.
//!
//! S1 (unified lamp control), S3 (motion reflex), S4 (multi-level home),
//! S9 (shared control through yield policies) and a fleet of S1 homes,
//! one namespace each, each run a fixed script twice, at shard-thread
//! caps 1 and max: on the default inline controller path, and with 10 ms
//! driver reconciles, 40 ms controller cycles and 1 ms admission, which
//! sends every controller cycle through the deferred plan → land
//! pipeline. Each run is folded into one 64-bit FNV-1a digest of the
//! final clock, every counter, the full trace, and the store dump, and
//! compared against the value recorded from the runtime — so any drift in
//! what the runtime commits, traces, or counts fails here. The fleet's
//! digest also folds in every delivery of a watch spanning all its
//! namespaces.

use dspace::apiserver::{ApiServer, ObjectRef, Query, WatchEvent};
use dspace::core::{MountMode, Space, SpaceConfig};
use dspace::devices::{GeeniLamp, LifxLamp};
use dspace::digis::scenarios::{s1::S1, s3::S3, s4::S4, s9::S9};
use dspace::simnet::{secs, LatencyModel, Rng};
use dspace::value::Value;

/// 64-bit FNV-1a over the final clock, the sorted counters, the trace
/// (t, kind, subject, detail), and the store dump (oref, rv, model JSON).
/// Strings are NUL-terminated so adjacent fields cannot alias.
fn digest(space: &Space) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(space.sim.now());
    for (k, v) in space.world.metrics.counters() {
        h.text(k);
        h.u64(v);
    }
    for e in space.world.trace.entries() {
        h.u64(e.t);
        h.text(&format!("{:?}", e.kind));
        h.text(&e.subject);
        h.text(&e.detail);
    }
    for o in space.world.api.dump() {
        h.text(&o.oref.to_string());
        h.u64(o.resource_version);
        h.text(&dspace::value::json::to_string(&o.model));
    }
    h.0
}

struct Fnv(u64);

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

fn inline(threads: usize) -> SpaceConfig {
    SpaceConfig {
        threads,
        ..SpaceConfig::default()
    }
}

fn deferred(threads: usize) -> SpaceConfig {
    SpaceConfig {
        threads,
        reconcile: LatencyModel::FixedMs(10.0),
        controller_reconcile: LatencyModel::FixedMs(40.0),
        admission: LatencyModel::FixedMs(1.0),
        ..SpaceConfig::default()
    }
}

fn s1(config: SpaceConfig) -> u64 {
    let mut s1 = S1::build_with(config);
    s1.space
        .set_intent("lvroom/brightness", 0.8.into())
        .unwrap();
    s1.space.run_for_ms(5_000);
    s1.add_l3();
    s1.space
        .set_intent("lvroom/brightness", 0.3.into())
        .unwrap();
    s1.space.run_for_ms(5_000);
    digest(&s1.space)
}

fn s3(config: SpaceConfig) -> u64 {
    let mut s3 = S3::build_with(config, vec![secs(10), secs(25)]);
    s3.inner.space.run_for_ms(30_000);
    digest(&s3.inner.space)
}

fn s4(config: SpaceConfig) -> u64 {
    let mut s4 = S4::build_with(config);
    for mode in ["vacation", "sleep", "active"] {
        s4.set_mode(mode);
    }
    digest(&s4.space)
}

fn s9(config: SpaceConfig) -> u64 {
    let mut s9 = S9::build_with(config);
    s9.set_activity("IDLE");
    s9.inner.space.run_for_ms(6_000);
    s9.set_activity("ACTIVE");
    digest(&s9.inner.space)
}

/// One S1 home in its own namespace, built from the catalogue drivers the
/// way a fleet deployment would: five digis, two vendor devices, four
/// mounts and the room's initial intent. Returns the room.
fn join_home(space: &mut Space, ns: &str) -> ObjectRef {
    let mut create = |kind: &str, name: &str| {
        let driver = dspace::digis::driver_for(kind).expect("catalogue driver");
        space.create_digi_in(kind, ns, name, driver).unwrap()
    };
    let l1 = create("GeeniLamp", "l1");
    let l2 = create("LifxLamp", "l2");
    let ul1 = create("UniLamp", "ul1");
    let ul2 = create("UniLamp", "ul2");
    let room = create("Room", "lvroom");
    space.attach_actuator(&l1, Box::new(GeeniLamp::new()));
    space.attach_actuator(&l2, Box::new(LifxLamp::new()));
    for (child, parent) in [(&l1, &ul1), (&l2, &ul2), (&ul1, &room), (&ul2, &room)] {
        space.mount(child, parent, MountMode::Expose).unwrap();
    }
    set_brightness(space, &room, 0.5);
    room
}

fn set_brightness(space: &mut Space, room: &ObjectRef, level: f64) {
    space
        .world
        .api
        .patch_path(
            Space::USER,
            room,
            ".control.brightness.intent",
            Value::from(level),
        )
        .unwrap();
    space.pump();
}

/// The fleet dashboard's predicate, scoped to one home.
fn dashboard(ns: &str) -> Query {
    Query::kind("GeeniLamp")
        .in_ns(ns)
        .filter(".control.brightness.status > 900")
        .unwrap()
}

/// 16 S1 homes, one namespace each, driven from a fixed seed: a room
/// intent every 250 virtual ms in a random live home, home 3 leaving at
/// 5 s and a fresh home joining at 10 s. One watch spans the dashboard
/// predicate in every live home and is polled every 250 virtual ms; its
/// deliveries are folded into the digest, so the cross-shard delivery
/// order of the space-wide watchers is pinned alongside the runtime.
fn fleet(config: SpaceConfig) -> u64 {
    const HOMES: usize = 16;
    const LEVELS: [f64; 6] = [0.1, 0.4, 0.7, 0.93, 0.97, 1.0];
    let mut space = dspace::digis::new_space_with(config);
    let mut rooms: Vec<Option<ObjectRef>> = (0..HOMES)
        .map(|i| Some(join_home(&mut space, &format!("h{i}"))))
        .collect();
    let queries: Vec<Query> = (0..HOMES).map(|i| dashboard(&format!("h{i}"))).collect();
    let dash = space
        .world
        .api
        .watch_queries(ApiServer::ADMIN, &queries)
        .unwrap();
    space.run_for_ms(3_000);
    let mut rng = Rng::new(0xF1EE7);
    let mut seen = Fnv(0);
    let mut delivered = 0;
    let mut fold = |t: u64, events: Vec<WatchEvent>| {
        delivered += events.len();
        for e in events {
            seen.u64(t);
            seen.u64(e.revision);
            seen.text(&format!("{:?}", e.kind));
            seen.text(&e.oref.to_string());
            seen.u64(e.resource_version);
        }
    };
    for tick in 0..80 {
        if tick == 20 {
            space.delete_namespace("h3").unwrap();
            rooms[3] = None;
        }
        if tick == 40 {
            let ns = format!("h{HOMES}");
            rooms.push(Some(join_home(&mut space, &ns)));
            space
                .world
                .api
                .extend_watch(ApiServer::ADMIN, dash, &dashboard(&ns))
                .unwrap();
        }
        let live: Vec<ObjectRef> = rooms.iter().flatten().cloned().collect();
        let room = live[rng.uniform_u64(0, live.len() as u64) as usize].clone();
        let level = LEVELS[rng.uniform_u64(0, LEVELS.len() as u64) as usize];
        set_brightness(&mut space, &room, level);
        space.run_for_ms(250);
        fold(space.sim.now(), space.world.api.poll(dash));
    }
    space.run_for_ms(5_000);
    fold(space.sim.now(), space.world.api.poll(dash));
    assert!(delivered > 0, "the dashboard never saw a lamp above 900");
    let mut h = Fnv(digest(&space));
    h.u64(seen.0);
    h.0
}

#[test]
fn scenario_digests_are_golden() {
    type Case = (&'static str, fn(SpaceConfig) -> u64, u64, u64);
    // (scenario, script, inline digest, deferred digest)
    let cases: [Case; 5] = [
        ("S1", s1, 0x44747495e4ac9daf, 0xa0479c49dfbf50d8),
        ("S3", s3, 0xa9430768e3374a12, 0x76eaebd0dfa51f1e),
        ("S4", s4, 0xb6a5b59a01feb552, 0xa4c6bccc435b7221),
        ("S9", s9, 0xbc3e787bac04c78c, 0x83581d9f85eaa84f),
        ("Fleet", fleet, 0x9db6bc93641c003a, 0xc0a3ab0a54a4c338),
    ];
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut drift = Vec::new();
    for (name, run, want_inline, want_deferred) in cases {
        for threads in [1, max] {
            for (path, config, want) in [
                ("inline", inline(threads), want_inline),
                ("deferred", deferred(threads), want_deferred),
            ] {
                let got = run(config);
                if got != want {
                    drift.push(format!(
                        "{name} {path} threads={threads}: {got:#018x} (golden {want:#018x})"
                    ));
                }
            }
        }
    }
    assert!(drift.is_empty(), "runtime drift:\n{}", drift.join("\n"));
}
