//! End-to-end tests of the async controller runtime: mounter/syncer/policer
//! cycles take simulated time, mid-cycle bursts coalesce into exactly one
//! follow-up cycle, controller writes survive lossy links through retries
//! plus OCC re-validation — and the deferred pipeline at zero delay makes
//! exactly the decisions the inline path makes.

mod support;

use proptest::prelude::*;

use dspace_core::driver::Driver;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::{LatencyModel, Link};
use support::{ack_driver, build_scene, drive, lamp_pair, max_threads, summarize, RunSummary};

fn step_until_controller_busy(space: &mut Space, name: &str) {
    let mut guard = 0u32;
    while !space.world.controller_busy(name) {
        assert!(space.step(), "sim drained before {name} went busy");
        guard += 1;
        assert!(guard < 100_000, "controller {name} never went busy");
    }
}

#[test]
fn burst_while_busy_lands_as_one_followup_cycle() {
    // A 100-patch burst arriving while the mounter is mid-cycle must be
    // absorbed by the dirty bit and re-polled at completion: ONE follow-up
    // cycle per controller slot (tentpole acceptance, clean-link variant).
    // Handler-less drivers: nothing but the controllers writes, so the
    // per-slot follow-up counters are attributable to the burst alone.
    let mut space = lamp_pair(
        SpaceConfig {
            controller_reconcile: LatencyModel::FixedMs(20.0),
            ..SpaceConfig::default()
        },
        Driver::new(),
    );

    space.set_intent_now("kid/brightness", 0.5.into()).unwrap();
    step_until_controller_busy(&mut space, "mounter");
    for i in 0..100 {
        space
            .world
            .api
            .client(dspace_apiserver::ApiServer::ADMIN)
            .namespace("default")
            .patch_path(
                "Lamp",
                "kid",
                ".control.brightness.intent",
                (i as f64 / 100.0).into(),
            )
            .unwrap();
    }
    space.pump();
    space.settle(60_000);

    assert_eq!(
        space.world.metrics.counter("controller_followups:mounter"),
        1,
        "burst mid-cycle must land as exactly one mounter follow-up"
    );
    assert!(space.world.metrics.counter("controller_followup_cycles") >= 1);
    assert_eq!(
        space
            .read("hub", ".mount.Lamp.kid.control.brightness.intent")
            .unwrap()
            .as_f64(),
        Some(0.99),
        "replica must converge on the newest burst intent"
    );
    assert_eq!(
        space
            .world
            .metrics
            .counter("reconcile_invariant_violations"),
        0
    );
    assert!(!space.world.has_pending_work());
}

fn faulty_run(seed: u64) -> (RunSummary, u64, u64) {
    let write_link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 3.0))
        .with_drop_probability(0.05);
    let mut space = build_scene(
        SpaceConfig {
            seed,
            controller_reconcile: LatencyModel::FixedMs(10.0),
            admission: LatencyModel::FixedMs(1.0),
            controller_write: Some(write_link),
            ..SpaceConfig::default()
        },
        &["kid", "hub"],
    );
    drive(&mut space, 12);
    // Converged fixed point after round 12 (motion fell): the policy's
    // falling action set kid to 0.25, the ack driver confirmed it, and the
    // mounter carried both into the hub's replica despite dropped writes.
    assert_eq!(
        space
            .read("kid", ".control.brightness.status")
            .unwrap()
            .as_f64(),
        Some(0.25)
    );
    assert_eq!(
        space
            .read("hub", ".mount.Lamp.kid.control.brightness.status")
            .unwrap()
            .as_f64(),
        Some(0.25)
    );
    assert_eq!(
        space.read("sink", ".data.input.frames").unwrap().as_str(),
        Some("frame-12"),
        "pipe must deliver the final frame through the lossy syncer link"
    );
    assert!(!space.world.has_pending_work());
    let retries = space.world.metrics.counter("controller_retries");
    let gave_up = space.world.metrics.counter("controller_gave_up");
    (summarize(&space), retries, gave_up)
}

#[test]
fn faulty_controller_link_retries_and_is_deterministic() {
    // ISSUE acceptance: a 5%-drop jittered controller write link forces
    // retries but never exhausts the budget, the space converges, and the
    // whole run — clock, counters, trace, store — replays bit-identically
    // under the same seed.
    let (a, retries, gave_up) = faulty_run(7);
    assert!(
        retries > 0,
        "lossy link must have forced controller retries"
    );
    assert_eq!(gave_up, 0, "retry budget must absorb a 5% drop rate");

    let (b, _, _) = faulty_run(7);
    assert_eq!(a, b, "same seed must replay bit-identically");

    let (c, _, c_gave_up) = faulty_run(8);
    assert_eq!(c_gave_up, 0);
    assert_ne!(
        a.now, c.now,
        "a different seed should draw a different fault schedule"
    );
}

fn scene_run(write_link: Option<Link>, threads: usize) -> RunSummary {
    let mut space = build_scene(
        SpaceConfig {
            controller_write: write_link,
            threads,
            ..SpaceConfig::default()
        },
        &["kid", "hub"],
    );
    drive(&mut space, 6);
    summarize(&space)
}

#[test]
fn deferred_pipeline_replays_inline_bit_identically() {
    // Replay: with zero latency everywhere, the inline path (per-op
    // writes) and the deferred pipeline forced by `Link::instant()` (plan
    // → transmit → admit → one batched landing, zero RNG draws, zero
    // delay) must leave the same clock, counters, trace, and store, at
    // shard-thread caps 1 and max.
    let baseline = scene_run(None, 1);
    for threads in [1, max_threads()] {
        let inline = scene_run(None, threads);
        let deferred = scene_run(Some(Link::instant()), threads);
        assert_eq!(
            inline, deferred,
            "deferred pipeline != inline (threads={threads})"
        );
        assert_eq!(
            inline, baseline,
            "thread cap changed the run (threads={threads})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the fault schedule — drop rate up to 20%, jitter, slow
    /// controller cycles, admission delay, arbitrary burst sizes — the
    /// mounted pair converges (hub replica reflects the final acked
    /// intent), no controller exhausts its retry budget, and the event
    /// queue quiesces.
    #[test]
    fn controllers_converge_under_random_faults(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..=20,
        jitter_ms in 0u32..=8,
        ctrl_ms in 0u32..=40,
        burst in 1usize..=60,
    ) {
        let mut link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
            .with_drop_probability(drop_pct as f64 / 100.0);
        if jitter_ms > 0 {
            link = link.with_jitter(LatencyModel::UniformMs(0.0, jitter_ms as f64));
        }
        let mut space = lamp_pair(
            SpaceConfig {
                seed,
                controller_reconcile: LatencyModel::FixedMs(ctrl_ms as f64),
                admission: LatencyModel::FixedMs(1.0),
                controller_write: Some(link),
                ..SpaceConfig::default()
            },
            ack_driver(),
        );
        for i in 0..burst {
            space
                .world
                .api
                .client(dspace_apiserver::ApiServer::ADMIN)
                .namespace("default")
                .patch_path(
                    "Lamp",
                    "kid",
                    ".control.brightness.intent",
                    (i as f64 / burst as f64).into(),
                )
                .unwrap();
        }
        space.pump();
        space.settle(240_000);

        let want = (burst - 1) as f64 / burst as f64;
        prop_assert_eq!(
            space
                .read("hub", ".mount.Lamp.kid.control.brightness.status")
                .unwrap()
                .as_f64(),
            Some(want)
        );
        prop_assert_eq!(space.world.metrics.counter("controller_gave_up"), 0);
        prop_assert_eq!(
            space.world.metrics.counter("reconcile_invariant_violations"),
            0
        );
        prop_assert!(!space.world.has_pending_work(), "queue must quiesce");
    }
}
