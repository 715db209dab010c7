//! Cross-crate integration tests: a complete smart home exercising every
//! subsystem at once — vendor devices, universal lamps, rooms, a home, the
//! data pipeline, adaptive-composition policies, and delegation.

use dspace::analytics::OccupancySchedule;
use dspace::apiserver::{ApiError, ApiServer, DurabilityOptions, ObjectRef};
use dspace::core::batch::WriteBatch;
use dspace::core::graph::MountMode;
use dspace::core::{Driver, Space, SpaceConfig};
use dspace::devices::{GeeniLamp, LifxLamp, RingMotionSensor, Roomba, TeckinPlug, WyzeCam};
use dspace::digis::{data, home, lamps, media, room, sensors, vacuum};
use dspace::simnet::secs;
use dspace::value::{AttrType, KindSchema, Map, Value};

/// Builds a two-room home with lamps, a plug, a motion sensor, a camera
/// pipeline, and a roomba; returns the space.
fn build_full_home() -> dspace::core::Space {
    let mut space = dspace::digis::new_space();
    // Living room devices.
    let l1 = space
        .create_digi("GeeniLamp", "l1", lamps::geeni_driver())
        .unwrap();
    space.attach_actuator(&l1, Box::new(GeeniLamp::new()));
    let ul1 = space
        .create_digi("UniLamp", "ul1", lamps::unilamp_driver())
        .unwrap();
    let lvroom = space
        .create_digi("Room", "lvroom", room::room_driver())
        .unwrap();
    // Bedroom devices.
    let l2 = space
        .create_digi("LifxLamp", "l2", lamps::lifx_driver())
        .unwrap();
    space.attach_actuator(&l2, Box::new(LifxLamp::new()));
    let ul2 = space
        .create_digi("UniLamp", "ul2", lamps::unilamp_driver())
        .unwrap();
    let bedroom = space
        .create_digi("Room", "bedroom", room::room_driver())
        .unwrap();
    // Extras: plug, motion, camera -> scene, roomba.
    let plug = space
        .create_digi("Plug", "plug1", sensors::plug_driver())
        .unwrap();
    space.attach_actuator(&plug, Box::new(TeckinPlug::new(45.0)));
    let motion = space
        .create_digi("RingMotion", "motion1", sensors::motion_driver())
        .unwrap();
    space.attach_actuator(
        &motion,
        Box::new(RingMotionSensor::with_schedule(vec![secs(40)])),
    );
    let cam = space
        .create_digi("Camera", "cam", media::camera_driver())
        .unwrap();
    space.attach_actuator(&cam, Box::new(WyzeCam::new("cam-host")));
    let scene = space
        .create_digi("Scene", "sc1", data::scene_driver())
        .unwrap();
    space.attach_actuator(
        &scene,
        Box::new(dspace::analytics::SceneEngine::new(
            OccupancySchedule::from_entries([(secs(30), vec!["person"]), (secs(70), vec![])]),
        )),
    );
    let rb = space
        .create_digi("Roomba", "rb1", vacuum::roomba_driver())
        .unwrap();
    space.attach_actuator(&rb, Box::new(Roomba::new("lvroom", vec![])));
    let home_digi = space
        .create_digi("Home", "home", home::home_driver())
        .unwrap();
    // Composition.
    for (c, p) in [
        (&l1, &ul1),
        (&l2, &ul2),
        (&ul1, &lvroom),
        (&ul2, &bedroom),
        (&plug, &lvroom),
        (&motion, &lvroom),
        (&scene, &lvroom),
        (&rb, &lvroom),
        (&lvroom, &home_digi),
        (&bedroom, &home_digi),
    ] {
        space.mount(c, p, MountMode::Expose).unwrap();
        space.run_for_ms(200);
    }
    space.pipe(&cam, "url", &scene, "url").unwrap();
    space.run_for_ms(3_000);
    space
}

#[test]
fn full_home_mode_cascade_and_pipeline() {
    let mut space = build_full_home();
    // Home mode propagates two levels down to vendor-scale lamps.
    space.set_intent("home/mode", "active".into()).unwrap();
    space.run_for_ms(8_000);
    let geeni = space.status("l1/brightness").unwrap().as_f64().unwrap();
    assert!((geeni - 703.0).abs() <= 3.0, "geeni={geeni}"); // 0.7 * Tuya scale
    let lifx = space.status("l2/brightness").unwrap().as_f64().unwrap();
    assert!((lifx - 45875.0).abs() <= 50.0, "lifx={lifx}"); // 0.7 * 65535
                                                            // The camera pipeline fills the room's observations and pauses the
                                                            // roomba when the person appears at t=30s.
    space.set_intent("rb1/mode", "start".into()).unwrap();
    space.run_for(secs(35));
    assert_eq!(space.status("rb1/mode").unwrap().as_str(), Some("stop"));
    assert_eq!(
        space.obs("lvroom/activity").unwrap().as_str(),
        Some("ACTIVE")
    );
    // Home-level occupancy aggregation sees the living room.
    let occ = space.read("home", ".obs.occupancy.lvroom").unwrap();
    assert_eq!(occ.as_f64(), Some(1.0));
    // Motion sensor fired at t=40s and is visible through the replica.
    let lt = space
        .read(
            "lvroom",
            ".mount.RingMotion.motion1.obs.last_triggered_time",
        )
        .unwrap();
    assert!(lt.as_f64().unwrap() >= 39.0, "motion time {lt}");
    // The multitree invariant held throughout.
    space.world.graph.borrow().verify_multitree().unwrap();
    space.world.graph.borrow().verify_single_writer().unwrap();
}

#[test]
fn rbac_denies_foreign_driver_writes() {
    let space = build_full_home();
    // A digi driver may only access its own model (§3.6): the lamp
    // driver's subject, `driver:<ns>/<name>`, cannot write the room's
    // model.
    let mut api_space = space;
    let room_ref = ObjectRef::default_ns("Room", "lvroom");
    let err = api_space
        .world
        .api
        .patch_path(
            "driver:default/l1",
            &room_ref,
            ".control.brightness.intent",
            1.0.into(),
        )
        .unwrap_err();
    assert!(matches!(err, dspace::apiserver::ApiError::Forbidden { .. }));
    // Its own model is fine.
    let lamp_ref = ObjectRef::default_ns("GeeniLamp", "l1");
    api_space
        .world
        .api
        .patch_path(
            "driver:default/l1",
            &lamp_ref,
            ".control.power.intent",
            "on".into(),
        )
        .unwrap();
}

#[test]
fn schema_validation_holds_at_runtime() {
    let mut space = build_full_home();
    // Room brightness is declared Number; a string intent is rejected by
    // the apiserver's schema validation.
    let err = space
        .set_intent_now("lvroom/brightness", "bright".into())
        .unwrap_err();
    assert!(err.to_string().contains("expected number"), "{err}");
}

#[test]
fn admission_prevents_cross_room_diamond() {
    let mut space = build_full_home();
    let ul1 = space.resolve("ul1").unwrap();
    let home_ref = space.resolve("home").unwrap();
    // ul1 is under lvroom which is under home; mounting ul1 directly to
    // the home would create a diamond.
    let err = space.mount(&ul1, &home_ref, MountMode::Expose).unwrap_err();
    assert!(err.to_string().contains("mount rule"), "{err}");
}

/// A deferred controller landing commits op by op, so admission reviews
/// each write against the topology the previous write left: two queued
/// active mounts of one child into two rooms cannot both land (§3.4,
/// single writer per digi).
#[test]
fn deferred_landing_admits_each_write_against_the_previous() {
    let mut space = dspace::core::Space::new(dspace::core::SpaceConfig::default());
    space.register_kind(
        KindSchema::digivice("digi.dev", "v1", "Lamp").control("power", AttrType::String),
    );
    space.register_kind(KindSchema::digivice("digi.dev", "v1", "Room").mounts("Lamp"));
    let l1 = space.create_digi("Lamp", "l1", Driver::new()).unwrap();
    let a = space.create_digi("Room", "a", Driver::new()).unwrap();
    let b = space.create_digi("Room", "b", Driver::new()).unwrap();
    space.settle(30_000);
    let mount = dspace::value::object([
        ("mode", Value::from("expose")),
        ("status", Value::from("active")),
        ("gen", Value::from(0.0)),
    ]);
    let api = &mut space.world.api;
    let mut batch = WriteBatch::new(ApiServer::ADMIN, true);
    let first = batch.patch_path(api, &a, ".mount.Lamp.l1", mount.clone());
    let second = batch.patch_path(api, &b, ".mount.Lamp.l1", mount);
    let (results, conflicts) = batch.commit(api);
    assert_eq!(conflicts, 0);
    assert!(results[first].is_ok(), "{:?}", results[first]);
    assert!(
        matches!(results[second], Err(ApiError::AdmissionDenied { .. })),
        "{:?}",
        results[second]
    );
    assert!(
        api.get_path(ApiServer::ADMIN, &b, ".mount.Lamp.l1")
            .unwrap()
            .is_null(),
        "room b must store no mount of l1"
    );
    assert_eq!(space.world.graph.borrow().active_parent(&l1), Some(a));
}

#[test]
fn deterministic_replay_same_seed_same_state() {
    let run = || {
        let mut space = build_full_home();
        space.set_intent("home/mode", "eco".into()).unwrap();
        space.run_for(secs(45));
        (
            dspace::value::json::to_string(
                &space
                    .world
                    .api
                    .get(
                        dspace::apiserver::ApiServer::ADMIN,
                        &ObjectRef::default_ns("Room", "lvroom"),
                    )
                    .unwrap()
                    .model,
            ),
            space.world.trace.len(),
        )
    };
    let (a_model, a_trace) = run();
    let (b_model, b_trace) = run();
    assert_eq!(
        a_model, b_model,
        "model state diverged across identical runs"
    );
    assert_eq!(a_trace, b_trace, "trace length diverged");
}

#[test]
fn plug_meters_energy_through_the_stack() {
    let mut space = build_full_home();
    space.set_intent("plug1/power", "on".into()).unwrap();
    space.run_for(secs(120));
    let wh = space.obs("plug1/energy_wh").unwrap().as_f64().unwrap();
    // 45 W for ~2 minutes ≈ 1.5 Wh.
    assert!((1.0..2.2).contains(&wh), "wh={wh}");
    let w = space.obs("plug1/power_w").unwrap().as_f64().unwrap();
    assert_eq!(w, 45.0);
    let _ = Value::Null;
}

/// A namespace deleted while a space-wide watcher still lags stays
/// retiring until that watcher drains. If the space is dropped first, the
/// next open drops the drained namespace; creating it again must then
/// survive a further reopen, which needs the drop journaled as the live
/// path journals it. Without it the new incarnation's first record
/// replays onto the dead one and recovery fails its `base` check.
#[test]
fn namespace_recreated_after_reopen_recovers() {
    let dir = std::env::temp_dir().join(format!("dspace-ns-recreate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let mut space = Space::open(SpaceConfig {
            durability: Some(DurabilityOptions::new(&dir)),
            ..SpaceConfig::default()
        })
        .expect("recovery");
        dspace::digis::register_all(&mut space);
        space
    };
    let mut space = open();
    space
        .create_digi_in("GeeniLamp", "h1", "l1", lamps::geeni_driver())
        .unwrap();
    space.delete_namespace("h1").unwrap();
    assert!(
        space.world.api.shard_log_len("h1") > 0,
        "the user CLI has not drained the deletion yet"
    );
    drop(space);

    let mut space = open();
    space
        .create_digi_in("GeeniLamp", "h1", "l1", lamps::geeni_driver())
        .unwrap();
    let live = space.world.api.dump();
    drop(space);

    let space = open();
    assert_eq!(space.world.api.dump(), live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Space` write copies only the maps along the path it writes: the new
/// snapshot shares every other subtree with the old one, and the store
/// counts the one copy it made because the old snapshot was still held.
#[test]
fn space_write_copies_only_its_path() {
    let mut s1 = dspace::digis::scenarios::s1::S1::build();
    s1.space.settle(10_000);
    let api = &mut s1.space.world.api;
    let old = api.get(Space::USER, &s1.room).unwrap().model;
    let clones = api.watch_stats().deep_clones;
    api.patch_path(
        Space::USER,
        &s1.room,
        ".control.brightness.intent",
        0.37.into(),
    )
    .unwrap();
    let new = api.get(Space::USER, &s1.room).unwrap().model;
    let map = |doc: &Value, key: &str| match doc.get_path(key) {
        Some(Value::Object(m)) => m.clone(),
        other => panic!("no map at .{key}: {other:?}"),
    };
    for key in ["mount", "obs", "reflex"] {
        assert!(
            Map::ptr_eq(&map(&old, key), &map(&new, key)),
            ".{key} was copied"
        );
    }
    assert!(!Map::ptr_eq(&map(&old, "control"), &map(&new, "control")));
    assert_eq!(api.watch_stats().deep_clones, clones + 1);
}
