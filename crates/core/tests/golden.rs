//! Golden digests of the controller runtime.
//!
//! Each case runs a fixed scene and folds the final clock, every counter,
//! the full causal trace, and the store dump into one 64-bit FNV-1a value
//! (see `support::RunSummary::digest`). The values below were recorded
//! from the runtime: any change to what the runtime commits, traces, or
//! counts shows up as a digest mismatch.

mod support;

use dspace_core::SpaceConfig;
use support::{batching_script, build_scene, digest, drive, faulty_config};

fn assert_golden(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: digest {got:#018x}, golden {want:#018x}");
}

fn faulty_scene(seed: u64) -> u64 {
    let mut space = build_scene(faulty_config(seed, 5), &["kid"]);
    drive(&mut space, 8);
    assert!(!space.world.has_pending_work(), "queue must quiesce");
    let m = &space.world.metrics;
    assert!(
        m.counter("wake_drops") + m.counter("driver_retries") + m.counter("controller_retries") > 0,
        "the fault schedule must actually drop something"
    );
    digest(&space)
}

/// The deferred path under 5% drops on the driver and controller write
/// links, at two seeds (two different fault schedules).
#[test]
fn faulty_deferred_scene() {
    assert_golden("faulty scene seed 1", faulty_scene(1), 0x9a5da5ece88cc8c5);
    assert_golden("faulty scene seed 2", faulty_scene(2), 0x4eca548dd3799174);
}

/// The inline controller path: several mounter and syncer writes per
/// cycle, landing from one wake.
#[test]
fn controller_write_script() {
    let got = digest(&batching_script(SpaceConfig::default()));
    assert_golden("controller write script", got, 0x1f1d856cdfb6b72a);
}

/// All three controllers on the zero-latency default path, including the
/// policer's batched set-intent run.
#[test]
fn inline_controller_scene() {
    let mut space = build_scene(SpaceConfig::default(), &["kid", "hub"]);
    drive(&mut space, 6);
    assert_golden(
        "inline controller scene",
        digest(&space),
        0x6ff99608cd3d91f2,
    );
}
