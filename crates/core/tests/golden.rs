//! Golden digests of the controller runtime.
//!
//! Each case runs a fixed scene and folds the final clock, every counter,
//! the full causal trace, and the store dump into one 64-bit FNV-1a value
//! (see `support::RunSummary::digest`). The values below were recorded
//! from the runtime and are compared at shard-thread caps 1 and max: any
//! change to what the runtime commits, traces, or counts — or any
//! dependence on the thread cap — shows up as a digest mismatch.

mod support;

use dspace_core::SpaceConfig;
use support::{batching_script, build_scene, digest, drive, faulty_config, max_threads};

fn at_caps(case: &str, want: u64, run: impl Fn(usize) -> u64) {
    for threads in [1, max_threads()] {
        let got = run(threads);
        assert_eq!(
            got, want,
            "{case} at threads={threads}: digest {got:#018x}, golden {want:#018x}"
        );
    }
}

fn faulty_scene(seed: u64, threads: usize) -> u64 {
    let mut space = build_scene(faulty_config(seed, 5, threads), &["kid"]);
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
    at_caps("faulty scene seed 1", 0x9a5da5ece88cc8c5, |t| {
        faulty_scene(1, t)
    });
    at_caps("faulty scene seed 2", 0x4eca548dd3799174, |t| {
        faulty_scene(2, t)
    });
}

/// The inline controller path: several mounter and syncer writes per
/// cycle, landing from one wake.
#[test]
fn controller_write_script() {
    at_caps("controller write script", 0x1f1d856cdfb6b72a, |threads| {
        digest(&batching_script(SpaceConfig {
            threads,
            ..SpaceConfig::default()
        }))
    });
}

/// All three controllers on the zero-latency default path, including the
/// policer's batched set-intent run.
#[test]
fn inline_controller_scene() {
    at_caps("inline controller scene", 0x6ff99608cd3d91f2, |threads| {
        let mut space = build_scene(
            SpaceConfig {
                threads,
                ..SpaceConfig::default()
            },
            &["kid", "hub"],
        );
        drive(&mut space, 6);
        digest(&space)
    });
}
