//! Controller write modes: inline per-op vs deferred batch.
//!
//! An inline (zero-latency) mounter/syncer cycle commits each write as it
//! is decided; a deferred cycle queues its writes on a read-your-writes
//! overlay and lands them as one OCC-checked `apply_batch`. Whatever the
//! mode, a scenario must end in a bit-identical store, trace, counters,
//! and clock: the overlay makes every mid-cycle read see exactly what
//! per-op commits would have made visible.

mod support;

use dspace_apiserver::{ApiServer, BatchOp, ObjectRef};
use dspace_core::driver::Driver;
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::Link;
use dspace_value::{AttrType, KindSchema, Value};
use support::{batching_script, summarize};

/// Zero delay and zero RNG draws, but every controller cycle goes
/// through the deferred plan → transmit → admit → land pipeline.
fn deferred() -> SpaceConfig {
    SpaceConfig {
        controller_write: Some(Link::instant()),
        ..SpaceConfig::default()
    }
}

#[test]
fn inline_per_op_and_deferred_batch_are_bit_identical() {
    let reference = summarize(&batching_script(SpaceConfig::default()));
    // Sanity: the scenario actually converged.
    assert!(
        reference
            .store
            .iter()
            .any(|(oref, _, model)| oref.contains("sink-b") && model.contains("rtsp://feed/2")),
        "pipes must have propagated"
    );
    assert!(
        reference
            .trace
            .iter()
            .any(|(_, _, _, detail)| detail.contains("southbound sync")),
        "the mounter must have synced southbound"
    );
    assert_eq!(
        reference,
        summarize(&batching_script(deferred())),
        "deferred diverged from inline"
    );
}

/// Mounted lamp pairs in `namespaces` shards; every lamp's intent changes
/// in one cross-shard admin batch, so a single mounter wake refreshes one
/// replica per shard. Returns the batch compaction passes the controllers
/// paid for it.
fn controller_compaction_passes(config: SpaceConfig, namespaces: usize) -> u64 {
    let mut space = Space::new(config);
    space.register_kind(
        KindSchema::digivice("digi.dev", "v1", "Lamp")
            .control("brightness", AttrType::Number)
            .mounts("Lamp"),
    );
    let mut kids = Vec::new();
    for n in 0..namespaces {
        let ns = format!("ns{n}");
        // Handler-less drivers: only the controllers write.
        let kid = space
            .create_digi_in("Lamp", &ns, "kid", Driver::new())
            .unwrap();
        let hub = space
            .create_digi_in("Lamp", &ns, "hub", Driver::new())
            .unwrap();
        space.settle(30_000);
        space.mount(&kid, &hub, MountMode::Expose).unwrap();
        kids.push(kid);
    }
    space.settle(30_000);
    let ops = kids
        .iter()
        .map(|kid| BatchOp::PatchPath {
            oref: kid.clone(),
            path: ".control.brightness.intent".into(),
            value: Value::from(0.5),
        })
        .collect();
    let before = space.world.api.watch_stats().batch_compaction_passes;
    for r in space.world.api.apply_batch(ApiServer::ADMIN, ops) {
        r.unwrap();
    }
    let admin = space.world.api.watch_stats().batch_compaction_passes - before;
    assert_eq!(
        admin, namespaces as u64,
        "one pass per shard for the admin batch"
    );
    space.pump();
    space.settle(30_000);
    for n in 0..namespaces {
        let hub = space
            .world
            .api
            .get(
                ApiServer::ADMIN,
                &ObjectRef::new("Lamp", format!("ns{n}"), "hub"),
            )
            .unwrap();
        assert_eq!(
            hub.model
                .get_path(".mount.Lamp.kid.control.brightness.intent")
                .and_then(Value::as_f64),
            Some(0.5),
            "ns{n} replica must converge"
        );
    }
    space.world.api.watch_stats().batch_compaction_passes - before - admin
}

/// A deferred mounter landing is one `apply_batch`: it pays exactly one
/// compaction pass per shard it touches, while inline per-op writes pay
/// none.
#[test]
fn deferred_landing_pays_one_compaction_pass_per_touched_shard() {
    assert_eq!(controller_compaction_passes(deferred(), 4), 4);
    assert_eq!(controller_compaction_passes(SpaceConfig::default(), 4), 0);
}

#[test]
fn value_from_exact_u64_survives_gen_comparison() {
    // Guard for the version gate the mounter relies on: gen values are
    // stored and compared as exact u64 through batched writes too.
    let v = Value::from_exact_u64((1 << 53) + 1);
    assert_eq!(v.as_exact_u64(), Some((1 << 53) + 1));
}
