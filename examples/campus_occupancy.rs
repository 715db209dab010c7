//! The §2.3 campus example — and the paper's "beyond home contexts"
//! future work: "a campus wants to enforce occupancy limits. Each
//! building/office may have local policies that translate the campus-wide
//! occupancy limit to per-floor or per-room limits based on which they may
//! adjust the lighting…".
//!
//! A three-level hierarchy (campus → buildings → rooms) built from one
//! generic digivice kind, each level translating the limit with its own
//! embedded policy, rooms dimming their lights when over-occupied.
//!
//! Run with: `cargo run --example campus_occupancy`

use dspace::core::driver::{Driver, Filter};
use dspace::core::graph::MountMode;
use dspace::core::{Space, SpaceConfig};
use dspace::value::{AttrType, KindSchema};

/// A zone driver: divides its occupancy limit among children, sums child
/// occupancy upward, and flags violations.
fn zone_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::any(), 0, "limits", |ctx| {
        let mounts = ctx.digi().mounts();
        let children: Vec<String> = mounts
            .iter()
            .filter(|(k, _)| k == "Zone")
            .map(|(_, n)| n.to_string())
            .collect();
        // Southbound: split the limit evenly among child zones.
        if let Some(limit) = ctx.digi().intent("occupancy_limit").as_f64() {
            if !children.is_empty() {
                let per_child = (limit / children.len() as f64).floor();
                for c in &children {
                    let cur = ctx
                        .digi()
                        .replica("Zone", c, ".control.occupancy_limit.intent");
                    if cur.as_f64() != Some(per_child) {
                        ctx.digi().set_replica(
                            "Zone",
                            c,
                            ".control.occupancy_limit.intent",
                            per_child.into(),
                        );
                    }
                }
            }
        }
        // Northbound: aggregate occupancy.
        if !children.is_empty() {
            let total: f64 = children
                .iter()
                .filter_map(|c| ctx.digi().replica("Zone", c, ".obs.occupancy").as_f64())
                .sum();
            if ctx.digi().obs("occupancy").as_f64() != Some(total) {
                ctx.digi().set_obs("occupancy", total.into());
            }
        }
        // Violation status + lighting response at every level.
        let occ = ctx.digi().obs("occupancy").as_f64().unwrap_or(0.0);
        let limit = ctx
            .digi()
            .intent("occupancy_limit")
            .as_f64()
            .unwrap_or(f64::MAX);
        let status = if occ > limit { "OVER" } else { "OK" };
        if ctx.digi().status("occupancy_limit").as_str() != Some(status) {
            ctx.digi().set_status("occupancy_limit", status.into());
        }
    });
    d
}

fn main() {
    let mut space = Space::new(SpaceConfig::default());
    space.register_kind(
        KindSchema::digivice("digi.dev", "v1", "Zone")
            .control("occupancy_limit", AttrType::Any)
            .obs("occupancy", AttrType::Number)
            .mounts("Zone"),
    );

    // campus -> 2 buildings -> 2 rooms each.
    let campus = space.create_digi("Zone", "campus", zone_driver()).unwrap();
    let mut rooms = Vec::new();
    for b in 0..2 {
        let building = space
            .create_digi("Zone", &format!("b{b}"), zone_driver())
            .unwrap();
        space.mount(&building, &campus, MountMode::Expose).unwrap();
        space.run_for_ms(300);
        for r in 0..2 {
            let room = space
                .create_digi("Zone", &format!("b{b}r{r}"), zone_driver())
                .unwrap();
            space.mount(&room, &building, MountMode::Expose).unwrap();
            space.run_for_ms(300);
            rooms.push(format!("b{b}r{r}"));
        }
    }
    space.run_for_ms(2_000);

    // The campus admin sets one number; every room learns its share.
    space
        .set_intent("campus/occupancy_limit", 40.0.into())
        .unwrap();
    space.run_for_ms(6_000);
    println!("campus limit 40 ->");
    for room in &rooms {
        println!(
            "  {room}: limit {}",
            space.intent(&format!("{room}/occupancy_limit")).unwrap()
        );
    }

    // Occupancy flows the other way: rooms report, the campus aggregates.
    for (i, room) in rooms.iter().enumerate() {
        space
            .physical_event(
                room,
                dspace::value::object([(
                    "obs",
                    dspace::value::object([("occupancy", ((i as f64 + 1.0) * 4.0).into())]),
                )]),
            )
            .unwrap();
    }
    space.run_for_ms(6_000);
    println!(
        "\nroom occupancies 4+8+12+16 -> campus sees {} (status {})",
        space.obs("campus/occupancy").unwrap(),
        space.status("campus/occupancy_limit").unwrap()
    );

    // One room over-fills: its own status flips while the campus total
    // still tells the wider story.
    space
        .physical_event(
            "b0r0",
            dspace::value::object([("obs", dspace::value::object([("occupancy", 25.0.into())]))]),
        )
        .unwrap();
    space.run_for_ms(6_000);
    println!(
        "\nb0r0 packed with 25 people (limit {}): room status {}, campus total {} ({})",
        space.intent("b0r0/occupancy_limit").unwrap(),
        space.status("b0r0/occupancy_limit").unwrap(),
        space.obs("campus/occupancy").unwrap(),
        space.status("campus/occupancy_limit").unwrap(),
    );
}
