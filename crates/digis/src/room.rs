//! The Room digivice: the paper's canonical higher-level abstraction
//! (Fig. 1d; scenarios S1–S5).
//!
//! The room exposes one brightness knob (0–1), an ambiance colour, and a
//! mode; it aggregates whatever lamps are mounted to it (UniLamps or a
//! vendor lamp mounted directly, §6.2 S1), reads objects from a mounted
//! Scene digidata, and supervises a mounted Roomba (S5).
//!
//! Intent reconciliation (S2) lives here: when a lamp's *own* intent
//! deviates from what the room assigned (a physical toggle, propagated up
//! by the UniLamp), the room pins that lamp at the user's choice and
//! redistributes the remaining lamps so the room's aggregate brightness
//! target is preserved — "the room digivice will accept the lamp's new
//! intent and correspondingly adjust the intents of the other lamps".

use dspace_core::driver::{Driver, Filter, ReconcileCtx};
use dspace_value::{Name, Value};

use crate::lamps::{from_vendor_brightness, to_vendor_brightness};

/// Maps a room mode to its target brightness (S4's home→room coupling).
pub fn mode_brightness(mode: &str) -> Option<f64> {
    match mode {
        "sleep" => Some(0.0),
        "vacation" => Some(0.05),
        "eco" => Some(0.2),
        "active" => Some(0.7),
        _ => None,
    }
}

fn lamp_children(ctx: &mut ReconcileCtx<'_>) -> Vec<(Name, Name)> {
    ctx.digi()
        .mounts()
        .into_iter()
        .filter(|(kind, _)| matches!(kind.as_str(), "UniLamp" | "HueLamp"))
        .collect()
}

/// Reads a lamp child's intent in universal scale.
fn child_intent_universal(ctx: &mut ReconcileCtx<'_>, kind: &str, name: &str) -> Option<f64> {
    let v = ctx
        .digi()
        .replica(kind, name, ".control.brightness.intent")
        .as_f64()?;
    if kind == "UniLamp" {
        Some(v)
    } else {
        from_vendor_brightness(kind, v)
    }
}

/// Writes a lamp child's intent, converting for direct vendor mounts.
fn assign_child(ctx: &mut ReconcileCtx<'_>, kind: &str, name: &str, universal: f64) {
    let value = if kind == "UniLamp" {
        universal
    } else {
        match to_vendor_brightness(kind, universal) {
            Some(v) => v,
            None => return,
        }
    };
    let cur = ctx.digi().replica(kind, name, ".control.brightness.intent");
    if cur.as_f64() != Some(value) {
        ctx.digi()
            .set_replica(kind, name, ".control.brightness.intent", value.into());
    }
    let assigned_universal = if kind == "UniLamp" {
        universal
    } else {
        from_vendor_brightness(kind, value).unwrap_or(universal)
    };
    ctx.digi()
        .set_obs(&format!("assigned_{name}"), assigned_universal.into());
}

/// The Room digivice driver.
pub fn room_driver() -> Driver {
    let mut d = Driver::new();

    // --- s4 begin ---
    // Mode → brightness coupling (runs before distribution).
    d.on(Filter::on_control_attr("mode"), 0, "mode", |ctx| {
        if let Some(mode) = ctx.digi().intent("mode").as_str().map(str::to_string) {
            if let Some(b) = mode_brightness(&mode) {
                if ctx.digi().intent("brightness").as_f64() != Some(b) {
                    ctx.digi().set_intent("brightness", b.into());
                }
            }
            if ctx.digi().status("mode").as_str() != Some(mode.as_str()) {
                ctx.digi().set_status("mode", Value::from(mode));
            }
        }
    });
    // --- s4 end ---

    // --- s1 begin ---
    // Brightness distribution with pinning-based intent reconciliation.
    d.on(Filter::any(), 5, "brightness", |ctx| {
        let lamps = lamp_children(ctx);
        if lamps.is_empty() {
            return;
        }
        let Some(target) = ctx.digi().intent("brightness").as_f64() else {
            return;
        };
        // --- s1 end ---
        // --- s2 begin ---
        // A fresh user-set room intent clears all pins.
        if ctx.changed(".control.brightness.intent") {
            for (_, name) in &lamps {
                ctx.digi().set_obs(&format!("pinned_{name}"), Value::Null);
            }
        }
        // Detect lamps whose own intent deviated from our assignment.
        for (kind, name) in &lamps {
            let assigned = ctx.digi().obs(&format!("assigned_{name}")).as_f64();
            let current = child_intent_universal(ctx, kind, name);
            if let (Some(a), Some(c)) = (assigned, current) {
                if (a - c).abs() > 1e-6 {
                    ctx.digi().set_obs(&format!("pinned_{name}"), c.into());
                    ctx.digi().set_obs(&format!("assigned_{name}"), c.into());
                }
            }
        }
        // Distribute: pinned lamps keep their value; the rest compensate
        // to preserve the aggregate target.
        let n = lamps.len() as f64;
        let mut pinned_sum = 0.0;
        let mut pinned_count = 0.0;
        for (_, name) in &lamps {
            if let Some(p) = ctx.digi().obs(&format!("pinned_{name}")).as_f64() {
                pinned_sum += p;
                pinned_count += 1.0;
            }
        }
        // --- s2 end ---
        // --- s1b begin ---
        let free = n - pinned_count;
        let per_free = if free > 0.0 {
            ((target * n - pinned_sum) / free).clamp(0.0, 1.0)
        } else {
            0.0
        };
        for (kind, name) in &lamps {
            let value = match ctx.digi().obs(&format!("pinned_{name}")).as_f64() {
                Some(p) => p,
                None => per_free,
            };
            assign_child(ctx, kind, name, value);
        }
        // Ambiance colour goes to colour-capable lamps (S1's L3 option).
        let ambiance = ctx.digi().intent("ambiance");
        if let Some(amb) = ambiance.as_object().cloned() {
            for (kind, name) in &lamps {
                if kind == "HueLamp" {
                    for field in ["hue", "sat"] {
                        if let Some(v) = amb.get(field).and_then(Value::as_f64) {
                            let path = format!(".control.{field}.intent");
                            if ctx.digi().replica(kind, name, &path).as_f64() != Some(v) {
                                ctx.digi().set_replica(kind, name, &path, v.into());
                            }
                        }
                    }
                }
            }
        }
        // Status: mean of lamp statuses, in universal scale.
        let mut sum = 0.0;
        let mut count = 0.0;
        for (kind, name) in &lamps {
            let status = ctx.digi().replica(kind, name, ".control.brightness.status");
            let universal = match (kind.as_str(), status.as_f64()) {
                ("UniLamp", Some(v)) => Some(v),
                (vendor, Some(v)) => from_vendor_brightness(vendor, v),
                _ => None,
            };
            if let Some(u) = universal {
                sum += u;
                count += 1.0;
            }
        }
        if count > 0.0 {
            let mean = ((sum / count) * 1000.0).round() / 1000.0;
            if ctx.digi().status("brightness").as_f64() != Some(mean) {
                ctx.digi().set_status("brightness", mean.into());
            }
        }
    });
    // --- s1b end ---

    // --- s5 begin ---
    // Scene objects → room observations, occupancy, and activity.
    d.on(Filter::on_mount(), 3, "scene", |ctx| {
        let scenes: Vec<Name> = ctx.digi().mounted_names("Scene");
        let Some(scene) = scenes.first().cloned() else {
            return;
        };
        let objects = ctx.digi().replica("Scene", &scene, ".data.output.objects");
        if objects.is_null() {
            return;
        }
        if ctx.digi().obs("objects") != objects {
            let people = objects
                .as_array()
                .map(|a| a.iter().filter(|o| o.as_str() == Some("person")).count())
                .unwrap_or(0);
            ctx.digi().set_obs("objects", objects);
            ctx.digi().set_obs("occupancy", (people as f64).into());
            ctx.digi().set_obs(
                "activity",
                Value::from(if people > 0 { "ACTIVE" } else { "IDLE" }),
            );
        }
    });

    // Roomba supervision (S5): pause while a person is present.
    d.on(Filter::any(), 7, "roomba", |ctx| {
        // (still s5)
        let roombas = ctx.digi().mounted_names("Roomba");
        let Some(rb) = roombas.first().cloned() else {
            return;
        };
        let people = ctx.digi().obs("occupancy").as_f64().unwrap_or(0.0);
        let desired = if people > 0.0 { "pause" } else { "start" };
        let cur = ctx.digi().replica("Roomba", &rb, ".control.mode.intent");
        if cur.as_str() != Some(desired) {
            ctx.digi()
                .set_replica("Roomba", &rb, ".control.mode.intent", desired.into());
        }
    });
    // --- s5 end ---
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_brightness_table() {
        assert_eq!(mode_brightness("sleep"), Some(0.0));
        assert_eq!(mode_brightness("active"), Some(0.7));
        assert_eq!(mode_brightness("party"), None);
    }
}
