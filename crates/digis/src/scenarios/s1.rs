//! S1 — Unified control over lamps in a room.
//!
//! Two vendor lamps (GEENI via Tuya, LIFX) are wrapped in UniLamps and
//! mounted to a Room; the user programs a single room brightness. Later a
//! Philips Hue (L3) joins *without* a UniLamp — its colour features are
//! not in the universal model, so the room mounts it directly (§6.2:
//! "highlighting the fine-grained control over whether/when to adopt
//! standardized models") and gains an ambiance-colour option.

use dspace_apiserver::ObjectRef;
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig};
use dspace_devices::{GeeniLamp, HueLamp, LifxLamp};
use dspace_simnet::millis;

use crate::{lamps, room};

/// The end-user configuration for S1 (counted as LoCF in Table 4).
pub const CONFIG: &str = include_str!("../../configs/s1.yaml");

/// The built S1 deployment.
pub struct S1 {
    /// The running space.
    pub space: Space,
    /// The room digivice.
    pub room: ObjectRef,
    /// The two universal lamps.
    pub unilamps: Vec<ObjectRef>,
    /// The Hue lamp, once added by [`S1::add_l3`].
    pub l3: Option<ObjectRef>,
}

impl S1 {
    /// Builds the scenario: devices, digis, composition, initial intent.
    pub fn build() -> S1 {
        Self::build_with(SpaceConfig::default())
    }

    /// Builds the scenario on a space with a custom configuration.
    pub fn build_with(config: SpaceConfig) -> S1 {
        let mut space = crate::new_space_with(config);
        // Leaf digis with their simulated devices.
        let l1 = space
            .create_digi("GeeniLamp", "l1", lamps::geeni_driver())
            .unwrap();
        space.attach_actuator(&l1, Box::new(GeeniLamp::new()));
        let l2 = space
            .create_digi("LifxLamp", "l2", lamps::lifx_driver())
            .unwrap();
        space.attach_actuator(&l2, Box::new(LifxLamp::new()));
        let ul1 = space
            .create_digi("UniLamp", "ul1", lamps::unilamp_driver())
            .unwrap();
        let ul2 = space
            .create_digi("UniLamp", "ul2", lamps::unilamp_driver())
            .unwrap();
        let room = space
            .create_digi("Room", "lvroom", room::room_driver())
            .unwrap();
        super::apply_config(&mut space, CONFIG).expect("S1 config applies");
        space.run_for(millis(3_000));
        S1 {
            space,
            room,
            unilamps: vec![ul1, ul2],
            l3: None,
        }
    }

    /// Adds the Philips Hue lamp (L3) directly under the room.
    pub fn add_l3(&mut self) -> ObjectRef {
        let l3 = self
            .space
            .create_digi("HueLamp", "l3", lamps::hue_driver())
            .unwrap();
        self.space.attach_actuator(&l3, Box::new(HueLamp::new()));
        self.space
            .mount(&l3, &self.room, MountMode::Expose)
            .unwrap();
        self.space.run_for(millis(3_000));
        self.l3 = Some(l3.clone());
        l3
    }

    /// Reads a lamp's universal-scale brightness status via its digi.
    pub fn universal_status(&self, kind: &str, name: &str) -> Option<f64> {
        let raw = self
            .space
            .status(&format!("{name}/brightness"))
            .ok()?
            .as_f64()?;
        if kind == "UniLamp" {
            Some(raw)
        } else {
            lamps::from_vendor_brightness(kind, raw)
        }
    }
}
