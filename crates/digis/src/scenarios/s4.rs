//! S4 — Multi-level abstractions.
//!
//! A new Home digivice (the 51-LoC addition of Table 4 — here
//! [`crate::home::home_driver`]) composes rooms: "setting the 'home' in
//! vacation mode … causes each 'room' to enter a power-down mode."

use dspace_apiserver::ObjectRef;
use dspace_core::{Space, SpaceConfig};
use dspace_devices::{GeeniLamp, LifxLamp};
use dspace_simnet::millis;

use crate::{home, lamps, room};

/// The end-user configuration for S4.
pub const CONFIG: &str = include_str!("../../configs/s4.yaml");

/// The built S4 deployment: a home with two rooms, each with one lamp.
pub struct S4 {
    /// The running space.
    pub space: Space,
    /// The home digivice.
    pub home: ObjectRef,
    /// The room digivices.
    pub rooms: Vec<ObjectRef>,
}

impl S4 {
    /// Builds the scenario.
    pub fn build() -> S4 {
        Self::build_with(SpaceConfig::default())
    }

    /// Builds the scenario on a space with a custom configuration.
    pub fn build_with(config: SpaceConfig) -> S4 {
        let mut space = crate::new_space_with(config);
        // Living room: GEENI lamp behind a UniLamp.
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
        // Bedroom: LIFX lamp behind a UniLamp.
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
        let home = space
            .create_digi("Home", "home", home::home_driver())
            .unwrap();
        for (child, parent) in [(&l1, &ul1), (&l2, &ul2), (&ul1, &lvroom), (&ul2, &bedroom)] {
            space
                .mount(child, parent, dspace_core::graph::MountMode::Expose)
                .unwrap();
            space.run_for(millis(300));
        }
        super::apply_config(&mut space, CONFIG).expect("S4 config applies");
        space.run_for(millis(5_000));
        S4 {
            space,
            home,
            rooms: vec![lvroom, bedroom],
        }
    }

    /// Sets the home mode and lets the hierarchy settle.
    pub fn set_mode(&mut self, mode: &str) {
        self.space.set_intent("home/mode", mode.into()).unwrap();
        self.space.run_for(millis(6_000));
    }
}
