//! S9 — Shared control.
//!
//! "dSpace enables S9 by allowing multiple control hierarchies and we do
//! not program additional digis" (§6.2): the lamps gain a second parent —
//! an independent power controller — whose mounts start yielded; a yield
//! policy moves write access whenever the room's activity flips between
//! ACTIVE and IDLE.

use dspace_apiserver::ObjectRef;
use dspace_core::SpaceConfig;

use crate::power;
use crate::scenarios::s1::S1;

/// The end-user configuration for S9 (mounts + the yield policy).
pub const CONFIG: &str = include_str!("../../configs/s9.yaml");

/// S9: S1 plus the power controller hierarchy.
pub struct S9 {
    /// The underlying S1 deployment.
    pub inner: S1,
    /// The power controller digivice.
    pub pc: ObjectRef,
}

impl S9 {
    /// Builds the scenario.
    pub fn build() -> S9 {
        Self::build_with(SpaceConfig::default())
    }

    /// Builds the scenario on a space with a custom configuration.
    pub fn build_with(config: SpaceConfig) -> S9 {
        let mut inner = S1::build_with(config);
        let pc = inner
            .space
            .create_digi("PowerController", "pc", power::power_driver())
            .unwrap();
        super::apply_config(&mut inner.space, CONFIG).expect("S9 config applies");
        inner.space.run_for_ms(2_000);
        S9 { inner, pc }
    }

    /// Sets the room's activity observation (normally derived from the
    /// Scene digidata).
    pub fn set_activity(&mut self, activity: &str) {
        self.inner
            .space
            .physical_event(
                "lvroom",
                dspace_value::object([(
                    "obs",
                    dspace_value::object([("activity", activity.into())]),
                )]),
            )
            .unwrap();
        self.inner.space.run_for_ms(6_000);
    }
}
