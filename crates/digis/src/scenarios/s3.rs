//! S3 — Motion-triggered configuration.
//!
//! "This is implemented as an on-model policy/reflex as shown in Fig. 3"
//! (§6.2) — a single reflex on the room, no new driver code. The motion
//! sensor digivice is mounted to the room so the reflex can read its
//! observations through the replica.

use dspace_apiserver::ObjectRef;
use dspace_core::SpaceConfig;
use dspace_devices::RingMotionSensor;
use dspace_simnet::Time;

use crate::scenarios::s1::S1;
use crate::sensors;

/// The end-user configuration for S3 (the Fig. 3 reflex).
pub const CONFIG: &str = include_str!("../../configs/s3.yaml");

/// S3: S1 plus a motion sensor and the motion-brightness reflex.
pub struct S3 {
    /// The underlying S1 deployment.
    pub inner: S1,
    /// The motion sensor digivice.
    pub motion: ObjectRef,
}

impl S3 {
    /// Builds the scenario with scripted motion times.
    pub fn build(motion_times: Vec<Time>) -> S3 {
        Self::build_with(SpaceConfig::default(), motion_times)
    }

    /// Builds the scenario on a space with a custom configuration.
    pub fn build_with(config: SpaceConfig, motion_times: Vec<Time>) -> S3 {
        let mut inner = S1::build_with(config);
        let motion = inner
            .space
            .create_digi("RingMotion", "motion1", sensors::motion_driver())
            .unwrap();
        inner.space.attach_actuator(
            &motion,
            Box::new(RingMotionSensor::with_schedule(motion_times)),
        );
        super::apply_config(&mut inner.space, CONFIG).expect("S3 config applies");
        inner.space.run_for_ms(1_000);
        S3 { inner, motion }
    }
}
