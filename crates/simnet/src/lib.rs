//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates dSpace on a physical testbed: real IoT devices, a
//! minikube or EC2 Kubernetes cluster, and home networking (§6.1, §6.5).
//! None of that hardware is available to this reproduction, so experiments
//! run on a discrete-event simulator instead: every latency a deployment
//! would experience (apiserver round-trips, watch notification delivery,
//! LAN/basestation/vendor-cloud device access, video inference time) is
//! injected as a scheduled event on a virtual clock.
//!
//! The simulator is deterministic — a seeded RNG plus a strictly ordered
//! event queue — so every benchmark run is replayable bit-for-bit.
//!
//! - [`Sim`]: the event queue and virtual clock, generic over the world
//!   state `W` that event callbacks mutate.
//! - [`LatencyModel`] / [`Link`]: latency, jitter, drop and outage models for
//!   network hops.
//! - [`Rng`]: a small deterministic PRNG (SplitMix64 core) with uniform,
//!   normal, and exponential sampling.
//! - [`metrics`]: counters and histograms used by the benchmark harnesses.

pub mod link;
pub mod metrics;
pub mod rng;
pub mod sim;
pub mod time;

pub use link::{Delivery, LatencyModel, Link, RetryPolicy};
pub use metrics::{Histogram, Metrics, Stopwatch};
pub use rng::Rng;
pub use sim::Sim;
pub use time::{micros, millis, nanos, secs, Time};
