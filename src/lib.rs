//! # dSpace — Composable Abstractions for Smart Spaces
//!
//! A from-scratch Rust reproduction of *dSpace* (Fu & Ratnasamy, SOSP 2021):
//! an open, modular programming framework for smart spaces built around two
//! building blocks — **digivices** (declaratively-controlled actuation) and
//! **digidata** (dataflow-style IoT data processing) — composed with three
//! verbs: **mount**, **pipe**, and **yield**.
//!
//! This umbrella crate re-exports the public API of every subsystem:
//!
//! - [`value`] — attribute–value documents (JSON/YAML-subset, paths, diff,
//!   schemas) used for digi models.
//! - [`reflex`] — the jq-like embedded-policy language (§4.2, Fig. 3).
//! - [`simnet`] — deterministic discrete-event simulation of clocks and
//!   links (latency, jitter, drops, outages), substituting for the paper's
//!   physical testbed.
//! - [`apiserver`] — a Kubernetes-style API server: object store with
//!   optimistic concurrency, Watch with ordered gap-free delivery (§3.5),
//!   admission webhooks, and RBAC (§3.6, §5.1).
//! - [`core`] — the paper's contribution: digi models, the digi-graph with
//!   the mount rule and single-writer semantics (§3.3), the Mounter, Syncer,
//!   and Policer controllers plus the topology webhook (§5.2), the driver
//!   library (§4), and the [`core::Space`] orchestration facade.
//! - [`devices`] — simulated versions of the nine retail IoT devices of
//!   Table 2, with heterogeneous vendor APIs and calibrated access latencies.
//! - [`analytics`] — synthetic stand-ins for the data frameworks of Table 3
//!   (scene detection, transcoding, stats, imitation learning).
//! - [`digis`] — the digivice/digidata catalogue and the ten deployment
//!   scenarios S1–S10 of §6.
//! - [`baselines`] — miniature Home-Assistant-like and SmartThings-like
//!   frameworks used for the §6.3 comparison.
//!
//! # Quickstart
//!
//! ```
//! use dspace::digis::scenarios::s1::S1;
//!
//! // Build scenario S1: two heterogeneous lamps unified behind a Room.
//! let mut s1 = S1::build();
//! s1.space.set_intent("lvroom/brightness", 0.8.into()).unwrap();
//! s1.space.run_for_ms(5_000);
//! // The GEENI lamp converges to the room's brightness, in Tuya scale.
//! let b1 = s1.space.status("l1/brightness").unwrap().as_f64().unwrap();
//! assert!((b1 - 802.0).abs() <= 3.0);
//! ```

pub use dspace_analytics as analytics;
pub use dspace_apiserver as apiserver;
pub use dspace_baselines as baselines;
pub use dspace_core as core;
pub use dspace_devices as devices;
pub use dspace_digis as digis;
pub use dspace_reflex as reflex;
pub use dspace_simnet as simnet;
pub use dspace_value as value;
