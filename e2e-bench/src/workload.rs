//! The four fleet workloads: what each home looks like, how the fleet is
//! driven, and how big one measurement epoch is.

use dspace_simnet::{millis, secs, Time};

/// A named workload (`--workload <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 128 S1 homes, open-loop room-brightness intents.
    FleetS1,
    /// 32 S4 homes, closed loop with one intent in flight.
    SingleIntent,
    /// 64 S1+S3+S9 homes, activity flips firing per-home policies.
    PolicyMotion,
    /// 64 live S1 homes on a durable store with namespace churn.
    TenantChurn,
}

impl Workload {
    /// Every workload, in the order a full set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetS1,
        Workload::SingleIntent,
        Workload::PolicyMotion,
        Workload::TenantChurn,
    ];

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetS1 => "fleet_s1",
            Workload::SingleIntent => "single_intent",
            Workload::PolicyMotion => "policy_motion",
            Workload::TenantChurn => "tenant_churn",
        }
    }
}

/// The composition every home of a workload is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeKind {
    /// S1: room → 2 UniLamps → GEENI + LIFX.
    S1,
    /// S4: home → 2 rooms → UniLamp → lamp.
    S4,
    /// S1 plus the S3 motion reflex and the S9 power controller + policy.
    Motion,
}

/// How the generator drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Poisson room-brightness intents, `mean_s` virtual seconds apart per
    /// home.
    OpenIntents { mean_s: f64 },
    /// One intent in flight; the next is sent the instant the previous
    /// one is fulfilled. `per_epoch` intents make one epoch.
    ClosedIntents { per_epoch: usize },
    /// Poisson `obs.activity` flips (ACTIVE ↔ IDLE), `mean_s` apart per
    /// home.
    Flips { mean_s: f64 },
}

/// Everything that sizes and shapes one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub home: HomeKind,
    /// Live homes.
    pub homes: usize,
    pub drive: Drive,
    /// Virtual injection window of one open-loop epoch.
    pub epoch: Time,
    /// Wall seconds one epoch takes on the reference host: a run of
    /// `--seconds s` does `ceil(s / epoch_s)` epochs, a fixed amount of
    /// work for a given seed.
    pub epoch_s: f64,
    /// Period of the dashboard query (`GeeniLamp` brightness > 900).
    pub query_every: Time,
    /// Every `churn_every` the oldest home leaves and a new one joins.
    pub churn_every: Option<Time>,
    /// Journal the store to a WAL/checkpoint directory.
    pub durable: bool,
    /// Driver 10 ms, controller 40 ms and admission 1 ms latency models
    /// (the async deferred controller path) instead of the zero defaults.
    pub slow_controllers: bool,
    /// Shard worker cap before clamping to the host's core count.
    pub max_threads: usize,
    /// Mean virtual seconds between motions of one home's sensor.
    pub motion_mean_s: f64,
}

impl Spec {
    /// The benchmark sizing.
    pub fn full(workload: Workload) -> Spec {
        let base = Spec {
            home: HomeKind::S1,
            homes: 128,
            drive: Drive::OpenIntents { mean_s: 10.0 },
            epoch: secs(30),
            epoch_s: 2.3,
            query_every: millis(250),
            churn_every: None,
            durable: false,
            slow_controllers: false,
            max_threads: 2,
            motion_mean_s: 30.0,
        };
        match workload {
            Workload::FleetS1 => base,
            Workload::SingleIntent => Spec {
                home: HomeKind::S4,
                homes: 32,
                drive: Drive::ClosedIntents { per_epoch: 250 },
                epoch_s: 1.25,
                max_threads: 1,
                ..base
            },
            Workload::PolicyMotion => Spec {
                home: HomeKind::Motion,
                homes: 64,
                drive: Drive::Flips { mean_s: 20.0 },
                epoch: secs(75),
                epoch_s: 1.8,
                slow_controllers: true,
                ..base
            },
            Workload::TenantChurn => Spec {
                homes: 64,
                epoch: secs(60),
                epoch_s: 1.9,
                query_every: millis(100),
                churn_every: Some(secs(2)),
                durable: true,
                max_threads: 1,
                ..base
            },
        }
    }

    /// Epochs in a run of `seconds`.
    pub fn epochs(&self, seconds: f64) -> usize {
        ((seconds / self.epoch_s).ceil() as usize).max(1)
    }

    /// A few homes and short epochs, for the in-binary smoke tests.
    pub fn tiny(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        Spec {
            homes: 4,
            epoch: secs(20),
            drive: match full.drive {
                Drive::ClosedIntents { .. } => Drive::ClosedIntents { per_epoch: 12 },
                Drive::OpenIntents { .. } => Drive::OpenIntents { mean_s: 2.0 },
                Drive::Flips { .. } => Drive::Flips { mean_s: 4.0 },
            },
            motion_mean_s: 5.0,
            ..full
        }
    }
}
