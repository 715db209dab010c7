//! Network links: latency, jitter and fault models for simulated hops.
//!
//! Every communication in the reproduction — CLI→apiserver, controller→
//! apiserver, driver→device over LAN, basestation relay, vendor-cloud
//! round-trip — goes through a [`Link`] that computes a delivery delay.
//! Calibrations for the on-prem/cloud/hybrid setups of §6.5 live in the
//! benchmark crate; this module only provides the mechanism.

use crate::rng::Rng;
use crate::time::{from_millis_f64, Time};

/// A latency distribution, sampled per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this many milliseconds.
    FixedMs(f64),
    /// Uniform in `[lo, hi)` milliseconds.
    UniformMs(f64, f64),
    /// Normal with mean/std-dev milliseconds, truncated at zero.
    NormalMs(f64, f64),
}

impl LatencyModel {
    /// Samples one latency value.
    pub fn sample(&self, rng: &mut Rng) -> Time {
        let ms = match *self {
            LatencyModel::FixedMs(ms) => ms,
            LatencyModel::UniformMs(lo, hi) => rng.uniform(lo, hi),
            LatencyModel::NormalMs(mean, std) => rng.normal(mean, std).max(0.0),
        };
        from_millis_f64(ms)
    }

    /// The distribution's mean, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        match *self {
            LatencyModel::FixedMs(ms) => ms,
            LatencyModel::UniformMs(lo, hi) => (lo + hi) / 2.0,
            LatencyModel::NormalMs(mean, _) => mean,
        }
    }
}

/// The outcome of offering a message to a faulty [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives after this delay.
    After(Time),
    /// The link ate the message; the sender sees a timeout, never an ack.
    Dropped,
}

/// A simulated network hop with propagation latency.
///
/// Links can also be lossy: a per-message drop probability, additive
/// jitter on top of the base latency, and scheduled transient-outage
/// windows during which every message is lost. All randomness flows
/// through the caller's seeded [`Rng`], so faulty runs stay replayable.
#[derive(Debug, Clone)]
pub struct Link {
    /// Human-readable name (for metrics), e.g. `"lan"` or `"wan"`.
    pub name: String,
    /// Per-message propagation latency.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that any given message is silently lost.
    pub drop_probability: f64,
    /// Extra per-message delay sampled on top of the base latency.
    pub jitter: Option<LatencyModel>,
    /// Half-open `[start, end)` windows of virtual time during which the
    /// link is down and every message offered to it is dropped.
    pub outages: Vec<(Time, Time)>,
}

impl Link {
    /// Creates a fault-free link with the given latency.
    pub fn new(name: impl Into<String>, latency: LatencyModel) -> Self {
        Link {
            name: name.into(),
            latency,
            drop_probability: 0.0,
            jitter: None,
            outages: Vec::new(),
        }
    }

    /// Sets the probability that any given message is silently dropped.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Adds per-message jitter on top of the base latency.
    pub fn with_jitter(mut self, jitter: LatencyModel) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Adds a transient-outage window `[start, end)` in virtual time.
    pub fn with_outage(mut self, start: Time, end: Time) -> Self {
        self.outages.push((start, end));
        self
    }

    /// Returns the delivery delay for one message: one latency sample,
    /// plus one jitter sample if configured.
    pub fn delay(&self, rng: &mut Rng) -> Time {
        let prop = self.latency.sample(rng);
        let jit = match &self.jitter {
            Some(model) => model.sample(rng),
            None => 0,
        };
        prop.saturating_add(jit)
    }

    /// Offers one message to the link at virtual time `now`. An outage
    /// window covering `now` drops without consuming randomness (outages
    /// are schedule-driven, not chance-driven); the drop probability burns
    /// exactly one RNG draw when configured.
    pub fn transfer(&self, now: Time, rng: &mut Rng) -> Delivery {
        if self.outages.iter().any(|&(s, e)| (s..e).contains(&now)) {
            return Delivery::Dropped;
        }
        if self.drop_probability > 0.0 && rng.chance(self.drop_probability) {
            return Delivery::Dropped;
        }
        Delivery::After(self.delay(rng))
    }

    /// A deterministic retransmission timeout for this link: twice the
    /// mean one-way latency (an ack would take a full round trip), with a
    /// 1 ms floor so zero-latency links still make forward progress.
    pub fn rto(&self) -> Time {
        from_millis_f64((self.latency.mean_ms() * 2.0).max(1.0))
    }

    /// A zero-latency link (in-process communication).
    pub fn instant() -> Self {
        Link::new("instant", LatencyModel::FixedMs(0.0))
    }
}

/// Exponential backoff with a cap and a bounded retry budget, used by
/// driver→apiserver verbs when the link drops a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: f64,
    /// Ceiling on any single backoff interval, in milliseconds.
    pub cap_ms: f64,
    /// Maximum number of retries before the sender gives up.
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 4.0,
            cap_ms: 250.0,
            budget: 8,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): `base * 2^attempt`,
    /// capped at `cap_ms`.
    pub fn backoff(&self, attempt: u32) -> Time {
        let exp = 2f64.powi(attempt.min(52) as i32);
        from_millis_f64((self.base_ms * exp).min(self.cap_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::millis;

    #[test]
    fn fixed_latency_is_exact() {
        let mut rng = Rng::new(1);
        let link = Link::new("lan", LatencyModel::FixedMs(10.0));
        for _ in 0..10 {
            assert_eq!(link.delay(&mut rng), millis(10));
        }
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let mut rng = Rng::new(2);
        let link = Link::new("lan", LatencyModel::UniformMs(5.0, 15.0));
        for _ in 0..1000 {
            let d = link.delay(&mut rng);
            assert!((millis(5)..millis(15)).contains(&d), "d={d}");
        }
    }

    #[test]
    fn normal_latency_never_negative() {
        let mut rng = Rng::new(3);
        let link = Link::new("wan", LatencyModel::NormalMs(1.0, 5.0));
        for _ in 0..1000 {
            // Would frequently be negative without truncation.
            let _ = link.delay(&mut rng);
        }
    }

    #[test]
    fn instant_link_is_free() {
        let mut rng = Rng::new(5);
        assert_eq!(Link::instant().delay(&mut rng), 0);
    }

    #[test]
    fn mean_ms_reports_distribution_mean() {
        assert_eq!(LatencyModel::FixedMs(7.0).mean_ms(), 7.0);
        assert_eq!(LatencyModel::UniformMs(5.0, 15.0).mean_ms(), 10.0);
        assert_eq!(LatencyModel::NormalMs(3.0, 1.0).mean_ms(), 3.0);
    }

    #[test]
    fn clean_link_always_delivers() {
        let mut rng = Rng::new(6);
        let link = Link::new("lan", LatencyModel::FixedMs(10.0));
        for t in 0..100 {
            assert_eq!(
                link.transfer(millis(t), &mut rng),
                Delivery::After(millis(10))
            );
        }
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let mut rng = Rng::new(7);
        let link = Link::new("lossy", LatencyModel::FixedMs(1.0)).with_drop_probability(0.2);
        let dropped = (0..10_000)
            .filter(|_| link.transfer(0, &mut rng) == Delivery::Dropped)
            .count();
        assert!((1_700..2_300).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn outage_window_drops_everything_inside_and_nothing_outside() {
        let mut rng = Rng::new(8);
        let link =
            Link::new("flaky", LatencyModel::FixedMs(1.0)).with_outage(millis(10), millis(20));
        assert_ne!(link.transfer(millis(9), &mut rng), Delivery::Dropped);
        assert_eq!(link.transfer(millis(10), &mut rng), Delivery::Dropped);
        assert_eq!(link.transfer(millis(19), &mut rng), Delivery::Dropped);
        assert_ne!(link.transfer(millis(20), &mut rng), Delivery::Dropped);
    }

    #[test]
    fn outage_drop_consumes_no_randomness() {
        // Two RNGs in lockstep: one link with an outage, one without. After
        // the outage drop, both streams must still agree — determinism
        // requires outages not to burn draws.
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let flaky =
            Link::new("flaky", LatencyModel::UniformMs(1.0, 5.0)).with_outage(millis(0), millis(1));
        let clean = Link::new("clean", LatencyModel::UniformMs(1.0, 5.0));
        assert_eq!(flaky.transfer(0, &mut a), Delivery::Dropped);
        assert_eq!(
            flaky.transfer(millis(2), &mut a),
            clean.transfer(millis(2), &mut b)
        );
    }

    #[test]
    fn jitter_widens_fixed_latency() {
        let mut rng = Rng::new(10);
        let link = Link::new("jittery", LatencyModel::FixedMs(5.0))
            .with_jitter(LatencyModel::UniformMs(0.0, 3.0));
        for _ in 0..1000 {
            let d = link.delay(&mut rng);
            assert!((millis(5)..millis(8)).contains(&d), "d={d}");
        }
    }

    #[test]
    fn rto_is_twice_mean_latency_with_floor() {
        assert_eq!(
            Link::new("lan", LatencyModel::FixedMs(8.0)).rto(),
            millis(16)
        );
        assert_eq!(Link::instant().rto(), millis(1));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            base_ms: 4.0,
            cap_ms: 20.0,
            budget: 8,
        };
        assert_eq!(p.backoff(0), millis(4));
        assert_eq!(p.backoff(1), millis(8));
        assert_eq!(p.backoff(2), millis(16));
        assert_eq!(p.backoff(3), millis(20));
        assert_eq!(p.backoff(40), millis(20));
    }
}
