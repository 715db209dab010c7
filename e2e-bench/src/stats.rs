//! Summaries of wall-clock samples that hold still on a shared host.
//!
//! Other tenants of the machine only ever slow the bench down: in bursts
//! of a second or so (a fixed CPU loop on the reference host ranges over
//! 1.7x within ten seconds), and in drifts that outlast a whole run. Two
//! measures counter them. Every wall sample is scaled by the host speed a
//! [`Host`] probe measured around it, which cancels drift. And samples are
//! grouped into chunks of consecutive samples, each chunk is summarised on
//! its own, and a run reports the per-chunk summary at the `FAST`
//! quantile, which discards bursts: a code change moves every chunk, a
//! burst only some.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dspace_simnet::Histogram;

/// Quantile across chunks: latencies report this low quantile of the
/// per-chunk values, rates the mirror-image high one.
pub const FAST: f64 = 0.25;

pub fn histogram_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// A sample stream cut into chunks of `size` consecutive samples, keeping
/// each full chunk's median and p90.
pub struct Chunks {
    size: usize,
    current: Vec<f64>,
    p50: Histogram,
    p90: Histogram,
}

impl Chunks {
    pub fn new(size: usize) -> Chunks {
        Chunks {
            size,
            current: Vec::with_capacity(size),
            p50: Histogram::new(),
            p90: Histogram::new(),
        }
    }

    /// Adds a sample; returns `true` when it completed a chunk.
    pub fn record(&mut self, v: f64) -> bool {
        self.current.push(v);
        if self.current.len() < self.size {
            return false;
        }
        let chunk = histogram_of(&self.current);
        self.p50.record(chunk.median());
        self.p90.record(chunk.percentile(0.9));
        self.current.clear();
        true
    }

    /// Chunk medians at the `FAST` quantile across chunks.
    pub fn fast_p50(&self) -> f64 {
        self.fast(&self.p50, 0.5)
    }

    /// Chunk p90s at the `FAST` quantile across chunks.
    pub fn fast_p90(&self) -> f64 {
        self.fast(&self.p90, 0.9)
    }

    /// A stream too short to fill one chunk is summarised as a single
    /// partial chunk.
    fn fast(&self, per_chunk: &Histogram, q: f64) -> f64 {
        if per_chunk.count() > 0 {
            per_chunk.percentile(FAST)
        } else {
            histogram_of(&self.current).percentile(q)
        }
    }
}

/// Loop count of the probe's allocation part.
const PROBE_ITERS: u64 = 3_500;
/// Dependent loads of the probe's memory part.
const PROBE_LOADS: usize = 3_500;
/// Entries in the probe's pointer-chase cycle: 8 MiB, beyond the caches.
const CHASE_LEN: usize = 1 << 21;
/// Probe time that defines reference host speed.
const REF_PROBE_NS: f64 = 1e6;
/// Wall time between probes.
const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Weight of the newest probe in the running host speed.
const PROBE_WEIGHT: f64 = 0.1;

/// Host speed, tracked by running a fixed probe every `PROBE_EVERY` of
/// wall time. The probe is standard-library work only — allocation,
/// string formatting and B-tree updates, then a chain of dependent loads
/// through 8 MiB — so no change to the program under test can move it,
/// while it slows with the program when neighbours take the CPU, the
/// caches or memory bandwidth. Wall samples are scaled to the reference
/// host (one on which the probe takes exactly 1 ms), which cancels the
/// drift of a shared machine that chunking cannot, when a slow spell
/// outlasts a whole run. Probe time is excluded from every measurement.
pub struct Host {
    ema_ns: f64,
    next: Instant,
    /// A single-cycle permutation: `chase[i]` is the slot after `i`.
    chase: Vec<u32>,
    at: u32,
    /// Wall time spent probing so far.
    pub probe_ns: u64,
}

impl Host {
    pub fn new() -> Host {
        // Sattolo's shuffle of the identity yields one cycle through
        // every slot, so the loads never settle into a cached loop.
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x: u64 = 0x853C_49E6_748F_EA9B;
        for i in (1..CHASE_LEN).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            chase.swap(i, (x >> 33) as usize % i);
        }
        let mut host = Host {
            ema_ns: 0.0,
            next: Instant::now(),
            chase,
            at: 0,
            probe_ns: 0,
        };
        let mut ns: Vec<f64> = (0..5).map(|_| host.probe().as_nanos() as f64).collect();
        ns.sort_by(f64::total_cmp);
        host.ema_ns = ns[2];
        host.next = Instant::now() + PROBE_EVERY;
        host
    }

    fn probe(&mut self) -> Duration {
        let t0 = Instant::now();
        let mut map: BTreeMap<u64, String> = BTreeMap::new();
        let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..PROBE_ITERS {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
            map.insert(acc & 1023, acc.to_string());
            if let Some(s) = map.get(&(i & 1023)) {
                acc ^= s.len() as u64;
            }
        }
        std::hint::black_box(&map);
        let mut at = self.at;
        for _ in 0..PROBE_LOADS {
            at = self.chase[at as usize];
        }
        self.at = std::hint::black_box(at);
        t0.elapsed()
    }

    /// Probes when one is due at `now`; returns the wall time it took.
    pub fn tick(&mut self, now: Instant) -> Duration {
        if now < self.next {
            return Duration::ZERO;
        }
        let took = self.probe();
        let ns = took.as_nanos() as f64;
        self.ema_ns += PROBE_WEIGHT * (ns - self.ema_ns);
        self.probe_ns += took.as_nanos() as u64;
        self.next = Instant::now() + PROBE_EVERY;
        took
    }

    /// Factor turning a wall time measured now into reference-host time
    /// (rates divide by it).
    pub fn scale(&self) -> f64 {
        REF_PROBE_NS / self.ema_ns
    }
}
