//! Turning a finished run into named metrics, and rendering the JSON lines.

use std::collections::BTreeMap;

use dspace_core::Space;
use dspace_simnet::Histogram;

use crate::fleet::Fleet;
use crate::runner::Runner;
use crate::spans::Layer;
use crate::stats::{histogram_of, FAST};

/// End-to-end metrics (reported with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("intents_per_s", "1/s"),
    ("wall_p50_ms", "ms"),
    ("wall_p90_ms", "ms"),
    ("ttf_p50_ms", "ms"),
    ("ttf_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.step_busy_ms", "ms"),
    ("core.step_p99_us", "us"),
    ("core.events_per_intent", "count"),
    ("core.pump_busy_ms", "ms"),
    ("core.plan_busy_ms", "ms"),
    ("core.plan_parallelism", "count"),
    ("core.land_busy_ms", "ms"),
    ("core.land_p99_us", "us"),
    ("core.reconciles_per_intent", "count"),
    ("core.coalesce_ratio", "ratio"),
    ("core.conflict_ratio", "ratio"),
    ("core.followups", "count"),
    ("core.user_observed_per_intent", "count"),
    ("core.components_end", "count"),
    ("core.slots_after_teardown", "count"),
    ("core.trace_entries_end", "count"),
    ("core.retries", "count"),
    ("core.gave_up", "count"),
    ("core.driver_errors", "count"),
    ("core.invariant_violations", "count"),
    ("apiserver.query_p50_us", "us"),
    ("apiserver.commit_p50_us", "us"),
    ("apiserver.commit_p99_us", "us"),
    ("apiserver.commits_per_intent", "count"),
    ("apiserver.wal_bytes_per_commit", "B"),
    ("apiserver.log_len_end", "count"),
    ("apiserver.shards_end", "count"),
    ("apiserver.deep_clones", "count"),
    ("space.join_p50_ms", "ms"),
    ("space.leave_p50_ms", "ms"),
    ("space.create_p50_us", "us"),
    ("space.mount_p50_us", "us"),
    ("devices.commands_per_intent", "count"),
    ("devices.actuate_p50_us", "us"),
    ("devices.ticks", "count"),
    ("devices.busy_ms", "ms"),
    ("fig7.fpt_p50_ms", "ms"),
    ("fig7.fpt_p99_ms", "ms"),
    ("fig7.dt_p50_ms", "ms"),
    ("fig7.bpt_p50_ms", "ms"),
    ("fig7.bpt_p99_ms", "ms"),
    ("bench.detect_share", "%"),
    ("trace.share.apiserver", "%"),
    ("trace.share.space", "%"),
    ("trace.share.controller", "%"),
    ("trace.share.driver", "%"),
    ("trace.share.device", "%"),
    ("trace.share.user_cli", "%"),
    ("trace.share.pump", "%"),
    ("trace.share.bench", "%"),
    ("trace.share.other", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Program counters read at the start and end of the measured phase.
pub struct Snapshot {
    executed: u64,
    revision: u64,
    counters: BTreeMap<String, u64>,
    hist_len: BTreeMap<&'static str, usize>,
    commands: u64,
    ticks: u64,
    device_ns: u64,
    actuations: usize,
    deep_clones: u64,
}

const HISTOGRAMS: [&str; 3] = ["plan_ns", "land_ns", "plan_parallelism"];

impl Snapshot {
    pub fn take(fleet: &Fleet) -> Snapshot {
        let w = &fleet.space.world;
        let d = fleet.devices.borrow();
        Snapshot {
            executed: fleet.space.sim.executed(),
            revision: w.api.revision(),
            counters: w
                .metrics
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hist_len: HISTOGRAMS
                .iter()
                .map(|&h| (h, w.metrics.histogram(h).map_or(0, Histogram::count)))
                .collect(),
            commands: d.commands,
            ticks: d.ticks,
            device_ns: d.busy_ns,
            actuations: d.actuate_us.count(),
            deep_clones: w.api.watch_stats().deep_clones,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Samples of a program histogram recorded since `from`.
fn since(space: &Space, name: &str, from: &Snapshot) -> Vec<f64> {
    let skip = from.hist_len.get(name).copied().unwrap_or(0);
    space
        .world
        .metrics
        .histogram(name)
        .map_or(Vec::new(), |h| h.samples()[skip..].to_vec())
}

/// VmHWM of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-of-run facts gathered outside the runner.
pub struct Ends {
    pub setup_s: Histogram,
    pub peak_rss_mb: f64,
    pub components_end: usize,
    pub slots_after_teardown: usize,
    pub wal_bytes: u64,
    pub log_len_end: usize,
    pub shards_end: usize,
    pub trace_entries_end: usize,
}

/// Every metric of the run, end-to-end and per-layer.
pub fn metrics(
    r: &Runner,
    start: &Snapshot,
    end: &Snapshot,
    ends: &Ends,
) -> BTreeMap<&'static str, f64> {
    let t = &r.tally;
    let s = &r.space_stats;
    let space = &r.fleet.space;
    let intents = t.attempted.max(1) as f64;
    let delta = |name: &str| (end.counter(name) - start.counter(name)) as f64;
    let plan = since(space, "plan_ns", start);
    let land = since(space, "land_ns", start);
    let par = since(space, "plan_parallelism", start);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let devices = r.fleet.devices.borrow();
    let actuate = histogram_of(&devices.actuate_us.samples()[start.actuations..]);
    let revisions = (end.revision - start.revision).max(1) as f64;
    let deliveries = delta("driver_deliveries");
    let coalesced = delta("driver_coalesced_events");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("setup_s", ends.setup_s.median());
    let rate = if t.chunk_rate.count() > 0 {
        t.chunk_rate.percentile(1.0 - FAST)
    } else {
        let secs = t.measured_ns.max(1) as f64 / 1e9 * s.host.scale();
        t.fulfilled as f64 / secs
    };
    m.insert("intents_per_s", rate);
    m.insert("wall_p50_ms", t.wall_ms.fast_p50());
    m.insert("wall_p90_ms", t.wall_ms.fast_p90());
    m.insert("ttf_p50_ms", t.ttf_ms.median());
    m.insert("ttf_p99_ms", t.ttf_ms.percentile(0.99));
    m.insert("peak_rss_mb", ends.peak_rss_mb);
    m.insert("apiserver.query_p50_us", t.query_us.fast_p50());
    m.insert("space.join_p50_ms", s.join_ms.fast_p50());
    m.insert("space.leave_p50_ms", s.leave_ms.fast_p50());

    m.insert("core.step_busy_ms", t.step_ns as f64 / 1e6);
    m.insert("core.step_p99_us", t.step_us.percentile(0.99));
    m.insert(
        "core.events_per_intent",
        (end.executed - start.executed) as f64 / intents,
    );
    m.insert("core.pump_busy_ms", t.pump_ns as f64 / 1e6);
    m.insert("core.plan_busy_ms", plan.iter().sum::<f64>() / 1e6);
    m.insert("core.plan_parallelism", mean(&par));
    m.insert("core.land_busy_ms", land.iter().sum::<f64>() / 1e6);
    m.insert(
        "core.land_p99_us",
        histogram_of(&land).percentile(0.99) / 1e3,
    );
    m.insert("core.reconciles_per_intent", deliveries / intents);
    m.insert(
        "core.coalesce_ratio",
        coalesced / (deliveries + coalesced).max(1.0),
    );
    m.insert(
        "core.conflict_ratio",
        (delta("reconcile_conflicts") + delta("controller_conflicts")) / (land.len().max(1) as f64),
    );
    m.insert(
        "core.followups",
        delta("driver_followup_cycles") + delta("controller_followup_cycles"),
    );
    m.insert(
        "core.user_observed_per_intent",
        t.user_observed as f64 / intents,
    );
    m.insert("core.components_end", ends.components_end as f64);
    m.insert(
        "core.slots_after_teardown",
        ends.slots_after_teardown as f64,
    );
    m.insert("core.trace_entries_end", ends.trace_entries_end as f64);
    m.insert(
        "core.retries",
        delta("driver_retries") + delta("controller_retries"),
    );
    m.insert(
        "core.gave_up",
        (end.counter("driver_gave_up") + end.counter("controller_gave_up")) as f64,
    );
    m.insert("core.driver_errors", delta("driver_errors"));
    m.insert(
        "core.invariant_violations",
        end.counter("reconcile_invariant_violations") as f64,
    );

    m.insert("apiserver.commit_p50_us", t.commit_us.median());
    m.insert("apiserver.commit_p99_us", t.commit_us.percentile(0.99));
    m.insert("apiserver.commits_per_intent", revisions / intents);
    m.insert(
        "apiserver.wal_bytes_per_commit",
        ends.wal_bytes as f64 / revisions,
    );
    m.insert("apiserver.log_len_end", ends.log_len_end as f64);
    m.insert("apiserver.shards_end", ends.shards_end as f64);
    m.insert(
        "apiserver.deep_clones",
        (end.deep_clones - start.deep_clones) as f64,
    );

    m.insert("space.create_p50_us", s.create_us.median());
    m.insert("space.mount_p50_us", s.mount_us.median());

    m.insert(
        "devices.commands_per_intent",
        (end.commands - start.commands) as f64 / intents,
    );
    m.insert("devices.actuate_p50_us", actuate.median());
    m.insert("devices.ticks", (end.ticks - start.ticks) as f64);
    m.insert(
        "devices.busy_ms",
        (end.device_ns - start.device_ns) as f64 / 1e6,
    );

    m.insert("fig7.fpt_p50_ms", t.fpt_ms.median());
    m.insert("fig7.fpt_p99_ms", t.fpt_ms.percentile(0.99));
    m.insert("fig7.dt_p50_ms", t.dt_ms.median());
    m.insert("fig7.bpt_p50_ms", t.bpt_ms.median());
    m.insert("fig7.bpt_p99_ms", t.bpt_ms.percentile(0.99));

    m.insert(
        "bench.detect_share",
        100.0 * t.bench_ns as f64 / t.measured_ns.max(1) as f64,
    );
    let shares = r.spans.shares(t.raw_ns);
    for &(layer, share) in &shares {
        m.insert(share_name(layer), share);
    }
    m.insert("trace.coverage_pct", shares.iter().map(|s| s.1).sum());
    m.insert("trace.overhead_pct", r.spans.overhead_pct(t.raw_ns));
    m
}

fn share_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Apiserver => "trace.share.apiserver",
        Layer::Space => "trace.share.space",
        Layer::Controller => "trace.share.controller",
        Layer::Driver => "trace.share.driver",
        Layer::Device => "trace.share.device",
        Layer::UserCli => "trace.share.user_cli",
        Layer::Pump => "trace.share.pump",
        Layer::Bench => "trace.share.bench",
        Layer::Other => "trace.share.other",
    }
}

/// A JSON number: non-finite values (never expected) render as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string with the few escapes check messages can need.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` over `names`.
pub fn metrics_json(m: &BTreeMap<&'static str, f64>, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(v),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
