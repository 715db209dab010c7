//! `e2e`: the end-to-end intent benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml --bin e2e -- \
//!     --workload <fleet_s1|single_intent|policy_motion|tenant_churn> \
//!     --seed <n> [--seconds <s>] [--trace <0|1>] [--threads <n>] [--trace-out <dir>]
//! ```
//!
//! Builds a fleet of homes (several times, to time set-up), drives it for
//! `--seconds` of wall time, checks that every intent was fulfilled and the
//! fleet converged, and prints one JSON object as the last stdout line:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics,
//! or with `--trace 1` the per-layer ones. The line before it holds the
//! full report (workload, seed, cores, threads, checks, digest, every
//! metric). Exits 1 when a check fails and 2 on a usage or set-up error.
//! See README.md for metric definitions.

mod fleet;
mod report;
mod runner;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dspace_simnet::Histogram;

use fleet::{thread_cap, Fleet, SpaceStats};
use report::{Ends, Snapshot, END_TO_END, PER_LAYER};
use runner::Runner;
use spans::Spans;
use workload::{Spec, Workload};

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: Option<usize>,
    pub trace_out: Option<PathBuf>,
    /// How many times the fleet is built; `setup_s` is the median.
    pub setups: usize,
    /// Run this many epochs instead of the count `seconds` implies.
    pub epochs: Option<usize>,
    /// Use the smoke-test sizing.
    pub tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::FleetS1,
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: None,
        trace_out: None,
        setups: 5,
        epochs: None,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--threads" => {
                opts.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// A finished run.
pub struct Report {
    pub opts: Options,
    pub cores: usize,
    pub threads: usize,
    pub epochs: usize,
    pub attempted: u64,
    pub fulfilled: u64,
    pub superseded: u64,
    pub failed: u64,
    pub checks: runner::Checks,
    /// FNV digest of the trace and the store at the end of the run.
    pub digest: u64,
    pub metrics: std::collections::BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.all_ok() && self.failed == 0
    }
}

/// Builds, measures, checks and tears down one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = if opts.tiny {
        Spec::tiny(opts.workload)
    } else {
        Spec::full(opts.workload)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = thread_cap(&spec, opts.threads);
    let mut stats = SpaceStats::default();
    let mut setup_s = Histogram::new();
    let mut built = None;
    for k in 0..opts.setups {
        let (t0, probed) = (Instant::now(), stats.host.probe_ns);
        let mut fleet = Fleet::new(&spec, opts.seed, threads)?;
        fleet.populate(spec.homes, &mut stats)?;
        let ns = t0.elapsed().as_nanos() as u64 - (stats.host.probe_ns - probed);
        setup_s.record(ns as f64 / 1e9 * stats.host.scale());
        if k + 1 < opts.setups {
            fleet.teardown(&mut stats)?;
        } else {
            built = Some(fleet);
        }
    }
    let fleet = built.expect("at least one set-up");
    let setup_ok = runner::converged(&fleet, &spec);
    let spans = Spans::new(opts.trace_out.is_some());
    let mut r = Runner::new(spec.clone(), opts.seed, fleet, stats, spans);
    r.checks.record("setup_converged", setup_ok);
    let start = Snapshot::take(&r.fleet);
    let epochs = opts.epochs.unwrap_or(spec.epochs(opts.seconds));
    // A host several times slower than the reference stops early rather
    // than overrun its time limit; the work then differs from other runs.
    let cutoff = Instant::now() + Duration::from_secs_f64(3.0 * opts.seconds + 30.0);
    r.measure(epochs, cutoff, opts.trace);
    let end = Snapshot::take(&r.fleet);
    let peak_rss_mb = report::peak_rss_mb();
    let digest = runner::digest(&r.fleet.space);
    let (components_end, trace_entries_end, log_len_end, shards_end) = {
        let w = &r.fleet.space.world;
        (
            w.component_names().len(),
            w.trace.len(),
            w.api.log_len(),
            w.api.shard_count(),
        )
    };
    let counter = |name: &str| r.fleet.space.world.metrics.counter(name);
    let violations = counter("reconcile_invariant_violations");
    let gave_up = counter("driver_gave_up") + counter("controller_gave_up");
    let audit = r.fleet.space.world.api.audit_sizes();
    r.checks.record(
        "no_invariant_violations",
        zero("reconcile_invariant_violations", violations),
    );
    r.checks.record("no_gave_up", zero("gave_up", gave_up));
    r.checks.record("audit_sizes", audit);
    let wal_bytes = r.fleet.wal.as_ref().map_or(0, |d| d.bytes());

    // Every home leaves; the store must hold none of their objects after.
    r.fleet.teardown(&mut r.space_stats)?;
    r.fleet.space.settle(60_000);
    let leftover = r
        .fleet
        .space
        .world
        .api
        .dump()
        .into_iter()
        .filter(|o| o.oref.namespace.starts_with('h'))
        .count();
    r.checks
        .record("teardown_empty", zero("objects left", leftover as u64));
    let ends = Ends {
        setup_s,
        peak_rss_mb,
        components_end,
        slots_after_teardown: r.fleet.space.world.component_names().len(),
        wal_bytes,
        log_len_end,
        shards_end,
        trace_entries_end,
    };
    let metrics = report::metrics(&r, &start, &end, &ends);

    if let Some(dir) = &opts.trace_out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.jsonl", opts.workload.name(), opts.seed));
        let n = r
            .spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {n} spans to {}", path.display());
    }
    let t = &r.tally;
    Ok(Report {
        opts: opts.clone(),
        cores,
        threads,
        epochs: t.epochs,
        attempted: t.attempted,
        fulfilled: t.fulfilled,
        superseded: t.superseded,
        failed: t.failed(),
        checks: std::mem::take(&mut r.checks),
        digest,
        metrics,
    })
}

fn zero(what: &str, n: u64) -> Result<(), String> {
    if n == 0 {
        Ok(())
    } else {
        Err(format!("{what} = {n}"))
    }
}

fn print(report: &Report) {
    use report::{metrics_json, num, string};
    let o = &report.opts;
    let checks: Vec<String> = report
        .checks
        .0
        .iter()
        .map(|(name, (passed, fail))| {
            let error = fail.as_deref().map_or("null".to_string(), string);
            format!(
                "{}: {{\"passed\": {passed}, \"error\": {error}}}",
                string(name)
            )
        })
        .collect();
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    for (name, unit) in &all {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:>34} {v:>14.4} {unit}");
    }
    eprintln!(
        "{}: {} attempted, {} fulfilled, {} superseded, {} failed over {} epochs; correct={}",
        o.workload.name(),
        report.attempted,
        report.fulfilled,
        report.superseded,
        report.failed,
        report.epochs,
        report.correct()
    );
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"cores\": {}, \"threads\": {}, \"epochs\": {}, \"attempted\": {}, \"fulfilled\": {}, \"superseded\": {}, \"failed\": {}, \"failed_ratio\": {}, \"digest\": \"{:016x}\", \"checks\": {{{}}}, \"metrics\": {}}}",
        string(o.workload.name()),
        o.seed,
        report.cores,
        report.threads,
        report.epochs,
        report.attempted,
        report.fulfilled,
        report.superseded,
        report.failed,
        num(failed_ratio),
        report.digest,
        checks.join(", "),
        metrics_json(&report.metrics, &all),
    );
    let names = if o.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics_json(&report.metrics, names),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            print(&report);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, threads: usize, trace: bool) -> Report {
        let opts = Options {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            threads: Some(threads),
            trace_out: None,
            setups: 1,
            epochs: Some(2),
            tiny: true,
        };
        run(&opts).expect("tiny run completes")
    }

    /// Every workload at a few homes: checks pass, and the digest of the
    /// trace and store is identical at caps 1 and 2 and with spans on.
    #[test]
    fn smoke_every_workload() {
        for w in Workload::ALL {
            let base = tiny(w, 1, false);
            assert!(
                base.attempted > 0 && base.fulfilled > 0,
                "{}: idle",
                w.name()
            );
            for (threads, trace) in [(1, false), (2, false), (1, true)] {
                let r = if (threads, trace) == (1, false) {
                    &base
                } else {
                    &tiny(w, threads, trace)
                };
                let failures: Vec<_> = r.checks.0.iter().filter(|c| c.1 .1.is_some()).collect();
                assert!(
                    r.correct(),
                    "{} cap {threads}: {failures:?}, {} failed",
                    w.name(),
                    r.failed
                );
                assert_eq!(r.digest, base.digest, "{} digest, cap {threads}", w.name());
                assert_eq!(r.attempted, base.attempted);
                for name in [
                    "ttf_p50_ms",
                    "ttf_p99_ms",
                    "fig7.fpt_p50_ms",
                    "fig7.bpt_p99_ms",
                ] {
                    assert_eq!(
                        r.metrics[name].to_bits(),
                        base.metrics[name].to_bits(),
                        "{name}"
                    );
                }
                if trace {
                    assert!(
                        r.metrics["trace.coverage_pct"] > 0.0,
                        "{}: no spans",
                        w.name()
                    );
                }
            }
        }
    }

    /// The metric lists printed are exactly the ones BENCHMARK.json names.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = dspace_value::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get_path(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get_path(f).and_then(|v| v.as_str()).unwrap_or("");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let expected: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get_path("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get_path("name").and_then(|v| v.as_str()))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload tenant_churn --seed 9 --seconds 12 --trace 1",
        ))
        .expect("driver arguments parse");
        assert_eq!(o.workload, Workload::TenantChurn);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 12.0, true));
        assert!(
            parse_args(&args("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fleet_s1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet_s1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload fleet_s1 --seconds NaN")).is_err());
    }
}
