//! Write-path cost of durability: the same commit loop against an
//! in-memory store, a WAL in batch mode (buffered write per verb, fsync
//! only at checkpoints), and a WAL in commit mode (fdatasync per verb).
//!
//! Emits `BENCH_wal_overhead.json` at the repo root. In full mode the
//! batch-mode ratio is a hard ceiling: journaling must stay within 1.5x
//! of the in-memory write path. The bound is a ratio of the absolute WAL
//! render+append cost to whatever the base write path costs, so every
//! speedup to the in-memory path (cheaper watch probes, interned query
//! keys, structurally shared models) tightens it for free — the ceiling
//! carries headroom for that. The gated statistic is the median of the
//! per-trial batch/off ratios: each trial times the two legs back to back,
//! alternating which goes first, and each leg runs ~50 ms or more on a
//! 2-core host, so one load spike moves one trial's ratio rather than the
//! gate. Commit mode is reported but not bounded — an fdatasync per verb
//! costs whatever the disk says it costs.

use dspace_apiserver::{ApiServer, DurabilityOptions, ObjectRef, Query, WalSync, WatchId};
use dspace_value::json;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dspace-bench-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn model(ns: &str, name: &str) -> dspace_value::Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "Lamp", "name": "{name}", "namespace": "{ns}"}},
             "control": {{"power": {{"intent": null, "status": null}},
                          "brightness": {{"intent": 0.5, "status": 0.5}}}},
             "obs": {{"lumens": 120, "temp_c": 31.5}}}}"#
    ))
    .unwrap()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Batch,
    Commit,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Batch => "batch",
            Mode::Commit => "commit",
        }
    }
}

/// `namespaces * digis` lamps with one per-namespace watcher, over the
/// requested durability mode.
fn build(
    mode: Mode,
    dir: &std::path::Path,
    namespaces: usize,
    digis: usize,
) -> (ApiServer, Vec<WatchId>) {
    // Checkpoints are timed separately (`checkpoint_probe`); pushing the
    // interval out of reach keeps the sweep a pure append-path measure.
    let mut api = match mode {
        Mode::Off => ApiServer::new(),
        Mode::Batch => {
            let mut opts = DurabilityOptions::new(dir.to_path_buf());
            opts.checkpoint_every = u64::MAX;
            ApiServer::open(opts).unwrap()
        }
        Mode::Commit => {
            let mut opts = DurabilityOptions::new(dir.to_path_buf());
            opts.sync = WalSync::Commit;
            opts.checkpoint_every = u64::MAX;
            ApiServer::open(opts).unwrap()
        }
    };
    for i in 0..digis {
        let ns = format!("ns{}", i % namespaces);
        let oref = ObjectRef::new("Lamp", ns.as_str(), format!("l{i}"));
        api.create(ApiServer::ADMIN, &oref, model(&ns, &format!("l{i}")))
            .unwrap();
    }
    let watchers = (0..namespaces)
        .map(|k| {
            api.watch_query(
                ApiServer::ADMIN,
                &Query::kind("Lamp").in_ns(format!("ns{k}")),
            )
            .unwrap()
        })
        .collect();
    (api, watchers)
}

/// One commit round: every digi mutates once (one journaled verb each),
/// then every watcher drains its shard.
fn round(api: &mut ApiServer, namespaces: usize, digis: usize, watchers: &[WatchId], toggle: f64) {
    for i in 0..digis {
        let ns = format!("ns{}", i % namespaces);
        api.patch_path(
            ApiServer::ADMIN,
            &ObjectRef::new("Lamp", ns, format!("l{i}")),
            ".control.brightness.intent",
            toggle.into(),
        )
        .unwrap();
    }
    for &w in watchers {
        api.poll(w);
    }
}

/// One timed run of the workload: build a fresh store, one untimed
/// warmup round (populates watcher logs and encode caches), then
/// `rounds` timed rounds.
fn run_once(mode: Mode, t: usize, namespaces: usize, digis: usize, rounds: usize) -> f64 {
    let dir = scratch_dir(&format!("{}-{t}", mode.name()));
    let (mut api, watchers) = build(mode, &dir, namespaces, digis);
    round(&mut api, namespaces, digis, &watchers, 1.0);
    let start = std::time::Instant::now();
    for r in 0..rounds {
        round(
            &mut api,
            namespaces,
            digis,
            &watchers,
            r as f64 / rounds as f64,
        );
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(api);
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

/// Times `trials` full runs per mode and keeps each mode's fastest.
fn best_of(mode: Mode, namespaces: usize, digis: usize, rounds: usize, trials: usize) -> f64 {
    (0..trials)
        .map(|t| run_once(mode, t, namespaces, digis, rounds))
        .fold(f64::INFINITY, f64::min)
}

/// Times `trials` pairs of off and batch runs. The two legs of a pair run
/// back to back, alternating which goes first, so a load spike lands on
/// one pair's ratio instead of on one mode's best. Returns each mode's
/// fastest run and every pair's batch/off ratio.
fn paired_trials(
    namespaces: usize,
    digis: usize,
    rounds: usize,
    trials: usize,
) -> (f64, f64, Vec<f64>) {
    let (mut best_off, mut best_batch) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(trials);
    for t in 0..trials {
        let (off, batch) = if t % 2 == 0 {
            let off = run_once(Mode::Off, t, namespaces, digis, rounds);
            (off, run_once(Mode::Batch, t, namespaces, digis, rounds))
        } else {
            let batch = run_once(Mode::Batch, t, namespaces, digis, rounds);
            (run_once(Mode::Off, t, namespaces, digis, rounds), batch)
        };
        best_off = best_off.min(off);
        best_batch = best_batch.min(batch);
        ratios.push(batch / off);
    }
    (best_off, best_batch, ratios)
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sweep(smoke: bool) {
    let namespaces: usize = 8;
    let digis: usize = if smoke { 32 } else { 256 };
    let rounds: usize = if smoke { 2 } else { 96 };
    let trials: usize = if smoke { 1 } else { 7 };
    println!();
    println!(
        "wal overhead sweep: {digis} digis / {namespaces} namespaces, \
         {rounds} rounds x 1 journaled verb per digi, {trials} off/batch pairs"
    );
    // Off and batch pair up for the full trial count — theirs is the
    // asserted ratio. Commit mode is report-only and pays an fdatasync per
    // verb; the best of two runs suffices.
    let (off_ms, batch_ms, ratios) = paired_trials(namespaces, digis, rounds, trials);
    let commit_ms = best_of(
        Mode::Commit,
        namespaces,
        digis,
        rounds,
        if smoke { 1 } else { 2 },
    );
    let batch_ratio = median(&ratios);
    let best_of_ratio = batch_ms / off_ms;
    println!("{:>8} {:>10} {:>9}", "mode", "best ms", "vs-off");
    let mut rows = Vec::new();
    for (mode, ms) in [
        (Mode::Off, off_ms),
        (Mode::Batch, batch_ms),
        (Mode::Commit, commit_ms),
    ] {
        let ratio = ms / off_ms;
        println!("{:>8} {:>10.2} {:>8.2}x", mode.name(), ms, ratio);
        rows.push(format!(
            r#"    {{"mode": "{}", "ms": {ms:.3}, "ratio_vs_off": {ratio:.3}}}"#,
            mode.name()
        ));
    }
    let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    println!(
        "batch/off per pair: [{}]; median {batch_ratio:.3}x (gated), best-of {best_of_ratio:.3}x",
        shown.join(", ")
    );
    if !smoke {
        assert!(
            batch_ratio <= 1.5,
            "batch-mode WAL must stay within 1.5x of the in-memory write \
             path, got a median of {batch_ratio:.2}x over {trials} pairs"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"wal_overhead\",\n  \"namespaces\": {namespaces},\n  \"digis\": {digis},\n  \"rounds\": {rounds},\n  \"trials\": {trials},\n  \"smoke\": {smoke},\n  \"batch_ratio_vs_off\": {batch_ratio:.3},\n  \"batch_ratio_statistic\": \"median of per-pair batch/off ratios\",\n  \"pair_ratios\": [{}],\n  \"best_of_ratio\": {best_of_ratio:.3},\n  \"results\": [\n{}\n  ]\n}}\n",
        shown.join(", "),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal_overhead.json");
    std::fs::write(path, json).expect("write BENCH_wal_overhead.json");
    println!("wrote {path}");
    println!();
}

/// Checkpoint cost for the record: serialize-whole-store + fsync + log
/// truncation, amortized over `checkpoint_every` commits in production.
fn checkpoint_probe(smoke: bool) {
    let namespaces: usize = 8;
    let digis: usize = if smoke { 32 } else { 256 };
    let dir = scratch_dir("ckpt");
    let (mut api, _watchers) = build(Mode::Batch, &dir, namespaces, digis);
    let start = std::time::Instant::now();
    api.checkpoint();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    println!("checkpoint probe: {digis} digis snapshotted in {ms:.2} ms");
    drop(api);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery cost for the record: how long `ApiServer::open` takes to
/// replay the journal the sweep's batch leg would leave behind.
fn recovery_probe(smoke: bool) {
    let namespaces: usize = 8;
    let digis: usize = if smoke { 32 } else { 256 };
    let rounds: usize = if smoke { 2 } else { 16 };
    let dir = scratch_dir("recover");
    let (mut api, watchers) = build(Mode::Batch, &dir, namespaces, digis);
    for r in 0..rounds {
        round(
            &mut api,
            namespaces,
            digis,
            &watchers,
            r as f64 / rounds as f64,
        );
    }
    let committed = api.revision();
    drop(api);
    let start = std::time::Instant::now();
    let api = ApiServer::open(DurabilityOptions::new(dir.clone())).unwrap();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        api.revision(),
        committed,
        "replay must reach the crash point"
    );
    println!(
        "recovery probe: {} commits replayed in {ms:.2} ms",
        committed
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    sweep(smoke);
    checkpoint_probe(smoke);
    recovery_probe(smoke);
}
