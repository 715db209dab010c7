//! The filtered-read and predicate-watch hot paths.
//!
//! A space of 4096 lamps carries one distinct `.control.brightness.intent`
//! per digi, so a range filter's selectivity is a dial: `< 4` matches
//! 0.1% of the space, `< 41` matches 1%, `< 410` matches 10%. The sweep
//! times the same [`Query`] through the store's indexed path and through
//! the store's brute-force scan (the semantics baseline), then scales a
//! predicate-watch fan-out: W disjoint predicate subscriptions, a burst
//! into one bucket, and the claim that the other W-1 watchers never even
//! go pending. Emits `BENCH_query.json` at the repo root; a full run
//! asserts the indexed path clears 10x over the scan at 1% selectivity.

use criterion::{criterion_group, BatchSize, Criterion};

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchId};
use dspace_value::{json, Value};

const DIGIS: usize = 4096;

fn oref(i: usize) -> ObjectRef {
    ObjectRef::default_ns("Lamp", format!("l{i}"))
}

/// Lamp `i` holds brightness `i`: selectivity of `brightness < cut` is
/// exactly `cut / n`.
fn model(i: usize) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "Lamp", "name": "l{i}", "namespace": "default"}},
             "control": {{"power": {{"intent": "off", "status": "off"}},
                          "brightness": {{"intent": {i}, "status": {i}}}}},
             "obs": {{"lumens": 120, "temp_c": 31.5}}}}"#
    ))
    .unwrap()
}

fn build(n: usize) -> ApiServer {
    let mut api = ApiServer::new();
    for i in 0..n {
        api.create(ApiServer::ADMIN, &oref(i), model(i)).unwrap();
    }
    api
}

/// `brightness < cut` scoped to the lamp shard — the planner turns this
/// into one index range probe.
fn cut_query(cut: usize) -> Query {
    Query::kind("Lamp")
        .in_ns("default")
        .filter(&format!(".control.brightness.intent < {cut}"))
        .unwrap()
}

/// Mean microseconds per indexed query (index already warm) and the
/// match count of the last run.
fn time_indexed(api: &mut ApiServer, q: &Query, iters: usize) -> (f64, usize) {
    let mut found = 0;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        found = std::hint::black_box(api.query(ApiServer::ADMIN, q).unwrap()).len();
    }
    (start.elapsed().as_secs_f64() * 1e6 / iters as f64, found)
}

/// Mean microseconds per brute-force scan (reflex re-evaluated on every
/// object of the namespace, nothing cloned).
fn time_scan(api: &ApiServer, q: &Query, iters: usize) -> (f64, usize) {
    let mut found = 0;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        found = std::hint::black_box(api.scan(q)).len();
    }
    (start.elapsed().as_secs_f64() * 1e6 / iters as f64, found)
}

/// Selectivity sweep: the same query answered by the index and by the
/// scan, at 0.1% / 1% / 10%. Returns JSON rows plus the 1% speedup.
fn selectivity_sweep(smoke: bool, rows: &mut Vec<String>) -> f64 {
    let digis = if smoke { 512 } else { DIGIS };
    let iters = if smoke { 20 } else { 200 };
    let mut api = build(digis);
    println!();
    println!("query selectivity sweep: {digis} digis, {iters} queries per point");
    println!(
        "{:>7} {:>8} {:>12} {:>12} {:>9}",
        "sel%", "matched", "indexed-us", "scan-us", "speedup"
    );
    let mut speedup_1pct = 0.0;
    for &pct in &[0.1f64, 1.0, 10.0] {
        let cut = ((digis as f64) * pct / 100.0).round() as usize;
        let q = cut_query(cut.max(1));
        // Warm: the first indexed query builds the index; steady state is
        // what commit-time maintenance keeps paying for.
        let warm = api.query(ApiServer::ADMIN, &q).unwrap().len();
        let (indexed_us, found_idx) = time_indexed(&mut api, &q, iters);
        let (scan_us, found_scan) = time_scan(&api, &q, iters);
        assert_eq!(found_idx, found_scan, "indexed and scan must agree");
        assert_eq!(found_idx, warm, "query must be stable across runs");
        let speedup = scan_us / indexed_us;
        if pct == 1.0 {
            speedup_1pct = speedup;
        }
        println!(
            "{:>7} {:>8} {:>12.2} {:>12.2} {:>8.1}x",
            pct, found_idx, indexed_us, scan_us, speedup
        );
        rows.push(format!(
            r#"    {{"selectivity_pct": {pct}, "digis": {digis}, "matched": {found_idx}, "indexed_us": {indexed_us:.3}, "scan_us": {scan_us:.3}, "speedup": {speedup:.3}}}"#
        ));
    }
    speedup_1pct
}

/// W disjoint predicate subscriptions (one per brightness bucket), then a
/// burst re-writing every digi of bucket 0. Exactly one watcher may go
/// pending; the other W-1 must not — matching happened at commit against
/// the index delta, so irrelevant events never entered their logs.
fn fanout_sweep(smoke: bool, rows: &mut Vec<String>) {
    let digis = if smoke { 256 } else { DIGIS };
    let widths: &[usize] = if smoke { &[16] } else { &[16, 64, 256] };
    println!();
    println!("predicate-watch fan-out: {digis} digis, burst = 1 patch per bucket-0 digi");
    println!(
        "{:>9} {:>7} {:>9} {:>11} {:>10} {:>11}",
        "watchers", "burst", "pending", "delivered", "commit-ms", "idle-events"
    );
    for &w in widths {
        let mut api = build(digis);
        let span = digis / w;
        let watchers: Vec<WatchId> = (0..w)
            .map(|k| {
                let (lo, hi) = (k * span, (k + 1) * span);
                let q = Query::kind("Lamp").in_ns("default").filter(&format!(
                    ".control.brightness.intent >= {lo} and .control.brightness.intent < {hi}"
                ));
                api.watch_query(ApiServer::ADMIN, &q.unwrap()).unwrap()
            })
            .collect();
        // The burst keeps each digi inside its bucket (i -> i + 0.25), so
        // ownership is unambiguous: watcher 0 sees `span` events, the rest
        // see nothing.
        let start = std::time::Instant::now();
        for i in 0..span {
            api.patch_path(
                ApiServer::ADMIN,
                &oref(i),
                ".control.brightness.intent",
                (i as f64 + 0.25).into(),
            )
            .unwrap();
        }
        let commit_ms = start.elapsed().as_secs_f64() * 1e3;
        let pending = watchers.iter().filter(|&&id| api.has_pending(id)).count();
        let idle_events: u64 = watchers[1..].iter().map(|&id| api.pending_events(id)).sum();
        let delivered: usize = watchers.iter().map(|&id| api.poll(id).len()).sum();
        println!(
            "{:>9} {:>7} {:>9} {:>11} {:>10.2} {:>11}",
            w, span, pending, delivered, commit_ms, idle_events
        );
        assert_eq!(pending, 1, "only the bucket-0 watcher may go pending");
        assert_eq!(idle_events, 0, "non-matching watchers hold no events");
        assert_eq!(delivered, span, "each burst event delivered exactly once");
        rows.push(format!(
            r#"    {{"watchers": {w}, "burst": {span}, "pending_watchers": {pending}, "delivered": {delivered}, "commit_ms": {commit_ms:.3}, "idle_pending_events": {idle_events}}}"#
        ));
    }
    println!();
}

/// Criterion wrapper around the 1% point, indexed vs scan.
fn bench_query_1pct(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_path");
    group.sample_size(10);
    let q = cut_query(DIGIS / 100);
    group.bench_function("filtered/indexed@1pct", |b| {
        b.iter_batched(
            || {
                let mut api = build(DIGIS);
                let _ = api.query(ApiServer::ADMIN, &q).unwrap(); // warm
                api
            },
            |mut api| api.query(ApiServer::ADMIN, &q).unwrap().len(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("filtered/scan@1pct", |b| {
        b.iter_batched(
            || build(DIGIS),
            |api| api.scan(&q).len(),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_query_1pct);

fn main() {
    // `cargo bench -- --test` (the CI smoke) shrinks the sweeps and skips
    // the speedup floor; a full `cargo bench` enforces it.
    let smoke = std::env::args().any(|a| a == "--test");
    if !smoke {
        benches();
    }
    let mut sel_rows = Vec::new();
    let mut fan_rows = Vec::new();
    let speedup_1pct = selectivity_sweep(smoke, &mut sel_rows);
    fanout_sweep(smoke, &mut fan_rows);
    if !smoke {
        assert!(
            speedup_1pct >= 10.0,
            "the indexed path must clear 10x over a full scan at 1% \
             selectivity, got {speedup_1pct:.1}x"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"query_path\",\n  \"smoke\": {smoke},\n  \"speedup_indexed_vs_scan_1pct\": {speedup_1pct:.3},\n  \"selectivity\": [\n{}\n  ],\n  \"predicate_fanout\": [\n{}\n  ]\n}}\n",
        sel_rows.join(",\n"),
        fan_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, json).expect("write BENCH_query.json");
    println!("wrote {path}");
    println!();
}
