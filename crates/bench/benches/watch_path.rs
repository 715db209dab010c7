//! The watch/notification hot path, before vs. after scoped subscriptions.
//!
//! "Before" is emulated on the current engine by giving every digi driver
//! an `All` subscription — the old `World::drive` pattern where each driver
//! received the global stream and filter-skipped everything that wasn't its
//! own model. "After" is the shipped configuration: one `Object` selector
//! per driver. The sweep prints, per space size, the measured events
//! delivered, the model bytes materialized for snapshots, and the peak
//! in-memory log length (plus what the legacy never-truncated log would
//! have held).

use criterion::{criterion_group, BatchSize, Criterion};

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchId};
use dspace_value::{json, Value};

const ROUNDS: usize = 4;

fn model_in(ns: &str, name: &str) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "Lamp", "name": "{name}", "namespace": "{ns}"}},
             "control": {{"power": {{"intent": null, "status": null}},
                          "brightness": {{"intent": 0.5, "status": 0.5}}}},
             "obs": {{"lumens": 120, "temp_c": 31.5}}}}"#
    ))
    .unwrap()
}

fn model(name: &str) -> Value {
    model_in("default", name)
}

fn oref(i: usize) -> ObjectRef {
    ObjectRef::default_ns("Lamp", format!("l{i}"))
}

/// A space of `n` digis with one watcher per digi: `Object`-scoped when
/// `scoped`, the legacy global stream otherwise.
fn build(n: usize, scoped: bool) -> (ApiServer, Vec<WatchId>) {
    let mut api = ApiServer::new();
    for i in 0..n {
        api.create(ApiServer::ADMIN, &oref(i), model(&format!("l{i}")))
            .unwrap();
    }
    let watchers = (0..n)
        .map(|i| {
            let query = if scoped {
                Query::kind("Lamp").in_ns("default").named(format!("l{i}"))
            } else {
                Query::all()
            };
            api.watch_query(ApiServer::ADMIN, &query).unwrap()
        })
        .collect();
    (api, watchers)
}

/// One notification round: every digi's model mutates once, then every
/// driver drains its subscription (the `pump`/`wake` cycle).
fn round(api: &mut ApiServer, watchers: &[WatchId], toggle: f64) -> usize {
    let n = watchers.len();
    for i in 0..n {
        api.patch_path(
            ApiServer::ADMIN,
            &oref(i),
            ".control.brightness.intent",
            toggle.into(),
        )
        .unwrap();
    }
    let mut delivered = 0;
    for &w in watchers {
        delivered += api.poll(w).len();
    }
    delivered
}

/// A space of `digis` lamps spread round-robin over `namespaces` shards,
/// with one `KindInNamespace` watcher per namespace (the controller
/// subscription shape after narrowing).
fn build_ns(namespaces: usize, digis: usize) -> (ApiServer, Vec<WatchId>) {
    let mut api = ApiServer::new();
    for i in 0..digis {
        let ns = format!("ns{}", i % namespaces);
        let oref = ObjectRef::new("Lamp", ns.as_str(), format!("l{i}"));
        api.create(ApiServer::ADMIN, &oref, model_in(&ns, &format!("l{i}")))
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

/// One sharded notification round: every digi mutates once, then every
/// per-namespace watcher drains its shard.
fn round_ns(api: &mut ApiServer, namespaces: usize, digis: usize, watchers: &[WatchId]) -> usize {
    for i in 0..digis {
        let ns = format!("ns{}", i % namespaces);
        api.patch_path(
            ApiServer::ADMIN,
            &ObjectRef::new("Lamp", ns, format!("l{i}")),
            ".control.brightness.intent",
            0.9.into(),
        )
        .unwrap();
    }
    let mut delivered = 0;
    for &w in watchers {
        delivered += api.poll(w).len();
    }
    delivered
}

fn bench_pump_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("watch_path");
    group.sample_size(10);
    for &n in &[64usize, 256] {
        group.bench_function(&format!("pump_round/global@{n}"), |b| {
            b.iter_batched(
                || build(n, false),
                |(mut api, watchers)| round(&mut api, &watchers, 0.9),
                BatchSize::LargeInput,
            )
        });
        group.bench_function(&format!("pump_round/scoped@{n}"), |b| {
            b.iter_batched(
                || build(n, true),
                |(mut api, watchers)| round(&mut api, &watchers, 0.9),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The same 1024-digi workload under 1, 8, and 64 namespace shards: total
/// deliveries are identical, so the timing isolates the per-shard scan and
/// compaction costs.
fn bench_pump_round_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("watch_path");
    group.sample_size(10);
    const DIGIS: usize = 1024;
    for &k in &[1usize, 8, 64] {
        group.bench_function(&format!("pump_round/sharded@{k}ns"), |b| {
            b.iter_batched(
                || build_ns(k, DIGIS),
                |(mut api, watchers)| round_ns(&mut api, k, DIGIS, &watchers),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn sweep() {
    let model_bytes = json::to_string(&model("l0")).len();
    println!();
    println!("watch_path sweep: {ROUNDS} rounds x (1 mutation/digi + full drain), ~{model_bytes} B/model");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>14} {:>10} {:>12}",
        "digis", "mode", "mutations", "delivered", "bytes-cloned", "peak-log", "legacy-peak"
    );
    for &n in &[64usize, 256, 1024] {
        for scoped in [false, true] {
            let (mut api, watchers) = build(n, scoped);
            let base = api.watch_stats();
            let mut delivered = 0;
            for r in 0..ROUNDS {
                delivered += round(&mut api, &watchers, r as f64 / ROUNDS as f64);
            }
            let stats = api.watch_stats();
            let mutations = (stats.events_appended - base.events_appended) as usize;
            // Shared snapshots: one model materialization per mutation.
            // The legacy engine would have deep-cloned per delivery; its
            // log was never truncated, so its peak equals the lifetime
            // mutation count.
            let cloned = if scoped {
                mutations * model_bytes
            } else {
                delivered * model_bytes
            };
            println!(
                "{:>6} {:>8} {:>10} {:>10} {:>14} {:>10} {:>12}",
                n,
                if scoped { "scoped" } else { "global" },
                mutations,
                delivered,
                cloned,
                stats.peak_log_len,
                mutations,
            );
            assert_eq!(api.log_len(), 0, "drained space must compact to empty");
            if scoped {
                assert_eq!(
                    delivered, mutations,
                    "scoped: each event delivered exactly once"
                );
            } else {
                assert_eq!(
                    delivered,
                    mutations * n,
                    "global: every event hits every watcher"
                );
            }
        }
    }
    println!();
}

/// Namespace-shard isolation: 1024 digis over 1/8/64 namespaces, burst
/// every digi of ns0 once. Watchers of the other namespaces must not even
/// go pending — isolation is structural, not filtered at poll time.
fn ns_sweep() {
    const DIGIS: usize = 1024;
    println!();
    println!("namespace shard sweep: {DIGIS} digis, burst = 1 mutation per ns0 digi");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>14}",
        "ns", "burst", "ns0-seen", "others-seen", "others-pending"
    );
    for &k in &[1usize, 8, 64] {
        let (mut api, watchers) = build_ns(k, DIGIS);
        let in_ns0 = (0..DIGIS).filter(|i| i % k == 0).count();
        for i in (0..DIGIS).filter(|i| i % k == 0) {
            api.patch_path(
                ApiServer::ADMIN,
                &ObjectRef::new("Lamp", "ns0", format!("l{i}")),
                ".control.brightness.intent",
                0.9.into(),
            )
            .unwrap();
        }
        let others_pending = watchers[1..]
            .iter()
            .filter(|&&w| api.has_pending(w))
            .count();
        let ns0_seen = api.poll(watchers[0]).len();
        let others_seen: usize = watchers[1..].iter().map(|&w| api.poll(w).len()).sum();
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>14}",
            k, in_ns0, ns0_seen, others_seen, others_pending
        );
        assert_eq!(ns0_seen, in_ns0, "ns0 watcher sees exactly its burst");
        assert_eq!(others_seen, 0, "burst in ns0 must not reach other shards");
        assert_eq!(others_pending, 0, "other-ns watchers must never go pending");
        assert_eq!(api.log_len(), 0, "drained space must compact to empty");
    }
}

/// Kinds the sweep's controller-shaped watcher holds per namespace.
const SPACE_KINDS: [&str; 4] = ["Lamp", "UniLamp", "Room", "Scene"];

/// A space of `namespaces` shards with one lamp each, watched by the two
/// space-wide shapes: the mounter's (one `KindInNamespace` selector per
/// kind per namespace) and the user CLI's (`Query::all()`).
fn build_space_wide(namespaces: usize) -> (ApiServer, [WatchId; 2]) {
    let mut api = ApiServer::new();
    for k in 0..namespaces {
        let ns = format!("ns{k}");
        api.create(
            ApiServer::ADMIN,
            &ObjectRef::new("Lamp", ns.as_str(), "l0"),
            model_in(&ns, "l0"),
        )
        .unwrap();
    }
    let selectors: Vec<Query> = (0..namespaces)
        .flat_map(|k| SPACE_KINDS.map(|kind| Query::kind(kind).in_ns(format!("ns{k}"))))
        .collect();
    let mounter = api.watch_queries(ApiServer::ADMIN, &selectors).unwrap();
    let cli = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
    (api, [mounter, cli])
}

/// Space-wide watchers across 1 → 1024 namespaces: one `ns0` write, then
/// what the runtime's pump and wakes do with it — `drain_dirty_watchers`,
/// `pending_events` and `poll` for both watchers. Delivery cost must
/// follow the shards holding undelivered events (one), not how many
/// namespaces the subscriptions span. Rounds are timed one by one, in
/// chunks that interleave across the sizes (each trial visits every size
/// once) so host-speed drift lands on all sizes alike; a size's cost is
/// its median round. Full mode asserts the 1024-namespace median stays
/// within 1.5x of the 1-namespace one.
///
/// Explains, in the end-to-end benchmark: `core.pump_busy_ms` and the
/// controller and user-CLI wake time on `fleet_s1`.
fn space_wide_sweep(smoke: bool) {
    let sizes = [1usize, 8, 64, 1024];
    let trials: usize = if smoke { 1 } else { 5 };
    let rounds: usize = if smoke { 20 } else { 200 };
    println!();
    println!(
        "space-wide watcher sweep: 1 ns0 write + drain_dirty_watchers + \
         pending_events + poll for the mounter ({} kinds x ns) and the user \
         CLI (all), {trials} x {rounds} rounds per size",
        SPACE_KINDS.len()
    );
    println!(
        "explains (e2e-bench): core.pump_busy_ms, controller + user-CLI wake time on fleet_s1"
    );
    let mut spaces: Vec<(ApiServer, [WatchId; 2])> =
        sizes.iter().map(|&k| build_space_wide(k)).collect();
    let lamp = ObjectRef::new("Lamp", "ns0", "l0");
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for trial in 0..trials {
        for (si, (api, watchers)) in spaces.iter_mut().enumerate() {
            let (mut pending, mut delivered) = (0, 0);
            for r in 0..rounds {
                let v = (trial * rounds + r) as f64 / 1e6;
                let start = std::time::Instant::now();
                api.patch_path(
                    ApiServer::ADMIN,
                    &lamp,
                    ".control.brightness.intent",
                    v.into(),
                )
                .unwrap();
                api.drain_dirty_watchers();
                for &w in watchers.iter() {
                    pending += api.pending_events(w);
                    delivered += api.poll(w).len();
                }
                samples[si].push(start.elapsed().as_secs_f64() * 1e6);
            }
            assert_eq!(
                pending,
                2 * rounds as u64,
                "each write pends once per watcher"
            );
            assert_eq!(delivered, 2 * rounds, "each write reaches both watchers");
            assert_eq!(api.log_len(), 0, "drained space must compact to empty");
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let medians: Vec<f64> = samples.iter_mut().map(median).collect();
    println!(
        "{:>6} {:>18} {:>14} {:>10}",
        "ns", "mounter-selectors", "us/round(med)", "vs-1ns"
    );
    for (&k, &m) in sizes.iter().zip(&medians) {
        let ratio = m / medians[0];
        let selectors = SPACE_KINDS.len() * k;
        println!("{k:>6} {selectors:>18} {m:>14.2} {ratio:>10.2}");
    }
    let growth = medians[sizes.len() - 1] / medians[0];
    if !smoke {
        assert!(
            growth <= 1.5,
            "space-wide delivery must be flat in fleet size: 1024-ns round \
             {growth:.2}x the 1-ns round (limit 1.5x)"
        );
    }
    println!();
}

/// Coalesced wake: a 100-mutation burst against one digi reaches the
/// driver as a single delivery carrying the newest snapshot and the count.
fn coalesce_demo() {
    const BURST: usize = 100;
    let mut api = ApiServer::new();
    let lamp = oref(0);
    api.create(ApiServer::ADMIN, &lamp, model("l0")).unwrap();
    let w = api
        .watch_query(
            ApiServer::ADMIN,
            &Query::kind("Lamp").in_ns("default").named("l0"),
        )
        .unwrap();
    for i in 0..BURST {
        api.patch_path(
            ApiServer::ADMIN,
            &lamp,
            ".control.brightness.intent",
            (i as f64 / BURST as f64).into(),
        )
        .unwrap();
    }
    let batch = api.poll_coalesced(w);
    println!();
    println!(
        "coalesced wake: {BURST}-mutation burst -> {} delivery (coalesced = {})",
        batch.len(),
        batch[0].coalesced
    );
    assert_eq!(batch.len(), 1, "one object's burst is one delivery");
    assert_eq!(
        batch[0].coalesced, BURST as u64,
        "count must not under-report"
    );
    assert_eq!(
        batch[0]
            .event
            .model
            .get_path("control.brightness.intent")
            .and_then(Value::as_f64),
        Some((BURST - 1) as f64 / BURST as f64),
        "delivery must carry the newest snapshot"
    );
    println!();
}

/// Mounter dedup cost: feed one giant event batch (many events per digi,
/// many digis) through `Mounter::process` and assert the affected-object
/// dedup stays linear. The old `Vec::contains` dedup was O(n²) in distinct
/// objects — at 100k events / 25k digis it took seconds; the `BTreeSet`
/// dedup takes milliseconds.
fn mounter_dedup_sweep() {
    use dspace_core::mounter::Mounter;
    use std::cell::RefCell;

    println!();
    println!("mounter dedup sweep: one process() call over a pre-built event batch");
    println!(
        "{:>9} {:>9} {:>10} {:>12}",
        "events", "distinct", "ms", "us/event"
    );
    let shared = model("l0");
    let mut per_event_us = 0.0;
    for &events in &[25_000usize, 100_000] {
        let distinct = events / 4;
        let batch: Vec<dspace_apiserver::WatchEvent> = (0..events)
            .map(|i| dspace_apiserver::WatchEvent {
                revision: i as u64 + 1,
                kind: dspace_apiserver::WatchEventKind::Modified,
                oref: oref(i % distinct),
                model: shared.clone(),
                resource_version: i as u64 + 1,
            })
            .collect();
        let graph = RefCell::new(dspace_core::DigiGraph::new());
        let mut mounter = Mounter::new();
        let mut api = ApiServer::new();
        let mut trace = dspace_core::Trace::new();
        let start = std::time::Instant::now();
        mounter.process(
            &mut api,
            &graph,
            &batch,
            &mut trace,
            dspace_simnet::millis(0),
        );
        let dt = start.elapsed();
        per_event_us = dt.as_secs_f64() * 1e6 / events as f64;
        println!(
            "{:>9} {:>9} {:>10.1} {:>12.3}",
            events,
            distinct,
            dt.as_secs_f64() * 1e3,
            per_event_us,
        );
    }
    assert!(
        per_event_us < 20.0,
        "dedup must stay linear: {per_event_us:.1} us/event at 100k events \
         (the old O(n²) Vec::contains dedup costs >100 us/event here)"
    );
    println!();
}

/// Busy-burst behavior under link faults: a 100-patch burst lands while the
/// driver is mid-reconcile, over a driver link with increasing drop rates.
/// Clean links must produce exactly ONE coalesced follow-up cycle; lossy
/// links may need wake retransmits and commit retries but must converge
/// without exhausting the retry budget.
fn busy_burst_sweep() {
    use dspace_core::driver::{Driver, Filter};
    use dspace_core::world::LinkSet;
    use dspace_core::{Space, SpaceConfig};
    use dspace_simnet::{LatencyModel, Link};

    const BURST: usize = 100;
    println!();
    println!("busy-burst sweep: {BURST}-patch burst mid-reconcile (50 ms), driver link 8 ms");
    println!(
        "{:>6} {:>10} {:>9} {:>11} {:>9} {:>9} {:>10}",
        "drop%", "followups", "retries", "wake-drops", "gave-up", "status", "settle-ms"
    );
    for &drop in &[0.0f64, 0.05, 0.15] {
        let mut driver_link = Link::new("driver", LatencyModel::FixedMs(8.0));
        if drop > 0.0 {
            driver_link = driver_link
                .with_drop_probability(drop)
                .with_jitter(LatencyModel::UniformMs(0.0, 6.0));
        }
        let mut space = Space::new(SpaceConfig {
            links: LinkSet {
                driver: driver_link,
                ..LinkSet::default()
            },
            seed: 7,
            reconcile: LatencyModel::FixedMs(50.0),
            ..SpaceConfig::default()
        });
        space.register_kind(
            dspace_value::KindSchema::digivice("digi.dev", "v1", "Lamp")
                .control("brightness", dspace_value::AttrType::Number),
        );
        let mut d = Driver::new();
        d.on(Filter::on_control(), 0, "ack", |ctx| {
            let intent = ctx.digi().intent("brightness");
            if !intent.is_null() && intent != ctx.digi().status("brightness") {
                ctx.digi().set_status("brightness", intent);
            }
        });
        space.create_digi("Lamp", "solo", d).unwrap();
        space.settle(10_000);
        space.set_intent_now("solo/brightness", 0.5.into()).unwrap();
        while !space.world.driver_busy("solo") {
            assert!(space.step(), "driver never went busy");
        }
        for i in 0..BURST {
            space
                .world
                .api
                .client(ApiServer::ADMIN)
                .namespace("default")
                .patch_path(
                    "Lamp",
                    "solo",
                    ".control.brightness.intent",
                    (i as f64 / BURST as f64).into(),
                )
                .unwrap();
        }
        space.pump();
        space.settle(60_000);
        let m = &space.world.metrics;
        let followups = m.counter("driver_followup_cycles");
        let status = space.status("solo/brightness").unwrap().as_f64().unwrap();
        println!(
            "{:>6} {:>10} {:>9} {:>11} {:>9} {:>9.2} {:>10.1}",
            (drop * 100.0) as u32,
            followups,
            m.counter("driver_retries"),
            m.counter("wake_drops"),
            m.counter("driver_gave_up"),
            status,
            space.now_ms(),
        );
        assert_eq!(
            status,
            (BURST - 1) as f64 / BURST as f64,
            "burst must converge at drop={drop}"
        );
        assert_eq!(
            m.counter("driver_gave_up"),
            0,
            "budget must absorb drop={drop}"
        );
        if drop == 0.0 {
            assert_eq!(followups, 1, "clean link: exactly one follow-up cycle");
        }
        assert!(
            !space.world.has_pending_work(),
            "must quiesce at drop={drop}"
        );
    }
    println!();
}

/// Per-write cost of patching one watched object as its watcher count
/// grows (1 → 256 on the base model): every watcher shares the object's
/// group cell and one snapshot, so a write charges one slot and the cost
/// must stay flat in the watcher count.
/// Writes are timed in chunks with untimed coalesced drains between
/// them (the steady-state pump shape, which keeps the log window
/// bounded). Trials interleave across the watcher counts — each trial
/// visits every count once — so host-speed drift over the sweep's
/// duration lands on all of them alike instead of skewing whichever ran
/// first. Emits `BENCH_watch_fanout.json`; full mode asserts the max/min
/// per-write spread across watcher counts stays <= 1.2x.
fn fanout_sweep(smoke: bool) {
    let watcher_counts: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 256] };
    let chunks: usize = if smoke { 4 } else { 16 };
    let per_chunk: usize = if smoke { 16 } else { 64 };
    let trials: usize = if smoke { 1 } else { 5 };
    let writes = chunks * per_chunk;
    let model_bytes = json::to_string(&model("l0")).len();
    println!();
    println!(
        "watch_path fan-out sweep: {writes} writes/cell on a {model_bytes} B model \
         in {chunks} chunks, coalesced drain between chunks, best of {trials}"
    );
    println!("{:>9} {:>12} {:>12}", "watchers", "ns/write", "deep-clones");
    let mut best = vec![f64::INFINITY; watcher_counts.len()];
    let mut clones = vec![0u64; watcher_counts.len()];
    for _ in 0..trials {
        for (ci, &n) in watcher_counts.iter().enumerate() {
            let mut api = ApiServer::new();
            let lamp = oref(0);
            api.create(ApiServer::ADMIN, &lamp, model("l0")).unwrap();
            let watchers: Vec<WatchId> = (0..n)
                .map(|_| {
                    api.watch_query(
                        ApiServer::ADMIN,
                        &Query::kind("Lamp").in_ns("default").named("l0"),
                    )
                    .unwrap()
                })
                .collect();
            // Each chunk is one timing sample; the cell's cost is the
            // fastest chunk (the steady-state floor, insensitive to
            // scheduler noise landing on individual samples).
            for chunk in 0..chunks {
                let start = std::time::Instant::now();
                for i in 0..per_chunk {
                    api.patch_path(
                        ApiServer::ADMIN,
                        &lamp,
                        ".control.brightness.intent",
                        ((chunk * per_chunk + i) as f64 / 1e6).into(),
                    )
                    .unwrap();
                }
                let chunk_ns = start.elapsed().as_secs_f64() * 1e9 / per_chunk as f64;
                best[ci] = best[ci].min(chunk_ns);
                // Untimed steady-state drain: every watcher takes the
                // one shared newest snapshot and the coalesce count.
                for &w in &watchers {
                    let batch = api.poll_coalesced(w);
                    assert_eq!(batch.len(), 1);
                    assert_eq!(batch[0].coalesced, per_chunk as u64);
                }
            }
            assert_eq!(api.log_len(), 0, "drained space must compact to empty");
            clones[ci] = api.watch_stats().deep_clones;
        }
    }
    let mut rows = Vec::new();
    let (mut min_ns, mut max_ns) = (f64::INFINITY, 0.0f64);
    for (ci, &n) in watcher_counts.iter().enumerate() {
        let (best, clones) = (best[ci], clones[ci]);
        println!("{n:>9} {best:>12.0} {clones:>12}");
        min_ns = min_ns.min(best);
        max_ns = max_ns.max(best);
        rows.push(format!(
            r#"    {{"watchers": {n}, "ns_per_write": {best:.1}, "deep_clones": {clones}}}"#
        ));
    }
    let spread = max_ns / min_ns;
    println!(
        "per-write spread across watcher counts: {spread:.2}x (max {max_ns:.0} / min {min_ns:.0} ns)"
    );
    if !smoke {
        assert!(
            spread <= 1.2,
            "per-write cost must be flat (<=1.2x spread) across 1->256 watchers, got {spread:.2}x"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"watch_fanout\",\n  \"smoke\": {smoke},\n  \"model_bytes\": {model_bytes},\n  \"writes_per_cell\": {writes},\n  \"trials\": {trials},\n  \"spread\": {spread:.3},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_watch_fanout.json");
    std::fs::write(path, json).expect("write BENCH_watch_fanout.json");
    println!("wrote {path}");
    println!();
}

criterion_group!(benches, bench_pump_round, bench_pump_round_sharded);

fn main() {
    // `cargo bench -- --test` (the CI smoke) shrinks the sweeps and skips
    // their timing floors; a full `cargo bench` enforces them.
    let smoke = std::env::args().any(|a| a == "--test");
    // Focused runs while tuning one sweep: DSPACE_BENCH_ONLY=fanout
    // or DSPACE_BENCH_ONLY=space_wide.
    match std::env::var("DSPACE_BENCH_ONLY").as_deref() {
        Ok("fanout") => return fanout_sweep(smoke),
        Ok("space_wide") => return space_wide_sweep(smoke),
        _ => {}
    }
    benches();
    sweep();
    fanout_sweep(smoke);
    ns_sweep();
    space_wide_sweep(smoke);
    coalesce_demo();
    mounter_dedup_sweep();
    busy_burst_sweep();
}
