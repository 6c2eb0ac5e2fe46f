//! Sustained-load workload benches (ROADMAP "Workload-driven benches").
//!
//! Earlier benches measured one locate at a time on a silent network;
//! these drive whole `mm-workload` library scenarios — thousands of
//! concurrent operations, churn, migration — so perf PRs are judged on
//! steady-state event throughput, not single-shot latency.
//!
//! Every scenario runs through the production calendar event queue and
//! through the `BTreeMap` reference queue (the pre-calendar event core)
//! at the same node count, making queue-isolated regressions visible.
//! The full before/after story (the seed's BTreeMap core also paid a
//! per-event ops `Vec`, per-multicast target-set clones + sort, and O(n²)
//! complete-graph materialization) is recorded in the README's
//! Performance section.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mm_core::strategies::Checkerboard;
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode};
use mm_topo::gen;
use mm_workload::{scenarios, ScenarioRunner};

fn run_scenario(name: &str, n: usize, queue: QueueKind) -> u64 {
    run_scenario_sharded(name, n, queue, ShardMode::Single)
}

fn run_scenario_sharded(name: &str, n: usize, queue: QueueKind, mode: ShardMode) -> u64 {
    let spec = scenarios::by_name(name, n, 7).expect("library scenario");
    let report = ScenarioRunner::with_router(
        spec,
        // under the uniform cost model edges are never consulted, so the
        // edgeless complete-network stand-in is behaviorally identical
        gen::complete_shell(n),
        Checkerboard::new(n),
        CostModel::Uniform,
        "checkerboard",
        queue,
        mode,
        RouterKind::Auto,
    )
    .run();
    report.events_executed()
}

// four library scenarios spanning the stress axes: baseline load, Zipf
// spike, crash/restore churn, and the closed-loop saturation ramp (whose
// runner interleaves client-pool wake-ups with engine stepping — a
// different event-queue access pattern than open loop)
const CASES: [&str; 4] = [
    "steady-state",
    "flash-crowd",
    "rolling-churn",
    "overload-ramp",
];
const SIZES: [usize; 2] = [16_384, 65_536];
const QUEUES: [(QueueKind, &str); 2] = [
    (QueueKind::Calendar, "calendar"),
    (QueueKind::BTree, "btree-baseline"),
];

/// Worker-thread counts for the sharded-core scaling benches. Shard
/// count is fixed at 16 so the partition (and therefore the output
/// bytes) is identical across the axis — only parallelism varies.
const SHARD_THREADS: [usize; 3] = [1, 2, 4];
const SHARD_COUNT: usize = 16;

fn sustained_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_sustained");
    group.sample_size(5);
    for n in SIZES {
        for name in CASES {
            for (queue, label) in QUEUES {
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}/{label}"), n),
                    &n,
                    |b, &n| b.iter(|| run_scenario(name, n, queue)),
                );
            }
        }
    }
    group.finish();
}

/// Thread-scaling on the sharded parallel core: the same deterministic
/// steady-state run (16 shards, calendar queue) at 1/2/4 worker
/// threads. Output bytes are invariant across the axis, so the only
/// thing this measures is the parallel speedup of event execution.
fn sharded_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_sharded");
    group.sample_size(5);
    let n = 65_536;
    for threads in SHARD_THREADS {
        group.bench_with_input(
            BenchmarkId::new("steady-state/calendar-sharded", format!("t{threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_scenario_sharded(
                        "steady-state",
                        n,
                        QueueKind::Calendar,
                        ShardMode::Sharded {
                            shards: SHARD_COUNT,
                            threads,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

/// `BENCH_SNAPSHOT=path` mode: one timed pass per case, written as the
/// `BENCH_6.json` perf snapshot. The `events` field is deterministic
/// (same seed ⇒ same count, any host), so CI diffs it exactly against
/// the committed snapshot; `events_per_sec` is host wall-clock and only
/// informational.
fn write_snapshot(path: &str) {
    let mut cases = Vec::new();
    for n in SIZES {
        for name in CASES {
            for (queue, label) in QUEUES {
                let t0 = std::time::Instant::now();
                let events = run_scenario(name, n, queue);
                let secs = t0.elapsed().as_secs_f64();
                eprintln!("{name}/{label} n={n}: {events} events in {secs:.3}s");
                cases.push(format!(
                    "    {{\"scenario\": \"{name}\", \"n\": {n}, \"queue\": \"{label}\", \
                     \"events\": {events}, \"secs\": {secs:.3}, \"events_per_sec\": {:.0}}}",
                    events as f64 / secs.max(1e-9),
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"workload_sustained\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        cases.join(",\n")
    );
    std::fs::write(path, json).expect("snapshot path must be writable");
}

/// `SHARD_SNAPSHOT=path` mode: one timed pass of the sharded scaling
/// axis (single-core oracle plus 16 shards × {1,2,4} threads), written
/// as JSON. `events` is deterministic and identical across every row —
/// that's the whole point — while `secs`/`events_per_sec` are host
/// wall-clock, reported so the speedup curve can be quoted.
fn write_shard_snapshot(path: &str) {
    // SHARD_N overrides the node count (e.g. 1048576 for the README's
    // million-node table)
    let n = std::env::var("SHARD_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(65_536);
    let mut cases = Vec::new();
    let mut modes = vec![("single".to_string(), ShardMode::Single)];
    for threads in SHARD_THREADS {
        modes.push((
            format!("sharded-16x{threads}"),
            ShardMode::Sharded {
                shards: SHARD_COUNT,
                threads,
            },
        ));
    }
    for (label, mode) in modes {
        let t0 = std::time::Instant::now();
        let events = run_scenario_sharded("steady-state", n, QueueKind::Calendar, mode);
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("steady-state/{label} n={n}: {events} events in {secs:.3}s");
        cases.push(format!(
            "    {{\"scenario\": \"steady-state\", \"n\": {n}, \"mode\": \"{label}\", \
             \"events\": {events}, \"secs\": {secs:.3}, \"events_per_sec\": {:.0}}}",
            events as f64 / secs.max(1e-9),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"workload_sharded\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        cases.join(",\n")
    );
    std::fs::write(path, json).expect("snapshot path must be writable");
}

criterion_group!(benches, sustained_load, sharded_scaling);

fn main() {
    if let Ok(path) = std::env::var("BENCH_SNAPSHOT") {
        write_snapshot(&path);
        return;
    }
    if let Ok(path) = std::env::var("SHARD_SNAPSHOT") {
        write_shard_snapshot(&path);
        return;
    }
    benches();
}
