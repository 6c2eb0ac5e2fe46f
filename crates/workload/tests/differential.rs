//! The differential suite: the simulator engine's every output byte
//! equals the naive reference host's (`reference/mod.rs`) for the same
//! run.
//!
//! Each row, a [`RunConfig`], drives one library scenario through
//! [`ScenarioRunner`] over `ShotgunEngine` and over [`ReferenceHost`],
//! with the metrics registry on so the per-phase queue-depth deltas are
//! in the report, and asserts equal report JSON and equal per-operation
//! verdict logs; a traced row also compares the trace files. The engine's
//! execution axes are rows too — the `BTreeMap` event queue, the table
//! router, the inert 16×2 shard alias — each held to the reference, not
//! to the other axis values. Tier 1 runs a slice at n ≤ 256 (broadcast
//! and ring hop-cost rows at n ≤ 128); the release tier (`--ignored`)
//! the full matrix at n ≤ 4,096.

mod reference;

use mm_core::strategies::{Broadcast, Checkerboard, HashLocate, PortMapped};
use mm_obs::TraceConfig;
use mm_sim::{CostModel, QueueKind, RouterKind};
use mm_topo::Graph;
use mm_workload::drive::{self, RunConfig};
use mm_workload::{scenarios, Runtime, ScenarioRunner, Workload};
use reference::ReferenceHost;

/// A uniform-cost row on the complete network.
fn row(scenario: &str, strategy: &str, n: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(scenario, n, seed);
    cfg.strategy = strategy.into();
    cfg
}

/// A hop-cost checkerboard row.
fn hops(scenario: &str, topology: &str, n: usize, seed: u64) -> RunConfig {
    let mut cfg = row(scenario, "checkerboard", n, seed);
    cfg.topology = topology.into();
    cfg.cost = CostModel::Hops;
    cfg
}

/// The row with the engine on another setting of one execution axis:
/// the `BTreeMap` event queue, the BFS routing table or the shard alias.
fn on(axis: &str, mut cfg: RunConfig) -> RunConfig {
    match axis {
        "btree" => cfg.queue = QueueKind::BTree,
        "table" => cfg.router = RouterKind::Table,
        _ => (cfg.shards, cfg.shard_threads) = (16, 2),
    }
    cfg
}

/// The hop-cost fabrics.
const FABRICS: [&str; 4] = ["ring", "torus", "grid", "hypercube"];

/// The 13 library scenarios.
fn library() -> impl Iterator<Item = &'static str> {
    let closed = scenarios::CLOSED_LOOP.into_iter();
    scenarios::ALL
        .into_iter()
        .chain(closed)
        .chain(scenarios::HOSTILE)
}

/// Runs `cfg` on the engine and on the reference host, which routes by
/// the default policy over an edgeless graph, and asserts that they
/// agree; `traced` compares trace files too. Returns the report JSON.
fn check(cfg: &RunConfig, traced: bool) -> String {
    let graph = |router| drive::build_graph(&cfg.topology, cfg.n, cfg.cost, router);
    let graph = graph(RouterKind::Auto).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    let n = graph.node_count();
    let spec = drive::build_spec(cfg, n).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    match cfg.strategy.as_str() {
        "checkerboard" => compare(cfg, traced, &spec, &graph, || Checkerboard::new(n)),
        "hash" => compare(cfg, traced, &spec, &graph, || HashLocate::new(n, 3.min(n))),
        "broadcast" => compare(cfg, traced, &spec, &graph, || Broadcast::new(n)),
        other => panic!("unknown strategy {other}"),
    }
}

fn compare<PM: PortMapped>(
    cfg: &RunConfig,
    traced: bool,
    spec: &Workload,
    graph: &Graph,
    resolver: impl Fn() -> PM,
) -> String {
    // the table router reads adjacency, which only its own graph carries
    let engine_graph = drive::build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)
        .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    let engine = || {
        let mut runner = ScenarioRunner::with_router(
            spec.clone(),
            engine_graph.clone(),
            resolver(),
            cfg.cost,
            &cfg.strategy,
            cfg.queue,
            cfg.shard_mode(),
            cfg.router,
        );
        runner.enable_obs();
        runner
    };
    let reference = || {
        let host = ReferenceHost::new(graph, resolver(), cfg.cost);
        let mut runner = ScenarioRunner::over(spec.clone(), host, &cfg.strategy);
        runner.enable_obs();
        runner
    };
    let json = |report| drive::reports_to_json(&[report], false);
    let (report, log) = engine().run_logged();
    let (want, want_log) = reference().run_logged();
    let (report, want) = (json(report), json(want));
    assert!(report == want, "{cfg:?}: reports differ\n{report}\n{want}");
    assert!(log == want_log, "{cfg:?}: op logs differ");
    if traced {
        let got = trace(engine(), cfg.seed);
        assert!(
            got == trace(reference(), cfg.seed),
            "{cfg:?}: traces differ"
        );
    }
    report
}

/// The run's trace file as JSONL.
fn trace<R: Runtime>(mut runner: ScenarioRunner<R>, seed: u64) -> String {
    runner.set_trace(TraceConfig::full(seed));
    let (_, file) = runner.run_traced();
    file.expect("tracing was on").to_jsonl()
}

/// Checks every row, on two threads.
fn check_all(rows: &[RunConfig]) {
    let (even, odd) = (rows.iter().step_by(2), rows.iter().skip(1).step_by(2));
    std::thread::scope(|s| {
        s.spawn(|| odd.for_each(|cfg| drop(check(cfg, false))));
        even.for_each(|cfg| drop(check(cfg, false)));
    });
}

#[test]
fn library_slice_equals_the_reference() {
    let mut rows: Vec<_> = library()
        .flat_map(|s| [row(s, "checkerboard", 256, 7), row(s, "hash", 256, 11)])
        .collect();
    rows.extend(library().map(|s| row(s, "broadcast", 128, 7)));
    check_all(&rows);
    check(&row("steady-state", "checkerboard", 256, 7), true);
    // not vacuous: the seed reaches the bytes
    let churn = |seed| check(&row("rolling-churn", "checkerboard", 64, seed), false);
    assert_ne!(churn(1), churn(2));
}

#[test]
fn hop_cost_slice_equals_the_reference() {
    let mut rows = Vec::new();
    for topology in FABRICS {
        let n = match topology {
            "ring" => 128,
            "grid" => 240,
            _ => 256,
        };
        for scenario in ["steady-state", "rolling-churn", "rack-failure"] {
            rows.push(hops(scenario, topology, n, 7));
        }
    }
    rows.push(hops("migrate-under-load", "torus", 256, 11));
    rows.push(hops("flash-crowd-recovery", "grid", 240, 11));
    check_all(&rows);
    check(&hops("steady-state", "torus", 256, 11), true);
}

/// The queue, router and shard-alias axes, each against the reference.
#[test]
fn axis_slice_equals_the_reference() {
    let mut rows = Vec::new();
    for scenario in ["rolling-churn", "overload-ramp", "rack-failure-closed"] {
        rows.push(on("btree", row(scenario, "checkerboard", 256, 7)));
        rows.push(on("shards", row(scenario, "checkerboard", 256, 7)));
    }
    for seed in [7, 23] {
        rows.extend(scenarios::HOSTILE.map(|s| on("btree", row(s, "checkerboard", 48, seed))));
    }
    rows.push(on("btree", hops("steady-state", "ring", 128, 7)));
    for topology in FABRICS {
        rows.push(on("table", hops("rolling-churn", topology, 64, 7)));
    }
    rows.push(on("table", hops("rack-failure", "grid", 64, 7)));
    rows.push(on("shards", hops("migrate-under-load", "grid", 64, 3)));
    check_all(&rows);
}

/// The whole matrix, at n ≤ 4,096.
#[test]
#[ignore = "release tier"]
fn full_matrix_equals_the_reference() {
    let mut rows = Vec::new();
    for scenario in library() {
        for strategy in ["checkerboard", "hash", "broadcast"] {
            let n = if strategy == "broadcast" { 1024 } else { 4096 };
            rows.extend([7, 11].map(|seed| row(scenario, strategy, n, seed)));
        }
        rows.push(on("btree", row(scenario, "checkerboard", 1024, 7)));
        rows.push(on("shards", row(scenario, "checkerboard", 1024, 11)));
    }
    for topology in FABRICS {
        let n = if topology == "grid" { 4030 } else { 4096 };
        rows.push(hops("steady-state", topology, n, 7));
        rows.push(hops("rack-failure", topology, n, 11));
        for scenario in ["steady-state", "rolling-churn", "rack-failure"] {
            rows.push(on("table", hops(scenario, topology, 1024, 7)));
        }
    }
    rows.push(hops("rolling-churn", "torus", 4096, 7));
    rows.push(hops("migrate-under-load", "torus", 4096, 7));
    rows.push(on("btree", hops("steady-state", "ring", 4096, 7)));
    check_all(&rows);
    check(&row("steady-state", "checkerboard", 4096, 7), true);
    check(&hops("steady-state", "torus", 4096, 11), true);
}
