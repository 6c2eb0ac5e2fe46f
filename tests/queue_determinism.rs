//! Calendar-queue determinism regression.
//!
//! The calendar event queue replaced the simulator's original
//! `BTreeMap<(SimTime, u64), Event>` core; the contract is that the event
//! *ordering semantics* are unchanged — ascending time, FIFO by sequence
//! number within a timestamp. The `BTreeMap` implementation survives as
//! [`mm_sim::QueueKind::BTree`], and this suite runs a whole mid-size
//! scenario (sustained load, churn waves, cache wipes, store-and-forward
//! and complete-network cost models) through both queues and asserts
//! byte-identical JSON reports across several seeds.

use mm_core::strategies::Checkerboard;
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode};
use mm_topo::gen;
use mm_workload::drive::{self, RunConfig};
use mm_workload::{scenarios, ScenarioRunner};

fn report_json(scenario: &str, n: usize, seed: u64, queue: QueueKind) -> String {
    let spec = scenarios::by_name(scenario, n, seed).expect("library scenario");
    let report = ScenarioRunner::with_router(
        spec,
        gen::complete(n),
        Checkerboard::new(n),
        CostModel::Uniform,
        "checkerboard",
        queue,
        ShardMode::Single,
        RouterKind::Auto,
    )
    .run();
    serde_json::to_string(&report)
}

#[test]
fn calendar_and_btree_queues_produce_identical_reports() {
    // the whole open-loop library at one seed (what `scenarios --queue`
    // sweeps by default), the churn-heavy scenario at two more
    let cases = scenarios::ALL
        .iter()
        .map(|&scenario| (scenario, 7u64))
        .chain([("rolling-churn", 1), ("rolling-churn", 42)]);
    for (scenario, seed) in cases {
        let calendar = report_json(scenario, 256, seed, QueueKind::Calendar);
        let btree = report_json(scenario, 256, seed, QueueKind::BTree);
        assert_eq!(
            calendar, btree,
            "{scenario} seed {seed}: the calendar queue must reproduce the \
             BTreeMap event ordering byte for byte"
        );
    }
}

/// The closed-loop runner interleaves pool wake-ups with engine stepping
/// (many short `run_until` calls instead of one per timeline event), a
/// different access pattern over the event queue — both implementations
/// must still agree byte for byte, latency percentiles and windows
/// included.
#[test]
fn queues_agree_on_closed_loop_scenarios() {
    for (scenario, seed) in [("overload-ramp", 7u64), ("flash-crowd-recovery", 11)] {
        let calendar = report_json(scenario, 256, seed, QueueKind::Calendar);
        let btree = report_json(scenario, 256, seed, QueueKind::BTree);
        assert!(calendar.contains("\"queue_delay_p99\""));
        assert_eq!(calendar, btree, "{scenario} seed {seed}");
    }
}

#[test]
fn queues_agree_under_hops_cost_model() {
    // store-and-forward exercises multi-tick deliveries. On the 8x8 grid
    // every delay stays inside the calendar's unit window; on ring(4096)
    // they reach 2,048 ticks, past the window and the coarse horizon the
    // queue starts with, so replies go through the buckets, the far map
    // and bucket-ring doubling (steady-state there: the cheapest scenario
    // that does, unoptimized)
    let cases = [
        ("migrate-under-load", gen::grid(8, 8, false), 3u64),
        ("migrate-under-load", gen::grid(8, 8, false), 9),
        ("steady-state", gen::ring(4096), 7),
    ];
    for (scenario, graph, seed) in cases {
        let n = graph.node_count();
        let run = |queue| {
            let spec = scenarios::by_name(scenario, n, seed).expect("scenario");
            let report = ScenarioRunner::with_router(
                spec,
                graph.clone(),
                Checkerboard::new(n),
                CostModel::Hops,
                "checkerboard",
                queue,
                ShardMode::Single,
                RouterKind::Auto,
            )
            .run();
            serde_json::to_string(&report)
        };
        assert_eq!(
            run(QueueKind::Calendar),
            run(QueueKind::BTree),
            "{scenario} on {} seed {seed}",
            graph.name()
        );
    }
}

#[test]
fn different_seeds_still_differ() {
    // guard against the comparison passing vacuously
    let a = report_json("rolling-churn", 256, 1, QueueKind::Calendar);
    let b = report_json("rolling-churn", 256, 2, QueueKind::Calendar);
    assert_ne!(a, b);
}

/// `RunConfig::{shards, shard_threads}` select nothing: the sharded core
/// is deleted and the fields stay only until the benchmark stops passing
/// them, so a run with them set must be the default run, byte for byte.
#[test]
fn shard_fields_are_inert_aliases() {
    let json = |cfg: &RunConfig| {
        let report = drive::run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        drive::reports_to_json(&[report], false)
    };
    let mut cfg = RunConfig::new("overload-ramp", 256, 7);
    let default = json(&cfg);
    cfg.shards = 16;
    cfg.shard_threads = 2;
    assert_eq!(json(&cfg), default);
}
