//! Cross-core determinism: the sharded parallel executor must produce
//! byte-identical scenario JSON to the single-threaded oracle at every
//! shard count × worker-thread count, on randomized workload
//! configurations — the workload-layer counterpart of the sim-level
//! `sharded_core_matches_single_oracle` suite.

use mm_sim::CostModel;
use mm_workload::drive::{self, RunConfig};
use proptest::prelude::*;

/// The shard grid the acceptance criteria pin: every combination must
/// reproduce the `--shards 0` (single-core) bytes.
const SHARD_GRID: [(usize, usize); 9] = [
    (1, 1),
    (1, 2),
    (1, 4),
    (4, 1),
    (4, 2),
    (4, 4),
    (16, 1),
    (16, 2),
    (16, 4),
];

fn json_for(cfg: &RunConfig) -> String {
    let report = drive::run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
    drive::reports_to_json(&[report], false)
}

fn assert_shard_invariant(mut cfg: RunConfig) {
    cfg.shards = 0;
    cfg.shard_threads = 1;
    let oracle = json_for(&cfg);
    for (shards, threads) in SHARD_GRID {
        cfg.shards = shards;
        cfg.shard_threads = threads;
        assert_eq!(
            json_for(&cfg),
            oracle,
            "sharded run diverged from the single-core oracle: {} shards={shards} threads={threads}",
            cfg.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn-free configurations (steady traffic, no crash/restore
    /// churn) across scenario × strategy × topology × cost × n × seed:
    /// the full shard grid reproduces the oracle bytes.
    #[test]
    fn churn_free_reports_are_shard_invariant(
        seed in 0u64..10_000,
        scenario_idx in 0usize..3,
        strategy_idx in 0usize..3,
        topo_idx in 0usize..6,
        n in 24usize..64,
    ) {
        // the churn-free members of the open-loop library
        let scenario = ["steady-state", "flash-crowd", "cold-vs-warm-cache"][scenario_idx];
        let strategy = ["checkerboard", "hash", "broadcast"][strategy_idx];
        let (topology, cost) = [
            ("complete", CostModel::Uniform),
            ("ring", CostModel::Hops),
            ("grid", CostModel::Hops),
            ("ring", CostModel::Uniform),
            ("grid", CostModel::Uniform),
            ("hypercube", CostModel::Uniform),
        ][topo_idx];
        // the hypercube needs a power of two
        let n = if topology == "hypercube" { 32 } else { n };
        let mut cfg = RunConfig::new(scenario, n, seed);
        cfg.strategy = strategy.into();
        cfg.topology = topology.into();
        cfg.cost = cost;
        assert_shard_invariant(cfg);
    }
}

/// Churn is coordinator-side (crashes/restores apply between rounds), so
/// the invariance must also hold on the churnful and hostile scenarios.
#[test]
fn churnful_reports_are_shard_invariant() {
    for scenario in ["rolling-churn", "migrate-under-load", "rack-failure"] {
        assert_shard_invariant(RunConfig::new(scenario, 64, 11));
    }
}

/// Replication (superimposed strategy copies) rides through the sharded
/// core unchanged.
#[test]
fn replicated_reports_are_shard_invariant() {
    let mut cfg = RunConfig::new("steady-state", 48, 5);
    cfg.replication = 2;
    assert_shard_invariant(cfg);
}

/// Closed-loop client pools drive the engine through many short
/// `run_until` phases — the round/merge cycle must stay exact across
/// repeated partial drains.
#[test]
fn closed_loop_reports_are_shard_invariant() {
    assert_shard_invariant(RunConfig::new("overload-ramp", 48, 9));
}

/// The same invariance at n = 65,536, where shard bands are thousands of
/// nodes wide and a round carries real traffic — on the uniform complete
/// network with and without churn, and on the analytic routers under hop
/// cost (a table at this size would need 32 GiB, so these runs exist only
/// because none is built).
#[test]
#[ignore = "release tier: 40 runs at n = 65,536"]
fn reports_are_shard_invariant_at_65536() {
    for (scenario, topology, cost) in [
        ("steady-state", "complete", CostModel::Uniform),
        ("rolling-churn", "complete", CostModel::Uniform),
        ("steady-state", "grid", CostModel::Hops),
        ("steady-state", "hypercube", CostModel::Hops),
    ] {
        let mut cfg = RunConfig::new(scenario, 65_536, 7);
        cfg.topology = topology.into();
        cfg.cost = cost;
        assert_shard_invariant(cfg);
    }
}
