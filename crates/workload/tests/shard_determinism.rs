//! `RunConfig::{shards, shard_threads}` are compatibility aliases: the
//! sharded core they used to select is deleted, so a run with them set
//! must produce the default bytes, on randomized workload configurations.
//! (This was the sharded core's workload-level conformance suite; it goes
//! with the two fields, ROADMAP 1(b).)

use mm_sim::CostModel;
use mm_workload::drive::{self, RunConfig};
use proptest::prelude::*;

fn json_for(cfg: &RunConfig) -> String {
    let report = drive::run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
    drive::reports_to_json(&[report], false)
}

fn assert_shard_invariant(mut cfg: RunConfig) {
    let default = json_for(&cfg);
    cfg.shards = 16;
    cfg.shard_threads = 2;
    assert_eq!(json_for(&cfg), default, "{}", cfg.label());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn-free configurations (steady traffic, no crash/restore
    /// churn) across scenario × strategy × topology × cost × n × seed.
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

/// The churnful and hostile scenarios.
#[test]
fn churnful_reports_are_shard_invariant() {
    for scenario in ["rolling-churn", "migrate-under-load", "rack-failure"] {
        assert_shard_invariant(RunConfig::new(scenario, 64, 11));
    }
}

/// Replication (superimposed strategy copies).
#[test]
fn replicated_reports_are_shard_invariant() {
    let mut cfg = RunConfig::new("steady-state", 48, 5);
    cfg.replication = 2;
    assert_shard_invariant(cfg);
}

/// Closed-loop client pools drive the engine through many short
/// `run_until` phases.
#[test]
fn closed_loop_reports_are_shard_invariant() {
    assert_shard_invariant(RunConfig::new("overload-ramp", 48, 9));
}
