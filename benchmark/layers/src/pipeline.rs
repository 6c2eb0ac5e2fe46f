//! One in-process rep of a workload, with a span around each stage the
//! `scenarios` CLI goes through, and the constructors under the runner
//! timed on their own.
//!
//! `drive::run_traced` hides the stages, so this module repeats its body
//! from the public pieces: `build_graph`, `build_spec`,
//! `ScenarioRunner::with_router`, `run_traced`, `reports_to_json`.

use crate::{timed, Out};
use mm_bench_e2e::json;
use mm_bench_e2e::report::{self, Totals};
use mm_bench_e2e::workloads::Workload;
use mm_core::strategies::{Checkerboard, HashLocate};
use mm_proto::ShotgunEngine;
use mm_sim::{CostModel, Envelope, Node, NodeApi, Sim};
use mm_workload::drive::{self, RunConfig};
use mm_workload::{scenarios, ScenarioReport, ScenarioRunner};
use std::hint::black_box;

/// The stages, in the order they run.
const STAGES: [&str; 6] = [
    "build_graph",
    "build_spec",
    "runner_new",
    "run",
    "to_json",
    "drop",
];

/// Binds `$resolver` and `$label` to the strategy `$cfg` names, as
/// `drive::run_traced` resolves it at replication 0, and evaluates
/// `$body` with the concrete resolver type the CLI would use.
macro_rules! with_resolver {
    ($cfg:expr, $n:expr, |$resolver:ident, $label:ident| $body:expr) => {
        match $cfg.strategy.as_str() {
            "checkerboard" => {
                let ($resolver, $label) = (Checkerboard::new($n), "checkerboard");
                $body
            }
            "hash" => {
                let ($resolver, $label) = (HashLocate::new($n, 3.min($n)), "hash");
                $body
            }
            other => return Err(format!("the pipeline has no strategy `{other}`")),
        }
    };
}

/// The `RunConfig` one CLI invocation's flags select.
fn config(flags: &[String], seed: u64) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::new("all", 1024, seed);
    for pair in flags.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let number = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--scenario" => cfg.scenario = value.clone(),
            "--n" => cfg.n = number()?,
            "--topology" => cfg.topology = value.clone(),
            "--strategy" => cfg.strategy = value.clone(),
            "--cost" => {
                cfg.cost = match value.as_str() {
                    "hops" => CostModel::Hops,
                    "uniform" => CostModel::Uniform,
                    _ => return Err(format!("--cost {value}")),
                }
            }
            "--queue" => {
                cfg.queue = drive::parse_queue(value).ok_or_else(|| format!("--queue {value}"))?
            }
            "--shards" => cfg.shards = number()?,
            "--shard-threads" => cfg.shard_threads = number()?,
            other => return Err(format!("the pipeline does not know the flag {other}")),
        }
    }
    Ok(cfg)
}

/// Seconds per stage, summed over the runs of the workload.
struct StageSums([f64; STAGES.len()]);

impl StageSums {
    /// Runs stage `i` as a span under `parent` and adds its time.
    fn stage<T>(
        &mut self,
        out: &mut Out,
        parent: usize,
        run: &str,
        i: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let (result, secs) = out.rec.time(STAGES[i], run, Some(parent), f);
        self.0[i] += secs;
        result
    }
}

/// Runs one scenario stage by stage under `parent`.
fn run_one(
    out: &mut Out,
    parent: usize,
    run: &str,
    cfg: &RunConfig,
    sums: &mut StageSums,
) -> Result<ScenarioReport, String> {
    let graph = sums.stage(out, parent, run, 0, || {
        drive::build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)
    })?;
    let n = graph.node_count();
    let spec = sums.stage(out, parent, run, 1, || drive::build_spec(cfg, n))?;

    with_resolver!(cfg, n, |resolver, label| {
        let mut runner = sums.stage(out, parent, run, 2, || {
            ScenarioRunner::with_router(
                spec,
                graph,
                resolver,
                cfg.cost,
                label,
                cfg.queue,
                cfg.shard_mode(),
                cfg.router,
            )
        });
        // as the timed CLI reps run, so that the loop does the same work
        runner.enable_throughput();
        // the runner is consumed here: freeing the engine is part of `run`
        let (report, _trace) = sums.stage(out, parent, run, 3, || runner.run_traced());
        Ok(report)
    })
}

/// A handler that does nothing: `Sim` construction without the protocol.
struct Idle;

impl Node<()> for Idle {
    fn on_message(&mut self, _env: Envelope<()>, _api: &mut NodeApi<'_, ()>) {}
}

/// Times the constructors under `ScenarioRunner::with_router`, each on a
/// fresh graph of the configuration `cfg`, and returns the three medians:
/// router, simulator, engine.
fn constructors(out: &mut Out, parent: usize, cfg: &RunConfig) -> Result<(f64, f64, f64), String> {
    let graph = || {
        drive::build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)
            .expect("the pipeline ran on this graph a moment ago")
    };
    let shell = graph();
    let n = shell.node_count();

    let router = out.probe("topo.router_build_s", "s", 1.0, Some(parent), |_| {
        const CALLS: u64 = 100;
        let ((), secs) = timed(|| {
            for _ in 0..CALLS {
                let built = cfg.router.build(black_box(&shell));
                assert_eq!(mm_topo::Router::node_count(&built), n);
                black_box(built);
            }
        });
        (CALLS, secs)
    });

    let sim = out.probe("sim.new_s", "s", 1.0, Some(parent), |_| {
        let (g, nodes) = (graph(), (0..n).map(|_| Idle).collect::<Vec<_>>());
        let (sim, secs) =
            timed(|| Sim::with_router(g, nodes, cfg.cost, cfg.queue, cfg.shard_mode(), cfg.router));
        assert_eq!(sim.graph().node_count(), n);
        (1, secs)
    });

    let engine = with_resolver!(cfg, n, |resolver, _label| {
        out.probe("proto.engine_new_s", "s", 1.0, Some(parent), |_| {
            let g = graph();
            let (engine, secs) = timed(|| {
                ShotgunEngine::with_router(
                    g,
                    resolver,
                    cfg.cost,
                    cfg.queue,
                    cfg.shard_mode(),
                    cfg.router,
                )
            });
            assert_eq!(engine.sim().graph().node_count(), n);
            (1, secs)
        })
    });
    Ok((router, sim, engine))
}

pub fn run(out: &mut Out, workload: &Workload) -> Result<(), String> {
    let seed = out.seed;
    let id = format!("{}/pipeline", workload.name);
    let top = out.rec.open("pipeline", &id, None);
    let mut sums = StageSums([0.0; STAGES.len()]);
    let mut first_runner_new = None;
    let mut first_cfg = None;

    for flags in &workload.invocations {
        let cfg = config(flags, seed)?;
        let names: Vec<&str> = if cfg.scenario == "all" {
            scenarios::ALL.to_vec()
        } else {
            vec![cfg.scenario.as_str()]
        };
        let mut reports = Vec::new();
        for name in names {
            let mut one = cfg.clone();
            one.scenario = name.to_string();
            reports.push(run_one(out, top, &id, &one, &mut sums)?);
            first_runner_new.get_or_insert(sums.0[2]);
            first_cfg.get_or_insert(one);
        }

        let text = sums.stage(out, top, &id, 4, || drive::reports_to_json(&reports, false));
        // what was timed is the CLI's output: it parses, and it passes
        // the checks the end-to-end reps go through
        let parsed = json::parse(&text)?;
        report::accumulate(&mut Totals::default(), &parsed, true)?;
        sums.stage(out, top, &id, 5, || drop((reports, text)));
    }
    out.rec.close(top);
    for (stage, secs) in STAGES.iter().zip(sums.0) {
        out.metric(&format!("workload.{stage}_s"), secs, "s");
    }

    // the constructors, one below the other, on the first configuration
    let cfg = first_cfg.ok_or("the workload has no invocation")?;
    let top = out.rec.open("constructors", &id, None);
    let (router, sim, engine) = constructors(out, top, &cfg)?;
    out.rec.close(top);
    let runner_new = first_runner_new.unwrap_or(0.0);
    out.metric("workload.runner_new_self_s", runner_new - engine, "s");
    out.metric("proto.engine_new_self_s", engine - sim, "s");
    out.metric("sim.new_self_s", sim - router, "s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_bench_e2e::workloads;
    use mm_sim::QueueKind;

    /// Every flag a workload passes to the CLI is one the in-process rep
    /// understands, so the two run the same configuration.
    #[test]
    fn every_workload_invocation_maps_to_a_config() {
        for w in workloads::all() {
            let lists = w.invocations.iter().chain(&w.reference);
            for flags in lists.chain(w.variant.iter().map(|(_, f)| f)) {
                let cfg = config(flags, 11).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert_eq!(cfg.seed, 11);
                assert!(cfg.n >= 65_536, "{}: n was set", w.name);
            }
        }
    }

    #[test]
    fn flags_land_in_their_fields() {
        let flags: Vec<String> = "--scenario rolling-churn --n 4096 --topology torus --cost hops \
                                  --strategy hash --queue btree --shards 16 --shard-threads 2"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let cfg = config(&flags, 3).unwrap();
        assert_eq!((cfg.scenario.as_str(), cfg.n), ("rolling-churn", 4096));
        assert_eq!(
            (cfg.topology.as_str(), cfg.strategy.as_str()),
            ("torus", "hash")
        );
        assert_eq!((cfg.cost, cfg.queue), (CostModel::Hops, QueueKind::BTree));
        assert_eq!((cfg.shards, cfg.shard_threads), (16, 2));
        assert!(config(&flags[..3], 3).is_err(), "a flag without its value");
        assert!(config(&["--pretty".into(), "1".into()], 3).is_err());
        assert!(config(&["--n".into(), "many".into()], 3).is_err());
    }

    /// A small run goes through every stage and its report passes the
    /// checks of the end-to-end reps.
    #[test]
    fn a_small_pipeline_fills_every_stage() {
        let mut out = Out {
            metrics: Vec::new(),
            rec: mm_bench_e2e::spans::Recorder::new(true),
            seed: 7,
        };
        let mut w = workloads::by_name("churn").unwrap();
        w.invocations = vec!["--scenario rolling-churn --n 256"
            .split_whitespace()
            .map(str::to_string)
            .collect()];
        run(&mut out, &w).unwrap();
        let names: Vec<&str> = out.rec.spans().iter().map(|s| s.name.as_str()).collect();
        for stage in STAGES {
            assert!(names.contains(&stage), "{stage} has a span");
        }
        assert_eq!(names[0], "pipeline");
        assert_eq!(out.metrics.len(), STAGES.len() + 3 + 3);
    }
}
