//! Programmatic single-run invocation — the library face of the
//! `scenarios` binary.
//!
//! Everything the CLI can do to produce **one** scenario report lives
//! here as a [`RunConfig`] → [`ScenarioReport`] function, so other
//! drivers (the `mm-campaign` experiment-matrix runner, tests, future
//! servers) execute *exactly* the code path the binary does. That is the
//! byte-identity contract the campaign layer is built on: the JSON a
//! campaign writes for a run equals, byte for byte, the output of the
//! equivalent `scenarios` CLI invocation at the same seed — because both
//! are this module.
//!
//! The binary keeps only what is CLI-shaped (flag parsing, sweep loops,
//! `--trace` file plumbing, exit codes); graph construction, spec
//! resolution, strategy dispatch and report serialization are shared
//! from here.

use crate::report::ScenarioReport;
use crate::runner::ScenarioRunner;
use crate::runtime::{LiveRuntime, Runtime};
use crate::scenarios;
use crate::spec::{ClientModel, Workload};
use mm_core::robust::Replicated;
use mm_core::strategies::{Broadcast, Checkerboard, HashLocate, PortMapped};
use mm_obs::{TraceConfig, TraceFile};
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode};
use mm_topo::{gen, Graph};

/// Ceiling for [`RouterKind::Table`] under hop cost: the O(n²) table at 4096
/// nodes is ~134 MB, which is as far as the conformance oracle needs to
/// go (`mm-topo`'s router conformance suite checks all pairs at this size).
pub const TABLE_ROUTER_LIMIT: usize = 4096;

/// One OS thread per node: past this the live runtime would exhaust the
/// default thread budget long before it said anything new.
pub const LIVE_THREAD_LIMIT: usize = 4096;

/// Which runtime executes a run: the deterministic simulator or the
/// threaded `mm-proto` live network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The `mm-sim` event-driven simulator (default).
    #[default]
    Sim,
    /// The threaded [`mm_proto::live::LiveNet`] runtime (one OS thread
    /// per node; complete network under uniform cost only).
    Live,
}

impl RuntimeKind {
    /// Canonical lower-case label (`sim` / `live`), as the CLI spells it.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Live => "live",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(RuntimeKind::Sim),
            "live" => Some(RuntimeKind::Live),
            _ => None,
        }
    }
}

/// Canonical lower-case label of a queue implementation, as the CLI
/// spells it (`calendar` / `btree`).
pub fn queue_label(queue: QueueKind) -> &'static str {
    match queue {
        QueueKind::Calendar => "calendar",
        QueueKind::BTree => "btree",
    }
}

/// Parses the CLI spelling of a queue kind.
pub fn parse_queue(s: &str) -> Option<QueueKind> {
    match s {
        "calendar" => Some(QueueKind::Calendar),
        "btree" => Some(QueueKind::BTree),
        _ => None,
    }
}

/// Everything that determines one scenario run's report bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Library scenario name (see [`scenarios::by_name`]).
    pub scenario: String,
    /// Requested node count (the grid topology may round it up).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Strategy name: `checkerboard`, `hash` or `broadcast`.
    pub strategy: String,
    /// Topology name: `complete`, `grid`, `torus`, `ring` or `hypercube`.
    pub topology: String,
    /// Cost model.
    pub cost: CostModel,
    /// Simulator event-queue implementation (ignored by the live runtime).
    pub queue: QueueKind,
    /// Which runtime executes the spec.
    pub runtime: RuntimeKind,
    /// Closed-loop client-pool override applied on top of the scenario
    /// (`None` keeps the scenario's own loop mode).
    pub clients: Option<ClientModel>,
    /// `F` tolerated rendezvous faults; 0 = base strategy, `F > 0`
    /// superimposes `F + 1` strategy copies (§2.4) and reports the
    /// robustness block.
    pub replication: u64,
    /// Compatibility alias that selects nothing: there is one execution
    /// core and every value runs it (see [`ShardMode`]). Kept, with
    /// `shard_threads` and [`RunConfig::shard_mode`], because
    /// `benchmark/layers` names them; removed with ROADMAP 1(b).
    pub shards: usize,
    /// Compatibility alias that selects nothing, like `shards`.
    pub shard_threads: usize,
    /// Routing backend under hop cost. Output-invariant like `queue`
    /// (the analytic routers are byte-conformant to the table
    /// oracle), so it never appears in [`RunConfig::label`]; it decides
    /// only memory — `Table` materializes the O(n²) §3 tables, the
    /// default `Auto` routes structured topologies in O(1) space.
    pub router: RouterKind,
}

impl RunConfig {
    /// A config with the CLI's defaults: checkerboard on a complete
    /// uniform-cost network, calendar queue, simulator runtime, the
    /// scenario's own loop mode, no replication.
    pub fn new(scenario: &str, n: usize, seed: u64) -> Self {
        RunConfig {
            scenario: scenario.to_string(),
            n,
            seed,
            strategy: "checkerboard".into(),
            topology: "complete".into(),
            cost: CostModel::Uniform,
            queue: QueueKind::Calendar,
            runtime: RuntimeKind::Sim,
            clients: None,
            replication: 0,
            shards: 0,
            shard_threads: 1,
            router: RouterKind::Auto,
        }
    }

    /// `shards` / `shard_threads` as the [`ShardMode`] the `with_router`
    /// constructors still take — an alias like them.
    pub fn shard_mode(&self) -> ShardMode {
        if self.shards == 0 {
            ShardMode::Single
        } else {
            ShardMode::Sharded {
                shards: self.shards,
                threads: self.shard_threads.max(1),
            }
        }
    }

    /// Canonical run label, used as the campaign per-run file stem:
    /// `{scenario}-n{n}-{strategy}-{queue}-{runtime}[-{topology}][-{cost}]-s{seed}`.
    /// Every axis that can change the run (or is asserted byte-equal
    /// across its values, like queue and runtime) is spelled out, so a
    /// directory of campaign runs is self-describing. The topology and
    /// cost segments appear only off their historical defaults
    /// (`complete`, `uniform`), keeping every pre-existing label — and
    /// thus every pinned campaign file name — byte-identical. Shards and
    /// the router backend are deliberately absent: both are
    /// output-invariant.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-n{}-{}-{}-{}",
            self.scenario,
            self.n,
            self.strategy,
            queue_label(self.queue),
            self.runtime.label(),
        );
        if self.topology != "complete" {
            label.push('-');
            label.push_str(&self.topology);
        }
        if self.cost != CostModel::Uniform {
            label.push_str("-hops");
        }
        label.push_str(&format!("-s{}", self.seed));
        label
    }
}

/// Observability switches for a run (all off by default — reports stay
/// byte-identical to the historical schema).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Record the causal span trace.
    pub trace: Option<TraceConfig>,
    /// Per-phase metrics-registry snapshots in the JSON.
    pub obs: bool,
    /// Wall-clock events/sec per phase in the JSON (not deterministic).
    pub throughput: bool,
}

/// Builds the graph for a topology name (grid and torus round `n` up to
/// the closest `p × q` rectangle — the caller sees it as the graph's node
/// count; a hypercube needs a power of two).
///
/// The result is an edgeless shell carrying the generator's name unless
/// something will read adjacency, and the only thing that does is the
/// [`RouterKind::Table`] oracle's BFS under hop cost. Uniform cost never
/// routes and the analytic routers answer next hops from the name alone —
/// so a hop-cost ring at n = 1,048,576, or a 64k-node complete network,
/// is an O(n)-memory run: no adjacency, no table. The report's `topology` string is the same
/// name either way.
pub fn build_graph(
    topology: &str,
    n: usize,
    cost: CostModel,
    router: RouterKind,
) -> Result<Graph, String> {
    if n == 0 {
        return Err("a network needs at least one node (n = 0)".into());
    }
    node_count_fits(n)?;
    let edges = cost == CostModel::Hops && router == RouterKind::Table;
    if edges && n > TABLE_ROUTER_LIMIT {
        return Err(format!(
            "the table router materializes the O(n^2) routing table; \
             use n <= {TABLE_ROUTER_LIMIT} or an analytic router"
        ));
    }
    match topology {
        "complete" if edges => Ok(gen::complete(n)),
        "complete" => Ok(gen::complete_shell(n)),
        "ring" if edges => Ok(gen::ring(n)),
        "ring" => Ok(Graph::with_name(n, format!("ring({n})"))),
        "grid" | "torus" => {
            // the closest p x q >= n rectangle
            let p = (n as f64).sqrt().ceil() as usize;
            let q = n.div_ceil(p);
            node_count_fits(p * q)
                .map_err(|e| format!("`{topology}` rounds n = {n} up to {p}x{q}: {e}"))?;
            if edges {
                Ok(gen::grid(p, q, topology == "torus"))
            } else {
                Ok(Graph::with_name(p * q, format!("{topology}({p}x{q})")))
            }
        }
        "hypercube" => {
            if !n.is_power_of_two() {
                return Err(format!(
                    "topology `hypercube` needs n to be a power of two (got {n})"
                ));
            }
            let d = n.trailing_zeros();
            if edges {
                Ok(gen::hypercube(d))
            } else {
                Ok(Graph::with_name(n, format!("hypercube({d})")))
            }
        }
        other => Err(format!("unknown topology `{other}`")),
    }
}

/// `NodeId` is a `u32`, so that is the largest network a run can address.
fn node_count_fits(nodes: usize) -> Result<(), String> {
    u32::try_from(nodes).map(drop).map_err(|_| {
        format!(
            "node ids are 32-bit: {nodes} nodes exceed the limit {}",
            u32::MAX
        )
    })
}

/// Resolves the library spec for a config at an explicit node count and
/// applies its closed-loop override, surfacing the validator's
/// explanation instead of panicking. This is also the one check that the
/// config's runtime can host the run at all, so a caller about to start a
/// sweep (the CLI) can rule every run in or out before the first starts.
pub fn build_spec(cfg: &RunConfig, n: usize) -> Result<Workload, String> {
    if cfg.runtime == RuntimeKind::Live {
        if cfg.topology != "complete" || cfg.cost != CostModel::Uniform {
            return Err("the live runtime is a complete network under uniform cost".into());
        }
        if n > LIVE_THREAD_LIMIT {
            return Err(format!(
                "the live runtime spawns one thread per node; n = {n} exceeds the limit {LIVE_THREAD_LIMIT}"
            ));
        }
    }
    let mut spec = scenarios::by_name(&cfg.scenario, n, cfg.seed)
        .ok_or_else(|| format!("unknown scenario `{}`", cfg.scenario))?;
    if let Some(clients) = cfg.clients {
        spec.clients = Some(clients);
    }
    spec.validate()
        .map_err(|e| format!("{}: {e}", cfg.scenario))?;
    Ok(spec)
}

/// The strategy copies `replication = F` superimposes (`F + 1`; 1 = base).
fn replication_factor(cfg: &RunConfig, n: usize) -> Result<usize, String> {
    let f = cfg.replication;
    match usize::try_from(f).ok().and_then(|f| f.checked_add(1)) {
        Some(r) if r <= n => Ok(r),
        _ => Err(format!("replication {f} needs n >= {}", u128::from(f) + 1)),
    }
}

/// Runs one configuration to its report, optionally recording a trace.
///
/// This is the single execution path behind the `scenarios` binary and
/// the campaign runner; equal configs at equal seeds produce
/// byte-identical reports no matter who calls.
///
/// # Errors
///
/// Returns a human-readable message for unknown names, invalid
/// spec/flag combinations, and live-runtime constraint violations —
/// exactly the conditions the CLI exits 2 on.
pub fn run_traced(
    cfg: &RunConfig,
    obs: &ObsOptions,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    // the simulator runs on a graph; the thread network is its own
    // (`build_spec` below rules out what it cannot host)
    let graph = match cfg.runtime {
        RuntimeKind::Sim => Some(build_graph(&cfg.topology, cfg.n, cfg.cost, cfg.router)?),
        RuntimeKind::Live => None,
    };
    // the grid topology may round n up; size the workload (churn widths
    // etc.) from the node count actually run, not the requested one
    let n = graph.as_ref().map_or(cfg.n, Graph::node_count);
    let spec = build_spec(cfg, n)?;
    let r = replication_factor(cfg, n)?;
    match (cfg.strategy.as_str(), r) {
        ("checkerboard", 1) => {
            run_spec(spec, graph, Checkerboard::new(n), cfg, obs, "checkerboard")
        }
        ("checkerboard", _) => {
            let s = Replicated::new(Checkerboard::new(n), r);
            run_spec(spec, graph, s, cfg, obs, &format!("checkerboard-r{r}"))
        }
        ("broadcast", 1) => run_spec(spec, graph, Broadcast::new(n), cfg, obs, "broadcast"),
        ("broadcast", _) => {
            let s = Replicated::new(Broadcast::new(n), r);
            run_spec(spec, graph, s, cfg, obs, &format!("broadcast-r{r}"))
        }
        // Hash Locate's replica count *is* its redundancy level (§5):
        // replication F raises it from the default 3 to F+1
        ("hash", 1) => run_spec(spec, graph, HashLocate::new(n, 3.min(n)), cfg, obs, "hash"),
        ("hash", _) => run_spec(
            spec,
            graph,
            HashLocate::new(n, r),
            cfg,
            obs,
            &format!("hash-r{r}"),
        ),
        (other, _) => Err(format!("unknown strategy `{other}`")),
    }
}

/// Runs one configuration to its report with observability off.
pub fn run(cfg: &RunConfig) -> Result<ScenarioReport, String> {
    run_traced(cfg, &ObsOptions::default()).map(|(report, _)| report)
}

/// Serializes reports exactly as the `scenarios` binary prints them: a
/// JSON array (even for one run) terminated by a newline. Campaign
/// per-run files go through this function so `cmp run.json <(scenarios …)`
/// holds byte for byte.
pub fn reports_to_json(reports: &[ScenarioReport], pretty: bool) -> String {
    let json = if pretty {
        serde_json::to_string_pretty(&reports)
    } else {
        serde_json::to_string(&reports)
    };
    format!("{json}\n")
}

/// Builds the runtime the config selects — the simulator over `graph`, or
/// (no graph) a thread per node — and runs `spec` on it.
fn run_spec<PM: PortMapped>(
    spec: Workload,
    graph: Option<Graph>,
    resolver: PM,
    cfg: &RunConfig,
    obs: &ObsOptions,
    label: &str,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    match graph {
        Some(graph) => run_on(
            ScenarioRunner::with_router(
                spec,
                graph,
                resolver,
                cfg.cost,
                label,
                cfg.queue,
                cfg.shard_mode(),
                cfg.router,
            ),
            cfg,
            obs,
        ),
        None => run_on(
            ScenarioRunner::over(spec, LiveRuntime::new(cfg.n, resolver), label),
            cfg,
            obs,
        ),
    }
}

fn run_on<R: Runtime>(
    mut runner: ScenarioRunner<R>,
    cfg: &RunConfig,
    obs: &ObsOptions,
) -> Result<(ScenarioReport, Option<TraceFile>), String> {
    if let Some(trace) = obs.trace {
        runner.set_trace(trace);
    }
    if obs.obs {
        runner.enable_obs();
    }
    if obs.throughput {
        runner.enable_throughput();
    }
    if cfg.replication > 0 {
        runner.enable_robustness(cfg.replication + 1);
    }
    Ok(runner.run_traced())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ThinkTime;

    #[test]
    fn defaults_match_the_cli() {
        let cfg = RunConfig::new("steady-state", 64, 7);
        assert_eq!(cfg.strategy, "checkerboard");
        assert_eq!(cfg.topology, "complete");
        assert_eq!(cfg.queue, QueueKind::Calendar);
        assert_eq!(cfg.runtime, RuntimeKind::Sim);
        assert_eq!(cfg.label(), "steady-state-n64-checkerboard-calendar-sim-s7");
    }

    #[test]
    fn errors_are_results_not_exits() {
        assert!(run(&RunConfig::new("no-such-scenario", 64, 7)).is_err());
        let mut cfg = RunConfig::new("steady-state", 64, 7);
        cfg.strategy = "telepathy".into();
        assert!(run(&cfg).is_err());
        let mut cfg = RunConfig::new("steady-state", 60, 7);
        cfg.topology = "hypercube".into();
        assert!(run(&cfg).is_err(), "non-power-of-two hypercube");
        // past 2^63 the nearest power of two does not fit a usize
        cfg.n = usize::MAX;
        assert!(
            run(&cfg).is_err(),
            "hypercube n beyond the last power of two"
        );
        for topology in ["complete", "ring", "grid", "torus", "hypercube"] {
            let mut cfg = RunConfig::new("steady-state", 0, 7);
            cfg.topology = topology.into();
            assert!(run(&cfg).is_err(), "{topology} with n = 0");
        }
        // `NodeId` is a `u32`: larger networks are refused, not allocated
        for (topology, n) in [
            ("complete", 5_000_000_000),
            ("ring", usize::MAX),
            ("hypercube", 1 << 32),
            ("grid", u32::MAX as usize + 1),
            // fits as asked, but rounds up to 65,536 x 65,536 = 2^32
            ("torus", u32::MAX as usize),
        ] {
            let mut cfg = RunConfig::new("steady-state", n, 7);
            cfg.topology = topology.into();
            let err = run(&cfg).expect_err(topology);
            assert!(err.contains("node ids are 32-bit"), "{topology}: {err}");
        }
        let mut cfg = RunConfig::new("steady-state", 64, 7);
        cfg.runtime = RuntimeKind::Live;
        cfg.topology = "ring".into();
        assert!(run(&cfg).is_err(), "live is complete+uniform only");
        // F + 1 copies must fit the network, even where F + 1 overflows
        for (strategy, f, needs) in [
            ("checkerboard", 64, "65"),
            ("checkerboard", u64::MAX, "18446744073709551616"),
            ("hash", u64::MAX, "18446744073709551616"),
            ("broadcast", u64::MAX, "18446744073709551616"),
        ] {
            let mut cfg = RunConfig::new("steady-state", 64, 7);
            cfg.strategy = strategy.into();
            cfg.replication = f;
            let err = run(&cfg).expect_err(strategy);
            assert_eq!(
                err,
                format!("replication {f} needs n >= {needs}"),
                "{strategy}"
            );
        }
    }

    #[test]
    fn table_backend_refuses_sizes_beyond_its_ceiling() {
        let mut cfg = RunConfig::new("steady-state", 65_536, 7);
        cfg.topology = "grid".to_string();
        cfg.cost = CostModel::Hops;
        cfg.router = RouterKind::Table;
        let err = run(&cfg).expect_err("O(n^2) table at 65536 nodes must refuse");
        assert!(err.contains("table"), "unexpected error: {err}");
    }

    #[test]
    fn equal_configs_reproduce_equal_bytes() {
        let cfg = RunConfig::new("steady-state", 64, 7);
        let a = reports_to_json(&[run(&cfg).unwrap()], false);
        let b = reports_to_json(&[run(&cfg).unwrap()], false);
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.starts_with('['), "the CLI prints an array");
    }

    /// Regression: a client's wake-up tick was an unchecked add, so a
    /// `--backoff` or `--think fixed:` of `u64::MAX` wrapped and fired at
    /// once instead of never (and panicked in debug builds). Neither delay
    /// below can expire before the horizon, so each pair must read the
    /// same.
    #[test]
    fn a_wakeup_past_the_end_of_time_never_fires() {
        let report = |scenario: &str, retry_backoff, think| {
            let mut cfg = RunConfig::new(scenario, 64, 7);
            cfg.clients = Some(ClientModel {
                clients: 8,
                think,
                retry_budget: 3,
                retry_backoff,
                window: 250,
            });
            reports_to_json(&[run(&cfg).unwrap()], false)
        };
        let far = 1_000_000_000_000_000;
        let think = ThinkTime::Fixed { ticks: 2 };
        assert_eq!(
            report("rack-failure-closed", u64::MAX, think),
            report("rack-failure-closed", far, think),
            "--backoff"
        );
        assert_eq!(
            report("overload-ramp", 8, ThinkTime::Fixed { ticks: u64::MAX }),
            report("overload-ramp", 8, ThinkTime::Fixed { ticks: far }),
            "--think fixed:"
        );
    }
}
