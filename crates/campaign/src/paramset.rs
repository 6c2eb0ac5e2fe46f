//! Declarative paramsets: an experiment ID expands to a cross-product of
//! run configurations.
//!
//! Expansion order is part of the contract — nested loops over
//! `scenario → n → strategy → topology → cost → queue → runtime → seed`,
//! each axis in its declared order — so run indices, progress lines and
//! file listings are stable across machines and re-runs. The *results*
//! are order-free anyway (each run is an independent deterministic
//! simulation keyed by its own config), but a stable expansion makes
//! campaigns diffable.

use mm_sim::{CostModel, QueueKind};
use mm_workload::drive::RunConfig;
use mm_workload::RuntimeKind;

/// A named cross-product of run axes. All axes are static: the
/// experiment library is code, reviewed like code, not a config file
/// that can silently drift from what a paper table claims.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The ID the CLI addresses this experiment by.
    pub id: &'static str,
    /// One-line description for `campaign --list`.
    pub description: &'static str,
    /// Scenario axis (library workload names).
    pub scenarios: &'static [&'static str],
    /// Network-size axis.
    pub ns: &'static [usize],
    /// Strategy axis.
    pub strategies: &'static [&'static str],
    /// Topology axis (CLI topology names). A single `"complete"` entry
    /// reproduces the historical labels byte for byte.
    pub topologies: &'static [&'static str],
    /// Cost-model axis paired positionally 1:1 with `topologies` — each
    /// entry names a `topology × cost` *cell*, not an independent axis,
    /// because the interesting combinations are sparse (complete is only
    /// buildable under uniform at scale; sparse topologies are only
    /// interesting under hops).
    pub costs: &'static [CostModel],
    /// Event-queue axis. More than one entry turns the campaign into a
    /// conformance experiment: the aggregator requires runs differing
    /// only in queue to be byte-identical.
    pub queues: &'static [QueueKind],
    /// Runtime axis; like `queues`, multiple entries assert conformance.
    pub runtimes: &'static [RuntimeKind],
    /// Seed axis (independent trials per cell).
    pub seeds: &'static [u64],
}

impl Experiment {
    /// The number of runs the experiment expands to.
    pub fn runs(&self) -> usize {
        self.scenarios.len()
            * self.ns.len()
            * self.strategies.len()
            * self.topologies.len()
            * self.queues.len()
            * self.runtimes.len()
            * self.seeds.len()
    }

    /// Expands the cross-product in the canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `topologies` and `costs` differ in length (they are
    /// paired cells, not independent axes).
    pub fn expand(&self) -> Vec<RunConfig> {
        assert_eq!(
            self.topologies.len(),
            self.costs.len(),
            "{}: topologies and costs pair 1:1",
            self.id
        );
        let mut out = Vec::with_capacity(self.runs());
        for &scenario in self.scenarios {
            for &n in self.ns {
                for &strategy in self.strategies {
                    for (&topology, &cost) in self.topologies.iter().zip(self.costs) {
                        for &queue in self.queues {
                            for &runtime in self.runtimes {
                                for &seed in self.seeds {
                                    let mut cfg = RunConfig::new(scenario, n, seed);
                                    cfg.strategy = strategy.to_string();
                                    cfg.topology = topology.to_string();
                                    cfg.cost = cost;
                                    cfg.queue = queue;
                                    cfg.runtime = runtime;
                                    out.push(cfg);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The default topology cell: the paper's complete network under the
/// uniform cost model — what every pre-existing experiment ran.
const DEFAULT_TOPO: &[&str] = &["complete"];
const DEFAULT_COST: &[CostModel] = &[CostModel::Uniform];

/// The experiment library.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "core-matrix",
        description: "open-loop core: 2 scenarios x {64,256} x {checkerboard,hash} x 2 seeds (16 runs)",
        scenarios: &["steady-state", "flash-crowd"],
        ns: &[64, 256],
        strategies: &["checkerboard", "hash"],
        topologies: DEFAULT_TOPO,
        costs: DEFAULT_COST,
        queues: &[QueueKind::Calendar],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7, 11],
    },
    Experiment {
        id: "ci-smoke",
        description: "small CI gate: 2 scenarios x {64,128} x checkerboard x 2 seeds (8 runs)",
        scenarios: &["steady-state", "flash-crowd"],
        ns: &[64, 128],
        strategies: &["checkerboard"],
        topologies: DEFAULT_TOPO,
        costs: DEFAULT_COST,
        queues: &[QueueKind::Calendar],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7, 11],
    },
    Experiment {
        id: "conformance",
        description: "byte-identity gate: steady-state x 64, queues must agree per runtime (4 runs, 2 unique)",
        scenarios: &["steady-state"],
        ns: &[64],
        strategies: &["checkerboard"],
        topologies: DEFAULT_TOPO,
        costs: DEFAULT_COST,
        queues: &[QueueKind::Calendar, QueueKind::BTree],
        runtimes: &[RuntimeKind::Sim, RuntimeKind::Live],
        seeds: &[7],
    },
    Experiment {
        id: "strategy-scaling",
        description: "scaling fit: steady-state x {64,256,1024} x {checkerboard,hash,broadcast} (9 runs)",
        scenarios: &["steady-state"],
        ns: &[64, 256, 1024],
        strategies: &["checkerboard", "hash", "broadcast"],
        topologies: DEFAULT_TOPO,
        costs: DEFAULT_COST,
        queues: &[QueueKind::Calendar],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7],
    },
    Experiment {
        id: "topology-matrix",
        description: "topology x cost sweep: 2 scenarios x {64,256} x {checkerboard,hash} x \
                      {complete/uniform,grid/hops,torus/hops,ring/hops,hypercube/hops} (40 runs)",
        scenarios: &["steady-state", "rolling-churn"],
        ns: &[64, 256],
        strategies: &["checkerboard", "hash"],
        topologies: &["complete", "grid", "torus", "ring", "hypercube"],
        costs: &[
            CostModel::Uniform,
            CostModel::Hops,
            CostModel::Hops,
            CostModel::Hops,
            CostModel::Hops,
        ],
        queues: &[QueueKind::Calendar],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7],
    },
    Experiment {
        id: "topology-scale",
        description: "O(1)-memory routing at scale: steady-state x {65536,1048576} x \
                      {grid,torus,hypercube,ring}/hops (8 runs)",
        scenarios: &["steady-state"],
        ns: &[65_536, 1_048_576],
        strategies: &["checkerboard"],
        topologies: &["grid", "torus", "hypercube", "ring"],
        costs: &[
            CostModel::Hops,
            CostModel::Hops,
            CostModel::Hops,
            CostModel::Hops,
        ],
        queues: &[QueueKind::Calendar],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7],
    },
    Experiment {
        id: "sustained",
        description: "sustained-load count gate: 4 scenarios x {16384,65536}, queues must agree \
                      (16 runs, 8 unique)",
        // baseline load, Zipf spike, crash/restore churn, and the
        // closed-loop saturation ramp, whose pool wake-ups step the engine
        // in many short slices — a different event-queue access pattern
        scenarios: &[
            "steady-state",
            "flash-crowd",
            "rolling-churn",
            "overload-ramp",
        ],
        ns: &[16_384, 65_536],
        strategies: &["checkerboard"],
        topologies: DEFAULT_TOPO,
        costs: DEFAULT_COST,
        queues: &[QueueKind::Calendar, QueueKind::BTree],
        runtimes: &[RuntimeKind::Sim],
        seeds: &[7],
    },
];

/// Looks an experiment up by ID.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_matrix_expands_to_sixteen_unique_labels() {
        let e = by_id("core-matrix").unwrap();
        let runs = e.expand();
        assert_eq!(runs.len(), 16);
        assert_eq!(runs.len(), e.runs());
        let mut labels: Vec<String> = runs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 16, "labels must be unique");
    }

    #[test]
    fn expansion_order_is_stable() {
        let e = by_id("ci-smoke").unwrap();
        let first = e.expand();
        let again = e.expand();
        assert_eq!(first, again);
        // scenario is the outermost axis
        assert_eq!(first[0].scenario, "steady-state");
        assert_eq!(first.last().unwrap().scenario, "flash-crowd");
        // seed is the innermost axis
        assert_eq!(first[0].seed, 7);
        assert_eq!(first[1].seed, 11);
    }

    #[test]
    fn every_library_experiment_is_well_formed() {
        for e in EXPERIMENTS {
            assert!(e.runs() > 0, "{}: empty cross-product", e.id);
            assert_eq!(e.expand().len(), e.runs(), "{}", e.id);
            assert!(by_id(e.id).is_some());
        }
        assert!(by_id("no-such-experiment").is_none());
    }

    #[test]
    fn topology_matrix_sweeps_paired_cells_with_unique_labels() {
        let e = by_id("topology-matrix").unwrap();
        let runs = e.expand();
        assert_eq!(runs.len(), 40);
        // complete rides uniform; every sparse topology rides hops
        for cfg in &runs {
            match cfg.topology.as_str() {
                "complete" => assert_eq!(cfg.cost, mm_sim::CostModel::Uniform),
                _ => assert_eq!(cfg.cost, mm_sim::CostModel::Hops),
            }
        }
        // the non-default cells extend the label, so file stems stay
        // collision-free within the sweep
        let mut labels: Vec<String> = runs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 40, "labels must be unique");
        assert!(runs.iter().any(|c| c.label().contains("-grid-hops-")));
        assert!(runs.iter().any(|c| c.label().contains("-torus-hops-")));
    }

    #[test]
    fn topology_scale_runs_with_analytic_memory_footprint() {
        let e = by_id("topology-scale").unwrap();
        let runs = e.expand();
        assert_eq!(runs.len(), 8);
        for cfg in &runs {
            assert_eq!(cfg.cost, mm_sim::CostModel::Hops);
            // the default Auto router resolves these analytically: the
            // million-node cells would be unbuildable through the table
            assert_eq!(cfg.router, mm_sim::RouterKind::Auto);
            // the router is output-invariant and the shard fields are
            // inert: labels must not mention either, so files stay
            // comparable to table-backed runs of the same cell
            assert!(!cfg.label().contains("shard"));
        }
        assert!(runs.iter().any(|c| c.n == 1_048_576));
    }

    #[test]
    fn default_topology_cell_keeps_historical_labels() {
        let e = by_id("core-matrix").unwrap();
        let labels: Vec<String> = e.expand().iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"steady-state-n64-checkerboard-calendar-sim-s7".to_string()));
    }
}
