//! Experiment registry and shared measurement helpers.

use mm_analysis::ExperimentRecord;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_proto::{LocateOutcome, ShotgunEngine};
use mm_sim::CostModel;
use mm_topo::{Graph, NodeId};

/// A named, runnable experiment.
pub struct Experiment {
    /// Experiment id (`"e1"` … `"e18"`).
    pub id: &'static str,
    /// The paper artifact being regenerated.
    pub title: &'static str,
    /// Runs the experiment, printing tables and returning records.
    pub run: fn() -> Vec<ExperimentRecord>,
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    use crate::{protocols, theory, topologies};
    vec![
        Experiment {
            id: "e1",
            title: "§2.3.1 Examples 1-6: the six rendezvous matrices",
            run: theory::e1,
        },
        Experiment {
            id: "e2",
            title: "§2.2 probabilistic analysis: E[#(P∩Q)] = pq/n",
            run: theory::e2,
        },
        Experiment {
            id: "e3",
            title: "§2.3.2 Propositions 1+2: lower-bound slack per strategy",
            run: theory::e3,
        },
        Experiment {
            id: "e4",
            title: "§2.3.3 corollaries: truly-distributed and centralized bounds",
            run: theory::e4,
        },
        Experiment {
            id: "e5",
            title: "§2.3.4 Proposition 3: checkerboard upper bound",
            run: theory::e5,
        },
        Experiment {
            id: "e6",
            title: "§2.3.4 Proposition 4: lifting n -> 4n doubles m(n)",
            run: theory::e6,
        },
        Experiment {
            id: "e7",
            title: "§3 general networks: sqrt(n)-decomposition locate",
            run: topologies::e7,
        },
        Experiment {
            id: "e8",
            title: "§3.1 Manhattan networks and d-dimensional meshes",
            run: topologies::e8,
        },
        Experiment {
            id: "e9",
            title: "§3.2 hypercubes: half-split and epsilon-split",
            run: topologies::e9,
        },
        Experiment {
            id: "e10",
            title: "§3.3 cube-connected cycles",
            run: topologies::e10,
        },
        Experiment {
            id: "e11",
            title: "§3.4 projective planes PG(2,k)",
            run: topologies::e11,
        },
        Experiment {
            id: "e12",
            title: "§3.5 hierarchical networks: O(log n) at k = log(n)/2",
            run: topologies::e12,
        },
        Experiment {
            id: "e13",
            title: "§3.6 UUCPnet degree table and tree strategies",
            run: topologies::e13,
        },
        Experiment {
            id: "e14",
            title: "§4 Lighthouse Locate: schedules and densities",
            run: protocols::e14,
        },
        Experiment {
            id: "e15",
            title: "§5 Hash Locate: cost, load, fragility, rehash",
            run: protocols::e15,
        },
        Experiment {
            id: "e16",
            title: "§2.4 robustness: f+1 redundancy price",
            run: protocols::e16,
        },
        Experiment {
            id: "e17",
            title: "§2.3.2 (M3'): weighted optimum p = sqrt(alpha n)",
            run: protocols::e17,
        },
        Experiment {
            id: "e18",
            title: "§2.3.5 rings: m(n) = Theta(n), broadcast is optimal",
            run: protocols::e18,
        },
    ]
}

/// Runs experiments by id (case-insensitive); `"all"` or empty runs all.
/// Returns the concatenated records, or `Err` with the unknown name.
pub fn run_by_name(names: &[String]) -> Result<Vec<ExperimentRecord>, String> {
    let all = all_experiments();
    let mut records = Vec::new();
    let wanted: Vec<String> = if names.is_empty() || names.iter().any(|n| n == "all") {
        all.iter().map(|e| e.id.to_string()).collect()
    } else {
        names.iter().map(|n| n.to_lowercase()).collect()
    };
    for name in wanted {
        let exp = all
            .iter()
            .find(|e| e.id == name)
            .ok_or_else(|| format!("unknown experiment: {name}"))?;
        println!("\n=== {} — {} ===", exp.id.to_uppercase(), exp.title);
        records.extend((exp.run)());
    }
    Ok(records)
}

/// The records whose measured value strays from the paper's prediction by
/// more than the factor the reproduction allows: 6×, order-of-magnitude
/// agreement, because measured hops differ from the paper's count of
/// addressed nodes by routing overhead (the experiments' own tests hold
/// their records to tighter factors where the paper's figure is exact).
pub fn outside_tolerance(records: &[ExperimentRecord]) -> Vec<&ExperimentRecord> {
    records.iter().filter(|r| !r.within_factor(6.0)).collect()
}

/// Measures a full match-making instance on the engine: returns
/// `(post_passes, locate_passes, found)` — the server-side and
/// client-side message-pass costs of one rendezvous.
pub fn measure_instance<PM: PortMapped>(
    graph: Graph,
    resolver: PM,
    server: NodeId,
    client: NodeId,
    cost: CostModel,
) -> (u64, u64, bool) {
    let mut eng = ShotgunEngine::new(graph, resolver, cost);
    let port = Port::from_name("measured-service");
    eng.register_server(server, port);
    eng.run();
    let post_passes = eng.metrics().message_passes;
    let h = eng.locate(client, port);
    eng.run();
    let locate_passes = eng.metrics().message_passes - post_passes;
    let found = matches!(eng.outcome(h), LocateOutcome::Found { .. });
    (post_passes, locate_passes, found)
}

/// Average measured match-making cost over a deterministic sample of
/// (server, client) pairs: `post + query` message passes, one-way (the
/// locate cost is halved because each query generates a reply the paper
/// does not count — it counts *addressed nodes*).
pub fn average_instance_cost<PM: PortMapped + Clone>(
    graph: &Graph,
    resolver: &PM,
    cost: CostModel,
    pairs: usize,
) -> f64 {
    let n = graph.node_count();
    let mut total = 0f64;
    let mut count = 0usize;
    for k in 0..pairs {
        // deterministic low-discrepancy pair sampling
        let server = NodeId::from((k * 7919 + 13) % n);
        let client = NodeId::from((k * 104729 + 37) % n);
        let (post, locate, found) =
            measure_instance(graph.clone(), resolver.clone(), server, client, cost);
        assert!(found, "measured instance must rendezvous");
        // locate passes include the replies; the paper's m counts the
        // queries (addressed nodes), so halve the round trip
        total += post as f64 + locate as f64 / 2.0;
        count += 1;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::strategies::Checkerboard;
    use mm_topo::gen;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        assert_eq!(all.len(), 18);
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18, "ids must be unique");
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!(run_by_name(&["e99".to_string()]).is_err());
    }

    #[test]
    #[ignore = "release tier: all of E1-E18"]
    fn every_experiment_reproduces_the_paper_within_tolerance() {
        let records = run_by_name(&[]).unwrap();
        assert_eq!(records.len(), 137, "an experiment lost or gained records");
        let bad = outside_tolerance(&records);
        assert!(bad.is_empty(), "{bad:#?}");
    }

    /// `EXPERIMENTS.md` is prose above the table `experiments` prints;
    /// the table must be a fresh run's, byte for byte.
    #[test]
    #[ignore = "release tier: all of E1-E18"]
    fn experiments_md_holds_a_fresh_runs_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
        let committed = std::fs::read_to_string(&path).unwrap();
        let table = committed
            .find("\n| id |")
            .map_or("", |at| &committed[at + 1..]);
        let fresh = mm_analysis::record::to_markdown(&run_by_name(&[]).unwrap());
        assert!(
            table == fresh,
            "EXPERIMENTS.md is stale (its header says how to regenerate it); fresh table:\n{fresh}"
        );
    }

    #[test]
    fn measure_instance_finds_server() {
        let (post, locate, found) = measure_instance(
            gen::complete(16),
            Checkerboard::new(16),
            NodeId::new(2),
            NodeId::new(11),
            CostModel::Uniform,
        );
        assert!(found);
        assert!(post <= 4);
        assert!(locate <= 8);
    }

    #[test]
    fn average_cost_close_to_strategy_model() {
        let n = 64;
        let g = gen::complete(n);
        let s = Checkerboard::new(n);
        let measured = average_instance_cost(&g, &s, CostModel::Uniform, 12);
        let model = mm_core::Strategy::average_cost(&s);
        // self-deliveries make the measured cost slightly cheaper
        assert!(
            (measured - model).abs() <= 3.0,
            "measured {measured} vs model {model}"
        );
    }
}
