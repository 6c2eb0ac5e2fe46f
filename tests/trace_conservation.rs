//! Property-based tests (proptest) over the observability layer's two
//! hard contracts, for *random* churn-free workload specs:
//!
//! 1. **Conservation** — the causal span trees recorded by `mm-obs` are a
//!    complete account of the run's traffic: summed span costs reproduce
//!    the engine's `Metrics::message_passes` exactly, and the spans'
//!    implied sends (costs plus free self-deliveries) reproduce
//!    `Metrics::sends` — in **both** runtimes (discrete-event simulator
//!    and threaded `LiveNet`).
//! 2. **Determinism** — at equal seeds a churn-free spec traces
//!    byte-identically across event-queue implementations *and* across
//!    the two runtimes; and a head-sampled trace is an exact subset of
//!    the full trace at the same seed (sampling decides per trace id,
//!    never re-times or re-orders anything).
//!
//! Churn-free is the precondition the conservation check documents:
//! migrate/unpost churn traffic and §1.3 stale-recovery retries are
//! deliberately untraced, so only specs without churn make the spans a
//! whole-run account.

use match_making::prelude::*;
use match_making::sim::{QueueKind, RouterKind, ShardMode};
use mm_obs::{analyze, TraceConfig, TraceFile};
use mm_workload::{ArrivalProcess, LiveRuntime, Phase, PortPopularity, ScenarioRunner, Workload};
use proptest::prelude::*;

/// Builds a random churn-free open-loop spec from primitive draws: 1–4
/// ports, 1–3 phases of mixed arrival processes, optional refresh
/// cadence. `request_after_locate` stays off — the simulator skips
/// follow-up requests still pending at the forced final drain while the
/// lock-step live runner issues every one, so request-bearing specs are
/// outside the cross-runtime byte-identity contract (each runtime's
/// trace remains a faithful, conserving account of its own run either
/// way).
fn random_spec(
    seed: u64,
    ports: usize,
    phase_draws: &[(u64, u8, u64)],
    refresh_draw: u64,
    op_timeout: u64,
    zipf: bool,
) -> Workload {
    let phases = phase_draws
        .iter()
        .enumerate()
        .map(|(i, &(duration, kind, interval))| {
            let arrivals = match kind {
                0 => ArrivalProcess::FixedRate { interval },
                1 => ArrivalProcess::Poisson {
                    rate: interval as f64 / 10.0,
                },
                _ => ArrivalProcess::Idle,
            };
            Phase::new(&format!("p{i}"), duration, arrivals)
        })
        .collect();
    Workload {
        name: "random-churn-free".into(),
        seed,
        ports,
        popularity: if zipf {
            PortPopularity::Zipf { exponent: 1.0 }
        } else {
            PortPopularity::Uniform
        },
        phases,
        churn: vec![],
        refresh_interval: (refresh_draw >= 50).then_some(refresh_draw),
        request_after_locate: false,
        op_timeout,
        clients: None,
        faults: vec![],
    }
}

fn sim_trace(spec: &Workload, n: usize, rate: f64) -> TraceFile {
    sim_trace_queued(spec, n, rate, QueueKind::Calendar)
}

fn sim_trace_queued(spec: &Workload, n: usize, rate: f64, queue: QueueKind) -> TraceFile {
    let mut runner = ScenarioRunner::with_router(
        spec.clone(),
        gen::complete(n),
        Checkerboard::new(n),
        CostModel::Uniform,
        "checkerboard",
        queue,
        ShardMode::Single,
        RouterKind::Auto,
    );
    runner.set_trace(TraceConfig::with_rate(spec.seed, rate));
    runner.run_traced().1.expect("tracing was enabled")
}

fn live_trace(spec: &Workload, n: usize) -> TraceFile {
    let mut runner = ScenarioRunner::over(
        spec.clone(),
        LiveRuntime::new(n, Checkerboard::new(n)),
        "checkerboard",
    );
    runner.set_trace(TraceConfig::full(spec.seed));
    runner.run_traced().1.expect("tracing was enabled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulator conservation: on any churn-free spec the full trace's
    /// span costs reproduce the run's message counters exactly.
    #[test]
    fn sim_spans_conserve_metrics(
        seed in any::<u64>(),
        n in 9usize..64,
        ports in 1usize..=4,
        phase_draws in prop::collection::vec((20u64..120, 0u8..3, 1u64..8), 1..4),
        refresh_draw in 0u64..300,
        op_timeout in 4u64..40,
        zipf in any::<bool>(),
    ) {
        let spec = random_spec(seed, ports, &phase_draws, refresh_draw, op_timeout, zipf);
        let file = sim_trace(&spec, n, 1.0);
        let a = analyze(&file);
        prop_assert!(
            a.conservation.holds(),
            "span costs {} vs passes {}, implied sends {} vs sends {}",
            a.span_cost_total, file.footer.passes, a.implied_sends, file.footer.sends,
        );
    }

    /// A head-sampled trace at the same seed is an exact subset of the
    /// full trace: identical spans for every sampled trace id, in the
    /// same relative order, and the footer accounts for every trace
    /// either way.
    #[test]
    fn sampled_trace_is_exact_subset(
        seed in any::<u64>(),
        n in 9usize..64,
        ports in 1usize..=4,
        phase_draws in prop::collection::vec((20u64..120, 0u8..3, 1u64..8), 1..4),
        refresh_draw in 0u64..300,
        rate_tenths in 1u64..10,
    ) {
        let spec = random_spec(seed, ports, &phase_draws, refresh_draw, 16, false);
        let full = sim_trace(&spec, n, 1.0);
        let sampled = sim_trace(&spec, n, rate_tenths as f64 / 10.0);
        let mut full_spans = full.spans.iter();
        for s in &sampled.spans {
            prop_assert!(
                full_spans.any(|f| f == s),
                "sampled span (trace {}, span {}) missing from the full trace in order",
                s.trace, s.span,
            );
        }
        prop_assert_eq!(
            sampled.footer.traces,
            full.footer.traces,
            "trace-id allocation is sampling-independent"
        );
        prop_assert_eq!(full.footer.sampled_out, 0);
        let kept: std::collections::BTreeSet<u64> =
            sampled.spans.iter().map(|s| s.trace).collect();
        prop_assert_eq!(
            kept.len() as u64 + sampled.footer.sampled_out,
            sampled.footer.traces,
            "every trace id is either kept or counted sampled-out"
        );
        if sampled.footer.sampled_out == 0 {
            prop_assert_eq!(&sampled.spans, &full.spans, "rate high enough to keep all");
        }
    }
}

proptest! {
    // the live runtime spawns one OS thread per node per case: fewer,
    // smaller cases
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Live-runtime conservation: the same contract holds on real
    /// threads, where `Metrics` is aggregated from per-node counters.
    #[test]
    fn live_spans_conserve_metrics(
        seed in any::<u64>(),
        n in 9usize..24,
        ports in 1usize..=4,
        phase_draws in prop::collection::vec((20u64..100, 0u8..3, 1u64..8), 1..3),
        refresh_draw in 0u64..300,
        zipf in any::<bool>(),
    ) {
        let spec = random_spec(seed, ports, &phase_draws, refresh_draw, 16, zipf);
        let file = live_trace(&spec, n);
        let a = analyze(&file);
        prop_assert!(
            a.conservation.holds(),
            "span costs {} vs passes {}, implied sends {} vs sends {}",
            a.span_cost_total, file.footer.passes, a.implied_sends, file.footer.sends,
        );
    }

    /// The tentpole determinism claim, on random specs: churn-free
    /// workloads trace byte-identically across event-queue
    /// implementations and across the two runtimes at equal seeds.
    #[test]
    fn churn_free_traces_are_byte_identical(
        seed in any::<u64>(),
        n in 9usize..24,
        ports in 1usize..=4,
        phase_draws in prop::collection::vec((20u64..100, 0u8..3, 1u64..8), 1..3),
        refresh_draw in 0u64..300,
        zipf in any::<bool>(),
    ) {
        let spec = random_spec(seed, ports, &phase_draws, refresh_draw, 16, zipf);
        let calendar = sim_trace(&spec, n, 1.0).to_jsonl();
        let btree = sim_trace_queued(&spec, n, 1.0, QueueKind::BTree).to_jsonl();
        prop_assert_eq!(&calendar, &btree, "calendar vs btree event queue");
        let live = live_trace(&spec, n).to_jsonl();
        prop_assert_eq!(&calendar, &live, "simulator vs live threads");
    }
}
