//! # mm-workload — seeded scenario & traffic-generation engine
//!
//! The paper evaluates match-making by the expected message passes of a
//! *single* locate on an otherwise idle network. The north star of this
//! repository is the opposite regime: sustained heavy traffic, churn,
//! migration, skewed demand. This crate is the layer between the
//! protocols and the benchmarks that generates that regime:
//!
//! * [`spec`] — declarative [`Workload`] descriptions: Zipf/uniform port
//!   popularity, open-loop Poisson or fixed-rate locate arrivals per
//!   phase, server refresh cadence, and a timed churn schedule
//!   (crash/restore waves, service migration, cache wipes).
//! * [`traffic`] — the seeded samplers that turn a spec into concrete
//!   arrival timelines and target choices.
//! * `clients` — the closed-loop client pool (private): when a spec
//!   carries a [`ClientModel`], offered arrivals queue for a fixed pool
//!   of client slots (think time, retry budget, exponential backoff) and
//!   the reports grow latency/queueing-delay percentiles plus fixed-width
//!   time-series windows.
//! * `timeline` — spec → event timeline, and `Draws` (both private): the
//!   one type that owns the spec's RNG and the runner's view of who is
//!   alive. Every random decision of a run — homes, arrivals, think
//!   pauses, churn victims — is a method on it, in one order, which is
//!   what keeps open- and closed-loop runs differential-testable across
//!   runtimes.
//! * [`runner`] — [`ScenarioRunner`]: compiles a spec into operations
//!   against a [`Runtime`], drives it to the horizon, and emits per-phase
//!   [`PhaseReport`]s (throughput, passes per locate, hit rate, p50/p99
//!   node load, staleness recoveries) plus `mm-analysis`
//!   theory-vs-measured records.
//! * [`runtime`] — the [`Runtime`] seam the runner drives, with its two
//!   adapters: [`mm_proto::ShotgunEngine`] (the `mm-sim` event queue) and
//!   [`LiveRuntime`] (the threaded [`mm_proto::live::LiveNet`], lock-step).
//!   The same specs run unchanged on both, which is what the
//!   cross-runtime conformance suite
//!   (`tests/live_workload_equivalence.rs`) differential-tests.
//! * [`report`] — the report structs and builders, plus the
//!   per-operation verdict log.
//! * [`drive`] — programmatic single-run invocation ([`RunConfig`] →
//!   [`ScenarioReport`]), the shared execution path behind the
//!   `scenarios` CLI and the `mm-campaign` experiment-matrix runner —
//!   which is what makes a campaign's per-run JSON byte-identical to the
//!   equivalent CLI invocation.
//! * [`scenarios`] — the library: steady-state, flash-crowd,
//!   rolling-churn, migrate-under-load, cold-vs-warm-cache (open-loop)
//!   plus overload-ramp and flash-crowd-recovery (closed-loop), and the
//!   hostile-world set (rack-failure, byzantine-liars, rendezvous-skew,
//!   each with a `-closed` twin) exercising correlated crash groups,
//!   forged-address Byzantine nodes, and adversarial hotspot skew.
//!
//! Determinism is a hard contract: every random choice flows from the
//! spec's seed through one generator in a fixed order, so two runs of the
//! same spec produce **byte-identical** JSON reports.
//!
//! # Example
//!
//! ```
//! use mm_workload::{scenarios, ScenarioRunner};
//! use mm_core::strategies::Checkerboard;
//! use mm_sim::CostModel;
//! use mm_topo::gen;
//!
//! let n = 64;
//! let spec = scenarios::steady_state(7);
//! let runner = ScenarioRunner::new(
//!     spec,
//!     gen::complete(n),
//!     Checkerboard::new(n),
//!     CostModel::Uniform,
//!     "checkerboard",
//! );
//! let report = runner.run();
//! assert!(report.hit_rate() > 0.9, "steady state mostly hits");
//! ```

#![forbid(unsafe_code)]

mod clients;
pub mod drive;
mod observe;
pub mod report;
pub mod runner;
pub mod runtime;
pub mod scenarios;
pub mod spec;
mod timeline;
pub mod traffic;

pub use drive::{ObsOptions, RunConfig, RuntimeKind};
pub use report::{
    ClosedLoopStats, LocateRecord, LocateVerdict, PhaseReport, RobustnessReport, ScenarioReport,
    WindowReport,
};
pub use runner::ScenarioRunner;
pub use runtime::{Issued, LiveRuntime, Runtime};
pub use spec::{
    ArrivalProcess, ChurnAction, ChurnEvent, ClientModel, FaultSpec, Phase, PortPopularity,
    ThinkTime, Workload,
};
pub use traffic::PopularitySampler;

/// Scenario-level tests of the runner over the thread runtime, under the
/// module path they have always had (test ids are a compatibility
/// surface for the CI floor).
#[cfg(test)]
mod live_runner {
    mod tests {
        use crate::{scenarios, LiveRuntime, ScenarioReport, ScenarioRunner};
        use mm_core::strategies::{Checkerboard, HashLocate};

        fn run_on_threads(name: &str, n: usize, seed: u64) -> ScenarioReport {
            let spec = scenarios::by_name(name, n, seed).expect("library scenario");
            ScenarioRunner::over(
                spec,
                LiveRuntime::new(n, Checkerboard::new(n)),
                "checkerboard",
            )
            .run()
        }

        #[test]
        fn live_steady_state_hits_at_theory_cost() {
            let r = run_on_threads("steady-state", 16, 7);
            assert_eq!(r.phases.len(), 3);
            assert!(r.hit_rate() > 0.99, "hit rate {}", r.hit_rate());
            // 2·sqrt(16) = 8 passes per warm locate; the live runtime pays
            // exactly the model cost minus free self-messages
            assert!((r.predicted_passes_per_locate - 8.0).abs() < 1e-9);
            assert!(r.passes_per_locate() <= 8.0);
            assert!(r.passes_per_locate() > 6.0);
        }

        #[test]
        fn live_rolling_churn_degrades_then_recovers() {
            let r = run_on_threads("rolling-churn", 16, 7);
            let churning = r.phases.iter().find(|p| p.name == "churning").unwrap();
            let recovered = r.phases.iter().find(|p| p.name == "recovered").unwrap();
            assert!(churning.crashes > 0);
            assert!(churning.unresolved > 0, "crashed rendezvous leave timeouts");
            assert!(churning.dropped > 0, "messages die at crashed nodes");
            assert!(
                recovered.hit_rate > 0.99,
                "refresh heals: {}",
                recovered.hit_rate
            );
        }

        #[test]
        fn live_migrate_under_load_sustains_requests() {
            let r = run_on_threads("migrate-under-load", 16, 7);
            let ok: u64 = r.phases.iter().map(|p| p.requests_ok).sum();
            assert!(ok > 1000, "requests keep flowing through migrations: {ok}");
            assert_eq!(
                r.phases.iter().map(|p| p.request_timeouts).sum::<u64>(),
                0,
                "no server ever crashes in this scenario"
            );
        }

        #[test]
        fn live_hash_locate_runs_the_same_workload() {
            let n = 16;
            let spec = scenarios::steady_state(11);
            let r = ScenarioRunner::over(spec, LiveRuntime::new(n, HashLocate::new(n, 3)), "hash")
                .run();
            assert!(r.hit_rate() > 0.99);
            assert!((r.predicted_passes_per_locate - 6.0).abs() < 1e-9);
        }

        #[test]
        fn live_runs_are_deterministic_given_a_seed() {
            let a = serde_json::to_string(&run_on_threads("cold-vs-warm-cache", 16, 5));
            let b = serde_json::to_string(&run_on_threads("cold-vs-warm-cache", 16, 5));
            assert_eq!(a, b, "lock-step live runs reproduce byte-identically");
        }

        /// The closed-loop pool drives the thread network too: the ramp's
        /// knee (monotone p99 queueing delay, flat service latency) must be
        /// measurable on real threads, deterministically.
        #[test]
        fn live_overload_ramp_finds_the_same_knee() {
            let r = run_on_threads("overload-ramp", 16, 7);
            assert_eq!(r.clients, Some(24));
            let stats: Vec<_> = r
                .phases
                .iter()
                .map(|p| p.closed_loop.as_ref().expect("closed-loop stats"))
                .collect();
            assert!(
                stats[2].queue_delay_p99 < stats[3].queue_delay_p99
                    && stats[3].queue_delay_p99 < stats[4].queue_delay_p99,
                "p99 queueing delay must climb past the knee"
            );
            assert!(stats.iter().all(|s| s.latency_p99 <= 2.0));
            assert!(r.windows.is_some());
            let a = serde_json::to_string(&run_on_threads("overload-ramp", 16, 7));
            let b = serde_json::to_string(&run_on_threads("overload-ramp", 16, 7));
            assert_eq!(a, b, "closed-loop live runs reproduce byte-identically");
        }

        /// Closed-loop retries against a churny network: the recovery
        /// scenario must burn retry budget during the outage and settle back,
        /// and the op log must come back in arrival order even though retried
        /// operations reach their final verdict after later arrivals.
        #[test]
        fn live_flash_crowd_recovery_retries_through_the_outage() {
            let spec = scenarios::by_name("flash-crowd-recovery", 16, 7).unwrap();
            let (r, log) = ScenarioRunner::over(
                spec,
                LiveRuntime::new(16, Checkerboard::new(16)),
                "checkerboard",
            )
            .run_logged();
            assert!(
                log.windows(2).all(|w| w[0].arrival < w[1].arrival),
                "op log must be sorted by arrival"
            );
            let total_retries: u64 = r
                .phases
                .iter()
                .map(|p| p.closed_loop.as_ref().unwrap().retries)
                .sum();
            assert!(total_retries > 0, "the outage must trigger retries");
            let last = r.windows.as_ref().unwrap().last().unwrap().clone();
            assert!(
                last.latency_p99 <= 2.0,
                "latency must settle by the horizon: {}",
                last.latency_p99
            );
        }
    }
}
