//! Cross-runtime workload conformance: every library scenario is driven
//! through the deterministic simulator **and** the threaded `LiveNet`
//! runtime with the same seed, and the two runs must agree.
//!
//! The paper's claim is that match-making costs are properties of the
//! post/query sets (m(P,Q) ≥ 1), not of the scheduler — so the same
//! `Workload` spec must produce the same locate verdicts, the same
//! located addresses and the same message-pass counts whether the
//! "network" is a discrete-event queue or 256 OS threads.
//!
//! # Tolerance rule (documented contract, enforced below)
//!
//! The live runner executes the compiled timeline in lock-step (each
//! operation completes before the next event fires), while the simulator
//! is open-loop (operations overlap churn at tick granularity). The two
//! can therefore legitimately differ **only** for operations issued inside
//! a small window around a *racy* churn event — a crash, restore or
//! migration; cache wipes and refreshes order identically in both
//! runtimes and get no slack:
//!
//! * window: `[T - CHAIN_TICKS, T + POST_SLACK]` around each racy churn
//!   tick `T`, where `CHAIN_TICKS = 8` covers the longest uniform-cost
//!   operation chain still in flight when churn lands (locate 2 ticks +
//!   request 2 + retry locate 2 + retry request 2) and `POST_SLACK = 4`
//!   covers a fresh posting still propagating;
//! * outside every window, per-operation verdicts and addresses must be
//!   **identical**;
//! * aggregate operation counters may shift by at most the number of
//!   at-risk operations, and message passes by at most the cost of
//!   re-running each at-risk operation's full chain;
//! * scenarios without racy churn (steady-state, flash-crowd,
//!   cold-vs-warm-cache) must agree **exactly**: per-operation records,
//!   per-phase message passes, and every aggregate counter.
//!
//! Stale-address bounces cannot occur under lock-step execution — the
//! live runner must issue exactly zero stale-recovery retries — while
//! the simulator may issue at most one retry per stale bounce, and
//! bounces only happen to at-risk operations.

use match_making::prelude::*;
use mm_workload::report::{LocateRecord, ScenarioReport};
use mm_workload::{
    scenarios, ChurnAction, ClientModel, LiveRuntime, ScenarioRunner, ThinkTime, Workload,
};

/// Longest operation chain (in uniform-cost ticks) that can straddle a
/// racy churn event in the open-loop simulator.
const CHAIN_TICKS: u64 = 8;
/// Ticks a fresh posting needs to reach every rendezvous node.
const POST_SLACK: u64 = 4;

/// The sizes every scenario is checked at (acceptance: 16, 64, 256).
const SIZES: [usize; 3] = [16, 64, 256];
/// Seeds checked per size (acceptance: ≥ 3 at n = 256).
const SEEDS: [u64; 3] = [7, 11, 42];

fn is_racy(action: &ChurnAction) -> bool {
    matches!(
        action,
        ChurnAction::CrashRandom { .. }
            | ChurnAction::CrashServer { .. }
            | ChurnAction::RestoreAll { .. }
            | ChurnAction::MigrateRandom { .. }
    )
}

/// The at-risk tick windows of a spec, per the tolerance rule above.
fn risky_windows(spec: &Workload) -> Vec<(u64, u64)> {
    spec.churn
        .iter()
        .filter(|e| is_racy(&e.action))
        .map(|e| (e.at.saturating_sub(CHAIN_TICKS), e.at + POST_SLACK))
        .collect()
}

fn at_risk(rec: &LocateRecord, windows: &[(u64, u64)]) -> bool {
    windows.iter().any(|&(lo, hi)| rec.at >= lo && rec.at <= hi)
}

struct Pair {
    spec: Workload,
    sim: ScenarioReport,
    sim_log: Vec<LocateRecord>,
    live: ScenarioReport,
    live_log: Vec<LocateRecord>,
}

fn run_pair_spec(spec: Workload, n: usize) -> Pair {
    let (sim, sim_log) = ScenarioRunner::new(
        spec.clone(),
        gen::complete(n),
        Checkerboard::new(n),
        CostModel::Uniform,
        "checkerboard",
    )
    .run_logged();
    let (live, live_log) = ScenarioRunner::over(
        spec.clone(),
        LiveRuntime::new(n, Checkerboard::new(n)),
        "checkerboard",
    )
    .run_logged();
    Pair {
        spec,
        sim,
        sim_log,
        live,
        live_log,
    }
}

fn run_pair(name: &str, n: usize, seed: u64) -> Pair {
    let spec = scenarios::by_name(name, n, seed).expect("library scenario");
    run_pair_spec(spec, n)
}

/// A counter projection over a phase report (for table-driven asserts).
type Counter = fn(&mm_workload::PhaseReport) -> u64;

fn total(r: &ScenarioReport, f: impl Fn(&mm_workload::PhaseReport) -> u64) -> u64 {
    r.phases.iter().map(f).sum()
}

fn diff(a: u64, b: u64) -> u64 {
    a.max(b) - a.min(b)
}

/// Checks one scenario × size × seed combination against the tolerance
/// rule; `ctx` labels failures.
fn check_pair(p: &Pair, ctx: &str) {
    let windows = risky_windows(&p.spec);

    // Both runtimes consume the spec's RNG in the same order, so the
    // primary-arrival logs must pair up one to one.
    assert_eq!(
        p.sim_log.len(),
        p.live_log.len(),
        "{ctx}: primary arrival counts diverge"
    );
    let mut risk = 0u64;
    for (s, l) in p.sim_log.iter().zip(&p.live_log) {
        assert_eq!(s.arrival, l.arrival, "{ctx}: log order");
        assert_eq!(s.at, l.at, "{ctx}: arrival {} tick", s.arrival);
        assert_eq!(
            (s.client, s.port_idx),
            (l.client, l.port_idx),
            "{ctx}: arrival {} drew different (client, port) — RNG streams diverged",
            s.arrival
        );
        if at_risk(s, &windows) {
            risk += 1;
            continue;
        }
        // the heart of the conformance claim: outside churn races, the
        // threaded runtime reaches the same verdict at the same address
        assert_eq!(
            s.verdict, l.verdict,
            "{ctx}: arrival {} (tick {}, client {:?}) verdict diverges",
            s.arrival, s.at, s.client
        );
        assert_eq!(
            s.addr, l.addr,
            "{ctx}: arrival {} located a different address",
            s.arrival
        );
    }

    // Aggregate counters: exact where no racy churn exists, bounded by
    // the at-risk operation count otherwise.
    let ops_counters: [(&str, Counter); 4] = [
        ("completed", |p| p.locates_completed),
        ("hits", |p| p.hits),
        ("misses", |p| p.misses),
        ("unresolved", |p| p.unresolved),
    ];
    for (label, f) in ops_counters {
        let (a, b) = (total(&p.sim, f), total(&p.live, f));
        assert!(
            diff(a, b) <= risk,
            "{ctx}: {label} totals sim={a} live={b} exceed at-risk bound {risk}"
        );
    }

    // Retry accounting. Every issued locate beyond the primary arrivals
    // is a stale-recovery retry: under lock-step execution a migration
    // can never land between a locate and its follow-up request, so the
    // live runner must issue *zero* retries, and the simulator's retries
    // are bounded by its stale bounces (one retry per bounce, at most)
    // and by the at-risk window count (bounces only happen near
    // migrations).
    let sim_issued = total(&p.sim, |p| p.locates_issued);
    let live_issued = total(&p.live, |p| p.locates_issued);
    let sim_stale = total(&p.sim, |p| p.stale_requests);
    let sim_retries = sim_issued - p.sim_log.len() as u64;
    let live_retries = live_issued - p.live_log.len() as u64;
    assert_eq!(
        live_retries, 0,
        "{ctx}: lock-step execution cannot bounce on a stale address"
    );
    assert!(
        sim_retries <= sim_stale,
        "{ctx}: {sim_retries} retries cannot exceed {sim_stale} stale bounces"
    );
    assert!(
        sim_retries <= risk,
        "{ctx}: {sim_retries} retries exceed the at-risk bound {risk}"
    );

    if windows.is_empty() {
        // Concurrency-free scenario: everything must agree exactly.
        let exact: [(&str, Counter); 6] = [
            ("message_passes", |p| p.message_passes),
            ("sends", |p| p.sends),
            ("delivered", |p| p.delivered),
            ("dropped", |p| p.dropped),
            ("events_executed", |p| p.events_executed),
            ("issued", |p| p.locates_issued),
        ];
        for (label, f) in exact {
            assert_eq!(
                total(&p.sim, f),
                total(&p.live, f),
                "{ctx}: churn-free {label} totals must be equal"
            );
        }
        // message passes are attributed at send time in both runtimes, so
        // even the per-phase split must line up
        for (ps, pl) in p.sim.phases.iter().zip(&p.live.phases) {
            assert_eq!(
                ps.message_passes, pl.message_passes,
                "{ctx}: phase {:?} message passes diverge",
                ps.name
            );
        }
        // Closed-loop churn-free runs must agree on the *entire* latency
        // accounting: the live driver's virtual-elapsed model (0 for pure
        // self-queries, 2 otherwise, timeout for unresolved) is exactly
        // the simulator's measured elapsed when nothing crashes, so every
        // percentile, window and counter is byte-equal.
        if p.spec.clients.is_some() {
            for (ps, pl) in p.sim.phases.iter().zip(&p.live.phases) {
                assert_eq!(
                    ps.closed_loop, pl.closed_loop,
                    "{ctx}: phase {:?} closed-loop stats diverge",
                    ps.name
                );
            }
            assert_eq!(
                p.sim.windows, p.live.windows,
                "{ctx}: time-series windows diverge"
            );
            assert_eq!(p.sim.clients, p.live.clients);
        }
    } else {
        // Bounded divergence: at worst every at-risk operation re-runs its
        // whole chain — a locate (2·|Q| passes, |Q| ≤ 2·√n − 1 for the
        // checkerboard) plus a request round trip, twice over.
        let chain_cost = 2 * (2 * (2 * int_sqrt(p.sim.n) - 1) + 2);
        let passes_bound = risk.max(1) * chain_cost;
        let (a, b) = (
            total(&p.sim, |p| p.message_passes),
            total(&p.live, |p| p.message_passes),
        );
        assert!(
            diff(a, b) <= passes_bound,
            "{ctx}: message passes sim={a} live={b} exceed bound {passes_bound} (risk {risk})"
        );
    }

    // Schema echo: both runtimes describe the same experiment.
    assert_eq!(p.sim.scenario, p.live.scenario);
    assert_eq!(p.sim.n, p.live.n);
    assert_eq!(p.sim.seed, p.live.seed);
    assert_eq!(p.sim.horizon, p.live.horizon);
    assert_eq!(
        p.sim.predicted_passes_per_locate,
        p.live.predicted_passes_per_locate
    );
    assert_eq!(p.sim.phases.len(), p.live.phases.len());
}

/// Integer √ for the checkerboard's |Q| = 2·√n − 1 bound.
fn int_sqrt(n: u64) -> u64 {
    (n as f64).sqrt().ceil() as u64
}

fn check_scenario(name: &str) {
    for &n in &SIZES {
        for &seed in &SEEDS {
            let p = run_pair(name, n, seed);
            check_pair(&p, &format!("{name} n={n} seed={seed}"));
        }
    }
}

#[test]
fn steady_state_agrees_exactly() {
    check_scenario("steady-state");
}

#[test]
fn flash_crowd_agrees_exactly() {
    check_scenario("flash-crowd");
}

#[test]
fn cold_vs_warm_cache_agrees_exactly() {
    check_scenario("cold-vs-warm-cache");
}

#[test]
fn rolling_churn_agrees_outside_crash_windows() {
    check_scenario("rolling-churn");
}

#[test]
fn migrate_under_load_agrees_outside_migration_windows() {
    check_scenario("migrate-under-load");
}

/// Closed-loop conformance: the churn-free overload ramp must agree
/// *exactly* across the runtimes — per-operation verdicts and addresses,
/// every message counter, and (via `check_pair`'s closed-loop section)
/// the full latency/queueing-delay percentile surface and time-series
/// windows. This is the satellite acceptance for the client-pool model:
/// queueing delay is computed by the shared pool, so if either runtime's
/// notion of virtual time slipped by even one tick, the percentiles (and
/// the RNG draw order behind the dispatch sequence) would diverge.
#[test]
fn closed_loop_overload_ramp_agrees_exactly() {
    for &(n, seed) in &[(16usize, 7u64), (16, 11), (64, 7), (64, 42), (256, 7)] {
        let p = run_pair("overload-ramp", n, seed);
        check_pair(&p, &format!("overload-ramp n={n} seed={seed}"));
    }
}

/// A second churn-free closed-loop shape, exercising the *random* think
/// law (exponential draws consume the RNG at verdict-processing time, so
/// this catches any cross-runtime slip in the order verdicts are read).
#[test]
fn closed_loop_exponential_think_agrees_exactly() {
    for &n in &[16usize, 64] {
        let mut spec = scenarios::steady_state(13);
        spec.clients = Some(ClientModel {
            clients: 8,
            think: ThinkTime::Exponential { mean: 3.0 },
            retry_budget: 2,
            retry_backoff: 8,
            window: 400,
        });
        let p = run_pair_spec(spec, n);
        check_pair(&p, &format!("steady-state+pool n={n}"));
        // the pool actually engaged: every phase carries closed-loop stats
        assert!(p.sim.phases.iter().all(|ph| ph.closed_loop.is_some()));
    }
}

/// The two runtimes must also agree with *themselves*: a second live run
/// with the same seed reproduces the identical operation log (the live
/// lock-step driver is deterministic, not merely statistically close).
#[test]
fn live_op_log_is_deterministic() {
    let spec = scenarios::by_name("rolling-churn", 64, 11).unwrap();
    let (_, a) = ScenarioRunner::over(
        spec.clone(),
        LiveRuntime::new(64, Checkerboard::new(64)),
        "checkerboard",
    )
    .run_logged();
    let (_, b) = ScenarioRunner::over(
        spec,
        LiveRuntime::new(64, Checkerboard::new(64)),
        "checkerboard",
    )
    .run_logged();
    assert_eq!(a, b);
}
