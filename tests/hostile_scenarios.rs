//! Hostile-world acceptance suite: the fault-injection layer's three
//! adversaries — Byzantine liars, correlated rack kills and rendezvous
//! skew — checked against the guarantees the scenarios exist to
//! demonstrate.
//!
//! * `byzantine-liars` must *detect* forgeries (dissenting honest
//!   answers in the same fan-out) without letting any through as a
//!   `false_match` while the honest majority of each rendezvous row is
//!   alive;
//! * `rack-failure` must show `Replicated(f+1)` surviving exactly `f`
//!   correlated rendezvous-row kills where the base checkerboard fails —
//!   the paper's §2.4 *redundant* criterion as a phase hit-rate;
//! * every hostile scenario must be byte-identical across event-queue
//!   implementations at equal seeds, and the crash-correlated subset
//!   must agree verdict-for-verdict between the simulator and the
//!   threaded `LiveNet` runtime;
//! * churn edge cases — crashing an already-crashed host and a
//!   `RestoreAll { clear_caches }` racing a concurrent locate — must
//!   classify deterministically in both runtimes.

use match_making::core::robust::Replicated;
use match_making::prelude::*;
use mm_sim::{QueueKind, RouterKind, ShardMode};
use mm_workload::{
    scenarios, ArrivalProcess, ChurnAction, ChurnEvent, LiveRuntime, Phase, PhaseReport,
    PortPopularity, ScenarioReport, ScenarioRunner, Workload,
};

fn sim_report(spec: Workload, n: usize) -> ScenarioReport {
    ScenarioRunner::new(
        spec,
        gen::complete(n),
        Checkerboard::new(n),
        CostModel::Uniform,
        "checkerboard",
    )
    .run()
}

fn live_report(spec: Workload, n: usize) -> ScenarioReport {
    ScenarioRunner::over(
        spec,
        LiveRuntime::new(n, Checkerboard::new(n)),
        "checkerboard",
    )
    .run()
}

fn phase<'a>(r: &'a ScenarioReport, name: &str) -> &'a PhaseReport {
    r.phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no phase {name:?}"))
}

/// Acceptance: at n = 256 the eight forgers are caught — nonzero
/// `detected_lie`, zero `false_match` escapes — because every rendezvous
/// row keeps an honest majority and dissent exposes the forged stamp.
/// The live runtime agrees on both counters.
#[test]
fn byzantine_liars_detected_with_zero_false_matches() {
    let n = 256;
    let spec = scenarios::by_name("byzantine-liars", n, 7).unwrap();
    let sim = sim_report(spec.clone(), n);
    let rob = sim.robustness.as_ref().expect("hostile => robustness");
    assert_eq!(rob.byzantine_nodes, 8, "n/32 liars at n = 256");
    let lies: u64 = sim.phases.iter().map(|p| p.detected_lie.unwrap_or(0)).sum();
    let escapes: u64 = sim.phases.iter().map(|p| p.false_match.unwrap_or(0)).sum();
    assert!(lies > 0, "the assault must be detected at least once");
    assert_eq!(escapes, 0, "honest-majority rows must not leak forgeries");
    assert!(
        phase(&sim, "assault").detected_lie.unwrap_or(0)
            > phase(&sim, "warmup").detected_lie.unwrap_or(0),
        "detection concentrates in the assault phase"
    );

    let live = live_report(spec, n);
    let live_lies: u64 = live
        .phases
        .iter()
        .map(|p| p.detected_lie.unwrap_or(0))
        .sum();
    let live_escapes: u64 = live.phases.iter().map(|p| p.false_match.unwrap_or(0)).sum();
    assert_eq!(live_lies, lies, "sim and live agree on detections");
    assert_eq!(live_escapes, 0, "no escapes under the live runtime either");
}

/// Acceptance: `Replicated(2)` tolerates exactly one correlated
/// rendezvous-row kill. The scenario kills the victim service's whole
/// rendezvous band (sparing server hosts, so only match-making is
/// severed), then the band *plus* its Replicated(2) shifted copy:
///
/// * base checkerboard (`max_tolerated_faults = 0`) fails during both
///   kill windows;
/// * the replicated strategy (`max_tolerated_faults = 1`) rides out the
///   single-row kill untouched and fails only when both copies die.
#[test]
fn rack_failure_replication_buys_exactly_f_tolerated_kills() {
    let n = 64; // perfect square: stride n/2 is exactly w/2 rows
    let spec = scenarios::by_name("rack-failure", n, 7).unwrap();

    let base = sim_report(spec.clone(), n);
    let mut rep_runner = ScenarioRunner::new(
        spec,
        gen::complete(n),
        Replicated::new(Checkerboard::new(n), 2),
        CostModel::Uniform,
        "checkerboard-r2",
    );
    rep_runner.enable_robustness(2);
    let rep = rep_runner.run();

    let base_rob = base.robustness.as_ref().unwrap();
    let rep_rob = rep.robustness.as_ref().unwrap();
    assert_eq!(base_rob.max_tolerated_faults, 0, "base tolerates nothing");
    assert_eq!(rep_rob.max_tolerated_faults, 1, "f + 1 = 2 copies");

    // one rack down: base fails, replication is whole
    let b1 = phase(&base, "one-rack");
    let r1 = phase(&rep, "one-rack");
    assert!(
        b1.unresolved > 0 && b1.hit_rate < 1.0,
        "base must fail during one-rack: {} unresolved, hit rate {}",
        b1.unresolved,
        b1.hit_rate
    );
    assert_eq!(
        r1.unresolved, 0,
        "Replicated(2) must survive one rendezvous-row kill"
    );
    assert!((r1.hit_rate - 1.0).abs() < 1e-12, "replicated hit rate 1.0");

    // both aligned copies down: f + 1 kills defeat Replicated(2) too
    let r2 = phase(&rep, "two-racks");
    assert!(
        r2.unresolved > 0,
        "killing both copies must exceed the tolerance bound"
    );

    // base survival dips below 1 while the dead rows sever alive pairs
    assert!(
        base_rob.min_survival_fraction < 1.0,
        "severed pairs must register: {}",
        base_rob.min_survival_fraction
    );
}

/// CI determinism gate: every hostile scenario, open- and closed-loop,
/// serializes byte-identically across the calendar queue and the
/// `BTreeMap` reference queue at two seeds.
#[test]
fn hostile_reports_byte_identical_across_queues() {
    let n = 48;
    for name in scenarios::HOSTILE {
        for seed in [7u64, 23] {
            let spec = scenarios::by_name(name, n, seed).unwrap();
            let json = |queue: QueueKind| {
                let r = ScenarioRunner::with_router(
                    spec.clone(),
                    gen::complete(n),
                    Checkerboard::new(n),
                    CostModel::Uniform,
                    "checkerboard",
                    queue,
                    ShardMode::Single,
                    RouterKind::Auto,
                )
                .run();
                serde_json::to_string(&r)
            };
            assert_eq!(
                json(QueueKind::Calendar),
                json(QueueKind::BTree),
                "{name} seed {seed}: queue choice leaked into the report"
            );
        }
    }
}

/// Sim ↔ live conformance for the crash-correlated subset: both runtimes
/// issue the same schedule, agree on the Byzantine counters, and both see
/// failures exactly in the kill windows.
#[test]
fn rack_failure_sim_and_live_agree_on_verdict_shape() {
    let n = 48;
    let spec = scenarios::by_name("rack-failure", n, 7).unwrap();
    let sim = sim_report(spec.clone(), n);
    let live = live_report(spec, n);
    assert_eq!(sim.phases.len(), live.phases.len());
    for (s, l) in sim.phases.iter().zip(&live.phases) {
        assert_eq!(s.name, l.name);
        assert_eq!(
            s.locates_issued, l.locates_issued,
            "{}: same seeded arrival schedule",
            s.name
        );
        assert_eq!(s.detected_lie, l.detected_lie, "{}", s.name);
        assert_eq!(s.false_match, l.false_match, "{}", s.name);
    }
    for r in [&sim, &live] {
        assert_eq!(phase(r, "warmup").unresolved, 0);
        assert!(phase(r, "one-rack").unresolved > 0, "kill window fails");
        assert!(phase(r, "two-racks").unresolved > 0, "kill window fails");
    }
}

/// A spec that crashes port 0's server, then "crashes" it again while it
/// is already down, then restores everything with cold caches exactly one
/// tick after a locate was issued (the restore races the in-flight
/// operation).
fn churn_edge_spec(seed: u64) -> Workload {
    Workload {
        name: "churn-edges".into(),
        seed,
        ports: 4,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warmup", 100, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("storm", 200, ArrivalProcess::FixedRate { interval: 1 }),
            Phase::new("after", 100, ArrivalProcess::FixedRate { interval: 4 }),
        ],
        churn: vec![
            ChurnEvent {
                at: 120,
                action: ChurnAction::CrashServer { port_index: 0 },
            },
            // the host is already down: must be a deterministic no-op
            ChurnEvent {
                at: 140,
                action: ChurnAction::CrashServer { port_index: 0 },
            },
            // lands mid-storm: locates issued at ticks 159/160 are still
            // in flight when every node restarts with a cold cache
            ChurnEvent {
                at: 160,
                action: ChurnAction::RestoreAll { clear_caches: true },
            },
        ],
        refresh_interval: Some(50),
        request_after_locate: false,
        op_timeout: 64,
        clients: None,
        faults: vec![],
    }
}

/// Crashing an already-crashed host and restoring into a concurrent
/// locate must classify identically on every run and every queue — the
/// edge cases cannot introduce scheduler dependence.
#[test]
fn churn_edge_cases_are_deterministic_in_the_simulator() {
    let n = 36;
    let spec = churn_edge_spec(11);
    let json = |queue: QueueKind| {
        let r = ScenarioRunner::with_router(
            spec.clone(),
            gen::complete(n),
            Checkerboard::new(n),
            CostModel::Uniform,
            "checkerboard",
            queue,
            ShardMode::Single,
            RouterKind::Auto,
        )
        .run();
        serde_json::to_string(&r)
    };
    let a = json(QueueKind::Calendar);
    assert_eq!(a, json(QueueKind::Calendar), "repeat run");
    assert_eq!(a, json(QueueKind::BTree), "queue cross-check");

    // the double-crash is a no-op: exactly one crash lands at tick 120
    let r = sim_report(spec, n);
    let crashes: u64 = r.phases.iter().map(|p| p.crashes).sum();
    assert_eq!(crashes, 1, "second CrashServer on a dead host is a no-op");
}

/// The same edge-case spec through the threaded runtime: byte-stable
/// across repeat runs, and the live runtime agrees with the simulator
/// that the duplicate crash lands exactly once.
#[test]
fn churn_edge_cases_are_deterministic_in_the_live_runtime() {
    let n = 36;
    let spec = churn_edge_spec(11);
    let live = live_report(spec.clone(), n);
    let again = serde_json::to_string(&live_report(spec.clone(), n));
    assert_eq!(
        serde_json::to_string(&live),
        again,
        "live runtime must be run-to-run deterministic"
    );

    let sim = sim_report(spec, n);
    let live_crashes: u64 = live.phases.iter().map(|p| p.crashes).sum();
    let sim_crashes: u64 = sim.phases.iter().map(|p| p.crashes).sum();
    assert_eq!(live_crashes, sim_crashes, "both runtimes: one real crash");
    for (s, l) in sim.phases.iter().zip(&live.phases) {
        assert_eq!(
            s.locates_issued, l.locates_issued,
            "{}: restore race must not shift the schedule",
            s.name
        );
    }
}
