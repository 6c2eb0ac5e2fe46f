//! Campaign byte-identity and aggregation invariance (PR 8 tentpole).
//!
//! The campaign layer's whole claim is that parallel matrix execution
//! adds **zero** new semantics: a per-run file is the same bytes the
//! `scenarios` CLI would print for that run, runs differing only in
//! event-queue implementation or runtime are the same bytes as each
//! other, and aggregation is a pure function of run content. This suite
//! pins all three from outside the crate.

use mm_campaign::agg;
use mm_campaign::paramset::by_id;
use mm_sim::QueueKind;
use mm_workload::drive::{self, RunConfig};
use mm_workload::RuntimeKind;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_run_campaign_file_equals_direct_invocation_across_queues_and_runtimes() {
    // the full conformance cross: {calendar, btree} × {sim, live}
    for runtime in [RuntimeKind::Sim, RuntimeKind::Live] {
        let mut per_queue = Vec::new();
        for queue in [QueueKind::Calendar, QueueKind::BTree] {
            let mut cfg = RunConfig::new("steady-state", 48, 7);
            cfg.queue = queue;
            cfg.runtime = runtime;
            let dir = scratch(&format!("identity-{}", cfg.label()));
            let report =
                mm_campaign::execute(std::slice::from_ref(&cfg), &dir, 1, false, None).unwrap();
            assert!(report.all_ok(), "{:?}", report.failures);
            let campaign_bytes = std::fs::read_to_string(&report.written[0]).unwrap();
            // the same bytes `scenarios --scenario steady-state --n 48
            // --seed 7 --queue … --runtime …` prints: same code path
            let direct = drive::reports_to_json(&[drive::run(&cfg).unwrap()], false);
            assert_eq!(
                campaign_bytes,
                direct,
                "{}: campaign file differs from direct invocation",
                cfg.label()
            );
            per_queue.push((cfg.label(), campaign_bytes));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // the event-queue implementation must not leak into the report:
        // calendar and btree bytes identical within each runtime (the
        // runtimes themselves differ only in the topology label and the
        // live runner's absent event queue — see
        // tests/live_workload_equivalence.rs for that contract)
        assert_eq!(
            per_queue[0].1, per_queue[1].1,
            "{} and {} disagree — queue conformance broken",
            per_queue[0].0, per_queue[1].0
        );
    }
}

#[test]
fn core_matrix_expands_executes_and_aggregates() {
    // the acceptance shape: one ID -> >= 16 parallel runs -> one table;
    // sizes here are scaled down (n=16/24) to keep the suite fast while
    // exercising the same pipeline the real core-matrix uses
    let experiment = by_id("core-matrix").unwrap();
    assert!(experiment.runs() >= 16, "acceptance: >= 16 runs");

    let mut configs = experiment.expand();
    for cfg in &mut configs {
        cfg.n = if cfg.n == 64 { 16 } else { 24 };
    }
    let dir = scratch("matrix");
    let report = mm_campaign::execute(&configs, &dir, 4, false, None).unwrap();
    assert!(report.all_ok(), "{:?}", report.failures);
    assert_eq!(report.written.len(), 16);

    let agg = agg::load_dir(&dir).unwrap();
    assert!(agg.violations.is_empty(), "{:?}", agg.violations);
    assert_eq!(agg.unique.len(), 16);
    // 2 scenarios × 2 sizes × 2 strategies = 8 cells, each over 2 seeds
    assert_eq!(agg.records().len(), 8);
    let rendered = agg.render();
    assert!(rendered.contains("theory vs measured"), "{rendered}");
    let snapshot = agg.bench_json();
    agg.check(&snapshot).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aggregation_is_order_independent_over_shuffled_run_files() {
    let dir = scratch("shuffle");
    std::fs::create_dir_all(&dir).unwrap();
    // write the same three runs under adversarially-ordered names
    let mut paths = Vec::new();
    for (name, seed) in [("zz", 7u64), ("aa", 11), ("mm", 13)] {
        let cfg = RunConfig::new("flash-crowd", 24, seed);
        let r = drive::run(&cfg).unwrap();
        let p = dir.join(format!("{name}.json"));
        std::fs::write(&p, drive::reports_to_json(&[r], false)).unwrap();
        paths.push(p);
    }
    let fwd = agg::load(&paths).unwrap();
    paths.reverse();
    let rev = agg::load(&paths).unwrap();
    paths.swap(0, 1);
    let mixed = agg::load(&paths).unwrap();
    assert_eq!(fwd.render(), rev.render());
    assert_eq!(fwd.render(), mixed.render());
    assert_eq!(fwd.bench_json(), rev.bench_json());
    assert_eq!(fwd.bench_json(), mixed.bench_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs experiment `id` in full and holds it against its committed
/// snapshot: every run dispatched and written, runs that differ only in an
/// output-invariant axis byte-identical, deterministic counts equal.
fn assert_campaign_reproduces(id: &str, committed: &str) {
    let dir = scratch(id);
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    let report =
        mm_campaign::execute(&by_id(id).unwrap().expand(), &dir, jobs, false, None).unwrap();
    assert!(report.all_ok(), "{id}: {:?}", report.failures);
    assert!(report.skipped.is_empty(), "{id}: {:?}", report.skipped);
    let agg = agg::load_dir(&dir).unwrap();
    assert!(agg.violations.is_empty(), "{id}: {:?}", agg.violations);
    agg.check(committed)
        .unwrap_or_else(|drift| panic!("{id}: counts drifted from the snapshot:\n{drift}"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ci_smoke_campaign_reproduces_bench_8() {
    assert_campaign_reproduces("ci-smoke", include_str!("../BENCH_8.json"));
}

/// The campaigns too large for a debug build: both event queues at
/// n = 16,384 and 65,536, the topology × cost matrix, and the analytic
/// routers up to n = 1,048,576.
#[test]
#[ignore = "release tier: 64 runs, n up to 1,048,576"]
fn release_campaigns_reproduce_their_snapshots() {
    for (id, committed) in [
        ("sustained", include_str!("../BENCH_6.json")),
        ("topology-matrix", include_str!("../BENCH_9.json")),
        ("topology-scale", include_str!("../BENCH_10.json")),
    ] {
        assert_campaign_reproduces(id, committed);
    }
}
