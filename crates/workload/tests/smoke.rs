//! End-to-end smokes on the `scenarios` code path: sizes and runtimes no
//! other suite reaches (everything here used to be a CI shell step), and
//! the binary's own exit codes.

use mm_workload::drive::{self, RunConfig, RuntimeKind};
use mm_workload::scenarios;
use std::process::Command;

/// Each row must run to a report — no panic, no `Err`, no wedged thread
/// network — inside the tier's wall-clock budget (the CI job's timeout).
#[test]
#[ignore = "release tier: n = 16,384 sweep and 256 live threads per run"]
fn large_and_live_runs_complete() {
    // (scenario, n, runtime, replication)
    let mut rows = Vec::new();
    for scenario in scenarios::ALL {
        // the default sweep at a size where a hot-path regression shows
        rows.push((scenario, 16_384, RuntimeKind::Sim, 0));
        // the full open-loop library on real threads
        rows.push((scenario, 256, RuntimeKind::Live, 0));
    }
    for scenario in scenarios::CLOSED_LOOP {
        // the saturation instrument on real threads
        rows.push((scenario, 256, RuntimeKind::Live, 0));
    }
    // the hostile set on real threads, the replicated arrangement included
    rows.push(("byzantine-liars", 256, RuntimeKind::Live, 0));
    rows.push(("rack-failure", 64, RuntimeKind::Live, 1));
    rows.push(("rendezvous-skew-closed", 64, RuntimeKind::Live, 0));

    for (scenario, n, runtime, replication) in rows {
        let mut cfg = RunConfig::new(scenario, n, 7);
        cfg.runtime = runtime;
        cfg.replication = replication;
        let report = drive::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        assert!(report.locates_completed() > 0, "{}", cfg.label());
    }
}

fn scenarios_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("the scenarios binary runs")
}

/// `scenarios trace FILE` exits 0 on a file `--trace` recorded: the span
/// costs reproduce the run's message counters (it exits 1 when they do
/// not; that the file is the same through either queue and either runtime
/// is `tests/trace_conservation.rs`).
#[test]
fn trace_subcommand_accepts_a_recorded_trace() {
    let path = std::env::temp_dir().join(format!("mm-smoke-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("temp path is UTF-8");
    let run = scenarios_bin(&[
        "--n",
        "256",
        "--seed",
        "7",
        "--scenario",
        "steady-state",
        "--trace",
        path_str,
    ]);
    assert!(run.status.success(), "{run:?}");
    let analysis = scenarios_bin(&["trace", path_str]);
    std::fs::remove_file(&path).expect("the run wrote the trace file");
    assert_eq!(analysis.status.code(), Some(0), "{analysis:?}");
    assert!(!analysis.stdout.is_empty(), "the analysis is rendered");
}

/// A flag the binary does not know is an invalid invocation, not
/// something to ignore — and the routing backend is not one it knows: the
/// table oracle is reachable through `RunConfig.router` only.
#[test]
fn unknown_flags_exit_2_with_usage() {
    let out = scenarios_bin(&["--n", "64", "--no-such-axis", "table"]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.starts_with("usage: scenarios"), "{usage}");
    assert!(!usage.contains("router"), "{usage}");
    assert!(out.stdout.is_empty());
}

/// `--shards` / `--shard-threads` are off the usage text but still
/// parsed, because the benchmark's `closed-sharded` workload passes them:
/// they select nothing, and say so.
#[test]
fn shard_flags_are_accepted_and_inert() {
    let base = ["--n", "64", "--seed", "7", "--scenario", "overload-ramp"];
    let default = scenarios_bin(&base);
    let aliased = scenarios_bin(&[&base[..], &["--shards", "16", "--shard-threads", "2"]].concat());
    assert_eq!(aliased.status.code(), Some(0), "{aliased:?}");
    assert!(!default.stdout.is_empty());
    assert_eq!(aliased.stdout, default.stdout);
    let note = String::from_utf8_lossy(&aliased.stderr);
    assert!(
        note.contains("note: --shards and --shard-threads"),
        "{note}"
    );
    assert!(!String::from_utf8_lossy(&default.stderr).contains("note:"));
    // the values are still validated as numbers
    assert_eq!(scenarios_bin(&["--shards", "many"]).status.code(), Some(2));
}
