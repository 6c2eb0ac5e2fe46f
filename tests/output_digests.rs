//! The output-digest corpus: every byte a committed list of `scenarios`
//! invocations prints, pinned as one FNV-1a 64 digest per invocation.
//!
//! `tests/output_digests.txt` holds one line per invocation: the digest
//! and the argument vector. This test runs each vector through the
//! CLI's own path — `drive::run_traced` and `drive::reports_to_json`
//! (the markdown table for `--records`) — and hashes what
//! `scenarios ARGS` would print on stdout; a vector with `--trace FILE`
//! hashes the trace file instead. So each digest can be checked against
//! the binary itself: `scenarios ARGS | fnv1a64`.
//!
//! The corpus cannot tell right output from wrong (the differential
//! suite, `crates/workload/tests/differential.rs`, can); it pins that
//! output did not move. A change that moves output on purpose re-pins
//! the file with the lines this test prints and names each moved digest
//! in its change notes.

use mm_obs::TraceConfig;
use mm_sim::CostModel;
use mm_workload::drive::{self, ObsOptions, RunConfig};
use mm_workload::{scenarios, ClientModel, ScenarioReport, ThinkTime};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What `scenarios ARGS` writes: stdout, or the trace file under
/// `--trace`. Only the flags the corpus uses are understood.
fn output(args: &str) -> String {
    let mut ns = vec![1024];
    let mut cfg = RunConfig::new("all", 0, 7);
    let mut obs = ObsOptions::default();
    let (mut records, mut traced) = (false, false);
    let mut words = args.split_whitespace();
    while let Some(flag) = words.next() {
        let mut value = || {
            words
                .next()
                .unwrap_or_else(|| panic!("{args}: {flag} needs a value"))
        };
        let num = |s: &str| -> usize { s.parse().unwrap_or_else(|_| panic!("{args}: {s}")) };
        match flag {
            "--n" => ns = vec![num(value())],
            "--sweep" => ns = value().split(',').map(num).collect(),
            "--seed" => cfg.seed = num(value()) as u64,
            "--scenario" => cfg.scenario = value().into(),
            "--strategy" => cfg.strategy = value().into(),
            "--topology" => cfg.topology = value().into(),
            "--cost" => {
                cfg.cost = match value() {
                    "hops" => CostModel::Hops,
                    "uniform" => CostModel::Uniform,
                    other => panic!("{args}: cost {other}"),
                }
            }
            "--queue" => cfg.queue = drive::parse_queue(value()).expect("queue"),
            "--replication" => cfg.replication = num(value()) as u64,
            // the CLI's pool defaults
            "--clients" => {
                cfg.clients = Some(ClientModel {
                    clients: num(value()),
                    think: ThinkTime::Fixed { ticks: 2 },
                    retry_budget: 1,
                    retry_backoff: 8,
                    window: 250,
                })
            }
            "--obs" => obs.obs = true,
            "--records" => records = true,
            "--trace" => {
                // the file's name: its contents are digested in memory
                value();
                traced = true;
            }
            other => panic!("{args}: the corpus does not use {other}"),
        }
    }
    if traced {
        obs.trace = Some(TraceConfig::with_rate(cfg.seed, 1.0));
    }
    let names: Vec<&str> = if cfg.scenario == "all" {
        scenarios::ALL.to_vec()
    } else {
        vec![&cfg.scenario]
    };
    let mut reports = Vec::new();
    for n in ns {
        for &scenario in &names {
            let run = RunConfig {
                scenario: scenario.into(),
                n,
                ..cfg.clone()
            };
            let (report, trace) =
                drive::run_traced(&run, &obs).unwrap_or_else(|e| panic!("{args}: {e}"));
            if let Some(trace) = trace {
                return trace.to_jsonl();
            }
            reports.push(report);
        }
    }
    if records {
        let records: Vec<_> = reports.iter().flat_map(ScenarioReport::records).collect();
        return format!("{}\n", mm_analysis::record::to_markdown(&records));
    }
    drive::reports_to_json(&reports, false)
}

#[test]
#[ignore = "release tier"]
fn every_pinned_output_reads_its_digest() {
    let corpus = include_str!("output_digests.txt");
    let mut moved = Vec::new();
    let mut count = 0;
    for line in corpus
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (pinned, args) = line.split_once("  ").expect("`DIGEST  ARGS`");
        let digest = format!("{:016x}", fnv1a64(output(args).as_bytes()));
        if digest != pinned {
            moved.push(format!("{digest}  {args}"));
        }
        count += 1;
    }
    assert!(count > 0, "an empty corpus pins nothing");
    assert!(
        moved.is_empty(),
        "{} of {count} outputs moved; re-pin only if each move is meant:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
