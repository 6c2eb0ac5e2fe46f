//! Campaign driver: expands an experiment ID to its run cross-product
//! and executes it in parallel, one JSON file per run.
//!
//! ```text
//! campaign --list
//! campaign core-matrix --out runs/ --jobs 4
//! campaign ci-smoke --out runs/ --dry-run
//! ```
//!
//! Every per-run file is byte-identical to the stdout of the equivalent
//! single `scenarios` invocation at the same seed (same code path —
//! `mm_workload::drive`), so existing single-run tooling reads campaign
//! output unchanged. Exit status: 0 when every run produced its file,
//! 1 when any run failed, 2 on invalid invocation.

use mm_campaign::{by_id, execute, EXPERIMENTS};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: campaign EXPERIMENT_ID --out DIR [--jobs N] [--budget-secs S] [--dry-run] [--verbose]\n\
         usage: campaign --list\n\n\
         --budget-secs S stops dispatching new runs once S seconds of wall clock\n\
         have elapsed; undispatched runs are recorded as skipped in the output\n\
         directory's manifest.json (completed files stay byte-identical to an\n\
         unbudgeted campaign's, and aggregation accepts the partial set)\n\nexperiments:"
    );
    for e in EXPERIMENTS {
        eprintln!("  {:<18} {} [{} runs]", e.id, e.description, e.runs());
    }
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        for e in EXPERIMENTS {
            println!("{:<18} {} [{} runs]", e.id, e.description, e.runs());
        }
        return;
    }
    let mut id: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut budget: Option<Duration> = None;
    let mut dry_run = false;
    let mut verbose = false;
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => out = Some(PathBuf::from(value(&argv, &mut i))),
            "--jobs" => {
                jobs = value(&argv, &mut i)
                    .parse()
                    .ok()
                    .filter(|&j: &usize| j > 0)
                    .unwrap_or_else(|| usage());
            }
            "--budget-secs" => {
                budget = Some(
                    value(&argv, &mut i)
                        .parse()
                        .ok()
                        .map(Duration::from_secs)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--dry-run" => dry_run = true,
            "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            positional if id.is_none() => id = Some(positional.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let Some(id) = id else { usage() };
    let Some(experiment) = by_id(&id) else {
        eprintln!("error: unknown experiment `{id}`");
        usage();
    };
    let configs = experiment.expand();
    if dry_run {
        for cfg in &configs {
            println!("{}", cfg.label());
        }
        return;
    }
    let Some(out) = out else {
        eprintln!("error: --out DIR is required to execute (or use --dry-run)");
        usage();
    };
    eprintln!(
        "campaign: {id}: {} runs across {} worker(s) -> {}",
        configs.len(),
        jobs.min(configs.len().max(1)),
        out.display()
    );
    let report = execute(&configs, &out, jobs, verbose, budget).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if !report.all_ok() {
        for (label, e) in &report.failures {
            eprintln!("error: {label}: {e}");
        }
        eprintln!(
            "campaign: {id}: {} of {} runs failed",
            report.failures.len(),
            configs.len()
        );
        std::process::exit(1);
    }
    if report.skipped.is_empty() {
        eprintln!("campaign: {id}: {} run files written", report.written.len());
    } else {
        eprintln!(
            "campaign: {id}: {} run files written, {} skipped on budget (see manifest.json)",
            report.written.len(),
            report.skipped.len()
        );
    }
}
