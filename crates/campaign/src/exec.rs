//! The parallel campaign executor: scoped worker threads take runs by
//! a shared atomic index, one JSON file per run.
//!
//! Parallelism cannot be allowed to cost determinism, so the design keeps
//! the two orthogonal: workers race only for *which run they pick up*,
//! never inside a run. Each run is an independent, seeded, deterministic
//! simulation executed through [`mm_workload::drive`] — the same code
//! path as the `scenarios` binary — and lands in its own file named by
//! the run's canonical label. The resulting directory is a pure function
//! of the expanded paramset, whatever the thread interleaving was.
//!
//! A campaign may carry a **wall-clock budget**: once the deadline
//! passes, workers stop dispatching queued runs and record them as
//! skipped instead. A budgeted campaign still writes a complete, exact
//! prefix-closed-by-nothing *subset* of the full run set — every file
//! that exists is byte-identical to its unbudgeted twin, and the
//! [`agg`](crate::agg) pipeline is order-independent over whatever
//! subset landed. The `manifest.json` in the output directory records
//! which runs completed, failed or were skipped, so a later invocation
//! (or a human) can finish the remainder.

use mm_workload::drive::{self, RunConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one [`execute`] call did.
#[derive(Debug)]
pub struct ExecReport {
    /// Files written, in expansion order (not completion order).
    pub written: Vec<PathBuf>,
    /// Failed runs as `(label, error)`, in expansion order.
    pub failures: Vec<(String, String)>,
    /// Runs never dispatched because the time budget expired, in
    /// expansion order. Skips are not failures: a budgeted campaign that
    /// completes a clean subset exits clean.
    pub skipped: Vec<String>,
}

impl ExecReport {
    /// `true` when every *dispatched* run produced its file.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How one queued run ended.
#[derive(Debug)]
enum RunOutcome {
    Wrote(PathBuf),
    Failed(String),
    Skipped,
}

/// Runs every config, `jobs` at a time, writing
/// `<out_dir>/<label>.json` per run — each file byte-identical to the
/// stdout of the equivalent single `scenarios` invocation. Under a
/// `budget`, once it elapses the remaining runs are recorded as skipped
/// instead of dispatched (runs already in flight finish and keep their
/// files).
///
/// Each worker thread takes the next run index from one shared atomic
/// counter, in expansion order, so a slow run never idles the pool the
/// way static slicing would. `verbose` prints a completion line per run
/// to stderr (completion order, which is the one nondeterministic thing
/// here and is why it is *not* part of any artifact).
///
/// Every invocation writes `<out_dir>/manifest.json` listing completed,
/// failed and skipped run labels in expansion order — the resume ledger
/// for budget-truncated campaigns.
///
/// # Errors
///
/// An error creating the output directory, a worker panic that lost
/// runs, or writing the manifest; per-run failures are collected in the
/// report instead, so one bad cell cannot discard a half-finished
/// campaign.
pub fn execute(
    configs: &[RunConfig],
    out_dir: &Path,
    jobs: usize,
    verbose: bool,
    budget: Option<Duration>,
) -> Result<ExecReport, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let total = configs.len();
    let workers = jobs.max(1).min(total.max(1));
    let deadline = budget.map(|b| Instant::now() + b);
    let next = &AtomicUsize::new(0);

    // (idx, label, outcome) per run, gathered from each worker's return
    // value and re-sorted into expansion order afterwards
    let mut outcomes: Vec<(usize, String, RunOutcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // the index publishes no data: `configs` is
                        // shared read-only from before the spawn
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = configs.get(idx) else { break };
                        let label = cfg.label();
                        // the budget gates *dispatch*: a run either gets
                        // its full deterministic execution or none at all
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            if verbose {
                                eprintln!(
                                    "campaign: [{}/{total}] {label}: skipped (budget exhausted)",
                                    idx + 1
                                );
                            }
                            done.push((idx, label, RunOutcome::Skipped));
                            continue;
                        }
                        let outcome = match run_to_file(cfg, out_dir) {
                            Ok(path) => RunOutcome::Wrote(path),
                            Err(e) => RunOutcome::Failed(e),
                        };
                        if verbose {
                            match &outcome {
                                RunOutcome::Failed(e) => {
                                    eprintln!("campaign: [{}/{total}] {label}: {e}", idx + 1)
                                }
                                _ => eprintln!("campaign: [{}/{total}] {label}", idx + 1),
                            }
                        }
                        done.push((idx, label, outcome));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    outcomes.sort_by_key(|(idx, _, _)| *idx);
    if outcomes.len() != total {
        // only possible if a worker panicked mid-queue; the runs it had
        // claimed are lost and must be reported, not silently dropped
        let seen: Vec<usize> = outcomes.iter().map(|(i, _, _)| *i).collect();
        let lost: Vec<String> = (0..total)
            .filter(|i| !seen.contains(i))
            .map(|i| configs[i].label())
            .collect();
        return Err(format!("worker panic lost runs: {}", lost.join(", ")));
    }

    let mut report = ExecReport {
        written: Vec::new(),
        failures: Vec::new(),
        skipped: Vec::new(),
    };
    for (_, label, outcome) in outcomes {
        match outcome {
            RunOutcome::Wrote(path) => report.written.push(path),
            RunOutcome::Failed(e) => report.failures.push((label, e)),
            RunOutcome::Skipped => report.skipped.push(label),
        }
    }
    write_manifest(&report, total, out_dir)?;
    Ok(report)
}

/// The campaign ledger: run dispositions in expansion order. Content is
/// a pure function of the outcome set (no timestamps), so an unbudgeted
/// re-run reproduces it byte for byte.
#[derive(Debug, serde::Serialize)]
struct Manifest {
    total: usize,
    completed: Vec<String>,
    skipped: Vec<String>,
    failures: Vec<ManifestFailure>,
}

#[derive(Debug, serde::Serialize)]
struct ManifestFailure {
    label: String,
    error: String,
}

fn write_manifest(report: &ExecReport, total: usize, out_dir: &Path) -> Result<(), String> {
    let manifest = Manifest {
        total,
        completed: report
            .written
            .iter()
            .map(|p| {
                p.file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            })
            .collect(),
        skipped: report.skipped.clone(),
        failures: report
            .failures
            .iter()
            .map(|(label, error)| ManifestFailure {
                label: label.clone(),
                error: error.clone(),
            })
            .collect(),
    };
    let path = out_dir.join("manifest.json");
    let json = serde_json::to_string_pretty(&manifest);
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One run, one file: exactly the bytes `scenarios … > file` would leave.
fn run_to_file(cfg: &RunConfig, out_dir: &Path) -> Result<PathBuf, String> {
    let report = drive::run(cfg)?;
    let path = out_dir.join(format!("{}.json", cfg.label()));
    let json = drive::reports_to_json(&[report], false);
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mm-campaign-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_files_equal_serial_runs() {
        let configs: Vec<RunConfig> = [7u64, 11, 13]
            .iter()
            .map(|&seed| RunConfig::new("steady-state", 32, seed))
            .collect();
        let dir = scratch("parallel");
        let rep = execute(&configs, &dir, 3, false, None).unwrap();
        assert!(rep.all_ok());
        assert!(rep.skipped.is_empty());
        assert_eq!(rep.written.len(), 3);
        for (cfg, path) in configs.iter().zip(&rep.written) {
            let got = std::fs::read_to_string(path).unwrap();
            let want = drive::reports_to_json(&[drive::run(cfg).unwrap()], false);
            assert_eq!(
                got,
                want,
                "{}: campaign file differs from direct run",
                cfg.label()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_run_failures_do_not_abort_the_campaign() {
        let good = RunConfig::new("steady-state", 32, 7);
        let bad = RunConfig::new("no-such-scenario", 32, 7);
        let dir = scratch("failures");
        let rep = execute(&[good.clone(), bad], &dir, 2, false, None).unwrap();
        assert_eq!(rep.written.len(), 1);
        assert_eq!(rep.failures.len(), 1);
        assert!(rep.failures[0].0.starts_with("no-such-scenario"));
        assert!(dir.join(format!("{}.json", good.label())).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_campaign_writes_an_empty_manifest() {
        let dir = scratch("empty");
        let rep = execute(&[], &dir, 4, false, None).unwrap();
        assert!(rep.written.is_empty() && rep.failures.is_empty() && rep.skipped.is_empty());
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"total\": 0"), "{manifest}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn more_jobs_than_runs_writes_each_run_once_in_expansion_order() {
        let configs: Vec<RunConfig> = [13u64, 7, 11]
            .iter()
            .map(|&seed| RunConfig::new("steady-state", 32, seed))
            .collect();
        let dir = scratch("overjobbed");
        let rep = execute(&configs, &dir, 8, false, None).unwrap();
        let labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        let want: Vec<PathBuf> = labels
            .iter()
            .map(|l| dir.join(format!("{l}.json")))
            .collect();
        assert_eq!(rep.written, want);
        // three distinct run files and the manifest, nothing else
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4);
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let at: Vec<usize> = labels
            .iter()
            .map(|l| manifest.find(&format!("\"{l}\"")).unwrap())
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{manifest}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_budget_skips_runs_and_records_the_manifest() {
        let configs: Vec<RunConfig> = (0..6)
            .map(|seed| RunConfig::new("steady-state", 32, seed))
            .collect();
        let dir = scratch("budget");
        // a zero budget is already exhausted at dispatch: every run skips
        let rep = execute(&configs, &dir, 2, false, Some(Duration::ZERO)).unwrap();
        assert!(rep.all_ok(), "skips are not failures");
        assert!(rep.written.is_empty());
        assert_eq!(rep.skipped.len(), 6);
        // skips are recorded in expansion order
        let labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        assert_eq!(rep.skipped, labels);
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains(&labels[5]), "manifest lists skipped runs");
        assert!(manifest.contains("\"total\": 6"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_budgeted_campaign_files_equal_their_unbudgeted_twins() {
        let configs: Vec<RunConfig> = (0..4)
            .map(|seed| RunConfig::new("steady-state", 32, seed))
            .collect();
        let full_dir = scratch("budget-full");
        let part_dir = scratch("budget-part");
        execute(&configs, &full_dir, 2, false, None).unwrap();
        // generous budget: everything completes; the point is that a
        // budgeted run's files are the same bytes as an unbudgeted one's
        let rep = execute(
            &configs,
            &part_dir,
            2,
            false,
            Some(Duration::from_secs(600)),
        )
        .unwrap();
        assert!(rep.all_ok());
        // the manifest rides alongside the run files without confusing
        // the aggregator, and grouping is label-keyed, so any subset of
        // the full run set aggregates cleanly
        let agg = crate::agg::load_dir(&part_dir).unwrap();
        assert_eq!(agg.unique.len(), rep.written.len());
        for cfg in &configs {
            let name = format!("{}.json", cfg.label());
            if part_dir.join(&name).exists() {
                assert_eq!(
                    std::fs::read_to_string(part_dir.join(&name)).unwrap(),
                    std::fs::read_to_string(full_dir.join(&name)).unwrap(),
                    "{name}: budgeted file differs from unbudgeted"
                );
            }
        }
        std::fs::remove_dir_all(&full_dir).unwrap();
        std::fs::remove_dir_all(&part_dir).unwrap();
    }
}
