//! Order-independent aggregation of per-run campaign JSON.
//!
//! A campaign directory is a bag of single-run files; this module joins
//! them back into the tables the paper prints. Three properties carry the
//! weight:
//!
//! * **Order independence** — every output is sorted by run *content*
//!   (scenario, strategy, topology, n, seed), never by filename or read
//!   order, so shuffled or renamed run files aggregate identically.
//! * **Conformance gating** — a run's JSON deliberately omits the event
//!   queue and runtime axes, because the repo's core contract is that
//!   they cannot change the bytes. The aggregator enforces that: two runs
//!   with the same content key but different content are a determinism
//!   violation, not something to average over.
//! * **Deterministic trajectory** — [`Aggregate::bench_json`] contains
//!   only seed-determined quantities (event counts, message passes), so
//!   CI can diff it against a committed `BENCH_8.json` snapshot with
//!   [`Aggregate::check`] and fail on any drift.

use mm_analysis::fit::log_log_slope;
use mm_analysis::record::{self, ExperimentRecord};
use mm_analysis::stats::Summary;
use mm_analysis::Table;
use mm_workload::ScenarioReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Content key of a run: everything its JSON pins. Queue and runtime are
/// deliberately absent — see the module docs.
type RunKey = (String, String, String, u64, u64);

fn key_of(r: &ScenarioReport) -> RunKey {
    (
        r.scenario.clone(),
        r.strategy.clone(),
        r.topology.clone(),
        r.n,
        r.seed,
    )
}

/// One unique run after deduplication, with how many byte-identical
/// copies (e.g. across queue implementations) backed it.
#[derive(Debug, Clone)]
pub struct UniqueRun {
    /// The parsed report.
    pub report: ScenarioReport,
    /// How many input files carried this exact content.
    pub replicas: usize,
}

/// One case of the deterministic `BENCH_8.json` trajectory entry. Every
/// field is a pure function of the run's seed and config — no wall-clock
/// quantities — so the file diffs clean across machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Scenario name.
    pub scenario: String,
    /// Strategy label.
    pub strategy: String,
    /// Topology label.
    pub topology: String,
    /// Node count.
    pub n: u64,
    /// Master seed.
    pub seed: u64,
    /// Byte-identical input files behind this case.
    pub replicas: u64,
    /// Deterministic simulator events executed.
    pub events: u64,
    /// Deterministic total message passes.
    pub message_passes: u64,
    /// Deterministic completed locates.
    pub locates: u64,
}

/// The `BENCH_8.json` envelope, shaped like the `BENCH_6.json` perf
/// trajectory (`{"bench": …, "cases": […]}`) so tooling reads both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Trajectory name.
    pub bench: String,
    /// Per-run deterministic cases, sorted by content key.
    pub cases: Vec<BenchCase>,
}

/// The joined view of a campaign directory.
#[derive(Debug)]
pub struct Aggregate {
    /// Unique runs, sorted by content key.
    pub unique: Vec<UniqueRun>,
    /// Determinism violations: same content key, different content.
    pub violations: Vec<String>,
}

/// Parses one run file: a JSON array of scenario reports (the `scenarios`
/// stdout format; campaign files hold exactly one element).
fn parse_file(path: &Path) -> Result<Vec<ScenarioReport>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))?;
    Deserialize::from_value(&value).map_err(|e| format!("decoding {}: {e:?}", path.display()))
}

/// Joins run files into an [`Aggregate`]. Input order is irrelevant.
///
/// # Errors
///
/// An unreadable or unparsable file (a *violating* file is not an error
/// here — it lands in [`Aggregate::violations`] so the caller can report
/// every clash at once, not just the first).
pub fn load(paths: &[PathBuf]) -> Result<Aggregate, String> {
    // canonical re-serialization is the comparison currency: the
    // serializer is deterministic, so equal content <=> equal canon
    // bytes, and a campaign file's canon equals its on-disk bytes
    let mut groups: BTreeMap<RunKey, (ScenarioReport, String, usize, Vec<String>)> =
        BTreeMap::new();
    for path in paths {
        for report in parse_file(path)? {
            let key = key_of(&report);
            let canon = serde_json::to_string(&report);
            match groups.get_mut(&key) {
                None => {
                    groups.insert(key, (report, canon, 1, vec![path.display().to_string()]));
                }
                Some((_, first, replicas, sources)) => {
                    sources.push(path.display().to_string());
                    if *first == canon {
                        *replicas += 1;
                    } else {
                        *replicas = usize::MAX; // poison: clash recorded below
                    }
                }
            }
        }
    }
    let mut unique = Vec::new();
    let mut violations = Vec::new();
    for ((scenario, strategy, _, n, seed), (report, _, replicas, sources)) in groups {
        if replicas == usize::MAX {
            violations.push(format!(
                "{scenario}/{strategy} n={n} seed={seed}: runs that must be byte-identical \
                 disagree across {}",
                sources.join(", ")
            ));
        } else {
            unique.push(UniqueRun { report, replicas });
        }
    }
    Ok(Aggregate { unique, violations })
}

/// [`load`] over every `*.json` directly inside `dir`, excluding the
/// executor's `manifest.json` ledger (which is campaign bookkeeping,
/// not a run report).
///
/// # Errors
///
/// An unreadable directory or file.
pub fn load_dir(dir: &Path) -> Result<Aggregate, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.file_name().is_none_or(|f| f != "manifest.json"))
        .collect();
    if paths.is_empty() {
        return Err(format!("{}: no run files (*.json)", dir.display()));
    }
    paths.sort();
    load(&paths)
}

/// One row of the theory-vs-measured table: a `(scenario, strategy,
/// topology, n)` cell summarized across its seeds.
struct Cell {
    scenario: String,
    strategy: String,
    n: u64,
    seeds: usize,
    predicted: f64,
    measured: Summary,
}

impl Aggregate {
    /// Total input files behind the unique runs.
    pub fn replicas(&self) -> usize {
        self.unique.iter().map(|u| u.replicas).sum()
    }

    fn cells(&self) -> Vec<Cell> {
        let mut groups: BTreeMap<(String, String, String, u64), Vec<&ScenarioReport>> =
            BTreeMap::new();
        for u in &self.unique {
            let r = &u.report;
            groups
                .entry((
                    r.scenario.clone(),
                    r.strategy.clone(),
                    r.topology.clone(),
                    r.n,
                ))
                .or_default()
                .push(r);
        }
        groups
            .into_iter()
            .filter_map(|((scenario, strategy, _, n), runs)| {
                let samples: Vec<f64> = runs.iter().map(|r| r.passes_per_locate()).collect();
                Summary::of(&samples).map(|measured| Cell {
                    scenario,
                    strategy,
                    n,
                    seeds: runs.len(),
                    // the 2·|Q| prediction depends on strategy and n only,
                    // so it is constant across the cell's seeds
                    predicted: runs[0].predicted_passes_per_locate,
                    measured,
                })
            })
            .collect()
    }

    /// Theory-vs-measured records (one per cell), ready for
    /// [`mm_analysis::record::to_markdown`].
    pub fn records(&self) -> Vec<ExperimentRecord> {
        self.cells()
            .iter()
            .map(|c| {
                ExperimentRecord::new(
                    &format!("{}/{}/n{}", c.scenario, c.strategy, c.n),
                    "passes-per-locate",
                    c.predicted,
                    c.measured.mean,
                )
            })
            .collect()
    }

    /// The cells as a markdown table body (README / EXPERIMENTS.md).
    pub fn markdown(&self) -> String {
        record::to_markdown(&self.records())
    }

    /// The human-facing aggregation: a theory-vs-measured ASCII table
    /// (mean ± 95% CI across seeds per cell) plus, for every
    /// `scenario × strategy` series spanning at least two sizes, the
    /// fitted log–log scaling exponent of measured passes per locate.
    pub fn render(&self) -> String {
        let cells = self.cells();
        let mut t = Table::new(
            "campaign: theory vs measured (passes per locate)",
            &[
                "scenario",
                "strategy",
                "n",
                "seeds",
                "2|Q| pred",
                "measured",
                "ci95",
                "ratio",
            ],
        );
        for c in &cells {
            t.row_owned(vec![
                c.scenario.clone(),
                c.strategy.clone(),
                c.n.to_string(),
                c.seeds.to_string(),
                format!("{:.3}", c.predicted),
                format!("{:.3}", c.measured.mean),
                format!("{:.3}", c.measured.ci95()),
                format!(
                    "{:.2}",
                    c.measured.mean / c.predicted.max(f64::MIN_POSITIVE)
                ),
            ]);
        }
        let mut out = t.to_string();

        let mut series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
        for c in &cells {
            series
                .entry((c.scenario.clone(), c.strategy.clone()))
                .or_default()
                .push((c.n as f64, c.measured.mean));
        }
        let mut fits = Table::new(
            "campaign: fitted scaling exponent of passes per locate",
            &["scenario", "strategy", "sizes", "exponent k (m ~ n^k)"],
        );
        for ((scenario, strategy), pts) in series {
            if pts.len() < 2 {
                continue;
            }
            if let Some(k) = log_log_slope(&pts) {
                fits.row_owned(vec![
                    scenario,
                    strategy,
                    pts.len().to_string(),
                    format!("{k:.3}"),
                ]);
            }
        }
        if !fits.is_empty() {
            out.push('\n');
            out.push_str(&fits.to_string());
        }
        out
    }

    /// The deterministic trajectory cases, sorted by content key.
    pub fn cases(&self) -> Vec<BenchCase> {
        self.unique
            .iter()
            .map(|u| {
                let r = &u.report;
                BenchCase {
                    scenario: r.scenario.clone(),
                    strategy: r.strategy.clone(),
                    topology: r.topology.clone(),
                    n: r.n,
                    seed: r.seed,
                    replicas: u.replicas as u64,
                    events: r.events_executed(),
                    message_passes: r.phases.iter().map(|p| p.message_passes).sum(),
                    locates: r.locates_completed(),
                }
            })
            .collect()
    }

    /// `BENCH_8.json` bytes (pretty, trailing newline).
    pub fn bench_json(&self) -> String {
        let file = BenchFile {
            bench: "mm-campaign".to_string(),
            cases: self.cases(),
        };
        let json = serde_json::to_string_pretty(&file);
        format!("{json}\n")
    }

    /// Compares this aggregation's deterministic counts against a
    /// committed `BENCH_8.json` snapshot.
    ///
    /// # Errors
    ///
    /// A parse failure, a case present on one side only, or any drift in
    /// `events` / `message_passes` / `locates` — every mismatch listed.
    pub fn check(&self, committed: &str) -> Result<(), String> {
        let value =
            serde_json::from_str(committed).map_err(|e| format!("parsing snapshot: {e:?}"))?;
        let snapshot: BenchFile =
            Deserialize::from_value(&value).map_err(|e| format!("decoding snapshot: {e:?}"))?;
        let ours = self.cases();
        let mut drift = Vec::new();
        let keyed = |cases: &[BenchCase]| -> BTreeMap<RunKey, BenchCase> {
            cases
                .iter()
                .map(|c| {
                    (
                        (
                            c.scenario.clone(),
                            c.strategy.clone(),
                            c.topology.clone(),
                            c.n,
                            c.seed,
                        ),
                        c.clone(),
                    )
                })
                .collect()
        };
        let want = keyed(&snapshot.cases);
        let got = keyed(&ours);
        for (key, w) in &want {
            match got.get(key) {
                None => drift.push(format!("missing run {key:?}")),
                Some(g) => {
                    for (name, wv, gv) in [
                        ("events", w.events, g.events),
                        ("message_passes", w.message_passes, g.message_passes),
                        ("locates", w.locates, g.locates),
                    ] {
                        if wv != gv {
                            drift.push(format!(
                                "{}/{} n={} seed={}: {name} drifted {wv} -> {gv}",
                                w.scenario, w.strategy, w.n, w.seed
                            ));
                        }
                    }
                }
            }
        }
        for key in got.keys() {
            if !want.contains_key(key) {
                drift.push(format!("unexpected run {key:?}"));
            }
        }
        if drift.is_empty() {
            Ok(())
        } else {
            Err(drift.join("\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_workload::drive::{self, RunConfig};

    fn report(seed: u64, n: usize) -> ScenarioReport {
        drive::run(&RunConfig::new("steady-state", n, seed)).unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mm-campaign-agg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_run(dir: &Path, name: &str, r: &ScenarioReport) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, drive::reports_to_json(std::slice::from_ref(r), false)).unwrap();
        p
    }

    #[test]
    fn byte_identical_duplicates_merge_into_replicas() {
        let dir = scratch("dupes");
        let r = report(7, 32);
        let a = write_run(&dir, "calendar.json", &r);
        let b = write_run(&dir, "btree.json", &r);
        let agg = load(&[a, b]).unwrap();
        assert!(agg.violations.is_empty());
        assert_eq!(agg.unique.len(), 1);
        assert_eq!(agg.unique[0].replicas, 2);
        assert_eq!(agg.cases()[0].replicas, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_key_different_content_is_a_violation() {
        let dir = scratch("clash");
        let r = report(7, 32);
        let mut forged = r.clone();
        forged.phases[0].message_passes += 1;
        let a = write_run(&dir, "real.json", &r);
        let b = write_run(&dir, "forged.json", &forged);
        let agg = load(&[a, b]).unwrap();
        assert_eq!(agg.violations.len(), 1);
        assert!(agg.violations[0].contains("disagree"));
        assert!(agg.unique.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregation_ignores_file_order_and_names() {
        let dir = scratch("order");
        let r7 = report(7, 32);
        let r11 = report(11, 32);
        let a = write_run(&dir, "aaa.json", &r7);
        let b = write_run(&dir, "zzz.json", &r11);
        let fwd = load(&[a.clone(), b.clone()]).unwrap();
        let rev = load(&[b, a]).unwrap();
        assert_eq!(fwd.render(), rev.render());
        assert_eq!(fwd.bench_json(), rev.bench_json());
        assert_eq!(fwd.markdown(), rev.markdown());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_round_trips_and_catches_drift() {
        let dir = scratch("check");
        let p = write_run(&dir, "run.json", &report(7, 32));
        let agg = load(&[p]).unwrap();
        let snapshot = agg.bench_json();
        agg.check(&snapshot).unwrap();
        let tampered = snapshot.replacen("\"events\": ", "\"events\": 9", 1);
        let err = agg.check(&tampered).unwrap_err();
        assert!(err.contains("events drifted"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cells_summarize_across_seeds() {
        let dir = scratch("cells");
        let a = write_run(&dir, "s7.json", &report(7, 32));
        let b = write_run(&dir, "s11.json", &report(11, 32));
        let agg = load(&[a, b]).unwrap();
        let recs = agg.records();
        assert_eq!(recs.len(), 1, "two seeds, one cell");
        assert!(recs[0].id.contains("steady-state"));
        let rendered = agg.render();
        assert!(rendered.contains("seeds"), "{rendered}");
        assert!(rendered.contains('2'), "{rendered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
