//! The benchmark's command.
//!
//! ```text
//! mm-bench-e2e --scenarios-bin PATH [--layers-bin PATH] [--workload NAME|all]
//!              [--seed S] [--seconds T] [--trace [0|1]] [--repeat-check] [--out DIR]
//! ```
//!
//! Every workload is a closed loop with one run in flight: an untimed
//! reference rep, then timed reps one after the other, each a fresh
//! `scenarios` process. With `--seconds T` the timed reps go on until `T`
//! seconds have passed and at least [`MIN_REPS`] are done; without it each
//! workload runs the rep count of its definition. The last line of stdout
//! is one JSON object `{correct, attempted, failed, metrics}`; the exit
//! code is 0 only when every check passed. `../README.md` has the metric
//! tables and how to read `result.json`.

use mm_bench_e2e::child::{self, ChildRun};
use mm_bench_e2e::json::{self, Value};
use mm_bench_e2e::manifest::{self, Manifest, MetricDef};
use mm_bench_e2e::report::{self, Totals};
use mm_bench_e2e::spans::Recorder;
use mm_bench_e2e::stats::{self, Summary};
use mm_bench_e2e::workloads::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Fewest timed reps behind a median, whatever the time budget.
const MIN_REPS: usize = 5;

/// No workload's timed reps go on past this, so that one invocation ends
/// well inside three minutes even on a host several times slower.
const REP_LOOP_CAP_S: f64 = 100.0;

/// A rep may take this many times its reference rep before it is killed
/// and counted as failed.
const SLOW_REP_FACTOR: f64 = 10.0;

struct Args {
    /// `None` runs all six.
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat_check: bool,
    scenarios_bin: PathBuf,
    layers_bin: Option<PathBuf>,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: mm-bench-e2e --scenarios-bin PATH [--layers-bin PATH] [--workload NAME|all] \
         [--seed S] [--seconds T] [--trace [0|1]] [--repeat-check] [--out DIR]\n\
         workloads: {}",
        workloads::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        repeat_check: false,
        scenarios_bin: PathBuf::new(),
        layers_bin: None,
        out: PathBuf::from("benchmark/out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i);
                args.workload = (name != "all").then(|| name.to_string());
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let t: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(t > 0.0 && t <= REP_LOOP_CAP_S) {
                    usage();
                }
                args.seconds = Some(t);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--repeat-check" => args.repeat_check = true,
            "--scenarios-bin" => args.scenarios_bin = value(&mut i).into(),
            "--layers-bin" => args.layers_bin = Some(value(&mut i).into()),
            "--out" => args.out = value(&mut i).into(),
            _ => usage(),
        }
        i += 1;
    }
    if args.scenarios_bin.as_os_str().is_empty() {
        usage();
    }
    if let Some(name) = &args.workload {
        if workloads::by_name(name).is_none() {
            usage();
        }
    }
    args
}

/// A value with its name and unit, as printed and as written to JSON.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    /// What else is known about it: the sample summary, call counts.
    detail: Vec<(String, Value)>,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            detail: Vec::new(),
        }
    }

    /// A metric that is the median of `samples`.
    fn median_of(name: impl Into<String>, samples: &[f64], unit: &str) -> Option<Metric> {
        let summary = Summary::of(samples)?;
        let mut m = Metric::new(name, summary.median, unit);
        m.detail.push(("summary".into(), summary.to_json()));
        Some(m)
    }

    /// The `{value, unit}` object of the result line, followed by the
    /// detail when `detailed`.
    fn to_json(&self, detailed: bool) -> Value {
        let mut entries = vec![
            ("value".to_string(), Value::Num(self.value)),
            ("unit".to_string(), Value::from(self.unit.as_str())),
        ];
        if detailed {
            entries.extend(self.detail.iter().cloned());
        }
        Value::Obj(entries)
    }

    /// One line of the printed table.
    fn print(&self) {
        let detail: Vec<String> = self
            .detail
            .iter()
            .filter(|(k, _)| k != "summary")
            .map(|(k, v)| format!("{k} {}", v.to_compact()))
            .collect();
        println!(
            "  {:<50} {:>18.6} {:<7} {}",
            self.name,
            self.value,
            self.unit,
            detail.join(" ")
        );
    }
}

/// One rep: every invocation of the workload, one after the other.
struct Rep {
    /// Wall time of each invocation; a rep's `wall_s` is their sum.
    walls: Vec<f64>,
    /// Largest peak resident set of any invocation.
    peak_rss_kib: u64,
    cpu_s: f64,
    totals: Totals,
    /// The parsed reports, `throughput` keys dropped.
    outputs: Vec<Value>,
    /// The raw stdout of all invocations, in order.
    bytes: Vec<u8>,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// Runs one rep. `timed` adds `--throughput`; `limits` caps each
/// invocation's run time. Spans go to `rec` under the id `run`.
fn run_rep(
    bin: &Path,
    invocations: &[Vec<String>],
    seed: u64,
    timed: bool,
    limits: &[Duration],
    rec: &mut Recorder,
    run: &str,
) -> Result<Rep, String> {
    let mut rep = Rep {
        walls: Vec::new(),
        peak_rss_kib: 0,
        cpu_s: 0.0,
        totals: Totals::default(),
        outputs: Vec::new(),
        bytes: Vec::new(),
    };
    let rep_span = rec.open("rep", run, None);
    for (flags, &limit) in invocations.iter().zip(limits) {
        let fail = |e: String| format!("scenarios {}: {e}", flags.join(" "));
        let mut argv = flags.clone();
        argv.extend(["--seed".to_string(), seed.to_string()]);
        if timed {
            argv.push("--throughput".to_string());
        }
        let ChildRun {
            stdout,
            wall_s,
            peak_rss_kib,
            cpu_s,
            start_ns,
            end_ns,
        } = child::run(bin, &argv, limit, || rec.now_ns()).map_err(fail)?;
        let text = std::str::from_utf8(&stdout).map_err(|_| fail("stdout is not UTF-8".into()))?;
        let mut output = json::parse(text).map_err(|e| fail(format!("stdout is not JSON: {e}")))?;
        let first_phase = rep.totals.phases.len();
        report::accumulate(&mut rep.totals, &output, timed).map_err(fail)?;
        if rec.enabled() {
            // the program reports how long each phase's loop ran, not when:
            // the phases are laid end to end from the child's start, so
            // their lengths and the child's self time (its set-up) are
            // real and their offsets are not
            let child_span = rec.add("child", run, Some(rep_span), start_ns, end_ns);
            let mut at = start_ns;
            for phase in &rep.totals.phases[first_phase..] {
                let len = (phase.loop_s() * 1e9) as u64;
                let name = format!("phase.{}", phase.name);
                rec.add(&name, run, Some(child_span), at, at + len);
                at += len;
            }
        }
        report::strip_throughput(&mut output);
        rep.outputs.push(output);
        rep.bytes.extend_from_slice(&stdout);
        rep.walls.push(wall_s);
        rep.peak_rss_kib = rep.peak_rss_kib.max(peak_rss_kib);
        rep.cpu_s += cpu_s;
    }
    rec.close(rep_span);
    Ok(rep)
}

/// Prefix of the per-phase event rates among the samples.
const PHASE_RATE: &str = "workload.phase_events_per_s.";

/// Everything one workload's reps produced.
struct WorkloadRun {
    workload: Workload,
    /// Totals of the reference rep: the exact counts.
    reference: Totals,
    /// FNV-1a of the reference rep's stdout.
    digest: u64,
    reps: usize,
    /// Operations offered over all timed reps.
    attempted: u64,
    /// Operations of reps that ended badly or failed a check.
    failed: u64,
    /// Per timed rep, by metric name.
    samples: Vec<(String, Vec<f64>)>,
    /// From the traced run: the ratios of its extra reps, then what the
    /// `layers` binary measured on this workload's configuration.
    traced: Vec<Metric>,
    problems: Vec<String>,
    spans: Recorder,
}

impl WorkloadRun {
    fn samples(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v)
    }

    fn median(&self, name: &str) -> f64 {
        stats::median(self.samples(name))
    }

    fn push(&mut self, name: &str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(value),
            None => self.samples.push((name.to_string(), vec![value])),
        }
    }

    fn record(&mut self, rep: &Rep) {
        let t = &rep.totals;
        let (wall_s, loop_s) = (rep.wall_s(), t.loop_s());
        self.push("wall_s", wall_s);
        self.push("ops_per_s", t.locates_completed as f64 / wall_s);
        self.push("setup_s", t.setup_s(wall_s));
        self.push("peak_rss_mb", rep.peak_rss_kib as f64 / 1024.0);
        self.push("passes_per_locate", t.passes_per_locate());
        self.push("workload.loop_s", loop_s);
        self.push("sim.events_per_s", t.events_executed as f64 / loop_s);
        self.push("bench.child_cpu_s", rep.cpu_s);
        // one report's phases by their own names; the mix has eighteen
        // reports, whose sum is what `workload.loop_s` already gives
        if self.workload.invocations.len() == 1 {
            for phase in t.phases.iter().filter(|p| p.events > 0) {
                let name = phase.name.split_once('/').map_or("", |(_, p)| p);
                if let Some(rate) = phase.throughput {
                    self.push(&format!("{PHASE_RATE}{name}"), rate);
                }
            }
        }
    }

    /// The per-layer metrics: from the timed CLI reps, from the reference
    /// rep's exact counts, and from the traced run.
    fn per_layer(&self) -> Vec<Metric> {
        let r = &self.reference;
        let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
        let mut out: Vec<Metric> = [
            ("workload.loop_s", "s"),
            ("sim.events_per_s", "1/s"),
            ("bench.child_cpu_s", "s"),
        ]
        .into_iter()
        .filter_map(|(name, unit)| Metric::median_of(name, self.samples(name), unit))
        .collect();
        out.extend([
            count("sim.events_executed", r.events_executed),
            count("sim.message_passes", r.message_passes),
            count("sim.peak_queue_depth", r.peak_queue_depth),
            count("workload.locates_completed", r.locates_completed),
            count("workload.hits", r.hits),
            count("workload.unresolved", r.unresolved),
            count("workload.ops_offered", r.ops_offered),
            count("workload.ops_unanswered", r.ops_unanswered()),
        ]);
        if let Some(p99) = r.latency_p99_ticks {
            out.push(Metric::new("workload.latency_p99_ticks", p99, "ticks"));
        }
        for (name, rates) in &self.samples {
            if name.starts_with(PHASE_RATE) {
                out.extend(Metric::median_of(name.as_str(), rates, "1/s"));
            }
        }
        if let Some(wall) = Summary::of(self.samples("wall_s")) {
            out.push(Metric::new(
                "bench.rep_iqr_over_median",
                wall.iqr_over_median(),
                "ratio",
            ));
        }
        out.extend(self.traced.iter().cloned());
        out
    }
}

/// Runs one workload: the reference rep, the timed reps and, when
/// `traced`, the extra reps of the traced run.
fn run_workload(args: &Args, workload: Workload, traced: bool) -> WorkloadRun {
    let bin = &args.scenarios_bin;
    let mut run = WorkloadRun {
        workload,
        reference: Totals::default(),
        digest: 0,
        reps: 0,
        attempted: 0,
        failed: 0,
        samples: Vec::new(),
        traced: Vec::new(),
        problems: Vec::new(),
        spans: Recorder::new(traced),
    };
    let w = run.workload.clone();
    let mut off = Recorder::new(false);

    // the reference rep: untimed, without `--throughput`; it warms the
    // page cache and supplies the reports every later rep must reproduce
    let generous = vec![Duration::from_secs_f64(REP_LOOP_CAP_S); w.reference.len()];
    let reference = match run_rep(bin, &w.reference, args.seed, false, &generous, &mut off, "") {
        Ok(rep) => rep,
        Err(e) => {
            run.problems.push(format!("reference rep: {e}"));
            return run;
        }
    };
    run.digest = report::fnv64(&reference.bytes);
    run.reference = reference.totals.clone();
    let ops = run.reference.ops_offered;
    let limits: Vec<Duration> = reference
        .walls
        .iter()
        .map(|w| Duration::from_secs_f64((w * SLOW_REP_FACTOR).max(5.0)))
        .collect();

    let checked_rep = |flags: &[Vec<String>], rec: &mut Recorder, id: &str| {
        let rep = run_rep(bin, flags, args.seed, true, &limits, rec, id)?;
        if rep.outputs != reference.outputs {
            return Err("reports differ from the reference rep's".to_string());
        }
        Ok(rep)
    };

    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let done = match args.seconds {
            Some(budget) => run.reps >= MIN_REPS && elapsed >= budget,
            None => run.reps >= w.reps,
        };
        if done || elapsed >= REP_LOOP_CAP_S {
            break;
        }
        run.reps += 1;
        run.attempted += ops;
        match checked_rep(&w.invocations, &mut off, "") {
            Ok(rep) => run.record(&rep),
            Err(e) => {
                run.failed += ops;
                run.problems.push(format!("rep {}: {e}", run.reps));
            }
        }
    }
    if run.reps < MIN_REPS {
        run.problems.push(format!(
            "only {} reps fit into {REP_LOOP_CAP_S} s",
            run.reps
        ));
    }

    if traced && run.problems.is_empty() {
        let base = run.median("wall_s");
        let id = format!("{}/traced", w.name);
        match checked_rep(&w.invocations, &mut run.spans, &id) {
            Ok(rep) => run.traced.push(Metric::new(
                "bench.trace_overhead_ratio",
                rep.wall_s() / base,
                "ratio",
            )),
            Err(e) => run.problems.push(format!("traced rep: {e}")),
        }
        if let Some((metric, flags)) = &w.variant {
            let id = format!("{}/{metric}", w.name);
            match checked_rep(std::slice::from_ref(flags), &mut run.spans, &id) {
                Ok(rep) => run
                    .traced
                    .push(Metric::new(*metric, rep.wall_s() / base, "ratio")),
                Err(e) => run.problems.push(format!("{metric} rep: {e}")),
            }
        }
    }
    run
}

/// What the `layers` binary printed: its metrics and its spans.
struct LayersOutput {
    metrics: Vec<Metric>,
    /// `(name, run, parent, start_ns, end_ns)` on the child's own clock.
    spans: Vec<(String, String, Option<usize>, u64, u64)>,
}

fn parse_layers(stdout: &[u8]) -> Result<LayersOutput, String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    let line = text.lines().last().ok_or("printed nothing")?;
    let doc = json::parse(line)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("no list `{key}`"))
    };
    let mut out = LayersOutput {
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    for m in list("metrics")? {
        let field = |key: &str| m.get(key).ok_or_else(|| format!("a metric has no `{key}`"));
        let mut metric = Metric::new(
            field("name")?.as_str().ok_or("metric name")?,
            field("value")?.as_f64().ok_or("metric value")?,
            field("unit")?.as_str().ok_or("metric unit")?,
        );
        for key in ["calls", "batches"] {
            if let Some(v) = m.get(key) {
                metric.detail.push((key.to_string(), v.clone()));
            }
        }
        out.metrics.push(metric);
    }
    for s in list("spans")? {
        let text = |key: &str| s.get(key).and_then(Value::as_str).map(str::to_string);
        let num = |key: &str| s.get(key).and_then(Value::as_u64);
        out.spans.push((
            text("name").ok_or("span name")?,
            text("run").ok_or("span run")?,
            num("parent").map(|p| p as usize),
            num("start_ns").ok_or("span start")?,
            num("end_ns").ok_or("span end")?,
        ));
    }
    Ok(out)
}

/// Runs the `layers` binary with `flags` and files its spans in `rec`
/// under a `layers` span that covers the child process.
fn run_layers(
    bin: &Path,
    flags: &[&str],
    seed: u64,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let mut argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
    argv.extend(["--seed".to_string(), seed.to_string()]);
    let limit = Duration::from_secs_f64(REP_LOOP_CAP_S);
    let done = child::run(bin, &argv, limit, || rec.now_ns())?;
    let out = parse_layers(&done.stdout)?;
    let run = format!("layers {}", flags.join(" "));
    let top = rec.add("layers", &run, None, done.start_ns, done.end_ns);
    // the child's spans keep their order behind `top`, so a parent index
    // moves by `top + 1`, and its clock starts at the child's start
    for (name, run, parent, start, end) in out.spans {
        let parent = parent.map_or(top, |p| p + top + 1);
        rec.add(
            &name,
            &run,
            Some(parent),
            done.start_ns + start,
            done.start_ns + end,
        );
    }
    Ok(out.metrics)
}

/// One pass over the chosen workloads.
fn run_set(args: &Args, chosen: &[Workload], traced: bool) -> Vec<WorkloadRun> {
    chosen
        .iter()
        .map(|w| {
            eprintln!("[bench] {} ...", w.name);
            run_workload(args, w.clone(), traced)
        })
        .collect()
}

fn command_line(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn environment(args: &Args, nproc: usize, load_start: f64) -> Value {
    Value::obj([
        ("nproc", Value::Int(nproc as u64)),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "build_profile",
            "release (debug = true), as the root manifest sets it".into(),
        ),
        (
            "git_head",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("loadavg_start", load_start.into()),
        ("loadavg_end", loadavg().into()),
        ("seed", Value::Int(args.seed)),
        ("held_out_seed", Value::Int(11)),
        (
            "workload",
            args.workload.clone().unwrap_or_else(|| "all".into()).into(),
        ),
        ("seconds", args.seconds.map_or(Value::Null, Value::Num)),
        ("trace", args.trace.into()),
    ])
}

fn workload_json(run: &WorkloadRun, manifest: &Manifest) -> Value {
    let end_to_end = manifest.end_to_end.iter().filter_map(|def| {
        let samples = run.samples(&def.name);
        let summary = Summary::of(samples)?;
        Some((
            def.name.clone(),
            Value::obj([
                ("value", Value::Num(summary.median)),
                ("unit", def.unit.as_str().into()),
                ("better", def.better().into()),
                ("bound", def.bound.map_or(Value::Null, Value::Num)),
                ("summary", summary.to_json()),
                (
                    "samples",
                    Value::Arr(samples.iter().map(|&x| Value::Num(x)).collect()),
                ),
            ]),
        ))
    });
    let per_layer = run
        .per_layer()
        .into_iter()
        .map(|m| (m.name.clone(), m.to_json(true)));
    let commands =
        |list: &[Vec<String>]| Value::Arr(list.iter().map(|f| f.join(" ").into()).collect());
    Value::obj([
        ("invocations", commands(&run.workload.invocations)),
        ("reference", commands(&run.workload.reference)),
        ("reps", Value::Int(run.reps as u64)),
        ("attempted", Value::Int(run.attempted)),
        ("failed", Value::Int(run.failed)),
        ("report_fnv64", format!("{:016x}", run.digest).into()),
        ("end_to_end", Value::Obj(end_to_end.collect())),
        ("per_layer", Value::Obj(per_layer.collect())),
        (
            "problems",
            Value::Arr(run.problems.iter().map(|p| p.as_str().into()).collect()),
        ),
    ])
}

fn print_workload(run: &WorkloadRun, manifest: &Manifest) {
    let r = &run.reference;
    println!(
        "\n== {}  (reps {}, operations attempted {}, failed {}; per rep offered {}, unanswered by design {}; report fnv64 {:016x})",
        run.workload.name, run.reps, run.attempted, run.failed, r.ops_offered, r.ops_unanswered(), run.digest
    );
    for def in &manifest.end_to_end {
        let Some(s) = Summary::of(run.samples(&def.name)) else {
            continue;
        };
        println!(
            "  {:<34} {:>16.6} {:<7} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}  ({} is better, bound {:.0} %)",
            def.name, s.median, def.unit, s.min, s.q1, s.q3, s.max, s.n, def.better(),
            def.bound.unwrap_or(0.0) * 100.0
        );
    }
    run.per_layer().iter().for_each(Metric::print);
    for p in &run.problems {
        println!("  FAILED: {p}");
    }
}

/// `--repeat-check`: two sets of runs of the same code must agree within
/// each metric's bound, and what is simulated must not move at all.
fn compare_sets(first: &[WorkloadRun], second: &[WorkloadRun], manifest: &Manifest) -> Vec<String> {
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name;
        if a.digest != b.digest || a.reference != b.reference {
            problems.push(format!(
                "{name}: the reference reports of the two sets differ"
            ));
        }
        for def in &manifest.end_to_end {
            let (x, y) = (a.median(&def.name), b.median(&def.name));
            let exact = def.name == "passes_per_locate";
            let bound = def.bound.unwrap_or(0.0);
            let apart = def.worsening(x, y).abs().max(def.worsening(y, x).abs());
            let ok = if exact { x == y } else { apart <= bound };
            println!(
                "  repeat-check {name:<16} {:<18} {x:>16.6} vs {y:>16.6}  apart {:>6.2} %  {}",
                def.name,
                apart * 100.0,
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                problems.push(format!(
                    "{name}: {} read {x} then {y}, which is {} apart",
                    def.name,
                    if exact {
                        "not equal".to_string()
                    } else {
                        format!("more than {bound}")
                    }
                ));
            }
        }
    }
    problems
}

fn main() {
    let args = parse_args();
    // in the working directory, which `run.sh` makes the repository root
    let manifest = manifest::load(Path::new("BENCHMARK.json")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let chosen: Vec<Workload> = match &args.workload {
        Some(name) => workloads::by_name(name).into_iter().collect(),
        None => workloads::all(),
    };
    let load_start = loadavg();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if load_start > nproc as f64 / 2.0 {
        eprintln!(
            "warning: load average {load_start} at start is above nproc / 2 = {}; timings will be noisy",
            nproc as f64 / 2.0
        );
    }

    let mut problems: Vec<String> = Vec::new();
    let mut runs = run_set(&args, &chosen, args.trace);
    if args.repeat_check {
        let second = run_set(&args, &chosen, false);
        println!("\n== repeat-check");
        problems.extend(compare_sets(&runs, &second, &manifest));
        for run in &second {
            problems.extend(
                run.problems
                    .iter()
                    .map(|p| format!("{} (second set): {p}", run.workload.name)),
            );
        }
    }

    // the traced run's other half: the in-process pipeline of each
    // workload, then the probes, both in the `layers` binary
    let mut probes: Vec<Metric> = Vec::new();
    let mut probe_spans = Recorder::new(true);
    if args.trace {
        match &args.layers_bin {
            None => {
                problems.push("--trace needs --layers-bin: the layers package did not build".into())
            }
            Some(bin) => {
                for run in &mut runs {
                    eprintln!("[bench] layers pipeline {} ...", run.workload.name);
                    match run_layers(
                        bin,
                        &["--pipeline", run.workload.name],
                        args.seed,
                        &mut run.spans,
                    ) {
                        Ok(metrics) => run.traced.extend(metrics),
                        Err(e) => run.problems.push(format!("layers pipeline: {e}")),
                    }
                }
                eprintln!("[bench] layers probes ...");
                match run_layers(bin, &["--probes"], args.seed, &mut probe_spans) {
                    Ok(metrics) => probes = metrics,
                    Err(e) => problems.push(format!("layers probes: {e}")),
                }
            }
        }
    }

    // across workloads: the load at the start, what the sharded core costs
    // next to the single one, and the probes
    let mut across = vec![Metric::new("bench.loadavg_start", load_start, "load")];
    let wall_of = |name: &str| {
        runs.iter()
            .find(|r| r.workload.name == name)
            .map(|r| r.median("wall_s"))
            .filter(|&w| w > 0.0)
    };
    if let (Some(sharded), Some(single)) = (wall_of("closed-sharded"), wall_of("closed-uniform")) {
        across.push(Metric::new(
            "sim.shard_overhead_ratio",
            sharded / single,
            "ratio",
        ));
    }
    across.extend(probes);

    for run in &runs {
        print_workload(run, &manifest);
        problems.extend(
            run.problems
                .iter()
                .map(|p| format!("{}: {p}", run.workload.name)),
        );
    }
    println!("\n== across workloads and probes");
    across.iter().for_each(Metric::print);

    // the result line: the metrics BENCHMARK.json declares, by its names
    let single = runs.len() == 1;
    let declared: &[MetricDef] = if args.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut line: Vec<(String, Value)> = Vec::new();
    for run in &runs {
        let mut have: Vec<Metric> = manifest
            .end_to_end
            .iter()
            .filter_map(|def| {
                Metric::median_of(def.name.as_str(), run.samples(&def.name), &def.unit)
            })
            .collect();
        have.extend(run.per_layer());
        have.extend(across.iter().cloned());
        for def in declared {
            let key = if single {
                def.name.clone()
            } else {
                format!("{}.{}", run.workload.name, def.name)
            };
            match have.iter().find(|m| m.name == def.name) {
                Some(m) if m.value.is_finite() => line.push((key, m.to_json(false))),
                _ => problems.push(format!(
                    "{}: metric {} was not produced",
                    run.workload.name, def.name
                )),
            }
        }
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let correct = problems.is_empty();

    let result = Value::obj([
        ("benchmark", Value::from("BENCH_11")),
        ("env", environment(&args, nproc, load_start)),
        ("correct", correct.into()),
        ("attempted", Value::Int(attempted)),
        ("failed", Value::Int(failed)),
        (
            "workloads",
            Value::Obj(
                runs.iter()
                    .map(|run| (run.workload.name.to_string(), workload_json(run, &manifest)))
                    .collect(),
            ),
        ),
        (
            "across",
            Value::Obj(
                across
                    .iter()
                    .map(|m| (m.name.clone(), m.to_json(true)))
                    .collect(),
            ),
        ),
        (
            "problems",
            Value::Arr(problems.iter().map(|p| p.as_str().into()).collect()),
        ),
    ]);
    let write = |name: String, text: String| {
        let path = args.out.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    write("result.json".into(), result.to_pretty());
    if args.trace {
        for run in &runs {
            write(
                format!("spans-{}.jsonl", run.workload.name),
                run.spans.to_jsonl(),
            );
        }
        write("spans-probes.jsonl".into(), probe_spans.to_jsonl());
    }

    for p in &problems {
        println!("FAILED: {p}");
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::from(correct)),
            ("attempted", Value::Int(attempted.max(1))),
            ("failed", Value::Int(failed)),
            ("metrics", Value::Obj(line)),
        ])
        .to_compact()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
