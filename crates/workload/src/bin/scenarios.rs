//! Scenario sweep driver: runs library workloads against a chosen
//! `topology × strategy × cost model` and dumps JSON metrics.
//!
//! ```text
//! cargo run --release -p mm-workload --bin scenarios -- --n 1024 --seed 7
//! cargo run --release -p mm-workload --bin scenarios -- \
//!     --n 256 --scenario rolling-churn --strategy hash --topology grid --cost hops
//! cargo run --release -p mm-workload --bin scenarios -- --sweep 64,256,1024
//! cargo run --release -p mm-workload --bin scenarios -- --n 256 --runtime live
//! cargo run --release -p mm-workload --bin scenarios -- --n 256 --scenario overload-ramp
//! cargo run --release -p mm-workload --bin scenarios -- \
//!     --n 256 --scenario steady-state --clients 16 --think fixed:4 --retries 1
//! ```
//!
//! `--runtime live` executes the same specs on the threaded
//! `mm-proto` [`LiveNet`](mm_proto::live::LiveNet) runtime (one OS thread
//! per node) instead of the simulator, reporting the same JSON schema.
//!
//! `--clients N` turns any scenario closed-loop: offered arrivals queue
//! for a pool of `N` client slots (`--think`, `--retries`, `--backoff`,
//! `--window` shape the pool), and the JSON grows per-phase latency and
//! queueing-delay percentiles plus fixed-width time-series windows. The
//! dedicated closed-loop library scenarios (`overload-ramp`,
//! `flash-crowd-recovery`) carry their own pools. Without `--clients`,
//! open-loop output stays byte-compatible with the historical schema.
//!
//! `--replication F` upgrades the strategy to the paper's §2.4 redundant
//! condition — `F+1` superimposed copies via
//! [`Replicated`](mm_core::robust::Replicated) (for `hash`, `F+1` hash
//! replicas), tolerating `F` rendezvous crashes per pair — and forces the
//! `robustness` block into the report so the overhead ("robustness …
//! has a price tag in number of message passes") is measurable against
//! the base run. The hostile-world scenarios (`rack-failure`,
//! `byzantine-liars`, `rendezvous-skew` and their `-closed` twins) carry
//! that block automatically.
//!
//! Re-running with identical arguments reproduces byte-identical output
//! (modulo the `--pretty` flag, which only reformats). Execution lives in
//! [`mm_workload::drive`]; this binary only parses flags and loops the
//! sweep, so the `mm-campaign` matrix runner produces the same bytes by
//! construction.
//!
//! # Observability
//!
//! ```text
//! scenarios --n 256 --scenario steady-state --trace out.jsonl
//! scenarios --n 256 --scenario steady-state --trace out.jsonl --runtime live
//! scenarios trace out.jsonl
//! ```
//!
//! `--trace FILE` records every operation's causal span tree (posts,
//! locate fan-outs, follow-up requests) to FILE as JSONL; on churn-free
//! scenarios the file is byte-identical across `--queue` implementations
//! *and* across `--runtime sim|live` at equal seeds. `--trace-rate R`
//! head-samples traces deterministically (a sampled file is an exact
//! subset of the full one). `scenarios trace FILE` analyzes a recorded
//! file: measured `m(P,Q)` distribution, latency attribution, and the
//! span-vs-counters conservation check (exit 1 on violation). `--obs`
//! adds per-phase counter/histogram snapshots to the JSON report,
//! `--throughput` adds wall-clock events/sec, and `--verbose` restores
//! the per-scenario stderr progress lines.

use mm_obs::{TraceConfig, TraceFile};
use mm_sim::CostModel;
use mm_workload::drive::{self, ObsOptions, RunConfig, RuntimeKind, LIVE_THREAD_LIMIT};
use mm_workload::{scenarios, ClientModel, ScenarioReport, ThinkTime};
use std::time::Instant;

struct Args {
    ns: Vec<usize>,
    /// What the flags select for every run of the sweep; its `scenario`
    /// is the `--scenario` argument (`all` included) and its `n` is filled
    /// in per run.
    cfg: RunConfig,
    obs: ObsOptions,
    /// `--trace FILE`: write the causal span trace as JSONL.
    trace: Option<String>,
    pretty: bool,
    records: bool,
    /// `--verbose`: per-scenario progress lines on stderr.
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios [--n N | --sweep N1,N2,..] [--seed S] \
         [--scenario NAME|all] [--strategy checkerboard|hash|broadcast] \
         [--topology complete|grid|torus|ring|hypercube] [--cost uniform|hops] \
         [--queue calendar|btree] [--runtime sim|live] \
         [--clients N] [--think zero|fixed:T|exp:M] [--retries R] \
         [--backoff B] [--window W] [--replication F] \
         [--pretty] [--records] \
         [--trace FILE] [--trace-rate R] [--obs] [--throughput] [--verbose]\n\
         \nusage: scenarios trace FILE    (analyze a recorded trace: \
         measured m(P,Q),\nlatency attribution, conservation check — \
         exit 1 on violation)\n\
         \n--runtime live drives the same specs through the threaded \
         mm-proto LiveNet runtime\n(complete network, uniform cost, \
         n <= {LIVE_THREAD_LIMIT}) and reports the same schema.\n\
         --clients N runs the scenario closed-loop: a pool of N clients, \
         latency/queueing-delay\npercentiles and time-series windows in \
         the JSON ('all' stays the open-loop five).\n\
         --replication F superimposes F+1 strategy copies (paper 2.4: \
         tolerate F rendezvous\ncrashes per pair) and reports the \
         robustness block with the measured overhead.\n\nopen-loop \
         scenarios: {}\nclosed-loop scenarios: {}\nhostile scenarios: {}",
        scenarios::ALL.join(", "),
        scenarios::CLOSED_LOOP.join(", "),
        scenarios::HOSTILE.join(", ")
    );
    std::process::exit(2);
}

/// Maps an invalid invocation to the CLI's exit code for one.
fn fail(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Parses a `--think` spec: `zero`, `fixed:T` or `exp:M`.
fn parse_think(s: &str) -> Option<ThinkTime> {
    if s == "zero" {
        return Some(ThinkTime::Zero);
    }
    if let Some(t) = s.strip_prefix("fixed:") {
        return t.parse().ok().map(|ticks| ThinkTime::Fixed { ticks });
    }
    if let Some(m) = s.strip_prefix("exp:") {
        return m
            .parse()
            .ok()
            .filter(|m: &f64| *m > 0.0)
            .map(|mean| ThinkTime::Exponential { mean });
    }
    None
}

/// Flags that only shape what another flag turns on: given without it
/// they would be accepted and do nothing.
const DEPENDENT_FLAGS: [(&[&str], &str); 2] = [
    (
        &["--think", "--retries", "--backoff", "--window"],
        "--clients",
    ),
    (&["--trace-rate"], "--trace"),
];

/// The first of the `seen` flags that has no effect because the flag it
/// depends on was not given, as the error to report.
fn idle_flag(seen: &[&str]) -> Option<String> {
    DEPENDENT_FLAGS.iter().find_map(|(dependents, needed)| {
        let idle = dependents.iter().find(|d| seen.contains(d))?;
        (!seen.contains(needed)).then(|| format!("{idle} has no effect without {needed}"))
    })
}

fn parse_args(argv: &[String]) -> Args {
    let mut ns = vec![1024];
    let mut cfg = RunConfig::new("all", 0, 7);
    let mut obs = ObsOptions::default();
    // the pool `--clients` switches on, as the flags around it shape it
    let mut pool = ClientModel {
        clients: 0,
        think: ThinkTime::Fixed { ticks: 2 },
        retry_budget: 1,
        retry_backoff: 8,
        window: 250,
    };
    let mut trace = None;
    let mut trace_rate = 1.0;
    let (mut pretty, mut records, mut verbose) = (false, false, false);
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).unwrap_or_else(|| usage())
    };
    /// The flag's value as a number (or anything else that parses).
    fn num<T: std::str::FromStr>(s: &str) -> T {
        s.parse().unwrap_or_else(|_| usage())
    }
    while i < argv.len() {
        let flag = argv[i].as_str();
        seen.push(flag);
        match flag {
            "--n" => ns = vec![num(value(&mut i))],
            "--sweep" => ns = value(&mut i).split(',').map(|s| num(s.trim())).collect(),
            "--seed" => cfg.seed = num(value(&mut i)),
            "--scenario" => cfg.scenario = value(&mut i).to_string(),
            "--strategy" => cfg.strategy = value(&mut i).to_string(),
            "--topology" => cfg.topology = value(&mut i).to_string(),
            "--cost" => {
                cfg.cost = match value(&mut i) {
                    "uniform" => CostModel::Uniform,
                    "hops" => CostModel::Hops,
                    _ => usage(),
                }
            }
            "--queue" => cfg.queue = drive::parse_queue(value(&mut i)).unwrap_or_else(|| usage()),
            "--runtime" => {
                cfg.runtime = RuntimeKind::parse(value(&mut i)).unwrap_or_else(|| usage())
            }
            "--clients" => pool.clients = num(value(&mut i)),
            "--think" => pool.think = parse_think(value(&mut i)).unwrap_or_else(|| usage()),
            "--retries" => pool.retry_budget = num(value(&mut i)),
            "--backoff" => pool.retry_backoff = num(value(&mut i)),
            "--window" => pool.window = num(value(&mut i)),
            "--replication" => cfg.replication = num(value(&mut i)),
            "--shards" => cfg.shards = num(value(&mut i)),
            "--shard-threads" => cfg.shard_threads = num(value(&mut i)),
            "--pretty" => pretty = true,
            "--records" => records = true,
            "--trace" => trace = Some(value(&mut i).to_string()),
            "--trace-rate" => {
                trace_rate = num(value(&mut i));
                if !(0.0..=1.0).contains(&trace_rate) {
                    usage();
                }
            }
            "--obs" => obs.obs = true,
            "--throughput" => obs.throughput = true,
            "--verbose" => verbose = true,
            _ => usage(),
        }
        i += 1;
    }
    if ns.is_empty() || ns.contains(&0) {
        usage();
    }
    if let Some(e) = idle_flag(&seen) {
        fail(e);
    }
    // off the usage text, still parsed: the benchmark's `closed-sharded`
    // workload passes them (ROADMAP 1(c) removes both sides together)
    if seen.contains(&"--shards") || seen.contains(&"--shard-threads") {
        eprintln!(
            "note: --shards and --shard-threads are accepted for compatibility \
             and select nothing (there is one execution core)"
        );
    }
    if seen.contains(&"--clients") {
        cfg.clients = Some(pool);
    }
    // a trace file records ONE run: requiring a single scenario × size
    // keeps the header/footer unambiguous and the file analyzable
    if trace.is_some() {
        if cfg.scenario == "all" || ns.len() != 1 {
            fail("--trace needs a single --scenario and a single --n".into());
        }
        obs.trace = Some(TraceConfig::with_rate(cfg.seed, trace_rate));
    }
    Args {
        ns,
        cfg,
        obs,
        trace,
        pretty,
        records,
        verbose,
    }
}

/// The `scenarios trace FILE` subcommand: parse, analyze, render; exit 1
/// when the conservation check is applicable but violated.
fn trace_cmd(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(2);
    });
    let file = TraceFile::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing {path}: {e}");
        std::process::exit(2);
    });
    let analysis = mm_obs::analyze(&file);
    print!("{}", analysis.render());
    if analysis.conservation.applicable && !analysis.conservation.holds() {
        eprintln!("error: span costs do not reproduce the run's message counters");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    // `scenarios trace FILE` — the analysis subcommand
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        match argv.as_slice() {
            [_, path] => trace_cmd(path),
            _ => usage(),
        }
    }
    let args = parse_args(&argv);
    // "all" stays the open-loop five (their concatenated JSON is a
    // compatibility surface); the closed-loop library is addressed by name
    let names: Vec<&str> = if args.cfg.scenario == "all" {
        scenarios::ALL.to_vec()
    } else {
        vec![args.cfg.scenario.as_str()]
    };
    let mut runs = Vec::new();
    for &n in &args.ns {
        for name in &names {
            runs.push(RunConfig {
                scenario: name.to_string(),
                n,
                ..args.cfg.clone()
            });
        }
    }
    // fail fast on anything that cannot run (an unknown scenario,
    // --clients over a request_after_locate workload, a live network past
    // its thread limit) before ANY scenario runs: a sweep must not
    // complete half its work and then discard it mid-way
    for cfg in &runs {
        drive::build_spec(cfg, cfg.n).unwrap_or_else(|e| fail(e));
    }

    let mut reports = Vec::new();
    let mut trace_out: Option<TraceFile> = None;
    for cfg in &runs {
        if args.verbose {
            eprintln!(
                "running {} at n={} (seed {}) ...",
                cfg.scenario, cfg.n, cfg.seed
            );
        }
        let t0 = Instant::now();
        let (report, trace) = drive::run_traced(cfg, &args.obs).unwrap_or_else(|e| fail(e));
        let wall = t0.elapsed().as_secs_f64();
        if report.n != cfg.n as u64 {
            eprintln!(
                "note: {} topology rounded n from {} to {}",
                cfg.topology, cfg.n, report.n
            );
        }
        if args.verbose {
            // wall-clock throughput goes to stderr only: stdout JSON
            // must stay byte-identical across equal-seed runs
            let events = report.events_executed();
            eprintln!(
                "  {events} events in {wall:.3}s ({:.0} events/sec), peak queue depth {}",
                events as f64 / wall.max(1e-9),
                report.peak_queue_depth(),
            );
        }
        if trace.is_some() {
            trace_out = trace;
        }
        reports.push(report);
    }
    if let (Some(path), Some(file)) = (&args.trace, &trace_out) {
        if let Err(e) = std::fs::write(path, file.to_jsonl()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }

    if args.records {
        // mm-analysis theory-vs-measured records as a markdown table
        let records: Vec<_> = reports.iter().flat_map(ScenarioReport::records).collect();
        println!("{}", mm_analysis::record::to_markdown(&records));
        return;
    }

    print!("{}", drive::reports_to_json(&reports, args.pretty));
}

#[cfg(test)]
mod tests {
    use super::idle_flag;

    /// Each of `dependents` is an error without `needed`, and fine with
    /// it, wherever on the command line either stands.
    fn needs(dependents: &[&str], needed: &str) {
        for dependent in dependents {
            let e = idle_flag(&["--n", dependent, "--seed"]).expect(dependent);
            assert!(e.contains(dependent) && e.contains(needed), "{e}");
            assert_eq!(idle_flag(&[dependent, "--n", needed]), None);
            assert_eq!(idle_flag(&[needed, dependent]), None);
        }
        assert_eq!(idle_flag(&[needed]), None, "the switch alone is fine");
    }

    #[test]
    fn pool_shaping_flags_need_clients() {
        needs(
            &["--think", "--retries", "--backoff", "--window"],
            "--clients",
        );
    }

    #[test]
    fn a_trace_rate_needs_a_trace() {
        needs(&["--trace-rate"], "--trace");
    }
}
