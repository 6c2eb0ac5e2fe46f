//! The per-layer half of the benchmark: times calls into the public
//! functions of the `mm-*` crates from outside, one layer at a time.
//!
//! ```text
//! mm-bench-layers --pipeline WORKLOAD --seed S   # one in-process rep, stage by stage
//! mm-bench-layers --probes --seed S              # the workload-independent probes
//! ```
//!
//! Prints one JSON object `{"metrics": [...], "spans": [...]}` as its last
//! line. Every probe reports the median of [`BATCHES`] batches with its
//! call count, and asserts the result of what it timed, so that it cannot
//! time a no-op. A layer's name is its crate's.

mod pipeline;
mod probes;

use mm_bench_e2e::json::Value;
use mm_bench_e2e::spans::Recorder;
use mm_bench_e2e::stats;
use std::time::Instant;

/// Batches behind every probe's median.
pub const BATCHES: usize = 5;

/// Collects what the run measured.
pub struct Out {
    metrics: Vec<Value>,
    pub rec: Recorder,
    pub seed: u64,
}

impl Out {
    /// Records a metric that is a plain value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Value::obj([
            ("name", Value::from(name)),
            ("value", Value::Num(value)),
            ("unit", Value::from(unit)),
        ]));
    }

    /// Runs `batch` [`BATCHES`] times under a span each. A batch returns
    /// how many calls it made and how many seconds they took; the metric
    /// is the median over the batches of `scale` × seconds ÷ calls.
    pub fn probe(
        &mut self,
        name: &str,
        unit: &str,
        scale: f64,
        parent: Option<usize>,
        mut batch: impl FnMut(usize) -> (u64, f64),
    ) -> f64 {
        let mut per_call = Vec::with_capacity(BATCHES);
        let mut calls = 0;
        for i in 0..BATCHES {
            let span = self.rec.open(&format!("probe.{name}"), name, parent);
            let (n, secs) = batch(i);
            self.rec.close(span);
            assert!(n > 0, "{name}: a batch made no call");
            calls += n;
            per_call.push(scale * secs / n as f64);
        }
        let value = stats::median(&per_call);
        self.metrics.push(Value::obj([
            ("name", Value::from(name)),
            ("value", Value::Num(value)),
            ("unit", Value::from(unit)),
            ("calls", Value::Int(calls)),
            ("batches", Value::Int(BATCHES as u64)),
        ]));
        value
    }

    fn print(&self) {
        let spans = self.rec.spans().iter().map(|s| s.to_json()).collect();
        let doc = Value::obj([
            ("metrics", Value::Arr(self.metrics.clone())),
            ("spans", Value::Arr(spans)),
        ]);
        println!("{}", doc.to_compact());
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// splitmix64: the probes' inputs come from the seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn usage() -> ! {
    eprintln!("usage: mm-bench-layers (--pipeline WORKLOAD | --probes) [--seed S]");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut pipeline_of: Option<String> = None;
    let mut run_probes = false;
    let mut seed = 7u64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--pipeline" => {
                i += 1;
                pipeline_of = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--probes" => run_probes = true,
            "--seed" => {
                i += 1;
                seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if pipeline_of.is_none() && !run_probes {
        usage();
    }
    let mut out = Out {
        metrics: Vec::new(),
        rec: Recorder::new(true),
        seed,
    };
    if let Some(name) = pipeline_of {
        let Some(workload) = mm_bench_e2e::workloads::by_name(&name) else {
            usage();
        };
        if let Err(e) = pipeline::run(&mut out, &workload) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if run_probes {
        probes::run(&mut out);
    }
    out.print();
}
