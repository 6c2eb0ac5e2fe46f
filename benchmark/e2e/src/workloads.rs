//! The six workloads: which `scenarios` invocations make up one rep of
//! each, and why it is in the set.
//!
//! The sizes come from sizing runs on the 2-core container and are part of
//! the benchmark's definition: a change to one of them starts a new
//! baseline.

/// The scenario library, all of which `library-mix` runs.
const LIBRARY: [&str; 13] = [
    "steady-state",
    "flash-crowd",
    "rolling-churn",
    "migrate-under-load",
    "cold-vs-warm-cache",
    "overload-ramp",
    "flash-crowd-recovery",
    "rack-failure",
    "byzantine-liars",
    "rendezvous-skew",
    "rack-failure-closed",
    "byzantine-liars-closed",
    "rendezvous-skew-closed",
];

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Timed reps when the caller sets no time budget.
    pub reps: usize,
    /// One rep runs these `scenarios` invocations one after the other;
    /// each is a flag list that `--seed S` is appended to.
    pub invocations: Vec<Vec<String>>,
    /// Flags of the untimed first rep, whose reports every timed rep must
    /// reproduce. Only `closed-sharded` differs here: its reference is the
    /// single core, so every run checks the sharded core against it.
    pub reference: Vec<Vec<String>>,
    /// One more rep the traced run makes on another value of an
    /// output-invariant axis: the metric it yields (its wall time over the
    /// median of the timed reps) and its flags. Its reports must equal the
    /// reference too.
    pub variant: Option<(&'static str, Vec<String>)>,
}

fn flags(text: &str) -> Vec<String> {
    text.split_whitespace().map(str::to_string).collect()
}

fn single(name: &'static str, reps: usize, text: &str) -> Workload {
    Workload {
        name,
        reps,
        invocations: vec![flags(text)],
        reference: vec![flags(text)],
        variant: None,
    }
}

const CLOSED_UNIFORM: &str = "--scenario overload-ramp --n 262144";

/// The workloads, in the order of `BENCHMARK.json`, which records why each
/// one is in the set (as does `../README.md`, at more length).
pub fn all() -> Vec<Workload> {
    // the single core under uniform cost: queue, dispatch, handlers and the
    // client pool's short `run_until` slices; no routing, churn or merge
    let mut uniform = single("closed-uniform", 7, CLOSED_UNIFORM);
    uniform.variant = Some((
        "sim.queue_ratio_btree_over_calendar",
        flags(&format!("{CLOSED_UNIFORM} --queue btree")),
    ));

    // the same spec and report, so the difference is the sharded core
    let mut sharded = single(
        "closed-sharded",
        5,
        &format!("{CLOSED_UNIFORM} --shards 16 --shard-threads 2"),
    );
    sharded.reference = vec![flags(CLOSED_UNIFORM)];
    sharded.variant = Some((
        "sim.shard_thread_speedup",
        flags(&format!("{CLOSED_UNIFORM} --shards 16 --shard-threads 1")),
    ));

    // every path briefly: fixed per-run cost shows, and so does a gain
    // elsewhere that taxes one of these paths
    let mut mix: Vec<Vec<String>> = LIBRARY
        .iter()
        .map(|s| flags(&format!("--scenario {s} --n 65536")))
        .collect();
    mix.push(flags("--scenario all --strategy hash --n 65536"));

    vec![
        uniform,
        sharded,
        // hop cost without crashes: router lookups and `multicast_cost`
        // dominate, the queue is a small share
        single(
            "hops-torus",
            9,
            "--scenario steady-state --n 262144 --topology torus --cost hops",
        ),
        // the same layer at diameter n/2: long Steiner anchor walks
        single(
            "hops-ring",
            9,
            "--scenario steady-state --n 65536 --topology ring --cost hops",
        ),
        // three crash/restore waves of n/8 nodes: the runner's churn
        // bookkeeping dominates, the event loop is light
        single("churn", 7, "--scenario rolling-churn --n 262144"),
        Workload {
            name: "library-mix",
            reps: 5,
            invocations: mix.clone(),
            reference: mix,
            variant: None,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_with_distinct_names() {
        let ws = all();
        assert_eq!(ws.len(), 6);
        for (i, w) in ws.iter().enumerate() {
            assert!(w.reps >= 5, "{}: at least five reps", w.name);
            assert_eq!(w.invocations.len(), w.reference.len());
            assert!(ws[..i].iter().all(|o| o.name != w.name));
            assert!(by_name(w.name).is_some());
        }
        assert_eq!(by_name("library-mix").unwrap().invocations.len(), 14);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn only_the_sharded_workload_has_a_different_reference() {
        for w in all() {
            assert_eq!(
                w.invocations != w.reference,
                w.name == "closed-sharded",
                "{}",
                w.name
            );
        }
        let sharded = by_name("closed-sharded").unwrap();
        assert_eq!(
            sharded.reference,
            by_name("closed-uniform").unwrap().invocations
        );
    }
}
