//! Report structs and builders.
//!
//! [`crate::runner::ScenarioRunner`] emits one JSON schema whatever
//! [`crate::Runtime`] it drives: per-phase [`PhaseReport`]s built by
//! `build_phase_report` out of an operation-accumulator (`Acc`) and
//! an [`mm_sim::Metrics`] delta — so any field that diverges between the
//! simulator and the thread network reflects the runtimes, not the
//! serializers.
//!
//! The runner also keeps a per-operation [`LocateRecord`] log. Records are
//! keyed by *arrival index* (the position in the spec's deterministic
//! arrival sequence), so the differential tests can compare verdicts
//! operation by operation across runtimes regardless of how phase
//! boundaries bucket the counters.

use crate::clients::ClientOpRecord;
use crate::timeline::PhaseBounds;
use mm_analysis::stats::{percentile_or_zero, percentile_or_zero_u64};
use mm_analysis::ExperimentRecord;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_sim::{Metrics, SimTime};
use mm_topo::NodeId;
use serde::{Deserialize, Serialize};

/// Per-phase measurements (all counters are deltas within the phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name from the spec.
    pub name: String,
    /// Phase start tick (relative to scenario start).
    pub start: u64,
    /// Phase end tick (relative to scenario start).
    pub end: u64,
    /// Locate operations injected during the phase.
    pub locates_issued: u64,
    /// Locate operations that reached a verdict during the phase.
    pub locates_completed: u64,
    /// Completed locates that returned an address.
    pub hits: u64,
    /// Completed locates where every rendezvous answered "unknown".
    pub misses: u64,
    /// Locates abandoned after the client timeout (unanswered queries).
    pub unresolved: u64,
    /// Hits whose address no longer matched the server's true location.
    pub stale_results: u64,
    /// Application requests bounced by a stale address ("not here").
    pub stale_requests: u64,
    /// Stale addresses healed by the re-locate retry finding the current
    /// address (§1.3's recovery loop, measured under load).
    pub staleness_recoveries: u64,
    /// Application requests answered by the server.
    pub requests_ok: u64,
    /// Application requests that timed out (crashed server).
    pub request_timeouts: u64,
    /// Message passes spent during the phase (the paper's `m` numerator).
    pub message_passes: u64,
    /// Messages handed to the network during the phase.
    pub sends: u64,
    /// Messages delivered during the phase.
    pub delivered: u64,
    /// Messages dropped during the phase (crashed nodes / severed paths).
    pub dropped: u64,
    /// Crash events injected during the phase.
    pub crashes: u64,
    /// Runtime events executed during the phase: simulator events
    /// (deliveries, drops) or live protocol messages processed —
    /// the numerator for wall-clock events/sec.
    pub events_executed: u64,
    /// Peak simultaneous event-queue depth observed up to the end of the
    /// phase (cumulative high-water mark; deterministic). Always 0 in the
    /// live runtime, which has no global event queue to sample.
    pub peak_queue_depth: u64,
    /// `message_passes / locates_completed` (0 when nothing completed).
    pub passes_per_locate: f64,
    /// Completed locates per 1000 ticks of the phase's scheduled
    /// duration `[start, end)`. The final phase's post-horizon drain
    /// grace is *excluded* from the denominator (verdicts read during the
    /// drain still count in the numerator), so the last phase's rate is
    /// comparable with the inner phases' instead of being deflated by the
    /// timeout window.
    pub throughput_per_kilotick: f64,
    /// `hits / locates_completed` (0 when nothing completed).
    pub hit_rate: f64,
    /// Median per-node deliveries during the phase.
    pub load_p50: f64,
    /// 99th-percentile per-node deliveries during the phase.
    pub load_p99: f64,
    /// Hottest node's deliveries during the phase.
    pub load_max: u64,
    /// Mean per-node deliveries during the phase.
    pub load_mean: f64,
    /// Completed locates whose winning answer was a Byzantine forgery
    /// exposed by honest dissent in the same fan-out — the client rejects
    /// the address. Present only for hostile workloads (specs with fault
    /// injection); benign reports serialize without this key,
    /// byte-for-byte as before.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub detected_lie: Option<u64>,
    /// Completed locates where a forgery won with no honest dissent to
    /// expose it — the client walked away with a liar's address. Present
    /// only for hostile workloads.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub false_match: Option<u64>,
    /// Closed-loop latency accounting for this phase, present only when
    /// the workload configures a [`crate::spec::ClientModel`] — open-loop
    /// reports serialize without this key, byte-for-byte as before.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub closed_loop: Option<ClosedLoopStats>,
    /// Wall-clock runtime events per second for this phase, present only
    /// when the runner was asked to measure it (`--throughput`) — default
    /// reports serialize without this key, byte-for-byte as before. Not
    /// deterministic (it measures the host), so it is never part of any
    /// byte-identity contract.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub throughput: Option<f64>,
    /// Per-phase metrics-registry snapshot (latency / fan-out / meet
    /// histograms, queue-depth buckets on the simulator), present only
    /// when observability is enabled (`--obs`). Same schema seam as
    /// `closed_loop`: absent means byte-identical legacy JSON.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub obs: Option<mm_obs::RegistrySnapshot>,
}

/// Per-phase closed-loop measurements, built from the client pool's
/// operation records.
///
/// Attribution follows when each fact becomes true: `offered` and
/// `abandoned` bucket by the offered tick, `dispatched` and the
/// queueing-delay samples by the dispatch tick, `completed`/`retries` and
/// the latency samples by the final-verdict tick (verdicts read during
/// the post-horizon drain clamp into the last bucket). This is what makes
/// saturation legible: under a growing FIFO backlog the delay of the
/// operation *being dispatched* rises monotonically with time, so the
/// per-phase queue-delay p99 climbs phase over phase past the knee even
/// when a late phase's own offers never reach service (they show up as
/// `abandoned` instead — bucketing delays by offer tick would censor
/// exactly the worst-delayed survivors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopStats {
    /// Operations the timeline offered during the phase.
    pub offered: u64,
    /// Operations a client slot picked up during the phase (however long
    /// ago they were offered).
    pub dispatched: u64,
    /// Operations whose final verdict landed during the phase.
    pub completed: u64,
    /// Operations offered during the phase that were still queued when
    /// the horizon arrived — the saturation overflow that open-loop
    /// counters cannot see.
    pub abandoned: u64,
    /// Extra locate attempts spent by the retry budget on operations
    /// completing in the phase.
    pub retries: u64,
    /// Median issue→verdict latency in ticks (includes retry backoffs).
    pub latency_p50: f64,
    /// 95th-percentile issue→verdict latency.
    pub latency_p95: f64,
    /// 99th-percentile issue→verdict latency.
    pub latency_p99: f64,
    /// Worst issue→verdict latency.
    pub latency_max: u64,
    /// Median offer→dispatch queueing delay in ticks.
    pub queue_delay_p50: f64,
    /// 95th-percentile queueing delay.
    pub queue_delay_p95: f64,
    /// 99th-percentile queueing delay — the saturation-knee instrument.
    pub queue_delay_p99: f64,
    /// Worst queueing delay among dispatched operations.
    pub queue_delay_max: u64,
}

/// One fixed-width time-series window of a closed-loop run (the same
/// measurements as [`ClosedLoopStats`], bucketed by offered tick into
/// `[start, end)` windows of the spec's `window` width).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window start tick.
    pub start: u64,
    /// Window end tick (the last window clamps to the horizon).
    pub end: u64,
    /// Operations offered in the window.
    pub offered: u64,
    /// Operations dispatched in the window.
    pub dispatched: u64,
    /// Final verdicts landing in the window.
    pub completed: u64,
    /// Verdicts in the window that were hits.
    pub hits: u64,
    /// Verdicts in the window that were unresolved.
    pub unresolved: u64,
    /// Median issue→verdict latency.
    pub latency_p50: f64,
    /// 95th-percentile issue→verdict latency.
    pub latency_p95: f64,
    /// 99th-percentile issue→verdict latency.
    pub latency_p99: f64,
    /// Median offer→dispatch queueing delay.
    pub queue_delay_p50: f64,
    /// 95th-percentile queueing delay.
    pub queue_delay_p95: f64,
    /// 99th-percentile queueing delay.
    pub queue_delay_p99: f64,
}

/// A whole scenario run: configuration echo plus per-phase reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario (workload) name.
    pub scenario: String,
    /// Strategy label (e.g. `checkerboard`).
    pub strategy: String,
    /// Cost model label (`uniform` / `hops`).
    pub cost_model: String,
    /// Topology label.
    pub topology: String,
    /// Node count.
    pub n: u64,
    /// Master seed.
    pub seed: u64,
    /// Number of service ports.
    pub ports: u64,
    /// Closed-loop client-pool size; absent for open-loop runs (whose
    /// JSON stays byte-identical to the pre-closed-loop schema).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub clients: Option<u64>,
    /// Scenario horizon in ticks.
    pub horizon: u64,
    /// Predicted steady-state passes per locate (`2·|Q|`, the query +
    /// reply cost against warm caches), for theory-vs-measured records.
    pub predicted_passes_per_locate: f64,
    /// Per-phase measurements.
    pub phases: Vec<PhaseReport>,
    /// Fixed-width time-series windows (closed-loop runs only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub windows: Option<Vec<WindowReport>>,
    /// Theoretical fault tolerance next to measured survival (hostile
    /// workloads and `--replication` runs only; benign JSON stays
    /// byte-identical).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub robustness: Option<RobustnessReport>,
}

/// The §2.4 redundancy story attached to one scenario run: what the
/// arrangement's geometry promises, next to what the run survived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Sampled `mm-core::robust` bound: the number of arbitrary node
    /// faults any (post set, query set) pair tolerates while still
    /// meeting — `min #(P(i) ∩ Q(j))` − 1 over sampled pairs.
    pub max_tolerated_faults: u64,
    /// Lowest sampled survival fraction (alive-pair rendezvous
    /// reachability) observed immediately after any crash churn during
    /// the run; 1.0 when no crash ever severed a pair.
    pub min_survival_fraction: f64,
    /// Byzantine nodes injected by the spec.
    pub byzantine_nodes: u64,
    /// Replication factor of the arrangement under test (1 = base).
    pub replication: u64,
}

impl ScenarioReport {
    /// Sum of a per-phase counter.
    pub(crate) fn total(&self, f: impl Fn(&PhaseReport) -> u64) -> u64 {
        self.phases.iter().map(f).sum()
    }

    /// Total completed locates.
    pub fn locates_completed(&self) -> u64 {
        self.total(|p| p.locates_completed)
    }

    /// Total simulator events executed across all phases.
    pub fn events_executed(&self) -> u64 {
        self.total(|p| p.events_executed)
    }

    /// Peak event-queue depth over the whole run.
    pub fn peak_queue_depth(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        let done = self.locates_completed();
        if done == 0 {
            0.0
        } else {
            self.total(|p| p.hits) as f64 / done as f64
        }
    }

    /// Overall passes per completed locate.
    pub fn passes_per_locate(&self) -> f64 {
        let done = self.locates_completed();
        if done == 0 {
            0.0
        } else {
            self.total(|p| p.message_passes) as f64 / done as f64
        }
    }

    /// Converts the run into `mm-analysis` theory-vs-measured records:
    /// one per phase with completed locates, comparing measured passes
    /// per locate against the strategy's `2·|Q|` steady-state prediction.
    pub fn records(&self) -> Vec<ExperimentRecord> {
        self.phases
            .iter()
            .filter(|p| p.locates_completed > 0)
            .map(|p| {
                ExperimentRecord::new(
                    &format!("{}/{}", self.scenario, p.name),
                    "passes-per-locate",
                    self.predicted_passes_per_locate,
                    p.passes_per_locate,
                )
            })
            .collect()
    }
}

/// Per-phase operation-counter accumulator, shared by both runtimes.
#[derive(Debug, Default, Clone)]
pub(crate) struct Acc {
    pub issued: u64,
    pub completed: u64,
    pub hits: u64,
    pub misses: u64,
    pub unresolved: u64,
    pub stale_results: u64,
    pub stale_requests: u64,
    pub recoveries: u64,
    pub requests_ok: u64,
    pub request_timeouts: u64,
    pub detected_lie: u64,
    pub false_match: u64,
}

// Percentile interpolation is deliberately NOT implemented here: every
// percentile in a report flows through `mm_analysis::stats`, the same
// code the campaign aggregation pipeline uses, so per-phase reports and
// campaign tables can never disagree on what "p99" means.

/// Builds one [`PhaseReport`] from the phase's operation counters and the
/// runtime metrics delta — the single code path for both runtimes. Rate
/// denominators use the scheduled phase duration `[start, end)`; the
/// final phase's drain grace is deliberately excluded (see
/// [`PhaseReport::throughput_per_kilotick`]). The delta is consumed: its
/// per-node loads are sorted in place, the report's only per-node copy.
pub(crate) fn build_phase_report(
    name: &str,
    start: SimTime,
    end: SimTime,
    acc: &Acc,
    mut delta: Metrics,
    hostile: bool,
) -> PhaseReport {
    let completed = acc.completed;
    let loads = &mut delta.node_load;
    loads.sort_unstable();
    let load_max = loads.last().copied().unwrap_or(0);
    let window = (end - start).max(1);
    PhaseReport {
        name: name.to_string(),
        start,
        end,
        locates_issued: acc.issued,
        locates_completed: completed,
        hits: acc.hits,
        misses: acc.misses,
        unresolved: acc.unresolved,
        stale_results: acc.stale_results,
        stale_requests: acc.stale_requests,
        staleness_recoveries: acc.recoveries,
        requests_ok: acc.requests_ok,
        request_timeouts: acc.request_timeouts,
        message_passes: delta.message_passes,
        sends: delta.sends,
        delivered: delta.delivered,
        dropped: delta.dropped,
        crashes: delta.crashes,
        events_executed: delta.events_executed,
        peak_queue_depth: delta.peak_queue_depth,
        passes_per_locate: if completed == 0 {
            0.0
        } else {
            delta.message_passes as f64 / completed as f64
        },
        throughput_per_kilotick: completed as f64 * 1000.0 / window as f64,
        hit_rate: if completed == 0 {
            0.0
        } else {
            acc.hits as f64 / completed as f64
        },
        load_p50: percentile_or_zero_u64(loads, 0.5),
        load_p99: percentile_or_zero_u64(loads, 0.99),
        load_max,
        // summed as f64 in ascending order: the mean's low bits depend on it
        load_mean: if loads.is_empty() {
            0.0
        } else {
            loads.iter().map(|&d| d as f64).sum::<f64>() / loads.len() as f64
        },
        detected_lie: hostile.then_some(acc.detected_lie),
        false_match: hostile.then_some(acc.false_match),
        closed_loop: None,
        throughput: None,
        obs: None,
    }
}

/// Latency / queueing-delay aggregation over one bucket of closed-loop
/// operation records.
#[derive(Default)]
struct LoopBucket {
    offered: u64,
    dispatched: u64,
    completed: u64,
    abandoned: u64,
    attempts: u64,
    hits: u64,
    unresolved: u64,
    latencies: Vec<f64>,
    delays: Vec<f64>,
}

impl LoopBucket {
    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).expect("ticks are finite"));
        v
    }

    fn stats(self) -> ClosedLoopStats {
        let latencies = Self::sorted(self.latencies);
        let delays = Self::sorted(self.delays);
        ClosedLoopStats {
            offered: self.offered,
            dispatched: self.dispatched,
            completed: self.completed,
            abandoned: self.abandoned,
            retries: self.attempts - self.completed,
            latency_p50: percentile_or_zero(&latencies, 0.5),
            latency_p95: percentile_or_zero(&latencies, 0.95),
            latency_p99: percentile_or_zero(&latencies, 0.99),
            latency_max: latencies.last().copied().unwrap_or(0.0) as u64,
            queue_delay_p50: percentile_or_zero(&delays, 0.5),
            queue_delay_p95: percentile_or_zero(&delays, 0.95),
            queue_delay_p99: percentile_or_zero(&delays, 0.99),
            queue_delay_max: delays.last().copied().unwrap_or(0.0) as u64,
        }
    }

    fn window(self, start: SimTime, end: SimTime) -> WindowReport {
        let latencies = Self::sorted(self.latencies);
        let delays = Self::sorted(self.delays);
        WindowReport {
            start,
            end,
            offered: self.offered,
            dispatched: self.dispatched,
            completed: self.completed,
            hits: self.hits,
            unresolved: self.unresolved,
            latency_p50: percentile_or_zero(&latencies, 0.5),
            latency_p95: percentile_or_zero(&latencies, 0.95),
            latency_p99: percentile_or_zero(&latencies, 0.99),
            queue_delay_p50: percentile_or_zero(&delays, 0.5),
            queue_delay_p95: percentile_or_zero(&delays, 0.95),
            queue_delay_p99: percentile_or_zero(&delays, 0.99),
        }
    }
}

/// Builds the per-phase [`ClosedLoopStats`] (index-aligned with
/// `phase_bounds`) and the fixed-width [`WindowReport`] series from a
/// finished pool's operation records — shared by both runtimes, so equal
/// records produce byte-equal closed-loop sections.
pub(crate) fn build_closed_loop(
    records: &[ClientOpRecord],
    phase_bounds: &[PhaseBounds],
    horizon: SimTime,
    window: SimTime,
) -> (Vec<ClosedLoopStats>, Vec<WindowReport>) {
    let mut phases: Vec<LoopBucket> = phase_bounds.iter().map(|_| LoopBucket::default()).collect();
    let n_windows = horizon.div_ceil(window).max(1) as usize;
    let mut windows: Vec<LoopBucket> = (0..n_windows).map(|_| LoopBucket::default()).collect();
    // bucket index per tick, clamped so post-horizon drain verdicts land
    // in the final bucket
    let phase_of = |t: SimTime| -> usize {
        phase_bounds
            .iter()
            .position(|(_, e, _)| t < *e)
            .unwrap_or(phase_bounds.len() - 1)
    };
    let window_of = |t: SimTime| -> usize { ((t / window) as usize).min(n_windows - 1) };
    for r in records {
        for bucket in [
            &mut phases[phase_of(r.offered_at)],
            &mut windows[window_of(r.offered_at)],
        ] {
            bucket.offered += 1;
            if r.dispatched_at.is_none() {
                bucket.abandoned += 1;
            }
        }
        if let Some(d) = r.dispatched_at {
            for bucket in [&mut phases[phase_of(d)], &mut windows[window_of(d)]] {
                bucket.dispatched += 1;
                bucket.delays.push((d - r.offered_at) as f64);
            }
            if let Some(done) = r.completed_at {
                for bucket in [&mut phases[phase_of(done)], &mut windows[window_of(done)]] {
                    bucket.completed += 1;
                    bucket.attempts += u64::from(r.attempts);
                    bucket.latencies.push((done - d) as f64);
                    match r.verdict {
                        Some(LocateVerdict::Hit) => bucket.hits += 1,
                        Some(LocateVerdict::Unresolved) => bucket.unresolved += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    let phase_stats = phases.into_iter().map(LoopBucket::stats).collect();
    let window_reports = windows
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let start = i as SimTime * window;
            let end = (start + window).min(horizon);
            b.window(start, end)
        })
        .collect();
    (phase_stats, window_reports)
}

/// Mean `2·|Q|` over a deterministic sample of (client, port) pairs — the
/// steady-state warm-cache locate cost prediction. Identical sampling in
/// both runtimes, so the echoed prediction matches too.
pub(crate) fn predict_passes_per_locate<PM: PortMapped>(
    resolver: &PM,
    n: usize,
    ports: &[Port],
) -> f64 {
    let samples = 32.min(n * ports.len()).max(1);
    let mut total = 0usize;
    for k in 0..samples {
        let client = NodeId::from((k * 7919) % n);
        let port = ports[k % ports.len()];
        total += resolver.query_set_for(client, port).len();
    }
    2.0 * total as f64 / samples as f64
}

/// The verdict of one locate operation, runtime-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateVerdict {
    /// An address came back.
    Hit,
    /// Every queried node answered "unknown".
    Miss,
    /// Some queried node never answered (crashed rendezvous / timeout).
    Unresolved,
    /// A Byzantine node's forged answer won best-stamp selection, but an
    /// honest hit in the same fan-out disagreed — the client rejects the
    /// address (hostile workloads only).
    DetectedLie,
    /// A forged answer won with no honest corroboration to expose it: the
    /// client walks away with a liar's address (hostile workloads only).
    FalseMatch,
}

/// Classifies a `Found` locate against the spec's Byzantine ground truth
/// — the single rule both runtimes and both loop modes share. A fresh
/// address is a plain hit even if a liar shouted over it (the truth won);
/// a non-fresh address held by a forging node is a lie, detected exactly
/// when an honest answer dissented; any other non-fresh address is the
/// benign stale-cache case, reported as a hit and counted separately.
pub(crate) fn classify_hit(
    addr: NodeId,
    home: NodeId,
    dissent: usize,
    liars: &[bool],
) -> LocateVerdict {
    if addr != home && liars.get(addr.index()).copied().unwrap_or(false) {
        if dissent > 0 {
            LocateVerdict::DetectedLie
        } else {
            LocateVerdict::FalseMatch
        }
    } else {
        LocateVerdict::Hit
    }
}

/// One primary locate operation as both runtimes saw it. Retries issued
/// by the stale-address recovery loop (open-loop) or a closed-loop retry
/// budget are *not* logged separately — the closed-loop log keeps one
/// entry per offered operation with its *final* verdict — so record `k`
/// in one runtime and record `k` in the other describe the same
/// spec-level arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateRecord {
    /// Arrival index in the spec's deterministic arrival sequence.
    pub arrival: u64,
    /// Spec-relative tick at which the arrival was injected.
    pub at: SimTime,
    /// The client node that issued the locate.
    pub client: NodeId,
    /// Index into the workload's port space.
    pub port_idx: usize,
    /// How the locate ended.
    pub verdict: LocateVerdict,
    /// The located address for [`LocateVerdict::Hit`].
    pub addr: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        arrival: u64,
        offered_at: SimTime,
        dispatched_at: Option<SimTime>,
        completed_at: Option<SimTime>,
        attempts: u32,
        verdict: Option<LocateVerdict>,
    ) -> ClientOpRecord {
        ClientOpRecord {
            arrival,
            offered_at,
            dispatched_at,
            completed_at,
            attempts,
            verdict,
            addr: None,
            client: dispatched_at.map(|_| NodeId::new(0)),
            port_idx: dispatched_at.map(|_| 0),
        }
    }

    /// Satellite regression: a metrics delta with no per-node loads (an
    /// empty network snapshot) must produce zeroed load stats, not an
    /// empty-slice percentile panic or a 0/0 mean.
    #[test]
    fn empty_node_load_yields_zeroed_stats() {
        let acc = Acc::default();
        let p = build_phase_report("empty", 0, 100, &acc, Metrics::new(0), false);
        assert_eq!(p.load_p50, 0.0);
        assert_eq!(p.load_p99, 0.0);
        assert_eq!(p.load_max, 0);
        assert_eq!(p.load_mean, 0.0);
        assert_eq!(p.throughput_per_kilotick, 0.0);
        assert_eq!(p.closed_loop, None);
        assert_eq!(p.detected_lie, None, "benign schema stays untouched");
        assert_eq!(p.false_match, None);
    }

    /// The load statistics as the report used to compute them: a separate
    /// delta vector, then an `f64` copy stable-sorted by `partial_cmp`.
    fn copying_load_stats(before: &[u64], after: &[u64]) -> (f64, f64, u64, f64) {
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let load_max = delta.iter().copied().max().unwrap_or(0);
        let mut loads: Vec<f64> = delta.iter().map(|&d| d as f64).collect();
        loads.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
        let mean = if loads.is_empty() {
            0.0
        } else {
            loads.iter().sum::<f64>() / loads.len() as f64
        };
        (
            percentile_or_zero(&loads, 0.5),
            percentile_or_zero(&loads, 0.99),
            load_max,
            mean,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Subtracting in place and sorting the `u64` loads reads the same
        /// four statistics, bit for bit, as the copying computation — on
        /// lengths 0, 1, 2 and random, zero-heavy phases, loads up to
        /// `u32::MAX`, and a phase-start snapshot that is not zero.
        #[test]
        fn in_place_load_stats_match_the_copying_computation(
            len_class in 0usize..4,
            zero_heavy in proptest::any::<bool>(),
            cells in proptest::collection::vec(
                (0..=u64::from(u32::MAX), 0..=u64::from(u32::MAX), 0u8..4),
                3..300,
            ),
        ) {
            let len = if len_class < 3 { len_class } else { cells.len() };
            let (before, after): (Vec<u64>, Vec<u64>) = cells[..len]
                .iter()
                .map(|&(start, load, die)| {
                    let load = if zero_heavy && die != 0 { 0 } else { load };
                    (start, start + load)
                })
                .unzip();
            let (p50, p99, max, mean) = copying_load_stats(&before, &after);
            let mut snapshot = Metrics::new(len);
            snapshot.node_load = before;
            let mut now = Metrics::new(len);
            now.node_load = after;
            let p = build_phase_report("p", 0, 100, &Acc::default(), now.delta(&snapshot), false);
            proptest::prop_assert_eq!(p.load_p50.to_bits(), p50.to_bits());
            proptest::prop_assert_eq!(p.load_p99.to_bits(), p99.to_bits());
            proptest::prop_assert_eq!(p.load_max, max);
            proptest::prop_assert_eq!(p.load_mean.to_bits(), mean.to_bits());
        }
    }

    /// Hostile runs surface the Byzantine counters; the fresh/liar/dissent
    /// classification rule is shared by both runtimes, so pin it here.
    #[test]
    fn classify_hit_follows_the_dissent_rule() {
        let mut liars = vec![false; 8];
        liars[3] = true;
        let home = NodeId::new(5);
        // fresh address: plain hit even if the home were marked a liar
        assert_eq!(classify_hit(home, home, 0, &liars), LocateVerdict::Hit);
        // stale-but-honest address: the benign §1.3 case stays a hit
        assert_eq!(
            classify_hit(NodeId::new(2), home, 0, &liars),
            LocateVerdict::Hit
        );
        // forged address with an honest dissenting answer: detected
        assert_eq!(
            classify_hit(NodeId::new(3), home, 1, &liars),
            LocateVerdict::DetectedLie
        );
        // forged address, no dissent: the lie escapes
        assert_eq!(
            classify_hit(NodeId::new(3), home, 0, &liars),
            LocateVerdict::FalseMatch
        );
        let acc = Acc {
            completed: 4,
            detected_lie: 2,
            false_match: 1,
            ..Acc::default()
        };
        let p = build_phase_report("assault", 0, 100, &acc, Metrics::new(4), true);
        assert_eq!(p.detected_lie, Some(2));
        assert_eq!(p.false_match, Some(1));
    }

    #[test]
    fn closed_loop_buckets_by_event_tick() {
        let bounds = vec![(0u64, 100u64, "a".to_string()), (100, 200, "b".to_string())];
        let records = vec![
            // offered in phase a, dispatched immediately, done 2 later
            rec(0, 10, Some(10), Some(12), 1, Some(LocateVerdict::Hit)),
            // offered in phase a, queued 30 ticks, one retry
            rec(
                1,
                20,
                Some(50),
                Some(80),
                2,
                Some(LocateVerdict::Unresolved),
            ),
            // offered in phase b, never dispatched
            rec(2, 150, None, None, 0, None),
        ];
        let (phases, windows) = build_closed_loop(&records, &bounds, 200, 50);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].offered, 2);
        assert_eq!(phases[0].dispatched, 2);
        assert_eq!(phases[0].completed, 2);
        assert_eq!(phases[0].retries, 1);
        assert_eq!(phases[0].abandoned, 0);
        assert_eq!(phases[0].latency_max, 30);
        assert_eq!(phases[0].queue_delay_max, 30);
        assert_eq!(phases[0].queue_delay_p50, 15.0);
        assert_eq!(phases[1].offered, 1);
        assert_eq!(phases[1].abandoned, 1);
        assert_eq!(phases[1].dispatched, 0);
        assert_eq!(phases[1].latency_p99, 0.0, "no samples → zeroed");

        assert_eq!(windows.len(), 4);
        assert_eq!(
            windows.iter().map(|w| (w.start, w.end)).collect::<Vec<_>>(),
            vec![(0, 50), (50, 100), (100, 150), (150, 200)]
        );
        assert_eq!(windows[0].offered, 2, "offers bucket by offered tick");
        assert_eq!(windows[0].hits, 1, "verdict at t=12 lands in window 0");
        assert_eq!(windows[0].unresolved, 0);
        assert_eq!(
            windows[1].unresolved, 1,
            "verdict at t=80 lands in window 1"
        );
        assert_eq!(windows[1].dispatched, 1, "dispatch at t=50 in window 1");
        assert_eq!(windows[1].queue_delay_p99, 30.0);
        assert_eq!(windows[3].offered, 1);
        assert_eq!(windows[1].offered, 0, "offers stay where offered");
        assert_eq!(windows[2].offered, 0, "empty windows are still emitted");
    }

    /// A record offered exactly on the horizon tick clamps into the last
    /// window instead of indexing past the series.
    #[test]
    fn closed_loop_window_clamps_the_horizon_edge() {
        let bounds = vec![(0u64, 90u64, "a".to_string())];
        let records = vec![rec(0, 89, Some(89), Some(91), 1, Some(LocateVerdict::Hit))];
        let (_, windows) = build_closed_loop(&records, &bounds, 90, 40);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows.last().unwrap().end, 90, "clamped to horizon");
        assert_eq!(windows[2].offered, 1);
    }
}
