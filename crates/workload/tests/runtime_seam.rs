//! The runner's own accounting, pinned through the [`Runtime`] seam with a
//! scripted in-memory network — no simulator event loop, no threads. What
//! is asserted here is decided by `ScenarioRunner` alone (retry on a
//! stale bounce, timeout classification, the forced final drain, the
//! verdict partition, and that the open and the closed loop settle and
//! record a locate through one path) and was previously only observable
//! through a full engine.

use mm_core::strategies::Checkerboard;
use mm_core::Port;
use mm_obs::{TraceConfig, TraceFile};
use mm_proto::{FaultProfile, LocateHandle, LocateOutcome, RequestOutcome, Settled};
use mm_sim::{Metrics, SimTime};
use mm_topo::NodeId;
use mm_workload::{
    ArrivalProcess, ClientModel, FaultSpec, Issued, LocateRecord, LocateVerdict, Phase,
    PortPopularity, Runtime, ScenarioReport, ScenarioRunner, ThinkTime, Workload,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

const N: usize = 16;
/// The spec marks both as forgers; the script lies with one that is not
/// the port's home (which the runner draws).
const LIARS: [u32; 2] = [3, 5];

/// What the network answers to a locate.
#[derive(Debug, Clone, Copy)]
enum Answer {
    /// The server's true address.
    Home,
    /// A well-meant but wrong address (a stale cache).
    Elsewhere,
    /// Every rendezvous answers "unknown".
    Unknown,
    /// Nobody ever answers.
    Silence,
    /// One rendezvous answers with the true address, another never does:
    /// the locate stays undecided with a best partial answer.
    Partial,
    /// A forger's address, with this many honest answers dissenting.
    Lie { dissent: usize },
}

/// What the test can still see after the runner consumed the runtime.
#[derive(Debug, Default)]
struct Issues {
    locates: usize,
    requests: usize,
    /// `locate_outcome` and `request_outcome` calls.
    reads: usize,
}

/// A network that answers the `k`-th locate with `script[k]` (the last
/// entry repeating), `latencies[k]` ticks after issue (cycling) — or on
/// the spot, when `settled` — and reports each decisive answer as it falls
/// due. Requests are served only at a port's registered home, `latency`
/// ticks after issue.
struct Scripted {
    resolver: Checkerboard,
    script: Vec<Answer>,
    latency: SimTime,
    latencies: Vec<SimTime>,
    settled: bool,
    now: SimTime,
    homes: HashMap<Port, NodeId>,
    /// Due tick and scripted outcome; a decisive one shows once due.
    locates: Vec<(SimTime, LocateOutcome)>,
    requests: Vec<(SimTime, RequestOutcome)>,
    /// Decisive answers not reported yet, with their due tick.
    unreported: Vec<(SimTime, Settled)>,
    issues: Rc<RefCell<Issues>>,
}

impl Scripted {
    fn new(script: &[Answer], settled: bool) -> (Self, Rc<RefCell<Issues>>) {
        let issues = Rc::new(RefCell::new(Issues::default()));
        let latency = if settled { 0 } else { 2 };
        let rt = Scripted {
            resolver: Checkerboard::new(N),
            script: script.to_vec(),
            latency,
            latencies: vec![latency],
            settled,
            now: 0,
            homes: HashMap::new(),
            locates: Vec::new(),
            requests: Vec::new(),
            unreported: Vec::new(),
            issues: Rc::clone(&issues),
        };
        (rt, issues)
    }

    /// Answers (to locates and requests) take `latency` ticks instead.
    fn with_latency(self, latency: SimTime) -> Self {
        Scripted {
            latency,
            ..self.with_locate_latencies(&[latency])
        }
    }

    /// The `k`-th locate's answers take `latencies[k]` ticks (cycling), so
    /// they can land out of issue order.
    fn with_locate_latencies(mut self, latencies: &[SimTime]) -> Self {
        self.latencies = latencies.to_vec();
        self
    }

    fn read(&self) {
        self.issues.borrow_mut().reads += 1;
    }

    /// Remembers to report `settled` once `due`, unless it was settled at
    /// issue.
    fn answer_at(&mut self, due: SimTime, settled: Settled) {
        if !self.settled {
            self.unreported.push((due, settled));
        }
    }
}

impl Runtime for Scripted {
    type Resolver = Checkerboard;

    fn resolver(&self) -> &Checkerboard {
        &self.resolver
    }
    fn topology(&self) -> String {
        "scripted".to_string()
    }
    fn cost_model(&self) -> &'static str {
        "uniform"
    }
    fn register_server(&mut self, at: NodeId, port: Port) {
        self.homes.insert(port, at);
    }
    fn migrate_server(&mut self, port: Port, _from: NodeId, to: NodeId) {
        self.homes.insert(port, to);
    }

    fn locate(&mut self, client: NodeId, port: Port) -> Issued<LocateHandle> {
        let k = self.locates.len();
        let home = self.homes[&port];
        let latency = self.latencies[k % self.latencies.len()];
        let found = |addr: NodeId, dissent| LocateOutcome::Found {
            addr,
            stamp: 1,
            elapsed: latency,
            meets: vec![addr],
            dissent,
        };
        let liar = NodeId::new(LIARS[usize::from(home.raw() == LIARS[0])]);
        let outcome = match self.script[k.min(self.script.len() - 1)] {
            Answer::Home => found(home, 0),
            Answer::Elsewhere => found(NodeId::new((home.raw() + 7) % N as u32), 0),
            Answer::Unknown => LocateOutcome::NotFound { elapsed: latency },
            Answer::Silence => LocateOutcome::unanswered(1),
            Answer::Partial => LocateOutcome::Unresolved {
                hits: 1,
                misses: 0,
                missing: 1,
                best: Some((home, 1)),
                dissent: 0,
            },
            Answer::Lie { dissent } => found(liar, dissent),
        };
        let due = self.now + latency;
        if outcome.is_complete() {
            self.answer_at(due, Settled::Locate(k as u64));
        }
        self.locates.push((due, outcome));
        self.issues.borrow_mut().locates += 1;
        Issued {
            token: LocateHandle {
                client,
                id: k as u64,
            },
            settled: self.settled,
        }
    }

    fn locate_outcome(&self, h: LocateHandle) -> LocateOutcome {
        self.read();
        let (due, outcome) = &self.locates[h.id as usize];
        if !outcome.is_complete() || self.now >= *due {
            outcome.clone()
        } else {
            LocateOutcome::unanswered(1)
        }
    }

    fn request(&mut self, _client: NodeId, addr: NodeId, port: Port, body: u64) -> Issued<u64> {
        let outcome = if self.homes[&port] == addr {
            RequestOutcome::Replied {
                body: body + 1,
                elapsed: self.latency,
            }
        } else {
            RequestOutcome::StaleAddress
        };
        let (id, due) = (self.requests.len() as u64, self.now + self.latency);
        self.answer_at(due, Settled::Request(id));
        self.requests.push((due, outcome));
        self.issues.borrow_mut().requests += 1;
        Issued {
            token: id,
            settled: self.settled,
        }
    }

    fn request_outcome(&self, _client: NodeId, id: u64) -> Option<RequestOutcome> {
        self.read();
        let (due, outcome) = self.requests[id as usize];
        (self.now >= due).then_some(outcome)
    }

    fn drain_settled(&mut self) -> Vec<Settled> {
        let now = self.now;
        let mut answered = Vec::new();
        self.unreported.retain(|&(due, settled)| {
            if due <= now {
                answered.push(settled);
            }
            due > now
        });
        answered
    }

    fn crash(&mut self, _v: NodeId) {}
    fn restore(&mut self, _v: NodeId) {}
    fn clear_cache(&mut self, _v: NodeId) {}
    fn set_fault(&mut self, _v: NodeId, _profile: FaultProfile) {}

    fn advance(&mut self, deadline: SimTime) {
        self.now = self.now.max(deadline);
    }
    fn metrics(&self) -> Cow<'_, Metrics> {
        Cow::Owned(Metrics::new(N))
    }
}

/// Two 100-tick phases, one arrival every 10 ticks: 20 arrivals, one
/// port, locate-then-call, a 16-tick client timeout.
fn spec(faults: Vec<FaultSpec>) -> Workload {
    let arrivals = ArrivalProcess::FixedRate { interval: 10 };
    Workload {
        name: "scripted".into(),
        seed: 1,
        ports: 1,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("first", 100, arrivals),
            Phase::new("second", 100, arrivals),
        ],
        churn: vec![],
        refresh_interval: None,
        request_after_locate: true,
        op_timeout: 16,
        clients: None,
        faults,
    }
}

/// Both scripted nodes forge addresses: the spec is hostile, so clients
/// salvage partial answers and run lie detection.
fn liar_faults() -> Vec<FaultSpec> {
    LIARS
        .iter()
        .map(|&v| FaultSpec {
            node_index: v as usize,
            fault: FaultProfile::ForgedAddress,
        })
        .collect()
}

/// The same 20 arrivals without the follow-up call (a closed-loop spec
/// cannot carry one), open-loop or through `pool`.
fn locate_only_spec(faults: Vec<FaultSpec>, pool: Option<ClientModel>) -> Workload {
    Workload {
        request_after_locate: false,
        clients: pool,
        ..spec(faults)
    }
}

/// A pool that adds nothing of its own to the open loop's behaviour: a
/// free slot for every arrival, no think pause, no retry.
fn transparent_pool() -> Option<ClientModel> {
    Some(ClientModel {
        clients: 4,
        think: ThinkTime::Zero,
        retry_budget: 0,
        retry_backoff: 1,
        window: 100,
    })
}

/// Runs `script` (the `k`-th locate answered `latencies[k]` ticks after
/// issue, cycling) through the open loop and through the transparent
/// pool, tracing both.
fn through_both_loops(
    script: &[Answer],
    latencies: &[SimTime],
    faults: Vec<FaultSpec>,
) -> [(ScenarioReport, Vec<LocateRecord>, TraceFile); 2] {
    [None, transparent_pool()].map(|pool| {
        let run = |traced: bool| {
            let (rt, _) = Scripted::new(script, false);
            let spec = locate_only_spec(faults.clone(), pool);
            let rt = rt.with_locate_latencies(latencies);
            let mut runner = ScenarioRunner::over(spec, rt, "scripted");
            if traced {
                runner.set_trace(TraceConfig::full(1));
            }
            runner
        };
        let (report, log) = run(false).run_logged();
        let (traced_report, trace) = run(true).run_traced();
        assert_eq!(report, traced_report, "tracing must not change the report");
        (report, log, trace.expect("tracing was on"))
    })
}

/// `(verdict, elapsed)` of every traced locate.
fn locate_spans(trace: &TraceFile) -> Vec<(&str, u64)> {
    trace
        .spans
        .iter()
        .filter(|s| s.kind == "locate")
        .map(|s| (s.verdict.as_deref().unwrap(), s.elapsed.unwrap()))
        .collect()
}

fn total(r: &ScenarioReport, f: impl Fn(&mm_workload::PhaseReport) -> u64) -> u64 {
    r.phases.iter().map(f).sum()
}

#[test]
fn a_stale_bounce_yields_exactly_one_retry_and_one_recovery() {
    // polled and settled-at-issue runtimes must account identically
    for settled in [false, true] {
        let (rt, issues) = Scripted::new(&[Answer::Elsewhere, Answer::Home], settled);
        let r = ScenarioRunner::over(spec(vec![]), rt, "scripted").run();
        assert_eq!(total(&r, |p| p.stale_requests), 1, "settled={settled}");
        assert_eq!(total(&r, |p| p.staleness_recoveries), 1);
        assert_eq!(total(&r, |p| p.stale_results), 1, "the wrong address hit");
        assert_eq!(total(&r, |p| p.locates_issued), 21, "20 arrivals + 1 retry");
        assert_eq!(issues.borrow().locates, 21, "and no locate beyond them");
        assert_eq!(total(&r, |p| p.hits), 21);
        assert_eq!(total(&r, |p| p.request_timeouts), 0);
    }
}

#[test]
fn a_silent_runtime_times_every_operation_out_at_op_timeout() {
    let (rt, issues) = Scripted::new(&[Answer::Silence], false);
    let (r, log) = ScenarioRunner::over(spec(vec![]), rt, "scripted").run_logged();
    assert_eq!(log.len(), 20);
    assert!(log
        .iter()
        .all(|rec| rec.verdict == LocateVerdict::Unresolved));
    // verdicts land the first time the runner looks at or after issue +
    // 16: the arrivals at 0..=80 by the first phase's close at 100, the
    // one at 90 only in the second phase — not earlier, not at the end
    assert_eq!(r.phases[0].unresolved, 9);
    assert_eq!(r.phases[1].unresolved, 11);
    assert_eq!(total(&r, |p| p.locates_completed), 20);
    assert_eq!(total(&r, |p| p.hits + p.misses), 0);
    let issues = issues.borrow();
    assert_eq!(
        (issues.locates, issues.requests),
        (20, 0),
        "nothing followed up"
    );
}

#[test]
fn the_forced_final_drain_issues_no_follow_ups() {
    let (rt, issues) = Scripted::new(&[Answer::Home], false);
    let r = ScenarioRunner::over(spec(vec![]), rt, "scripted").run();
    // the last arrival (tick 190) is only read by the forced drain: it
    // counts as a hit, but the call it would make could never be answered
    assert_eq!(total(&r, |p| p.hits), 20);
    assert_eq!(issues.borrow().requests, 19);
    assert_eq!(
        total(&r, |p| p.requests_ok),
        19,
        "every issued call is accounted"
    );
    assert_eq!(total(&r, |p| p.request_timeouts), 0);
}

#[test]
fn completed_locates_partition_into_the_five_verdicts_per_phase() {
    let cycle = [
        Answer::Home,
        Answer::Unknown,
        Answer::Silence,
        Answer::Lie { dissent: 1 },
        Answer::Lie { dissent: 0 },
    ];
    let script: Vec<Answer> = (0..64).map(|k| cycle[k % cycle.len()]).collect();
    let (rt, _) = Scripted::new(&script, false);
    let r = ScenarioRunner::over(spec(liar_faults()), rt, "scripted").run();
    for p in &r.phases {
        let (lies, fooled) = (p.detected_lie.unwrap(), p.false_match.unwrap());
        assert_eq!(
            p.locates_completed,
            p.hits + p.misses + p.unresolved + lies + fooled,
            "phase {}",
            p.name
        );
        assert!(
            p.hits > 0 && p.misses > 0 && p.unresolved > 0 && lies > 0 && fooled > 0,
            "every verdict occurs in phase {}: {p:?}",
            p.name
        );
    }
    // an escaped forgery bounces off the non-serving liar and re-locates
    assert_eq!(
        total(&r, |p| p.stale_requests),
        total(&r, |p| p.false_match.unwrap()),
    );
}

#[test]
fn the_open_and_the_closed_loop_settle_one_script_identically() {
    let cycle = [
        Answer::Home,
        Answer::Elsewhere,
        Answer::Unknown,
        Answer::Silence,
        Answer::Lie { dissent: 0 },
        Answer::Lie { dissent: 1 },
    ];
    let script: Vec<Answer> = (0..20).map(|k| cycle[k % cycle.len()]).collect();
    // one latency for all, and latencies that land answers out of issue
    // order (the locate at 0 answers at 14, the one at 10 at 12)
    for latencies in [&[2][..], &[14, 2, 9]] {
        let [(open, open_log, open_trace), (closed, closed_log, closed_trace)] =
            through_both_loops(&script, latencies, liar_faults());
        assert_eq!(closed.clients, Some(4), "the second run is closed-loop");
        let partition = |r: &ScenarioReport| {
            [
                total(r, |p| p.locates_issued),
                total(r, |p| p.locates_completed),
                total(r, |p| p.hits),
                total(r, |p| p.stale_results),
                total(r, |p| p.misses),
                total(r, |p| p.unresolved),
                total(r, |p| p.detected_lie.unwrap()),
                total(r, |p| p.false_match.unwrap()),
            ]
        };
        assert_eq!(partition(&open), partition(&closed), "{latencies:?}");
        assert!(
            partition(&open).iter().all(|&count| count > 0),
            "every verdict occurs: {:?}",
            partition(&open)
        );
        assert_eq!(open_log.len(), 20);
        assert_eq!(open_log, closed_log, "same operations, same verdicts");
        assert_eq!(locate_spans(&open_trace), locate_spans(&closed_trace));
    }
}

/// The runner reads an operation's outcome when it is final, not while
/// it is in flight. Answers here take 400 ticks against one arrival every
/// 2, so all 200 locates are in flight together, and re-reading them at
/// every arrival would be ≈ 100 reads per operation.
#[test]
fn each_outcome_is_read_when_final_not_while_in_flight() {
    let spec = Workload {
        phases: vec![
            Phase::new("arrivals", 400, ArrivalProcess::FixedRate { interval: 2 }),
            Phase::new("answers", 500, ArrivalProcess::Idle),
            Phase::new("calls", 500, ArrivalProcess::Idle),
        ],
        op_timeout: 1000,
        ..spec(vec![])
    };
    let (rt, issues) = Scripted::new(&[Answer::Home], false);
    let r = ScenarioRunner::over(spec, rt.with_latency(400), "scripted").run();
    assert_eq!(total(&r, |p| p.hits), 200);
    assert_eq!(total(&r, |p| p.requests_ok), 200, "every call answered");
    let issues = issues.borrow();
    let ops = issues.locates + issues.requests;
    assert_eq!(ops, 400);
    assert!(
        issues.reads <= 2 * ops,
        "{} outcome reads for {ops} operations",
        issues.reads
    );
}

/// An answer the runtime reports after the client's timeout is ignored:
/// the locate was settled once, as unresolved, when the timeout fired.
#[test]
fn a_report_after_the_timeout_is_not_counted_again() {
    let (rt, issues) = Scripted::new(&[Answer::Home], false);
    // every answer lands 40 ticks out, 24 past the 16-tick timeout
    let (r, log) = ScenarioRunner::over(spec(vec![]), rt.with_latency(40), "scripted").run_logged();
    assert_eq!(total(&r, |p| p.locates_completed), 20);
    assert_eq!(total(&r, |p| p.unresolved), 20);
    assert_eq!(total(&r, |p| p.hits), 0);
    assert_eq!(log.len(), 20);
    let issues = issues.borrow();
    assert_eq!((issues.locates, issues.requests, issues.reads), (20, 0, 20));
}

/// The one case the two loops used to disagree on: a decisive answer that
/// lands exactly when the client's timeout would fire (reachable on the
/// engine under hop cost) is a completion, not a salvage — its span
/// carries the round trip of the timing law, not the timeout.
#[test]
fn a_decisive_answer_on_the_timeout_tick_is_stamped_with_the_round_trip() {
    let op_timeout = spec(vec![]).op_timeout;
    for (report, _, trace) in through_both_loops(&[Answer::Home], &[op_timeout], liar_faults()) {
        assert_eq!(total(&report, |p| p.hits), 20);
        assert_eq!(
            locate_spans(&trace),
            vec![("hit", 2); 20],
            "clients = {:?}",
            report.clients
        );
    }
}

#[test]
fn a_salvaged_answer_is_stamped_with_the_whole_timeout() {
    let op_timeout = spec(vec![]).op_timeout;
    // a hostile world: the best partial answer is acted on at timeout
    for (report, log, trace) in through_both_loops(&[Answer::Partial], &[2], liar_faults()) {
        assert_eq!(total(&report, |p| p.hits), 20, "salvaged");
        assert!(log.iter().all(|rec| rec.addr.is_some()));
        assert_eq!(locate_spans(&trace), vec![("hit", op_timeout); 20]);
    }
    // a benign one: the same answers are written off
    for (report, log, trace) in through_both_loops(&[Answer::Partial], &[2], vec![]) {
        assert_eq!(total(&report, |p| p.unresolved), 20);
        assert!(log.iter().all(|rec| rec.addr.is_none()));
        assert_eq!(locate_spans(&trace), vec![("unresolved", op_timeout); 20]);
    }
}
