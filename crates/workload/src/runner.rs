//! The scenario runner: compiles a [`Workload`] into operations against a
//! [`Runtime`] and drives it to the horizon — open-loop, or through a
//! closed-loop client pool when the spec carries a [`crate::ClientModel`].
//!
//! The runner is the layer between the protocols and the benchmarks: the
//! paper (and the E1–E18 harness) measures one locate at a time on an
//! otherwise silent network, while [`ScenarioRunner`] sustains concurrent
//! load — arrivals do not wait for earlier operations, churn fires on
//! schedule, and servers refresh their postings while clients keep
//! querying. Per-[`crate::Phase`] metrics come out as [`PhaseReport`]s
//! (throughput, passes per locate, hit rate, node-load percentiles,
//! staleness recoveries), byte-identically reproducible for equal seeds.
//!
//! There is one runner. What executes the protocol — the `mm-sim` event
//! queue or a network of OS threads — sits behind the [`Runtime`] seam
//! ([`crate::runtime`]), and the runner never asks which: every random
//! decision and the runner's one view of who is alive live in one `Draws`
//! (`timeline.rs`), and trace ids and the timeline walk follow one
//! order, which is what makes the runtimes differential-testable.
//!
//! There is also one settlement path. The two loops are different client
//! models — open-loop arrivals issue on the spot and chain the §1.3
//! request / re-locate recovery; pool slots hold one operation at a time
//! with a retry budget — but what a client makes of the answers to a
//! locate is one policy: `Ops::settle` is the only reader of a
//! [`LocateOutcome`] and `Ops::record` the only place a verdict is
//! counted, traced and logged, whichever loop waited for it.
//!
//! Neither loop polls. An operation is final when the runtime settled it
//! at issue, when the runtime reports it ([`Runtime::drain_settled`]), or
//! when the client's timeout passes; a loop reads its outcome then, once.
//! On a hop-cost ring every locate of a run is in flight at once, so
//! re-reading them all at every arrival would cost arrivals² reads.

use crate::clients::{ClientOpRecord, ClientPool, LocateOp, OpDriver};
use crate::observe::{
    emit_fault_span, emit_locate_spans, emit_post_spans, emit_request_span, observe_locate,
    uniform_round_trip,
};
use crate::report::{
    build_closed_loop, build_phase_report, classify_hit, predict_passes_per_locate, Acc, Baseline,
    RobustnessReport, WindowReport,
};
use crate::runtime::{Issued, Runtime};
use crate::spec::{ChurnAction, Workload};
use crate::timeline::{Draws, Event, ResolvedChurn, Timeline};
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_obs::{Registry, TraceConfig, TraceFile, TraceHeader, Tracer, HIST_BUCKETS, TRACE_VERSION};
use mm_proto::{FaultProfile, LocateOutcome, RequestOutcome, Settled, ShotgunEngine};
use mm_sim::{CostModel, QueueKind, RouterKind, ShardMode, SimTime};
use mm_topo::{Graph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub use crate::report::{LocateRecord, LocateVerdict, PhaseReport, ScenarioReport};

/// An in-flight open-loop operation awaiting its verdict. Ticks are
/// spec-relative.
#[derive(Debug, Clone, Copy)]
enum Op {
    Locate {
        op: LocateOp,
        /// This locate is the retry after a stale request bounce.
        retry: bool,
    },
    Request {
        client: NodeId,
        request_id: u64,
        port_idx: usize,
        issued: SimTime,
        /// This request follows a stale-retry locate; don't retry again.
        after_retry: bool,
    },
}

impl Op {
    fn issued(&self) -> SimTime {
        match *self {
            Op::Locate { op, .. } => op.issued,
            Op::Request { issued, .. } => issued,
        }
    }

    /// The runtime's name for the operation in its reports.
    fn token(&self) -> Settled {
        match *self {
            Op::Locate { op, .. } => Settled::Locate(op.handle.id),
            Op::Request { request_id, .. } => Settled::Request(request_id),
        }
    }
}

/// What a client makes of the answers to one locate.
#[derive(Debug)]
struct Reading {
    verdict: LocateVerdict,
    /// The address the client walks away with (decided or salvaged).
    addr: Option<NodeId>,
    /// The rendezvous nodes that answered with a hit, sorted.
    meets: Vec<NodeId>,
    /// The address is the best partial answer, taken when the client's
    /// own timeout fired — not a decisive completion.
    salvaged: bool,
    /// Ticks from issue to the verdict: the runtime's measured round trip
    /// for a decisive answer, the full timeout for one the client gave up
    /// on.
    elapsed: SimTime,
}

/// The half of the runner an operation touches: the runtime, the ground
/// truth a verdict is judged against, and everything a verdict is
/// recorded into. It is its own struct so the closed-loop pool can drive
/// it as its [`OpDriver`] while the runner lends out its [`Draws`]
/// alongside.
#[derive(Debug)]
struct Ops<R: Runtime> {
    rt: R,
    /// Port handles, index-aligned with the spec's port space.
    ports: Vec<Port>,
    /// Current true server address per port.
    homes: Vec<NodeId>,
    /// Byzantine ground truth for verdict classification: `liars[v]` iff
    /// the spec gives node `v` a forging fault profile.
    liars: Vec<bool>,
    /// Hostile-world client policy: act on the best partial answer once
    /// the timeout fires instead of writing the operation off.
    salvage: bool,
    /// The current phase's operation counters.
    acc: Acc,
    /// Per-operation verdict log for the cross-runtime conformance suite.
    op_log: Vec<LocateRecord>,
    /// Offset between spec-relative time and runtime time (setup posting
    /// settles during the offset window).
    t0: SimTime,
    /// Client timeout actually used: the spec's `op_timeout` as the
    /// runtime stretches it (see [`Runtime::op_timeout`]).
    op_timeout: SimTime,
    /// Deterministic causal tracer (`None` = tracing off, the default).
    tracer: Option<Tracer>,
    /// Metrics registry (`None` = observability off, the default).
    registry: Option<Registry>,
    /// Issue sequence number of the next operation.
    next_seq: u64,
    /// The operations a loop waits on that the runtime will report when
    /// final, by the runtime's name for them, with their issue sequence.
    awaited: HashMap<Settled, u64>,
    /// Operations the runtime settled at issue, since the last
    /// [`collect`](Ops::collect).
    at_issue: Vec<u64>,
}

impl<R: Runtime> Ops<R> {
    /// Lets virtual time pass up to spec tick `t`.
    fn advance(&mut self, t: SimTime) {
        self.rt.advance(self.t0 + t);
    }

    /// Numbers an operation the runtime just issued and starts waiting
    /// for it to be final: at once if the runtime settled it at issue,
    /// else when the runtime reports `token`. Returns its issue sequence.
    fn track(&mut self, token: Settled, settled: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if settled {
            self.at_issue.push(seq);
        } else {
            self.awaited.insert(token, seq);
        }
        seq
    }

    /// Calls `is_final` with the issue sequence of every operation that
    /// became final since the last call: settled at issue, or reported by
    /// the runtime. A report for an operation the client already gave up
    /// on is ignored.
    fn collect(&mut self, mut is_final: impl FnMut(u64)) {
        self.at_issue.drain(..).for_each(&mut is_final);
        for token in self.rt.drain_settled() {
            if let Some(seq) = self.awaited.remove(&token) {
                is_final(seq);
            }
        }
    }

    /// Stops waiting for `token`'s report: the operation was settled.
    fn forget(&mut self, token: Settled) {
        self.awaited.remove(&token);
    }

    /// Issues a locate at spec tick `now`. Trace ids bind to dispatches in
    /// the order the shared decision layers (timeline, pool) make them, so
    /// every runtime allocates the identical id for the identical attempt.
    /// Returns the attempt, and its issue sequence with whether the
    /// runtime settled it on the spot.
    fn start(
        &mut self,
        now: SimTime,
        client: NodeId,
        port_idx: usize,
        arrival: Option<u64>,
        with_trace: bool,
    ) -> (LocateOp, Issued<u64>) {
        let Issued {
            token: handle,
            settled,
        } = self.rt.locate(client, self.ports[port_idx]);
        let seq = self.track(Settled::Locate(handle.id), settled);
        self.acc.issued += 1;
        let trace = self
            .tracer
            .as_mut()
            .filter(|_| with_trace)
            .map(Tracer::next_trace_id);
        let op = LocateOp {
            handle,
            port_idx,
            issued: now,
            trace,
            arrival,
        };
        (
            op,
            Issued {
                token: seq,
                settled,
            },
        )
    }

    /// The client's reading of a final locate's answers — the only place a
    /// [`LocateOutcome`] is interpreted. Final means every answer is in,
    /// or the client stopped waiting: a locate still undecided is read as
    /// given up on.
    fn settle(&self, op: &LocateOp) -> Reading {
        let without_address = |verdict, elapsed| Reading {
            verdict,
            addr: None,
            meets: Vec::new(),
            salvaged: false,
            elapsed,
        };
        let (addr, meets, dissent, salvaged, elapsed) = match self.rt.locate_outcome(op.handle) {
            LocateOutcome::Found {
                addr,
                elapsed,
                meets,
                dissent,
                ..
            } => (addr, meets, dissent, false, elapsed),
            LocateOutcome::NotFound { elapsed } => {
                return without_address(LocateVerdict::Miss, elapsed)
            }
            // hostile-world clients salvage the best partial answer at
            // timeout: a crashed rendezvous must not sever an alive pair
            // that a surviving replica still serves (§2.4) — and the
            // salvaged address still runs the lie detection
            LocateOutcome::Unresolved { best, dissent, .. } => match best {
                Some((addr, _)) if self.salvage => {
                    (addr, Vec::new(), dissent, true, self.op_timeout)
                }
                _ => return without_address(LocateVerdict::Unresolved, self.op_timeout),
            },
        };
        Reading {
            verdict: classify_hit(addr, self.homes[op.port_idx], dissent, &self.liars),
            addr: Some(addr),
            meets,
            salvaged,
            elapsed,
        }
    }

    /// Records one settled locate — the only place a verdict is counted
    /// into the phase tally, logged, and fed to the registry and tracer.
    /// Spans are stamped with the virtual-timing law, never runtime
    /// clocks: the trace must be byte-identical across runtimes. Returns
    /// the stamped elapsed and the fan-out width, for the follow-up
    /// request span.
    fn record(&mut self, op: &LocateOp, s: &Reading) -> (u64, u32) {
        let client = op.handle.client;
        self.acc.completed += 1;
        match s.verdict {
            LocateVerdict::Hit => {
                self.acc.hits += 1;
                if s.addr != Some(self.homes[op.port_idx]) {
                    self.acc.stale_results += 1;
                }
            }
            LocateVerdict::Miss => self.acc.misses += 1,
            LocateVerdict::Unresolved => self.acc.unresolved += 1,
            // the dissenting honest answer exposed the forgery: the client
            // discards the address and never calls it
            LocateVerdict::DetectedLie => self.acc.detected_lie += 1,
            // the forgery escaped; a follow-up call bounces off the
            // non-serving liar and the §1.3 loop re-locates
            LocateVerdict::FalseMatch => self.acc.false_match += 1,
        }
        if let Some(arrival) = op.arrival {
            self.op_log.push(LocateRecord {
                arrival,
                at: op.issued,
                client,
                port_idx: op.port_idx,
                verdict: s.verdict,
                addr: s.addr,
            });
        }
        if self.tracer.is_none() && self.registry.is_none() {
            return (0, 0);
        }
        let targets = self.rt.query_targets(client, self.ports[op.port_idx]);
        // the uniform-cost law every trace is stamped with, whatever the
        // runtime: a verdict the client's own timeout decided (unresolved,
        // or salvaged) took the full wait, a decisive one the round trip
        let elapsed = if s.salvaged || s.verdict == LocateVerdict::Unresolved {
            self.op_timeout
        } else {
            uniform_round_trip(&targets, client)
        };
        if let Some(reg) = self.registry.as_mut() {
            observe_locate(reg, s.verdict, elapsed, targets.len(), s.meets.len());
        }
        if let (Some(tr), Some(trace)) = (self.tracer.as_mut(), op.trace) {
            emit_locate_spans(
                tr,
                trace,
                client,
                op.port_idx,
                &targets,
                &s.meets,
                s.verdict,
                elapsed,
                op.issued,
            );
        }
        (elapsed, targets.len() as u32)
    }
}

/// The closed-loop pool drives the same settlement path one slot at a
/// time. Verdicts carry the *exact* completion tick (`issued + elapsed`),
/// so the tick a slot happens to ask on never skews latency accounting.
impl<R: Runtime> OpDriver for Ops<R> {
    fn issue(
        &mut self,
        now: SimTime,
        client: NodeId,
        port_idx: usize,
    ) -> (LocateOp, Option<SimTime>) {
        let (op, issued) = self.start(now, client, port_idx, None, true);
        // a settled operation's verdict tick is known now (an undecided
        // one's is its timeout); otherwise the runtime reports it
        let hint = issued.settled.then(|| now + self.settle(&op).elapsed);
        (op, hint)
    }

    fn poll(
        &mut self,
        op: &LocateOp,
        now: SimTime,
    ) -> Option<(LocateVerdict, Option<NodeId>, SimTime)> {
        // idempotent: make sure every event due at `now` has executed
        // (an operation issued this tick may complete this tick)
        self.advance(now);
        // the pool asks slot by slot: an operation no longer awaited was
        // reported or settled at issue, so it is final
        self.collect(|_| {});
        let token = Settled::Locate(op.handle.id);
        if now.saturating_sub(op.issued) < self.op_timeout && self.awaited.contains_key(&token) {
            return None;
        }
        self.forget(token);
        let s = self.settle(op);
        self.record(op, &s);
        Some((s.verdict, s.addr, op.issued + s.elapsed))
    }
}

/// The wall clock and queue depths a phase's report is measured against,
/// captured as it opens; its counters and loads are measured against the
/// run's one [`Baseline`].
struct PhaseStart {
    wall: Instant,
    /// Cumulative queue-depth histogram, when the registry wants the
    /// phase's delta and the runtime has a queue to sample.
    queue_depth: Option<[u64; HIST_BUCKETS]>,
}

/// The timeline's events, consumed in order by whichever loop runs.
type Events = std::iter::Peekable<std::vec::IntoIter<(SimTime, Event)>>;

/// Drives one [`Workload`] against one [`Runtime`] — a `topology ×
/// strategy × cost model` instance on the simulator, or a network of
/// threads — and produces a [`ScenarioReport`].
#[derive(Debug)]
pub struct ScenarioRunner<R: Runtime> {
    ops: Ops<R>,
    spec: Workload,
    /// Every random decision, and who is alive to be drawn.
    draws: Draws,
    /// Emit the §2.4 robustness block (auto-on for hostile specs).
    robust: bool,
    /// Replication factor echoed in the robustness block (1 = base).
    replication: u64,
    /// Lowest sampled alive-pair survival fraction seen after any crash.
    min_survival: f64,
    /// Open-loop operations awaiting their verdict, by issue sequence.
    in_flight: BTreeMap<u64, Op>,
    next_arrival: u64,
    strategy: String,
    /// Measure wall-clock events/sec per phase into the report.
    wallclock: bool,
    /// Echo of the trace config's sampling rate for the file header.
    sample_rate: f64,
}

impl<PM: PortMapped> ScenarioRunner<ShotgunEngine<PM>> {
    /// Builds a simulator-backed runner for `spec` over `graph` with
    /// `resolver` as the match-making strategy, on the default execution
    /// axes. `strategy` is the label echoed in reports.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`] or the resolver
    /// universe differs from the graph size.
    pub fn new(
        spec: Workload,
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        strategy: &str,
    ) -> Self {
        Self::with_router(
            spec,
            graph,
            resolver,
            cost_model,
            strategy,
            QueueKind::Calendar,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Like [`ScenarioRunner::new`] with every simulator execution axis
    /// explicit: the event queue (calendar vs the `BTreeMap` reference)
    /// and the routing backend (analytic closed forms vs the O(n²) table
    /// oracle). Reports are byte-identical at every combination — the
    /// differential suite holds each to the reference host. `mode` is a
    /// compatibility alias that selects nothing (see [`ShardMode`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`] or the resolver
    /// universe differs from the graph size.
    #[allow(clippy::too_many_arguments)]
    pub fn with_router(
        spec: Workload,
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        strategy: &str,
        queue: QueueKind,
        mode: ShardMode,
        router: RouterKind,
    ) -> Self {
        assert!(graph.node_count() > 0, "empty graph");
        let engine = ShotgunEngine::with_router(graph, resolver, cost_model, queue, mode, router);
        Self::over(spec, engine, strategy)
    }
}

impl<R: Runtime> ScenarioRunner<R> {
    /// Builds a runner driving `spec` over an already-built runtime — the
    /// way in for every runtime but the simulator (which has the
    /// conveniences above): `ScenarioRunner::over(spec,
    /// LiveRuntime::new(n, resolver), "checkerboard")`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Workload::validate`] or names a fault
    /// node outside the runtime's network.
    pub fn over(spec: Workload, rt: R, strategy: &str) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload {:?}: {e}", spec.name);
        }
        let n = rt.resolver().node_count();
        assert!(
            spec.faults.iter().all(|f| f.node_index < n),
            "fault node_index out of range for n = {n}"
        );
        let mut liars = vec![false; n];
        for f in &spec.faults {
            if f.fault == FaultProfile::ForgedAddress {
                liars[f.node_index] = true;
            }
        }
        let op_timeout = rt.op_timeout(spec.op_timeout);
        ScenarioRunner {
            ops: Ops {
                rt,
                ports: (0..spec.ports)
                    .map(|i| Port::from_name(&format!("svc-{i}")))
                    .collect(),
                homes: Vec::new(),
                liars,
                salvage: spec.hostile(),
                acc: Acc::default(),
                op_log: Vec::new(),
                t0: op_timeout,
                op_timeout,
                tracer: None,
                registry: None,
                next_seq: 0,
                awaited: HashMap::new(),
                at_issue: Vec::new(),
            },
            draws: Draws::new(spec.seed, n, spec.ports, spec.popularity),
            robust: spec.hostile(),
            replication: 1,
            min_survival: 1.0,
            in_flight: BTreeMap::new(),
            next_arrival: 0,
            strategy: strategy.to_string(),
            wallclock: false,
            sample_rate: 1.0,
            spec,
        }
    }

    /// Enables deterministic causal tracing: every workload operation
    /// gets a trace id at dispatch and its fan-out becomes span records.
    /// Collect the sealed file with [`ScenarioRunner::run_traced`].
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.sample_rate = cfg.sample_rate.clamp(0.0, 1.0);
        self.ops.tracer = Some(Tracer::new(cfg));
    }

    /// Enables the metrics registry: per-phase counter/histogram
    /// snapshots appear under the report's `obs` key.
    pub fn enable_obs(&mut self) {
        self.ops.registry = Some(Registry::new());
    }

    /// Enables wall-clock events/sec measurement per phase (host-speed
    /// dependent, so never part of any byte-identity contract).
    pub fn enable_throughput(&mut self) {
        self.wallclock = true;
    }

    /// Forces the §2.4 robustness block into the report (hostile specs
    /// enable it automatically); `replication` is echoed as the factor of
    /// the arrangement under test (1 = base).
    pub fn enable_robustness(&mut self, replication: u64) {
        self.robust = true;
        self.replication = replication.max(1);
    }

    /// Runs the scenario to its horizon and reports.
    pub fn run(self) -> ScenarioReport {
        self.run_logged().0
    }

    /// Like [`ScenarioRunner::run`], additionally returning the
    /// per-operation verdict log (one [`LocateRecord`] per primary
    /// arrival, in arrival order) for cross-runtime conformance checks.
    pub fn run_logged(self) -> (ScenarioReport, Vec<LocateRecord>) {
        let (report, log, _) = self.run_all();
        (report, log)
    }

    /// Like [`ScenarioRunner::run`], additionally returning the sealed
    /// trace file when [`ScenarioRunner::set_trace`] was called.
    pub fn run_traced(self) -> (ScenarioReport, Option<TraceFile>) {
        let (report, _, trace) = self.run_all();
        (report, trace)
    }

    fn n(&self) -> usize {
        self.draws.crashed().len()
    }

    /// Everything before the first timeline event: install the spec's
    /// Byzantine fault profiles — before any posting, so the world is
    /// hostile from tick 0 (a stale-address fault pins the *setup*
    /// posting) — place one server per port, let the postings settle
    /// through the `t0` window, and compile the timeline. Traces get one
    /// `fault` span per profile, then the setup-post trees (virtual tick
    /// 0). Returns the theory prediction and the timeline.
    fn setup(&mut self) -> (f64, Timeline) {
        let n = self.n();
        let ops = &mut self.ops;
        let predicted = predict_passes_per_locate(ops.rt.resolver(), n, &ops.ports);
        for f in &self.spec.faults {
            let node = NodeId::from(f.node_index);
            ops.rt.set_fault(node, f.fault);
            if let Some(tr) = ops.tracer.as_mut() {
                let trace = tr.next_trace_id();
                emit_fault_span(tr, trace, node, f.fault.label());
            }
        }
        for i in 0..self.spec.ports {
            let home = self.draws.home();
            ops.homes.push(home);
            ops.rt.register_server(home, ops.ports[i]);
        }
        for i in 0..self.spec.ports {
            self.trace_post(i, 0);
        }
        self.ops.advance(0);
        // Arrival draws happen in phase order before the run so the RNG
        // consumption order is part of the spec's deterministic contract.
        (predicted, self.draws.compile(&self.spec))
    }

    /// Emits the causal tree of port `i`'s posting from its home at
    /// virtual tick `t` (no-op with tracing off).
    fn trace_post(&mut self, i: usize, t: SimTime) {
        let ops = &mut self.ops;
        if let Some(tr) = ops.tracer.as_mut() {
            let home = ops.homes[i];
            let targets = ops.rt.post_targets(home, ops.ports[i]);
            let trace = tr.next_trace_id();
            emit_post_spans(tr, trace, home, i, &targets, t);
        }
    }

    fn begin_phase(&mut self) -> PhaseStart {
        self.ops.acc = Acc::default();
        PhaseStart {
            wall: Instant::now(),
            queue_depth: self
                .ops
                .registry
                .as_ref()
                .and_then(|_| self.ops.rt.queue_depth_buckets()),
        }
    }

    /// Builds the phase's report from what accumulated since
    /// [`begin_phase`](Self::begin_phase), plus its observability:
    /// wall-clock throughput and the registry snapshot (with the phase's
    /// queue-depth bucket delta). The runtime's counters are read in
    /// place and `baseline` is moved forward to them in one pass, which
    /// also summarizes the phase's per-node loads.
    fn end_phase(
        &mut self,
        name: &str,
        start: SimTime,
        end: SimTime,
        ps: PhaseStart,
        baseline: &mut Baseline,
    ) -> PhaseReport {
        let ops = &mut self.ops;
        let PhaseStart { wall, queue_depth } = ps;
        let delta = baseline.advance(&ops.rt.metrics());
        let mut report = build_phase_report(
            name,
            start,
            end,
            &ops.acc,
            &delta,
            baseline.loads(),
            self.spec.hostile(),
        );
        if self.wallclock {
            let secs = wall.elapsed().as_secs_f64();
            report.throughput = Some(if secs > 0.0 {
                report.events_executed as f64 / secs
            } else {
                0.0
            });
        }
        if let Some(reg) = ops.registry.as_mut() {
            if let (Some(before), Some(now)) = (queue_depth, ops.rt.queue_depth_buckets()) {
                let mut delta = [0u64; HIST_BUCKETS];
                for (d, (a, b)) in delta.iter_mut().zip(now.iter().zip(before.iter())) {
                    *d = a - b;
                }
                reg.observe_buckets("queue_depth", &delta);
            }
            report.obs = Some(reg.snapshot_and_reset());
        }
        report
    }

    /// The single execution path behind [`ScenarioRunner::run`] /
    /// [`ScenarioRunner::run_logged`] / [`ScenarioRunner::run_traced`],
    /// and the one phase loop: what happens *inside* a phase is all the
    /// open and the closed loop supply.
    fn run_all(mut self) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        let (predicted, timeline) = self.setup();
        let Timeline {
            events,
            phase_bounds,
            horizon,
        } = timeline;
        let mut events = events.into_iter().peekable();
        let mut pool = self.spec.clients.map(ClientPool::new);
        let mut reports = Vec::with_capacity(phase_bounds.len());
        let last = phase_bounds.len() - 1;
        // the run's one per-node copy: each phase boundary moves it forward
        let mut baseline = Baseline::new(&self.ops.rt.metrics());
        for (pi, (start, end, name)) in phase_bounds.iter().enumerate() {
            let ps = self.begin_phase();
            match pool.as_mut() {
                None => self.open_phase(&mut events, *end, pi == last),
                Some(pool) => self.closed_phase(pool, &mut events, *end, pi == last),
            }
            reports.push(self.end_phase(name, *start, *end, ps, &mut baseline));
        }

        let mut windows = None;
        if let (Some(model), Some(pool)) = (self.spec.clients, pool) {
            let records = pool.into_records();
            let (phase_stats, w) =
                build_closed_loop(&records, &phase_bounds, horizon, model.window);
            for (report, stats) in reports.iter_mut().zip(phase_stats) {
                report.closed_loop = Some(stats);
            }
            windows = Some(w);
            // the pool logs an operation once, with its final verdict
            self.ops.op_log = records.iter().filter_map(ClientOpRecord::logged).collect();
        }
        self.finish(horizon, predicted, reports, windows)
    }

    /// Seals the trace with the run's cumulative metrics, assembles the
    /// scenario-level report envelope, and hands back the op log in
    /// arrival order (an open-loop verdict can land before an earlier
    /// arrival's).
    fn finish(
        mut self,
        horizon: SimTime,
        predicted: f64,
        phases: Vec<PhaseReport>,
        windows: Option<Vec<WindowReport>>,
    ) -> (ScenarioReport, Vec<LocateRecord>, Option<TraceFile>) {
        let n = self.n() as u64;
        let ops = &mut self.ops;
        // the header carries only runtime-agnostic identification; the
        // cumulative sends/passes are there for the conservation check,
        // read in place: the simulator lends its counters
        let totals = ops.rt.metrics();
        let trace = ops.tracer.take().map(|tracer| {
            let header = TraceHeader {
                version: TRACE_VERSION,
                scenario: self.spec.name.clone(),
                strategy: self.strategy.clone(),
                n,
                seed: self.spec.seed,
                ports: self.spec.ports as u64,
                sample_rate: self.sample_rate,
            };
            tracer.finish(header, totals.sends, totals.message_passes)
        });
        let report = ScenarioReport {
            scenario: self.spec.name.clone(),
            strategy: self.strategy.clone(),
            cost_model: ops.rt.cost_model().to_string(),
            topology: ops.rt.topology(),
            n,
            seed: self.spec.seed,
            ports: self.spec.ports as u64,
            clients: self.spec.clients.map(|m| m.clients as u64),
            horizon,
            predicted_passes_per_locate: predicted,
            phases,
            windows,
            robustness: self.robust.then(|| RobustnessReport {
                max_tolerated_faults: mm_core::robust::max_tolerated_faults_pm(
                    ops.rt.resolver(),
                    &ops.ports,
                    64,
                ) as u64,
                min_survival_fraction: self.min_survival,
                byzantine_nodes: self.spec.faults.len() as u64,
                replication: self.replication,
            }),
        };
        let mut log = std::mem::take(&mut ops.op_log);
        log.sort_by_key(|r| r.arrival);
        (report, log, trace)
    }

    /// One phase of the open loop: every timeline event before `end` is
    /// applied the tick it falls due — arrivals issue on the spot — with
    /// finished operations classified first.
    fn open_phase(&mut self, events: &mut Events, end: SimTime, last: bool) {
        while let Some((t, ev)) = events.next_if(|e| e.0 < end) {
            self.ops.advance(t);
            self.drain(t, false);
            self.apply(t, ev, None);
        }
        // close the phase; the final phase also absorbs the drain window
        // so straggling operations get their verdict
        let close = if last { end + self.ops.op_timeout } else { end };
        self.ops.advance(close);
        self.drain(close, last);
    }

    /// One phase of the closed loop: timeline arrivals are *offered* to
    /// the [`ClientPool`] instead of being issued on the spot, and
    /// timeline events interleave with the pool's wake-ups (verdict
    /// polls, retry backoffs, think-pause expiries) in virtual-time
    /// order. The pool times every draw, so every runtime consumes the
    /// RNG in the same order.
    fn closed_phase(
        &mut self,
        pool: &mut ClientPool,
        events: &mut Events,
        end: SimTime,
        last: bool,
    ) {
        loop {
            let ev_t = events.peek().map(|e| e.0).filter(|&t| t < end);
            let pool_t = pool.next_wakeup().filter(|&t| t < end);
            let Some(t) = ev_t.into_iter().chain(pool_t).min() else {
                break;
            };
            self.ops.advance(t);
            // verdicts are read before the world reshapes at the same
            // tick (the drain-before-apply discipline of the open loop)
            self.service_pool(pool, t);
            while let Some((_, ev)) = events.next_if(|e| e.0 == t) {
                self.apply(t, ev, Some(pool));
            }
            // dispatch whatever this tick freed or offered
            self.service_pool(pool, t);
        }
        // run in-phase message chains to the boundary so the metrics
        // snapshot charges them to this phase (passes are counted at
        // send time, which is ≤ the boundary for in-phase issues)
        self.ops.advance(end);
        if last {
            // horizon: stop dispatching and retrying, drain verdicts
            pool.freeze();
            let drain_end = end + self.ops.op_timeout;
            while let Some(t) = pool.next_wakeup().filter(|&t| t <= drain_end) {
                self.ops.advance(t);
                self.service_pool(pool, t);
            }
            self.ops.advance(drain_end);
        }
    }

    /// One [`ClientPool::service`] call with this runner's settlement
    /// path behind the [`OpDriver`] seam.
    fn service_pool(&mut self, pool: &mut ClientPool, now: SimTime) {
        pool.service(now, &mut self.ops, &mut self.draws);
    }

    /// Applies one timeline event at the current virtual time. All random
    /// draws are [`Draws`]', in timeline order. An arrival goes to the
    /// closed loop's `pool` if there is one, and is issued on the spot
    /// otherwise.
    fn apply(&mut self, t: SimTime, ev: Event, pool: Option<&mut ClientPool>) {
        match ev {
            Event::Arrival => match pool {
                Some(pool) => {
                    pool.offer(t, self.next_arrival);
                    self.next_arrival += 1;
                }
                None => self.issue_arrival(t),
            },
            Event::Refresh => self.refresh_all(t),
            Event::Churn(action) => self.apply_churn(&action),
        }
    }

    /// An open-loop arrival: the locate is issued the tick it arrives.
    fn issue_arrival(&mut self, t: SimTime) {
        let Some((client, port_idx)) = self.draws.arrival() else {
            return; // total outage: the open-loop client is dead too
        };
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let (op, issued) = self.ops.start(t, client, port_idx, Some(arrival), true);
        self.in_flight
            .insert(issued.token, Op::Locate { op, retry: false });
        if issued.settled {
            // nothing to wait for: classify it, and whatever follow-ups
            // that spawns, before the next event
            self.drain(t, false);
        }
    }

    fn refresh_all(&mut self, t: SimTime) {
        for i in 0..self.ops.homes.len() {
            let home = self.ops.homes[i];
            if !self.draws.is_crashed(home) {
                self.ops.rt.register_server(home, self.ops.ports[i]);
                self.trace_post(i, t);
            }
        }
    }

    /// Executes one churn event's decisions on the runtime; who crashes,
    /// restores or migrates — and the runner's liveness view — is
    /// [`Draws::churn`]'s business.
    fn apply_churn(&mut self, action: &ChurnAction) {
        let n = self.n();
        let ops = &mut self.ops;
        let mut any_crash = false;
        for &r in self.draws.churn(action, &ops.homes) {
            match r {
                ResolvedChurn::Crash(v) => {
                    any_crash = true;
                    ops.rt.crash(v);
                }
                ResolvedChurn::Restore { node, clear_cache } => {
                    ops.rt.restore(node);
                    if clear_cache {
                        ops.rt.clear_cache(node);
                    }
                }
                ResolvedChurn::Migrate { port_idx, from, to } => {
                    ops.rt.migrate_server(ops.ports[port_idx], from, to);
                    ops.homes[port_idx] = to;
                }
                ResolvedChurn::ClearAllCaches => {
                    for vi in 0..n {
                        ops.rt.clear_cache(NodeId::from(vi));
                    }
                }
            }
        }
        if any_crash && self.robust {
            // fold the crash pattern into the run's minimum sampled
            // survival fraction (robustness reporting only)
            let sf = mm_core::robust::survival_fraction_pm(
                ops.rt.resolver(),
                &ops.ports,
                self.draws.crashed(),
                self.draws.live(),
                64,
            );
            self.min_survival = self.min_survival.min(sf);
        }
    }

    /// Classifies finished in-flight operations at spec tick `now`;
    /// `force` settles everything still pending (end of scenario). A pass
    /// whose follow-ups the runtime settled on the spot has fresh
    /// verdicts to read, so it goes again.
    fn drain(&mut self, now: SimTime, force: bool) {
        while self.drain_pass(now, force) {}
    }

    /// One classification pass — the open loop's §1.3 chain: a located
    /// address is called, a bounced call re-locates once. It settles
    /// exactly the in-flight operations that are final — settled at issue,
    /// reported by the runtime, or past the client's timeout (with
    /// `force`, all of them) — in issue order, reading each outcome once.
    /// `true` if the pass issued a follow-up that is already settled.
    fn drain_pass(&mut self, now: SimTime, force: bool) -> bool {
        /// A request to issue once the classification pass is done (so
        /// follow-ups enter the runtime in one canonical order).
        struct Followup {
            client: NodeId,
            addr: NodeId,
            port_idx: usize,
            after_retry: bool,
            /// `(trace id, request-issue tick, locate fan-out)` when the
            /// parent locate was traced.
            trace_info: Option<(u64, SimTime, u32)>,
        }
        let mut due = Vec::new();
        self.ops.collect(|seq| due.push(seq));
        // issue ticks never decrease along the sequence, so the operations
        // the client has given up on are a prefix of it
        let op_timeout = self.ops.op_timeout;
        let expired = self
            .in_flight
            .iter()
            .take_while(|(_, op)| force || now.saturating_sub(op.issued()) >= op_timeout);
        due.extend(expired.map(|(&seq, _)| seq));
        due.sort_unstable();
        due.dedup();
        let mut requests: Vec<Followup> = Vec::new();
        let mut relocates: Vec<(NodeId, usize)> = Vec::new();
        for entry in due
            .into_iter()
            .filter_map(|seq| self.in_flight.remove(&seq))
        {
            // a timed-out operation's late report is ignored
            self.ops.forget(entry.token());
            match entry {
                Op::Locate { op, retry } => {
                    let s = self.ops.settle(&op);
                    let (elapsed, fanout) = self.ops.record(&op, &s);
                    let Some(addr) = s.addr else { continue };
                    if retry && addr == self.ops.homes[op.port_idx] {
                        self.ops.acc.recoveries += 1;
                    }
                    // a detected forgery is discarded, never called
                    if self.spec.request_after_locate && s.verdict != LocateVerdict::DetectedLie {
                        requests.push(Followup {
                            client: op.handle.client,
                            addr,
                            port_idx: op.port_idx,
                            after_retry: retry,
                            trace_info: op.trace.map(|tr| (tr, op.issued + elapsed, fanout)),
                        });
                    }
                }
                Op::Request {
                    client,
                    request_id,
                    port_idx,
                    after_retry,
                    ..
                } => match self.ops.rt.request_outcome(client, request_id) {
                    Some(RequestOutcome::Replied { .. }) => self.ops.acc.requests_ok += 1,
                    Some(RequestOutcome::StaleAddress) => {
                        self.ops.acc.stale_requests += 1;
                        if !after_retry {
                            // §1.3 recovery: re-locate and try again
                            relocates.push((client, port_idx));
                        }
                    }
                    None => self.ops.acc.request_timeouts += 1,
                },
            }
        }
        // After the final forced drain the runtime never steps again, so
        // a follow-up issued here could neither run nor be classified —
        // skip issuance rather than let tail operations vanish from the
        // accounting.
        let mut any_settled = false;
        if !force {
            for f in requests {
                let Issued {
                    token: request_id,
                    settled,
                } = self
                    .ops
                    .rt
                    .request(f.client, f.addr, self.ops.ports[f.port_idx], 1);
                any_settled |= settled;
                let seq = self.ops.track(Settled::Request(request_id), settled);
                if let (Some((trace, tick, fanout)), Some(tr)) =
                    (f.trace_info, self.ops.tracer.as_mut())
                {
                    emit_request_span(tr, trace, fanout + 1, f.client, f.addr, f.port_idx, tick);
                }
                let request = Op::Request {
                    client: f.client,
                    request_id,
                    port_idx: f.port_idx,
                    issued: now,
                    after_retry: f.after_retry,
                };
                self.in_flight.insert(seq, request);
            }
            for (client, port_idx) in relocates {
                // retries are locate operations too (counted as issued, so
                // completed can never exceed issued within a phase), but
                // timing-dependent: they stay out of the op log and the
                // trace (conservation is only claimed on churn-free
                // specs, which never retry)
                let (op, issued) = self.ops.start(now, client, port_idx, None, false);
                any_settled |= issued.settled;
                self.in_flight
                    .insert(issued.token, Op::Locate { op, retry: true });
            }
        }
        any_settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use mm_core::strategies::{Checkerboard, HashLocate};
    use mm_topo::gen;

    fn run_scenario(name: &str, n: usize, seed: u64) -> ScenarioReport {
        let spec = scenarios::by_name(name, n, seed).expect("library scenario");
        ScenarioRunner::new(
            spec,
            gen::complete(n),
            Checkerboard::new(n),
            CostModel::Uniform,
            "checkerboard",
        )
        .run()
    }

    /// `scenarios::rack_failure` names its victims before the run by
    /// replaying the home draws: the band it kills first must be the band
    /// of the home this runner registers for port 0.
    #[test]
    fn rack_failure_kills_the_band_the_runner_homes_port_0_in() {
        for seed in [7, 11, 13] {
            for n in [64usize, 1000, 4096] {
                let spec = scenarios::rack_failure(n, seed, false);
                let first_kill = spec
                    .churn
                    .iter()
                    .find_map(|ev| match &ev.action {
                        ChurnAction::CrashGroup { nodes } => Some(nodes.clone()),
                        _ => None,
                    })
                    .expect("rack-failure crashes a group");
                let mut runner = ScenarioRunner::new(
                    spec,
                    gen::complete_shell(n),
                    Checkerboard::new(n),
                    CostModel::Uniform,
                    "checkerboard",
                );
                runner.setup();
                let home = runner.ops.homes[0].index();
                let w = (n as f64).sqrt().ceil() as usize;
                let band = scenarios::grid_row(n, home * w / n);
                assert!(
                    first_kill.iter().all(|v| band.contains(v)),
                    "seed {seed} n {n}: victims {first_kill:?} outside port 0's band {band:?}"
                );
            }
        }
    }

    #[test]
    fn steady_state_matches_theory_under_load() {
        let r = run_scenario("steady-state", 64, 7);
        assert_eq!(r.phases.len(), 3);
        assert!(r.hit_rate() > 0.99, "steady state hits: {}", r.hit_rate());
        // 2·sqrt(64) = 16 passes per warm locate; sustained load should
        // stay within a few percent of the single-shot theory
        assert!((r.predicted_passes_per_locate - 16.0).abs() < 1e-9);
        let measured = r.passes_per_locate();
        assert!(
            (measured / 16.0 - 1.0).abs() < 0.25,
            "passes per locate {measured} strays from prediction 16"
        );
        let recs = r.records();
        assert_eq!(recs.len(), 3, "one record per completed phase");
        assert!(recs.iter().all(|rec| rec.within_factor(1.5)));
    }

    /// Two identical seeded workload runs produce byte-identical metrics
    /// (full JSON report equality) on every open-loop library scenario —
    /// what the CLI prints for a default sweep — and with no observability
    /// switch on, no observability key may leak into that JSON.
    #[test]
    fn identical_seeds_are_byte_identical() {
        let json = |name: &str, seed: u64| serde_json::to_string(&run_scenario(name, 64, seed));
        for name in scenarios::ALL {
            let a = json(name, 42);
            assert_eq!(a, json(name, 42), "{name}: same seed, same bytes");
            assert_ne!(a, json(name, 43), "{name}: a seed must change the run");
            for key in ["\"obs\"", "\"throughput\""] {
                assert!(!a.contains(key), "{name}: default JSON leaked {key}");
            }
        }
    }

    #[test]
    fn report_roundtrips_through_the_value_model() {
        let r = run_scenario("steady-state", 16, 3);
        let v = serde::Serialize::to_value(&r);
        let back: ScenarioReport = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rolling_churn_degrades_then_recovers() {
        let r = run_scenario("rolling-churn", 64, 7);
        let by_name = |n: &str| {
            r.phases
                .iter()
                .find(|p| p.name == n)
                .unwrap_or_else(|| panic!("phase {n}"))
        };
        let churning = by_name("churning");
        let recovered = by_name("recovered");
        assert!(churning.crashes > 0, "churn must crash nodes");
        assert!(
            churning.unresolved > 0,
            "crashed rendezvous must leave timeouts"
        );
        assert!(churning.dropped > 0, "messages must die at crashed nodes");
        assert!(churning.hit_rate < 0.95);
        assert!(
            recovered.hit_rate > 0.99,
            "refresh must heal the caches: {}",
            recovered.hit_rate
        );
    }

    #[test]
    fn migration_under_load_heals_stale_addresses() {
        let r = run_scenario("migrate-under-load", 64, 7);
        let total_stale: u64 = r.phases.iter().map(|p| p.stale_requests).sum();
        let total_recovered: u64 = r.phases.iter().map(|p| p.staleness_recoveries).sum();
        let total_ok: u64 = r.phases.iter().map(|p| p.requests_ok).sum();
        assert!(
            total_stale > 0,
            "migrating under load must bounce some requests"
        );
        assert!(
            total_recovered > 0 && total_recovered <= total_stale,
            "recoveries ({total_recovered}) heal bounces ({total_stale})"
        );
        assert!(total_ok > 1000, "throughput is sustained through migration");
        assert_eq!(
            r.phases.iter().map(|p| p.request_timeouts).sum::<u64>(),
            0,
            "no server ever crashes in this scenario"
        );
    }

    #[test]
    fn cold_cache_misses_until_refresh_reposts() {
        let r = run_scenario("cold-vs-warm-cache", 64, 7);
        let warm = &r.phases[0];
        let cold = &r.phases[1];
        let rewarmed = &r.phases[2];
        assert!(warm.hit_rate > 0.99);
        assert!(
            cold.hit_rate < 0.2,
            "wiped caches must miss: {}",
            cold.hit_rate
        );
        assert!(cold.misses > 0);
        assert!(rewarmed.hit_rate > 0.99, "refresh re-posts everything");
    }

    #[test]
    fn flash_crowd_concentrates_rendezvous_load() {
        let r = run_scenario("flash-crowd", 64, 7);
        let calm = &r.phases[0];
        let spike = &r.phases[1];
        assert!(
            spike.throughput_per_kilotick > 4.0 * calm.throughput_per_kilotick,
            "the spike multiplies throughput"
        );
        assert!(
            spike.load_p99 > 2.0 * calm.load_p99,
            "hot-port rendezvous nodes absorb the crowd: calm p99 {} spike p99 {}",
            calm.load_p99,
            spike.load_p99
        );
        assert!(r.hit_rate() > 0.99);
    }

    #[test]
    fn hash_locate_runs_the_same_workload() {
        let n = 64;
        let spec = scenarios::steady_state(11);
        let r = ScenarioRunner::new(
            spec,
            gen::complete(n),
            HashLocate::new(n, 3),
            CostModel::Uniform,
            "hash",
        )
        .run();
        assert!(r.hit_rate() > 0.99);
        // Hash Locate queries r = 3 nodes: 2·3 = 6 passes per locate
        assert!((r.predicted_passes_per_locate - 6.0).abs() < 1e-9);
        assert!(r.passes_per_locate() < 16.0, "far cheaper than 2·sqrt(n)");
    }

    #[test]
    fn hops_cost_model_runs_on_sparse_topologies() {
        let n = 36;
        let spec = scenarios::steady_state(5);
        let r = ScenarioRunner::new(
            spec,
            gen::grid(6, 6, false),
            Checkerboard::new(n),
            CostModel::Hops,
            "checkerboard",
        )
        .run();
        assert_eq!(r.cost_model, "hops");
        assert!(r.hit_rate() > 0.9, "hit rate {}", r.hit_rate());
        // store-and-forward costs more than one pass per query
        assert!(r.passes_per_locate() > r.predicted_passes_per_locate);
    }

    #[test]
    fn quiet_phases_advance_the_clock() {
        use crate::spec::{ArrivalProcess, Phase, PortPopularity, Workload};
        let spec = Workload {
            name: "idle-gap".into(),
            seed: 1,
            ports: 1,
            popularity: PortPopularity::Uniform,
            phases: vec![
                Phase::new("busy", 100, ArrivalProcess::FixedRate { interval: 10 }),
                Phase::new("silent", 10_000, ArrivalProcess::Idle),
                Phase::new(
                    "busy-again",
                    100,
                    ArrivalProcess::FixedRate { interval: 10 },
                ),
            ],
            churn: vec![],
            refresh_interval: None,
            request_after_locate: false,
            op_timeout: 32,
            clients: None,
            faults: vec![],
        };
        let r = ScenarioRunner::new(
            spec,
            gen::complete(9),
            Checkerboard::new(9),
            CostModel::Uniform,
            "checkerboard",
        )
        .run();
        assert_eq!(r.horizon, 10_200);
        assert_eq!(r.phases[1].locates_issued, 0);
        assert_eq!(
            r.phases[2].locates_issued, 10,
            "the run must get through the silent phase and keep going"
        );
        assert!(r.phases[2].hit_rate > 0.99);
    }

    /// Acceptance: the overload ramp must expose the saturation knee as
    /// monotonically increasing p99 queueing delay once the offered rate
    /// exceeds the pool's capacity, while service latency stays flat (the
    /// network itself is not the bottleneck) and the overflow shows up as
    /// abandoned operations.
    #[test]
    fn overload_ramp_finds_the_saturation_knee() {
        let r = run_scenario("overload-ramp", 64, 7);
        assert_eq!(r.clients, Some(24));
        let stats: Vec<_> = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().expect("closed-loop phase stats"))
            .collect();
        // under the knee: negligible queueing
        assert!(stats[0].queue_delay_p99 < 2.0, "light load queues");
        assert!(stats[1].queue_delay_p99 < 2.0, "approach queues");
        // past the knee: p99 queueing delay climbs phase over phase
        assert!(
            stats[1].queue_delay_p99 < stats[2].queue_delay_p99
                && stats[2].queue_delay_p99 < stats[3].queue_delay_p99
                && stats[3].queue_delay_p99 < stats[4].queue_delay_p99,
            "p99 queue delay must climb monotonically past the knee: {:?}",
            stats.iter().map(|s| s.queue_delay_p99).collect::<Vec<_>>()
        );
        // the pool, not the network, is the bottleneck: flat latency
        for s in &stats {
            assert!(s.latency_p99 <= 2.0, "service latency must stay flat");
        }
        // saturation overflow is visible, not silently dropped
        assert!(stats[4].abandoned > 0, "collapse must abandon offers");
        let windows = r.windows.as_ref().expect("time-series windows");
        assert_eq!(windows.len(), 10, "2500 ticks / 250-tick windows");
        // once fully saturated, dispatch rate pins at pool capacity:
        // 24 clients / (2 service + 2 think) = 6 per tick
        for s in &stats[3..] {
            assert_eq!(s.dispatched, 3000, "500 ticks x 6 dispatches");
        }
    }

    /// Acceptance: closed-loop reports are byte-identical across repeated
    /// runs of the same seed and across event-queue implementations, and
    /// a different seed actually changes the bytes.
    #[test]
    fn closed_loop_reports_are_byte_identical() {
        let json = |seed: u64, queue: QueueKind| {
            let spec = scenarios::by_name("overload-ramp", 64, seed).unwrap();
            let r = ScenarioRunner::with_router(
                spec,
                gen::complete(64),
                Checkerboard::new(64),
                CostModel::Uniform,
                "checkerboard",
                queue,
                ShardMode::Single,
                RouterKind::Auto,
            )
            .run();
            serde_json::to_string(&r)
        };
        let a = json(42, QueueKind::Calendar);
        assert_eq!(a, json(42, QueueKind::Calendar), "repeat run");
        assert_eq!(a, json(42, QueueKind::BTree), "queue cross-check");
        assert_ne!(a, json(43, QueueKind::Calendar), "seed sensitivity");
        assert!(a.contains("\"latency_p99\""));
        assert!(a.contains("\"windows\""));
    }

    /// The open-loop path must not grow any closed-loop JSON keys — its
    /// serialized schema is a compatibility surface.
    #[test]
    fn open_loop_json_has_no_closed_loop_keys() {
        let r = run_scenario("steady-state", 64, 7);
        let json = serde_json::to_string(&r);
        for key in ["closed_loop", "windows", "clients", "latency_p50"] {
            assert!(!json.contains(key), "open-loop JSON leaked {key:?}");
        }
        // and it still round-trips through the value model
        let v = serde::Serialize::to_value(&r);
        let back: ScenarioReport = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    /// Closed-loop retries are driven by the spec's budget: the recovery
    /// scenario's outage burns retries, a budget of zero burns none.
    #[test]
    fn flash_crowd_recovery_retries_then_recovers() {
        let r = run_scenario("flash-crowd-recovery", 64, 7);
        let total_retries: u64 = r
            .phases
            .iter()
            .map(|p| p.closed_loop.as_ref().unwrap().retries)
            .sum();
        assert!(total_retries > 0, "the outage must trigger retries");
        let windows = r.windows.as_ref().unwrap();
        let spike = windows
            .iter()
            .map(|w| w.queue_delay_p99)
            .fold(0.0f64, f64::max);
        assert!(spike > 50.0, "the outage must back the pool up: {spike}");
        let last = windows.last().unwrap();
        assert!(
            last.queue_delay_p99 < 2.0 && last.latency_p99 <= 2.0,
            "the pool must drain back to baseline by the horizon"
        );
        assert!(r.hit_rate() > 0.8, "most verdicts still hit");
    }

    #[test]
    fn op_log_covers_every_primary_arrival_in_order() {
        let spec = scenarios::by_name("steady-state", 64, 7).unwrap();
        let (r, log) = ScenarioRunner::new(
            spec,
            gen::complete(64),
            Checkerboard::new(64),
            CostModel::Uniform,
            "checkerboard",
        )
        .run_logged();
        let issued: u64 = r.phases.iter().map(|p| p.locates_issued).sum();
        assert_eq!(log.len() as u64, issued, "no retries in steady state");
        assert!(log.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert!(
            log.iter()
                .all(|rec| rec.verdict == LocateVerdict::Hit && rec.addr.is_some()),
            "steady state hits everywhere"
        );
    }
}
