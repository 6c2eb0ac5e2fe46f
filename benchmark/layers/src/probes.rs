//! The probes that do not depend on a workload: one layer each, sized so
//! that a batch takes some tens of milliseconds.

use crate::{timed, Out, Rng, BATCHES};
use mm_core::strategies::{Checkerboard, HashLocate, PortMapped};
use mm_core::Port;
use mm_obs::TraceConfig;
use mm_proto::{LiveLocateOutcome, LiveNet, LocateOutcome, ShotgunEngine, TargetInterner};
use mm_sim::queue::{BTreeQueue, CalendarQueue};
use mm_sim::{
    CostModel, Envelope, Node, NodeApi, QueueKind, RouterKind, ShardMode, Sim, SimTime, TargetSet,
};
use mm_topo::router::{GridRouter, HypercubeRouter, RingRouter};
use mm_topo::{gen, spanning, Graph, NodeId, Router, RoutingTable};
use mm_workload::drive::{self, ObsOptions, RunConfig};
use std::hint::black_box;

/// The closed-* and hops-torus workloads' size, and hops-ring's.
const N: usize = 262_144;
const RING_N: usize = 65_536;

fn node(i: usize) -> NodeId {
    NodeId::new(i as u32)
}

/// The two queue implementations behind one set of calls.
trait Queue: Default {
    fn push(&mut self, at: SimTime, ev: u64);
    fn pop_next(&mut self) -> Option<(SimTime, u64)>;
    fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64)>;
}

macro_rules! impl_queue {
    ($ty:ident) => {
        impl Queue for $ty<u64> {
            fn push(&mut self, at: SimTime, ev: u64) {
                $ty::push(self, at, ev)
            }
            fn pop_next(&mut self) -> Option<(SimTime, u64)> {
                $ty::pop_next(self)
            }
            fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
                $ty::pop_next_until(self, deadline)
            }
        }
    };
}
impl_queue!(CalendarQueue);
impl_queue!(BTreeQueue);

/// Bursts of 1,024 events one tick ahead, each drained at once: the
/// open-loop pattern, where every pop finds an event.
fn queue_bulk<Q: Queue>(out: &mut Out, name: &str, parent: usize) {
    out.probe(name, "ns", 1e9, Some(parent), |_| {
        const BURSTS: u64 = 200;
        const BURST: u64 = 1024;
        let mut q = Q::default();
        let ((), secs) = timed(|| {
            let mut popped = 0;
            for t in 0..BURSTS {
                for e in 0..BURST {
                    q.push(t + 1, e);
                }
                let mut expect = 0;
                while let Some((at, e)) = q.pop_next() {
                    assert!(at == t + 1 && e == expect, "FIFO within a tick");
                    expect += 1;
                    popped += 1;
                }
            }
            assert_eq!(popped, BURSTS * BURST);
        });
        (BURSTS * BURST, secs)
    });
}

/// The closed-loop pattern: the deadline moves one tick per call and most
/// slices find nothing, a few events land every eighth tick.
fn queue_sliced<Q: Queue>(out: &mut Out, name: &str, parent: usize) {
    out.probe(name, "ns", 1e9, Some(parent), |_| {
        const TICKS: u64 = 131_072;
        const EVERY: u64 = 8;
        const BURST: u64 = 4;
        let mut q = Q::default();
        let ((), secs) = timed(|| {
            let mut popped = 0;
            for t in 0..TICKS {
                if t % EVERY == 0 {
                    for e in 0..BURST {
                        q.push(t + 2, e);
                    }
                }
                while let Some((at, _)) = q.pop_next_until(black_box(t)) {
                    assert_eq!(at, t, "an event pops in the slice of its tick");
                    popped += 1;
                }
            }
            // the last burst is due after the last slice
            let due = (TICKS - 2).div_ceil(EVERY) * BURST;
            assert_eq!(popped, due);
        });
        (TICKS / EVERY * BURST, secs)
    });
}

#[derive(Clone)]
enum Echo {
    /// Tells the receiver to ping every member of the set.
    Fan(TargetSet),
    Ping,
    Pong,
}

/// Answers a ping with a pong to its sender and counts the pongs it gets.
#[derive(Default)]
struct EchoNode {
    pongs: u64,
}

impl Node<Echo> for EchoNode {
    fn on_message(&mut self, env: Envelope<Echo>, api: &mut NodeApi<'_, Echo>) {
        match env.msg {
            Echo::Fan(targets) => api.multicast_set(targets, Echo::Ping),
            Echo::Ping => api.send(env.from, Echo::Pong),
            Echo::Pong => self.pongs += 1,
        }
    }
}

/// The bare engine: fan-outs to a checkerboard query set and the replies,
/// through `run_until`, with a handler that does next to nothing. The gap
/// to `proto.locate_ns_per_event` is what the protocol's handlers cost.
fn engine(
    out: &mut Out,
    name: &str,
    parent: usize,
    graph: Graph,
    cost: CostModel,
    mode: ShardMode,
    fans: usize,
) {
    let n = graph.node_count();
    let strategy = Checkerboard::new(n);
    let nodes: Vec<EchoNode> = (0..n).map(|_| EchoNode::default()).collect();
    let mut sim = Sim::with_router(
        graph,
        nodes,
        cost,
        QueueKind::Calendar,
        mode,
        RouterKind::Auto,
    );
    // long enough for a round trip across any of the fabrics
    let span = match cost {
        CostModel::Uniform => 2,
        CostModel::Hops => n as SimTime,
    };
    let mut rng = Rng::new(out.seed);
    out.probe(name, "ns", 1e9, Some(parent), |_| {
        let plan: Vec<(NodeId, TargetSet)> = (0..fans)
            .map(|_| {
                let src = node(rng.below(n));
                let set = TargetSet::from_vec(strategy.query_set_for(src, Port::new(1)));
                (src, set)
            })
            .collect();
        let before = sim.metrics().events_executed;
        let ((), secs) = timed(|| {
            for (src, set) in &plan {
                let had = sim.node(*src).pongs;
                sim.inject(*src, *src, Echo::Fan(set.clone()));
                sim.run_until(sim.now() + span);
                // a sender that is in its own set pings itself, for free
                let got = sim.node(*src).pongs - had;
                assert_eq!(got, set.len() as u64, "every target answered");
            }
        });
        (sim.metrics().events_executed - before, secs)
    });
}

/// The protocol on the uniform-cost engine: eight servers, then locates
/// one at a time, each of which must find its server.
fn locate(out: &mut Out, parent: usize) {
    const LOCATES: usize = 200;
    let mut engine = ShotgunEngine::with_router(
        gen::complete_shell(N),
        Checkerboard::new(N),
        CostModel::Uniform,
        QueueKind::Calendar,
        ShardMode::Single,
        RouterKind::Auto,
    );
    let mut rng = Rng::new(out.seed);
    let servers: Vec<(NodeId, Port)> = (1..=8u128)
        .map(|p| (node(rng.below(N)), Port::new(p)))
        .collect();
    for &(at, port) in &servers {
        engine.register_server(at, port);
    }
    engine.run();

    let mut events = 0;
    let mut event_secs = 0.0;
    out.probe("proto.locate_us_per_op", "us", 1e6, Some(parent), |_| {
        let plan: Vec<(NodeId, usize)> = (0..LOCATES)
            .map(|_| (node(rng.below(N)), rng.below(servers.len())))
            .collect();
        let before = engine.metrics().events_executed;
        let ((), secs) = timed(|| {
            for &(client, which) in &plan {
                let (at, port) = servers[which];
                let handle = engine.locate(client, port);
                engine.run_until(engine.now() + 2);
                match engine.outcome(handle) {
                    LocateOutcome::Found { addr, .. } => assert_eq!(addr, at),
                    other => panic!("locate from {client:?} did not hit: {other:?}"),
                }
            }
        });
        events += engine.metrics().events_executed - before;
        event_secs += secs;
        (LOCATES as u64, secs)
    });
    // the same batches, per event: comparable with the bare engine
    out.metric(
        "proto.locate_ns_per_event",
        1e9 * event_secs / events as f64,
        "ns",
    );
}

/// First and repeated resolution of `P` and `Q` through the interner.
fn intern(out: &mut Out, parent: usize) {
    const NODES: usize = 1000;
    let strategy = Checkerboard::new(N);
    let port = Port::new(1);
    let mut rng = Rng::new(out.seed);
    let mut hit_secs = Vec::with_capacity(BATCHES);
    out.probe("proto.intern_miss_ns", "ns", 1e9, Some(parent), |_| {
        // a fresh interner per batch: its budget would otherwise run out
        // and turn the later batches' hits into misses
        let mut interner = TargetInterner::default();
        let start = rng.below(N);
        let nodes: Vec<NodeId> = (0..NODES).map(|i| node((start + i * 257) % N)).collect();
        let pass = |interner: &mut TargetInterner| {
            timed(|| {
                nodes
                    .iter()
                    .map(|&v| {
                        interner.query_set(&strategy, v, port).len()
                            + interner.post_set(&strategy, v, port).len()
                    })
                    .sum::<usize>()
            })
        };
        let (ids_miss, miss) = pass(&mut interner);
        assert_eq!(interner.cached_sets(), 2 * NODES, "every set was retained");
        let (ids_hit, hit) = pass(&mut interner);
        assert_eq!(interner.cached_sets(), 2 * NODES);
        assert!(ids_miss == ids_hit && ids_miss >= 2 * NODES);
        hit_secs.push(1e9 * hit / (2 * NODES) as f64);
        (2 * NODES as u64, miss)
    });
    out.metric(
        "proto.intern_hit_ns",
        mm_bench_e2e::stats::median(&hit_secs),
        "ns",
    );
}

/// The threaded runtime, for the live ÷ sim ratio only: one OS thread a
/// node measures the scheduler more than the protocol.
fn live(out: &mut Out, parent: usize) {
    const NODES: usize = 64;
    const LOCATES: usize = 100;
    let net = LiveNet::new(NODES);
    let strategy = Checkerboard::new(NODES);
    let mut rng = Rng::new(out.seed);
    let servers: Vec<(NodeId, Port)> = (1..=8u128)
        .map(|p| (node(rng.below(NODES)), Port::new(p)))
        .collect();
    for &(at, port) in &servers {
        net.register_server(at, port, strategy.post_set_for(at, port));
    }
    out.probe("proto.live_locate_us", "us", 1e6, Some(parent), |_| {
        let plan: Vec<(NodeId, usize)> = (0..LOCATES)
            .map(|_| (node(rng.below(NODES)), rng.below(servers.len())))
            .collect();
        let ((), secs) = timed(|| {
            for &(client, which) in &plan {
                let (at, port) = servers[which];
                match net.locate(client, port, strategy.query_set_for(client, port)) {
                    LiveLocateOutcome::Found { addr, .. } => assert_eq!(addr, at),
                    other => panic!("live locate did not hit: {other:?}"),
                }
            }
        });
        (LOCATES as u64, secs)
    });
    net.shutdown();
}

/// Building one `P` and one `Q`, which is what an interner miss pays for.
fn strategy_sets<S: PortMapped>(out: &mut Out, name: &str, parent: usize, strategy: &S) {
    const PAIRS: usize = 2000;
    let mut rng = Rng::new(out.seed);
    out.probe(name, "ns", 1e9, Some(parent), |_| {
        let plan: Vec<(NodeId, NodeId, Port)> = (0..PAIRS)
            .map(|_| {
                let port = Port::new(rng.next_u64() as u128);
                (node(rng.below(N)), node(rng.below(N)), port)
            })
            .collect();
        let (sets, secs) = timed(|| {
            plan.iter()
                .map(|&(server, client, port)| {
                    (
                        strategy.post_set_for(server, port),
                        strategy.query_set_for(client, port),
                    )
                })
                .collect::<Vec<_>>()
        });
        // the match-making guarantee, on a few pairs (each check is |P|·|Q|)
        for (p, q) in sets.iter().take(8) {
            assert!(p.iter().any(|v| q.contains(v)), "P and Q must meet");
        }
        (PAIRS as u64, secs)
    });
}

fn pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| (node(rng.below(n)), node(rng.below(n))))
        .collect()
}

fn distance<R: Router>(out: &mut Out, fabric: &str, parent: usize, router: &R) {
    const PAIRS: usize = 100_000;
    let n = router.node_count();
    let mut rng = Rng::new(out.seed);
    out.probe(
        &format!("topo.distance_ns.{fabric}"),
        "ns",
        1e9,
        Some(parent),
        |_| {
            let plan = pairs(&mut rng, n, PAIRS);
            let (there, secs) = timed(|| {
                plan.iter()
                    .map(|&(a, b)| router.distance(a, b))
                    .collect::<Vec<_>>()
            });
            for (&(a, b), d) in plan.iter().zip(&there).take(1000) {
                assert!(d.is_some() && *d == router.distance(b, a), "symmetric");
            }
            (PAIRS as u64, secs)
        },
    );
}

fn next_hop<R: Router>(out: &mut Out, fabric: &str, parent: usize, router: &R) {
    const PAIRS: usize = 100_000;
    let n = router.node_count();
    let mut rng = Rng::new(out.seed);
    out.probe(
        &format!("topo.next_hop_ns.{fabric}"),
        "ns",
        1e9,
        Some(parent),
        |_| {
            let plan = pairs(&mut rng, n, PAIRS);
            let (hops, secs) = timed(|| {
                plan.iter()
                    .map(|&(a, b)| router.next_hop(a, b))
                    .collect::<Vec<_>>()
            });
            for (&(a, b), hop) in plan.iter().zip(&hops).take(1000) {
                match hop {
                    Some(h) => assert_eq!(
                        router.distance(*h, b).map(|d| d + 1),
                        router.distance(a, b),
                        "a hop is one step closer"
                    ),
                    None => assert_eq!(a, b, "only a node itself has no next hop"),
                }
            }
            (PAIRS as u64, secs)
        },
    );
}

/// The Steiner accounting of one multicast to a checkerboard query set.
fn multicast_cost<R: Router>(out: &mut Out, fabric: &str, parent: usize, router: &R) {
    const SOURCES: usize = 20;
    let n = router.node_count();
    let strategy = Checkerboard::new(n);
    let mut rng = Rng::new(out.seed);
    let name = format!("topo.multicast_cost_ns_per_target.{fabric}");
    out.probe(&name, "ns", 1e9, Some(parent), |_| {
        let plan: Vec<(NodeId, Vec<NodeId>)> = (0..SOURCES)
            .map(|_| {
                let src = node(rng.below(n));
                (src, strategy.query_set_for(src, Port::new(1)))
            })
            .collect();
        let (costs, secs) = timed(|| {
            plan.iter()
                .map(|(src, set)| spanning::multicast_cost(router, *src, set))
                .collect::<Vec<_>>()
        });
        let mut targets = 0;
        for ((src, set), cost) in plan.iter().zip(costs) {
            // a tree reaches at least the farthest target and never
            // costs more than a path to each
            let each = set
                .iter()
                .map(|&t| u64::from(router.distance(*src, t).unwrap()));
            let (far, sum) = each.fold((0, 0), |(far, sum), d| (far.max(d), sum + d));
            let cost = cost.expect("every target is reachable");
            assert!(far <= cost && cost <= sum, "{far} <= {cost} <= {sum}");
            targets += set.len() as u64;
        }
        (targets, secs)
    });
}

/// What tracing and the metrics registry add to a run, and what reading
/// the trace back costs. No workload switches either on.
fn observability(out: &mut Out, parent: usize) {
    let cfg = RunConfig::new("steady-state", RING_N, out.seed);
    let run = |obs: &ObsOptions| {
        let (result, secs) = timed(|| drive::run_traced(&cfg, obs));
        let (report, trace) = result.expect("steady-state runs");
        assert!(report.events_executed() > 0);
        (trace, secs)
    };
    let traced_opts = ObsOptions {
        trace: Some(TraceConfig::full(out.seed)),
        ..ObsOptions::default()
    };
    let registry_opts = ObsOptions {
        obs: true,
        ..ObsOptions::default()
    };
    // [plain, registry, traced] seconds per batch
    let mut secs: [Vec<f64>; 3] = Default::default();
    let (mut spans, mut jsonl, mut analyze) = (0, Vec::new(), Vec::new());
    for i in 0..BATCHES {
        let span = out.rec.open("probe.obs", &format!("obs/{i}"), Some(parent));
        // the three runs take turns going first, so that none of them
        // always inherits the heap the trace left behind
        for k in 0..3 {
            match (i + k) % 3 {
                0 => secs[0].push(run(&ObsOptions::default()).1),
                1 => secs[1].push(run(&registry_opts).1),
                _ => {
                    let (file, run_secs) = run(&traced_opts);
                    secs[2].push(run_secs);
                    let file = file.expect("tracing was asked for");
                    spans = file.spans.len();
                    let (text, write_secs) = timed(|| file.to_jsonl());
                    assert_eq!(text.lines().count(), spans + 2, "header, spans, footer");
                    jsonl.push(write_secs);
                    let (analysis, read_secs) = timed(|| mm_obs::analyze(&file));
                    assert!(
                        analysis.conservation.holds(),
                        "span costs add up to the counters"
                    );
                    analyze.push(read_secs);
                }
            }
        }
        out.rec.close(span);
    }
    let [plain, registry, traced] = secs;
    let median = mm_bench_e2e::stats::median;
    out.metric(
        "obs.trace_overhead_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
    out.metric(
        "obs.registry_overhead_ratio",
        median(&registry) / median(&plain),
        "ratio",
    );
    out.metric("obs.spans_recorded", spans as f64, "count");
    out.metric("obs.to_jsonl_s", median(&jsonl), "s");
    out.metric("obs.analyze_s", median(&analyze), "s");
}

pub fn run(out: &mut Out) {
    let top = out.rec.open("probes", "probes", None);

    queue_bulk::<CalendarQueue<u64>>(out, "sim.queue.calendar_bulk_ns", top);
    queue_bulk::<BTreeQueue<u64>>(out, "sim.queue.btree_bulk_ns", top);
    queue_sliced::<CalendarQueue<u64>>(out, "sim.queue.calendar_sliced_ns", top);
    queue_sliced::<BTreeQueue<u64>>(out, "sim.queue.btree_sliced_ns", top);

    let uniform = || gen::complete_shell(N);
    let sharded = ShardMode::Sharded {
        shards: 16,
        threads: 2,
    };
    let torus = || Graph::with_name(N, "torus(512x512)");
    let ring = || Graph::with_name(RING_N, format!("ring({RING_N})"));
    let (single, hops) = (ShardMode::Single, CostModel::Hops);
    engine(
        out,
        "sim.engine_ns_per_event.single",
        top,
        uniform(),
        CostModel::Uniform,
        single,
        100,
    );
    engine(
        out,
        "sim.engine_ns_per_event.sharded16x2",
        top,
        uniform(),
        CostModel::Uniform,
        sharded,
        100,
    );
    engine(
        out,
        "sim.engine_ns_per_event.hops_torus",
        top,
        torus(),
        hops,
        single,
        20,
    );
    engine(
        out,
        "sim.engine_ns_per_event.hops_ring",
        top,
        ring(),
        hops,
        single,
        20,
    );

    locate(out, top);
    intern(out, top);
    live(out, top);
    strategy_sets(out, "core.checkerboard_pq_ns", top, &Checkerboard::new(N));
    strategy_sets(out, "core.hash_pq_ns", top, &HashLocate::new(N, 3));

    let torus_router = GridRouter::new(512, 512, true);
    let ring_router = RingRouter::new(RING_N);
    distance(out, "torus", top, &torus_router);
    distance(out, "ring", top, &ring_router);
    next_hop(out, "torus", top, &torus_router);
    next_hop(out, "ring", top, &ring_router);
    next_hop(out, "hypercube", top, &HypercubeRouter::new(18));
    multicast_cost(out, "torus", top, &torus_router);
    multicast_cost(out, "ring", top, &ring_router);

    // the O(n^2) oracle no workload uses: what item 3 of the roadmap rules on
    out.probe("topo.table_build_s", "s", 1.0, Some(top), |_| {
        let ring = gen::ring(2048);
        let (table, secs) = timed(|| RoutingTable::new(&ring));
        assert_eq!(table.distance(node(0), node(1024)), Some(1024));
        (1, secs)
    });

    observability(out, top);
    out.rec.close(top);
}
