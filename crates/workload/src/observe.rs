//! The runner's observability glue: the virtual-timing law, causal
//! span-tree emission for post/locate/request operations, and
//! metrics-registry feeding.
//!
//! A trace of a churn-free spec is **byte-identical** across the runtimes
//! (and across event-queue implementations) at equal seeds: every field
//! is computed from spec-level state (virtual ticks, target sets, meets)
//! rather than runtime clocks, and [`mm_obs::Tracer::finish`]
//! canonicalizes the order.

use crate::report::LocateVerdict;
use mm_obs::{Registry, SpanRecord, Tracer};
use mm_sim::{SimTime, TargetSet};
use mm_topo::NodeId;

/// Ticks a fully answered locate takes under uniform cost: a query set
/// with no remote target costs 0 (the client itself is a free local
/// delivery, and an empty set settles at issue), any remote fan-out
/// completes when the slowest reply lands at issue + 2 (query tick +
/// reply tick).
pub(crate) fn uniform_round_trip(targets: &TargetSet, client: NodeId) -> SimTime {
    if targets.iter().all(|v| v == client) {
        0
    } else {
        2
    }
}

fn verdict_label(v: LocateVerdict) -> &'static str {
    match v {
        LocateVerdict::Hit => "hit",
        LocateVerdict::Miss => "miss",
        LocateVerdict::Unresolved => "unresolved",
        LocateVerdict::DetectedLie => "detected-lie",
        LocateVerdict::FalseMatch => "false-match",
    }
}

/// Emits the causal tree of one post (setup or refresh): a `post` root
/// at the server's home plus one `store` span per rendezvous target, in
/// ascending target order. A store at the home itself is a free local
/// delivery (cost 0, same tick); a remote store costs one message pass
/// and lands one tick later.
pub(crate) fn emit_post_spans(
    tracer: &mut Tracer,
    trace: u64,
    home: NodeId,
    port_idx: usize,
    targets: &[NodeId],
    tick: SimTime,
) {
    tracer.record(SpanRecord {
        trace,
        span: 0,
        parent: None,
        kind: "post".to_string(),
        node: u64::from(home.raw()),
        port: port_idx as u64,
        hop: 0,
        tick,
        cost: 0,
        met: None,
        verdict: None,
        elapsed: None,
    });
    for (i, &tgt) in targets.iter().enumerate() {
        let remote = tgt != home;
        tracer.record(SpanRecord {
            trace,
            span: i as u32 + 1,
            parent: Some(0),
            kind: "store".to_string(),
            node: u64::from(tgt.raw()),
            port: port_idx as u64,
            hop: 1,
            tick: tick + u64::from(remote),
            cost: u64::from(remote),
            met: None,
            verdict: None,
            elapsed: None,
        });
    }
}

/// Emits the causal tree of one locate: a `locate` root at the client
/// (carrying the verdict and the virtual elapsed) plus one `contact`
/// span per query target in ascending order, each marked with whether
/// the query met a matching advertisement there (`met` — the realized
/// match-making intersection, `Σ met = m(P,Q)` with fresh postings).
/// A contact of the client itself is free (cost 0, same tick); a remote
/// contact costs two passes (query + reply) and is stamped at the query's
/// arrival tick.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_locate_spans(
    tracer: &mut Tracer,
    trace: u64,
    client: NodeId,
    port_idx: usize,
    targets: &[NodeId],
    meets: &[NodeId],
    verdict: LocateVerdict,
    elapsed: u64,
    tick: SimTime,
) {
    tracer.record(SpanRecord {
        trace,
        span: 0,
        parent: None,
        kind: "locate".to_string(),
        node: u64::from(client.raw()),
        port: port_idx as u64,
        hop: 0,
        tick,
        cost: 0,
        met: None,
        verdict: Some(verdict_label(verdict).to_string()),
        elapsed: Some(elapsed),
    });
    for (i, &tgt) in targets.iter().enumerate() {
        let remote = tgt != client;
        tracer.record(SpanRecord {
            trace,
            span: i as u32 + 1,
            parent: Some(0),
            kind: "contact".to_string(),
            node: u64::from(tgt.raw()),
            port: port_idx as u64,
            hop: 1,
            tick: tick + u64::from(remote),
            cost: 2 * u64::from(remote),
            met: Some(meets.binary_search(&tgt).is_ok()),
            verdict: None,
            elapsed: None,
        });
    }
}

/// Emits the `request` span of a locate-then-call chain: the follow-up
/// application request to the located address, issued the tick the
/// locate's verdict landed. A request to the client's own node is one
/// free local send; a remote request costs two passes (request + reply).
pub(crate) fn emit_request_span(
    tracer: &mut Tracer,
    trace: u64,
    span: u32,
    client: NodeId,
    addr: NodeId,
    port_idx: usize,
    tick: SimTime,
) {
    tracer.record(SpanRecord {
        trace,
        span,
        parent: Some(0),
        kind: "request".to_string(),
        node: u64::from(addr.raw()),
        port: port_idx as u64,
        hop: 1,
        tick,
        cost: 2 * u64::from(addr != client),
        met: None,
        verdict: None,
        elapsed: None,
    });
}

/// Emits the setup-time `fault` span of one injected Byzantine profile: a
/// root span at the faulty node whose verdict field carries the profile
/// label. Both runtimes emit these in spec order before any traffic, so a
/// hostile trace identifies its adversary deterministically.
pub(crate) fn emit_fault_span(tracer: &mut Tracer, trace: u64, node: NodeId, label: &str) {
    tracer.record(SpanRecord {
        trace,
        span: 0,
        parent: None,
        kind: "fault".to_string(),
        node: u64::from(node.raw()),
        port: 0,
        hop: 0,
        tick: 0,
        cost: 0,
        met: None,
        verdict: Some(label.to_string()),
        elapsed: None,
    });
}

/// Folds one classified locate into the metrics registry: verdict
/// counters plus the latency / fan-out / meet histograms.
pub(crate) fn observe_locate(
    reg: &mut Registry,
    verdict: LocateVerdict,
    elapsed: u64,
    fanout: usize,
    meets: usize,
) {
    reg.counter_add(
        match verdict {
            LocateVerdict::Hit => "locates_hit",
            LocateVerdict::Miss => "locates_miss",
            LocateVerdict::Unresolved => "locates_unresolved",
            LocateVerdict::DetectedLie => "locates_detected_lie",
            LocateVerdict::FalseMatch => "locates_false_match",
        },
        1,
    );
    reg.observe("locate_elapsed_ticks", elapsed);
    reg.observe("locate_fanout", fanout as u64);
    reg.observe("locate_meets", meets as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_remote_target_costs_a_round_trip() {
        let c = NodeId::new(3);
        let x = NodeId::new(5);
        assert_eq!(uniform_round_trip(&TargetSet::empty(), c), 0);
        assert_eq!(uniform_round_trip(&TargetSet::new(&[c]), c), 0);
        assert_eq!(uniform_round_trip(&TargetSet::new(&[c, x]), c), 2);
        assert_eq!(uniform_round_trip(&TargetSet::new(&[x]), c), 2);
    }
}
