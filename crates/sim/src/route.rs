//! Routing: what a handler's sends cost and when they arrive.
//!
//! The scheduler charges message passes through these functions, feeding
//! `emit` straight into its event queue. Counter deltas accumulate in
//! [`RouteCounters`], which the caller folds into its `Metrics` once per
//! event.
//!
//! Routing goes through [`AnyRouter`], never through graph adjacency:
//! under an analytic backend a structured topology needs no edges at all,
//! which is what lets hop-cost runs scale to n = 1,048,576. When no node
//! is crashed, hop walks collapse to O(1) `distance` lookups — the walk
//! exists only to find the first crashed intermediate.

use crate::{Envelope, Op, SimTime, TargetSet};
use mm_topo::spanning::multicast_cost;
use mm_topo::{AnyRouter, NodeId, Router};

/// Read-only view of the world routing needs: routes and crash state
/// (built by `World::net_env`).
pub(crate) struct NetEnv<'a> {
    /// `Some` under `CostModel::Hops`; `None` is `CostModel::Uniform`,
    /// which charges one pass per destination and never routes.
    pub routing: Option<&'a AnyRouter>,
    pub crashed: &'a [bool],
    /// Number of `true` entries in `crashed`, so the common all-alive
    /// case can skip hop walks entirely.
    pub crashed_count: usize,
}

/// Additive metric deltas produced while routing one batch of ops.
#[derive(Debug, Default)]
pub(crate) struct RouteCounters {
    pub sends: u64,
    pub passes: u64,
    pub dropped: u64,
}

/// Applies a handler's buffered ops: routes sends and multicasts. Every
/// envelope put in flight is handed to `emit(at, envelope)` in a
/// deterministic order (op order, and within a multicast, target order).
pub(crate) fn apply_ops<M: Clone>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    ops: &mut Vec<Op<M>>,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Envelope<M>),
) {
    for op in ops.drain(..) {
        match op {
            Op::Send { to, msg } => route(env, now, from, to, msg, c, emit),
            Op::Multicast { to, msg } => route_multicast(env, now, from, &to, msg, c, emit),
        }
    }
}

/// Hops travelled toward `to` and whether a crashed intermediate blocked
/// the delivery. `dist` is the known full distance; with nobody crashed
/// the answer is immediate, otherwise the router finds the first crashed
/// node on the path (passes spent up to and into it stay spent).
fn crash_truncated(
    env: &NetEnv<'_>,
    routing: &AnyRouter,
    from: NodeId,
    to: NodeId,
    dist: u32,
) -> (u64, bool) {
    if env.crashed_count == 0 {
        return (u64::from(dist), false);
    }
    let (travelled, blocked) = routing.hops_until_flagged(from, to, env.crashed);
    (u64::from(travelled), blocked)
}

/// Point-to-point routing with hop accounting and crash truncation.
pub(crate) fn route<M>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    msg: M,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Envelope<M>),
) {
    c.sends += 1;
    if from == to {
        // local delivery is free (intra-host communication)
        let env_msg = Envelope {
            from,
            to,
            sent_at: now,
            msg,
        };
        emit(now, env_msg);
        return;
    }
    match env.routing {
        None => {
            c.passes += 1;
            let env_msg = Envelope {
                from,
                to,
                sent_at: now,
                msg,
            };
            emit(now + 1, env_msg);
        }
        Some(routing) => {
            let Some(dist) = routing.distance(from, to) else {
                c.dropped += 1;
                return;
            };
            let (travelled, blocked) = crash_truncated(env, routing, from, to, dist);
            // passes spent up to (and into) a crash point stay spent
            c.passes += travelled;
            if blocked {
                c.dropped += 1;
                return;
            }
            let env_msg = Envelope {
                from,
                to,
                sent_at: now,
                msg,
            };
            emit(now + travelled, env_msg);
        }
    }
}

/// Multicast with shared-prefix (spanning/Steiner tree) accounting.
///
/// `targets` is already sorted and duplicate-free ([`TargetSet`]'s
/// construction invariant), so no per-operation sort/dedup happens here.
pub(crate) fn route_multicast<M: Clone>(
    env: &NetEnv<'_>,
    now: SimTime,
    from: NodeId,
    targets: &TargetSet,
    msg: M,
    c: &mut RouteCounters,
    emit: &mut impl FnMut(SimTime, Envelope<M>),
) {
    match env.routing {
        None => {
            for t in targets.iter() {
                if t == from {
                    let env_msg = Envelope {
                        from,
                        to: t,
                        sent_at: now,
                        msg: msg.clone(),
                    };
                    emit(now, env_msg);
                    continue;
                }
                c.sends += 1;
                c.passes += 1;
                let env_msg = Envelope {
                    from,
                    to: t,
                    sent_at: now,
                    msg: msg.clone(),
                };
                emit(now + 1, env_msg);
            }
        }
        Some(routing) => {
            // charge the Steiner-tree cost once (the accounting skips the
            // sender, which under checkerboard is always a member of its
            // own set); deliver along shortest paths, truncated at crashed
            // nodes.
            let Some(cost) = multicast_cost(routing, from, targets.as_slice()) else {
                // unreachable targets: fall back to per-target routing,
                // plus the local copy if requested
                for t in targets.iter().filter(|&t| t != from) {
                    route(env, now, from, t, msg.clone(), c, emit);
                }
                if targets.contains(from) {
                    let env_msg = Envelope {
                        from,
                        to: from,
                        sent_at: now,
                        msg,
                    };
                    emit(now, env_msg);
                }
                return;
            };
            c.passes += cost;
            for t in targets.iter() {
                if t == from {
                    let env_msg = Envelope {
                        from,
                        to: t,
                        sent_at: now,
                        msg: msg.clone(),
                    };
                    emit(now, env_msg);
                    continue;
                }
                // the Steiner cost above found every target reachable;
                // should a router ever disagree with itself, `route`
                // counts the send and the drop
                let Some(dist) = routing.distance(from, t) else {
                    route(env, now, from, t, msg.clone(), c, emit);
                    continue;
                };
                c.sends += 1;
                // hop count plus first-crashed-intermediate check, no
                // path `Vec`
                let (d, blocked) = crash_truncated(env, routing, from, t, dist);
                if blocked {
                    c.dropped += 1;
                    continue;
                }
                let env_msg = Envelope {
                    from,
                    to: t,
                    sent_at: now,
                    msg: msg.clone(),
                };
                emit(now + d, env_msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_topo::Graph;

    #[test]
    fn unreachable_multicast_target_is_a_counted_drop() {
        // two components, 0-1-2 and 3-4: no Steiner tree from 0 spans
        // {0, 2, 4}, so each target is routed on its own
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let routing = AnyRouter::for_graph(&g);
        let env = NetEnv {
            routing: Some(&routing),
            crashed: &[false; 5],
            crashed_count: 0,
        };
        let targets = TargetSet::new(&[0, 2, 4].map(NodeId::new));
        let (mut c, mut sent) = (RouteCounters::default(), Vec::new());
        let mut emit = |at, e: Envelope<()>| sent.push((e.to.raw(), at));
        route_multicast(&env, 10, NodeId::new(0), &targets, (), &mut c, &mut emit);
        // 2 is two hops away, 4 is dropped, the local copy is free
        assert_eq!(sent, [(2, 12), (0, 10)]);
        assert_eq!((c.sends, c.passes, c.dropped), (2, 2, 1));
    }
}
