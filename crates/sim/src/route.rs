//! Routing shared by the single-threaded and sharded executor cores.
//!
//! Both cores charge message passes through these functions, so they
//! agree by construction: the single core feeds `emit` straight into its
//! event queue, while a shard lane records the emissions for the calling
//! thread to push in batch order. Counter deltas accumulate in
//! [`RouteCounters`] (additive, so the caller may fold them into its
//! `Metrics` in any order without affecting output).
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
            // charge the Steiner-tree cost once; deliver along
            // shortest paths, truncated at crashed nodes. The remote
            // slice is the target set itself unless the sender is a
            // member (the only case that still copies).
            let self_in_set = targets.contains(from);
            let filtered: Vec<NodeId>;
            let remote: &[NodeId] = if self_in_set {
                filtered = targets.iter().filter(|&t| t != from).collect();
                &filtered
            } else {
                targets.as_slice()
            };
            if let Some(cost) = multicast_cost(routing, from, remote) {
                c.passes += cost;
            } else {
                // unreachable targets: fall back to per-target routing
                for &t in remote {
                    route(env, now, from, t, msg.clone(), c, emit);
                }
                // plus local copy if requested
                if self_in_set {
                    let env_msg = Envelope {
                        from,
                        to: from,
                        sent_at: now,
                        msg,
                    };
                    emit(now, env_msg);
                }
                return;
            }
            c.sends += remote.len() as u64;
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
                // reachable (the Steiner cost above proved it); hop count
                // plus first-crashed-intermediate check, no path `Vec`
                let dist = routing.distance(from, t).expect("target reachable");
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
