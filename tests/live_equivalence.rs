//! Integration: the threaded live runtime (channel mailboxes) and the
//! deterministic simulator agree — same strategy, same placements, same
//! located addresses, same message counts — and the live runtime's churn
//! operations (crash, deregister, re-register) behave atomically under
//! real concurrency.

use match_making::prelude::*;
use match_making::proto::live::{LiveLocateOutcome, LiveNet};

#[test]
fn live_and_sim_agree_on_address_and_cost() {
    let n = 25;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("cross-check");
    let server = NodeId::new(4);
    let client = NodeId::new(19);

    // simulator run
    let mut eng = ShotgunEngine::new(gen::complete(n), strat, CostModel::Uniform);
    eng.register_server(server, port);
    eng.run();
    let sim_before = eng.metrics().message_passes;
    let h = eng.locate(client, port);
    eng.run();
    let sim_locate_cost = eng.metrics().message_passes - sim_before;
    let sim_addr = match eng.outcome(h) {
        LocateOutcome::Found { addr, .. } => addr,
        other => panic!("sim failed: {other:?}"),
    };

    // live threaded run
    let live = LiveNet::new(n);
    live.register_server(server, port, Strategy::post_set(&strat, server));
    let live_before = live.message_passes();
    let live_addr = live
        .locate_addr(client, port, Strategy::query_set(&strat, client))
        .expect("live locate must succeed");
    let live_locate_cost = live.message_passes() - live_before;
    live.shutdown();

    assert_eq!(sim_addr, live_addr, "both runtimes find the same server");
    assert_eq!(sim_addr, server);
    // both count queries + replies, with self-messages free
    assert_eq!(
        sim_locate_cost, live_locate_cost,
        "hop accounting must agree between runtimes"
    );
}

#[test]
fn live_concurrent_locates_all_succeed() {
    let n = 36;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("parallel");
    let server = NodeId::new(11);
    let live = LiveNet::new(n);
    live.register_server(server, port, Strategy::post_set(&strat, server));

    // fire locates from every node concurrently (the LiveNet API blocks
    // per call; thread them)
    let live = std::sync::Arc::new(live);
    let mut joins = Vec::new();
    for c in 0..n as u32 {
        let live = std::sync::Arc::clone(&live);
        let q = Strategy::query_set(&strat, NodeId::new(c));
        joins.push(std::thread::spawn(move || {
            live.locate_addr(NodeId::new(c), port, q)
        }));
    }
    for j in joins {
        assert_eq!(j.join().unwrap(), Some(server));
    }
    live.shutdown();
}

#[test]
fn live_missing_service_is_not_found() {
    let n = 9;
    let strat = Checkerboard::new(n);
    let live = LiveNet::new(n);
    let found = live.locate(
        NodeId::new(0),
        Port::from_name("never-registered"),
        Strategy::query_set(&strat, NodeId::new(0)),
    );
    // every rendezvous answers "unknown": a clean miss, not a timeout
    assert_eq!(found, LiveLocateOutcome::NotFound { elapsed: 0 });
    live.shutdown();
}

/// Churn edge case: a locate racing a deregistration must return either
/// the old address (with its exact registration stamp — never a torn
/// value) or a miss. There is no third outcome: the unpost either beat
/// the queries to every rendezvous in the client's row/column or it
/// didn't.
///
/// Loom-style coverage by repetition: the race is re-run many times with
/// the deregistration launched from a second thread at varying points, so
/// the interleaving sweeps across the interesting schedules.
#[test]
fn locate_racing_deregistration_never_tears() {
    let n = 16;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("racy");
    let server = NodeId::new(5);
    let client = NodeId::new(10);
    let mut outcomes = [0usize; 2]; // [found, missed]
    for round in 0..200u32 {
        let live = std::sync::Arc::new(LiveNet::new(n));
        let stamp = live.register_server(server, port, Strategy::post_set(&strat, server));
        let deregger = {
            let live = std::sync::Arc::clone(&live);
            let posts = Strategy::post_set(&strat, server);
            std::thread::spawn(move || {
                // vary the launch point to sweep interleavings
                for _ in 0..round % 7 {
                    std::hint::spin_loop();
                }
                live.deregister_server(server, port, posts);
            })
        };
        let got = live.locate(client, port, Strategy::query_set(&strat, client));
        deregger.join().unwrap();
        match got {
            LiveLocateOutcome::Found { addr, stamp: s, .. } => {
                assert_eq!(addr, server, "a hit must carry the real address");
                assert_eq!(s, stamp, "a hit must carry the exact posting stamp");
                outcomes[0] += 1;
            }
            LiveLocateOutcome::NotFound { .. } => outcomes[1] += 1,
            other => panic!("no rendezvous crashed, yet got {other:?}"),
        }
        live.shutdown();
    }
    // after the join, the withdrawal is fully visible: a fresh locate
    // must always miss
    let live = LiveNet::new(n);
    let _ = live.register_server(server, port, Strategy::post_set(&strat, server));
    live.deregister_server(server, port, Strategy::post_set(&strat, server));
    assert_eq!(
        live.locate(client, port, Strategy::query_set(&strat, client)),
        LiveLocateOutcome::NotFound { elapsed: 0 }
    );
    live.shutdown();
}

/// Churn edge case: crash + re-register. Stamps must bump monotonically
/// across the whole crash/restore/re-register cycle, and a locate after
/// the cycle must see the newest address — stale postings from before the
/// crash lose by timestamp, never by luck.
#[test]
fn reregistration_after_crash_supersedes_monotonically() {
    let n = 25;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("phoenix");
    let live = LiveNet::new(n);
    let mut last_stamp = 0;
    let mut home = NodeId::new(3);
    for round in 0..20u32 {
        let stamp = live.register_server(home, port, Strategy::post_set(&strat, home));
        assert!(stamp > last_stamp, "stamps must be strictly monotone");
        // crash the host, then resurrect the service elsewhere
        live.crash(home);
        let next = NodeId::new((home.raw() + 7) % n as u32);
        let stamp2 = live.register_server(next, port, Strategy::post_set(&strat, next));
        assert!(stamp2 > stamp);
        last_stamp = stamp2;
        live.restore(home);
        live.clear_cache(home);
        home = next;
        // every client in the network agrees on the current address
        let client = NodeId::new((round * 11) % n as u32);
        match live.locate(client, port, Strategy::query_set(&strat, client)) {
            LiveLocateOutcome::Found { addr, stamp, .. } => {
                assert_eq!(addr, home, "round {round}: newest registration wins");
                assert_eq!(stamp, last_stamp);
            }
            other => panic!("round {round}: {other:?}"),
        }
    }
    live.shutdown();
}

/// Churn edge case: a crash immediately followed by a restore, racing a
/// locate from another thread. The transient crash can swallow the
/// in-flight query, and the restored crash *flag* is indistinguishable
/// from "never crashed" — the driver detects the race via the
/// monotonically-growing crash epoch and force-classifies instead of
/// waiting forever for the swallowed answer.
#[test]
fn locate_racing_crash_then_restore_never_wedges() {
    let n = 16;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("flicker");
    let server = NodeId::new(6);
    let client = NodeId::new(9);
    for round in 0..60u32 {
        let live = std::sync::Arc::new(LiveNet::new(n));
        let stamp = live.register_server(server, port, Strategy::post_set(&strat, server));
        let qs = Strategy::query_set(&strat, client);
        let victim = qs[round as usize % qs.len()];
        let flickerer = {
            let live = std::sync::Arc::clone(&live);
            std::thread::spawn(move || {
                for _ in 0..round % 9 {
                    std::hint::spin_loop();
                }
                live.crash(victim);
                live.restore(victim);
            })
        };
        // must return (any classified verdict), never panic on the wedge
        // timeout — the whole round trip is bounded by the race recheck
        let got = live.locate(client, port, qs);
        flickerer.join().unwrap();
        match got {
            LiveLocateOutcome::Found { addr, stamp: s, .. } => {
                assert_eq!((addr, s), (server, stamp));
            }
            LiveLocateOutcome::NotFound { .. } | LiveLocateOutcome::Unresolved { .. } => {}
        }
        live.shutdown();
    }
}

/// Churn edge case: locates racing crashes from a second thread never
/// wedge and never invent an address — every verdict is Found (the true
/// server, exact stamp), NotFound, or Unresolved.
#[test]
fn locate_racing_crash_is_always_classified() {
    let n = 16;
    let strat = Checkerboard::new(n);
    let port = Port::from_name("crashy");
    let server = NodeId::new(6);
    let client = NodeId::new(9);
    for round in 0..100u32 {
        let live = std::sync::Arc::new(LiveNet::new(n));
        let stamp = live.register_server(server, port, Strategy::post_set(&strat, server));
        let qs = Strategy::query_set(&strat, client);
        let victim = qs[round as usize % qs.len()];
        let crasher = {
            let live = std::sync::Arc::clone(&live);
            std::thread::spawn(move || {
                for _ in 0..round % 5 {
                    std::hint::spin_loop();
                }
                live.crash(victim);
            })
        };
        let got = live.locate(client, port, Strategy::query_set(&strat, client));
        crasher.join().unwrap();
        match got {
            LiveLocateOutcome::Found { addr, stamp: s, .. } => {
                assert_eq!((addr, s), (server, stamp));
            }
            LiveLocateOutcome::NotFound { .. } | LiveLocateOutcome::Unresolved { .. } => {}
        }
        live.shutdown();
    }
}
