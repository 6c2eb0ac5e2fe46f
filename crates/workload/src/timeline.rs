//! Spec → event-timeline compilation, and the seed's decision layer.
//!
//! The compiled timeline *is* the deterministic contract between a spec
//! and whatever runtime executes it: arrival draws happen in phase order
//! before the run, churn and refresh events are merged in, and same-tick
//! events are ordered churn → refresh → arrival (the world reshapes
//! before traffic observes it). Every random decision of a run is a
//! method on [`Draws`], which owns the spec's one RNG together with the
//! liveness it draws over — so operation `k` names the same (tick, kind,
//! client, port) on every runtime, the precondition for differential
//! testing them against each other.

use crate::spec::{ChurnAction, PortPopularity, ThinkTime, Workload};
use crate::traffic::{arrival_times, pick, think_ticks, PopularitySampler};
use mm_sim::SimTime;
use mm_topo::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner events in time order; the discriminant doubles as the same-tick
/// priority (churn reshapes the world before traffic observes it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    Churn(ChurnAction),
    Refresh,
    Arrival,
}

fn event_priority(e: &Event) -> u8 {
    match e {
        Event::Churn(_) => 0,
        Event::Refresh => 1,
        Event::Arrival => 2,
    }
}

/// One phase's boundaries: `[start, end)` plus its name.
pub(crate) type PhaseBounds = (SimTime, SimTime, String);

/// A compiled scenario timeline.
#[derive(Debug)]
pub(crate) struct Timeline {
    /// All events, sorted by `(tick, priority)`.
    pub events: Vec<(SimTime, Event)>,
    /// Per-phase `[start, end)` windows in spec order.
    pub phase_bounds: Vec<PhaseBounds>,
    /// Sum of phase durations.
    pub horizon: SimTime,
}

/// A churn action with every random draw already made: concrete nodes to
/// crash/restore, a concrete migration target — ready to execute on any
/// runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ResolvedChurn {
    Crash(NodeId),
    Restore {
        node: NodeId,
        clear_cache: bool,
    },
    Migrate {
        port_idx: usize,
        from: NodeId,
        to: NodeId,
    },
    ClearAllCaches,
}

/// Where a port's server starts out: any of the `n` nodes.
fn draw_home(rng: &mut StdRng, n: usize) -> NodeId {
    NodeId::from(rng.gen_range(0..n))
}

/// The homes a runner seeded `seed` will register for its `ports` ports:
/// [`Draws::home`] is the first thing drawn off a seed. For a spec builder
/// that must name nodes relative to them (`scenarios::rack_failure`).
pub(crate) fn replay_homes(seed: u64, n: usize, ports: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ports).map(|_| draw_home(&mut rng, n)).collect()
}

/// The seed's decision layer: the spec's one RNG and the runner's one view
/// of who is alive (the runtime keeps its own truth). Who arrives where,
/// who crashes, restores or migrates is decided here in one canonical draw
/// order — homes, [`compile`](Draws::compile), then arrivals, think pauses
/// and churn as the timeline reaches them; the runner merely executes the
/// decisions on its [`crate::Runtime`].
#[derive(Debug)]
pub(crate) struct Draws {
    rng: StdRng,
    sampler: PopularitySampler,
    crashed: Vec<bool>,
    /// The ascending complement of `crashed`, so the per-arrival client
    /// draw is one index. A crash wave draws its victims from it in place;
    /// after any churn event that may crash or restore, it is rebuilt from
    /// the flags in one branch-free pass, into the same buffer.
    live: Vec<NodeId>,
    /// The last churn event's decisions, in a buffer kept from event to
    /// event.
    resolved: Vec<ResolvedChurn>,
}

impl Draws {
    pub fn new(seed: u64, n: usize, ports: usize, popularity: PortPopularity) -> Self {
        Draws {
            rng: StdRng::seed_from_u64(seed),
            sampler: PopularitySampler::new(ports, popularity),
            crashed: vec![false; n],
            live: (0..n).map(NodeId::from).collect(),
            resolved: Vec::new(),
        }
    }

    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed[v.index()]
    }

    /// Currently-live nodes, ascending.
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }

    /// Where a port's server starts out: any node of the network.
    pub fn home(&mut self) -> NodeId {
        draw_home(&mut self.rng, self.crashed.len())
    }

    /// Compiles `spec` into a sorted timeline, drawing every arrival gap
    /// in phase order before the run.
    pub fn compile(&mut self, spec: &Workload) -> Timeline {
        let mut events: Vec<(SimTime, Event)> = Vec::new();
        let mut phase_bounds: Vec<PhaseBounds> = Vec::new();
        let mut cursor: SimTime = 0;
        for phase in &spec.phases {
            let (start, end) = (cursor, cursor + phase.duration);
            for t in arrival_times(phase.arrivals, start, end, &mut self.rng) {
                events.push((t, Event::Arrival));
            }
            phase_bounds.push((start, end, phase.name.clone()));
            cursor = end;
        }
        let horizon = cursor;
        for ev in &spec.churn {
            events.push((ev.at, Event::Churn(ev.action.clone())));
        }
        if let Some(r) = spec.refresh_interval {
            let mut t = r;
            while t < horizon {
                events.push((t, Event::Refresh));
                t += r;
            }
        }
        events.sort_by_key(|e| (e.0, event_priority(&e.1)));
        Timeline {
            events,
            phase_bounds,
            horizon,
        }
    }

    /// One arrival's random choices: `(client, port index)`. `None` when
    /// the whole network is down (the open-loop client is dead too — and
    /// crucially the RNG is *not* consumed).
    pub fn arrival(&mut self) -> Option<(NodeId, usize)> {
        if self.live.is_empty() {
            return None;
        }
        let client = pick(&self.live, &mut self.rng);
        Some((client, self.sampler.sample(&mut self.rng)))
    }

    /// One think pause in ticks.
    pub fn think(&mut self, think: ThinkTime) -> SimTime {
        think_ticks(think, &mut self.rng)
    }

    /// Resolves a spec-level [`ChurnAction`] against the current liveness
    /// and `homes`, and takes the resulting crashes and restores into its
    /// own view; the caller executes the list on the runtime. Nothing
    /// node- or wave-sized is allocated: a crash wave's pool is `live`
    /// itself, and the list is the buffer of the previous event's.
    pub fn churn(&mut self, action: &ChurnAction, homes: &[NodeId]) -> &[ResolvedChurn] {
        let n = self.crashed.len();
        let out = &mut self.resolved;
        out.clear();
        match *action {
            ChurnAction::CrashRandom {
                count,
                spare_servers,
            } => {
                // the pool is the live nodes, ascending, without the homes
                // when they are spared; each victim is swap-removed from it
                if spare_servers {
                    let mut spared: Vec<usize> = homes
                        .iter()
                        .filter_map(|h| self.live.binary_search(h).ok())
                        .collect();
                    spared.sort_unstable();
                    spared.dedup();
                    remove_sorted(&mut self.live, &spared);
                }
                let pool = &mut self.live;
                for _ in 0..count.min(pool.len()) {
                    let k = self.rng.gen_range(0..pool.len());
                    out.push(ResolvedChurn::Crash(pool.swap_remove(k)));
                }
            }
            ChurnAction::CrashServer { port_index } => {
                let v = homes[port_index];
                if !self.crashed[v.index()] {
                    out.push(ResolvedChurn::Crash(v));
                }
            }
            ChurnAction::RestoreAll { clear_caches } => {
                // the crashed nodes, gathered into `live`'s buffer, which
                // is rebuilt below anyway
                gather(&mut self.live, &self.crashed, true);
                out.extend(self.live.iter().map(|&node| ResolvedChurn::Restore {
                    node,
                    clear_cache: clear_caches,
                }));
            }
            ChurnAction::MigrateRandom { port_index } => {
                // the pool is the live nodes but `from`: its `k`-th is the
                // `k`-th live node, or the next one from `from` on
                let from = homes[port_index];
                let at = self.live.binary_search(&from).ok();
                let len = self.live.len() - usize::from(at.is_some());
                if len > 0 {
                    let k = self.rng.gen_range(0..len);
                    let to = self.live[k + usize::from(at.is_some_and(|at| k >= at))];
                    out.push(ResolvedChurn::Migrate {
                        port_idx: port_index,
                        from,
                        to,
                    });
                }
            }
            ChurnAction::ClearAllCaches => out.push(ResolvedChurn::ClearAllCaches),
            ChurnAction::CrashGroup { ref nodes } => {
                // correlated failure: the spec already names the victims, so
                // nothing is drawn — members already down are skipped, and the
                // ascending order makes the execution sequence canonical
                out.extend(
                    nodes
                        .iter()
                        .copied()
                        .filter(|&vi| vi < n && !self.crashed[vi])
                        .map(|vi| ResolvedChurn::Crash(NodeId::from(vi))),
                );
                out.sort_unstable();
                out.dedup();
            }
        }
        for r in out.iter() {
            match *r {
                ResolvedChurn::Crash(v) => self.crashed[v.index()] = true,
                ResolvedChurn::Restore { node, .. } => self.crashed[node.index()] = false,
                ResolvedChurn::Migrate { .. } | ResolvedChurn::ClearAllCaches => {}
            }
        }
        // every other action may have moved a flag, and a crash wave drew
        // from `live` in place, a restore gathered into it
        if !matches!(
            action,
            ChurnAction::MigrateRandom { .. } | ChurnAction::ClearAllCaches
        ) {
            gather(&mut self.live, &self.crashed, false);
        }
        &self.resolved
    }
}

/// Fills `nodes` with the nodes whose flag is `flag`, ascending, in one
/// pass with no branch on the flags: every node is written at the cursor,
/// which moves on past the matching ones only.
fn gather(nodes: &mut Vec<NodeId>, flags: &[bool], flag: bool) {
    nodes.resize(flags.len(), NodeId::new(0));
    let mut w = 0;
    for (vi, &f) in flags.iter().enumerate() {
        // `Draws::new` checked that every index fits a `NodeId`
        nodes[w] = NodeId::new(vi as u32);
        w += usize::from(f == flag);
    }
    nodes.truncate(w);
}

/// Removes the elements at `at` (ascending, distinct, in range) from `v`,
/// keeping the order of the rest: each run between two of them moves
/// down once.
fn remove_sorted<T: Copy>(v: &mut Vec<T>, at: &[usize]) {
    let Some(&first) = at.first() else { return };
    let mut w = first;
    for (k, &p) in at.iter().enumerate() {
        let next = at.get(k + 1).copied().unwrap_or(v.len());
        v.copy_within(p + 1..next, w);
        w += next - p - 1;
    }
    v.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    impl Draws {
        /// The generator's state, for "nothing was drawn" assertions here
        /// and in `clients::tests`.
        pub(crate) fn rng(&self) -> &StdRng {
            &self.rng
        }
    }

    /// `n` live nodes and one uniform port space, seeded.
    fn draws(seed: u64, n: usize) -> Draws {
        Draws::new(seed, n, 4, PortPopularity::Uniform)
    }

    fn compiled(spec: &Workload) -> Timeline {
        draws(spec.seed, 64).compile(spec)
    }

    #[test]
    fn compile_is_deterministic_and_ordered() {
        let spec = scenarios::rolling_churn(64, 9);
        let ta = compiled(&spec);
        let tb = compiled(&spec);
        assert_eq!(ta.events, tb.events);
        assert_eq!(ta.horizon, spec.horizon());
        assert_eq!(ta.phase_bounds.len(), spec.phases.len());
        assert!(ta
            .events
            .windows(2)
            .all(|w| (w[0].0, event_priority(&w[0].1)) <= (w[1].0, event_priority(&w[1].1))));
    }

    #[test]
    fn resolve_churn_spares_servers_and_respects_pools() {
        let mut d = draws(3, 8);
        let homes = vec![NodeId::new(2), NodeId::new(5)];
        let out = d
            .churn(
                &ChurnAction::CrashRandom {
                    count: 6,
                    spare_servers: true,
                },
                &homes,
            )
            .to_vec();
        assert_eq!(out.len(), 6, "everyone but the two servers dies");
        for r in &out {
            let ResolvedChurn::Crash(v) = r else {
                panic!("only crashes expected")
            };
            assert!(!homes.contains(v), "servers are spared");
        }
        assert_eq!(d.live(), homes.as_slice());
        // migration never targets the current home
        let out = d
            .churn(&ChurnAction::MigrateRandom { port_index: 0 }, &homes)
            .to_vec();
        let [ResolvedChurn::Migrate { from, to, .. }] = out.as_slice() else {
            panic!("one migration expected")
        };
        assert_eq!(*from, NodeId::new(2));
        assert_ne!(to, from);
    }

    #[test]
    fn crash_group_is_rng_free_and_skips_the_dead() {
        let mut d = draws(11, 8);
        let homes = vec![NodeId::new(2)];
        d.churn(&ChurnAction::CrashGroup { nodes: vec![5] }, &homes);
        let before = d.rng().clone();
        let out = d
            .churn(
                &ChurnAction::CrashGroup {
                    nodes: vec![6, 5, 4, 6],
                },
                &homes,
            )
            .to_vec();
        assert_eq!(d.rng(), &before, "correlated kills draw nothing");
        assert_eq!(
            out,
            vec![
                ResolvedChurn::Crash(NodeId::new(4)),
                ResolvedChurn::Crash(NodeId::new(6)),
            ],
            "ascending, deduped, already-dead member skipped"
        );
    }

    /// `Draws` against the naive model: whatever mix of churn it resolves,
    /// `live()` is the ascending complement of the flags, every resolved
    /// crash hits a live node and every restore a dead one, a group kill
    /// draws nothing, and nobody arrives while nobody is alive.
    #[test]
    fn draws_keep_live_the_complement_of_the_flags() {
        let n = 24;
        let mut outages = 0;
        for seed in 0..40u64 {
            let mut d = draws(seed, n);
            let mut dice = StdRng::seed_from_u64(!seed);
            let homes: Vec<NodeId> = (0..3).map(|_| d.home()).collect();
            let mut model = vec![false; n];
            for _ in 0..60 {
                let action = match dice.gen_range(0..6) {
                    0 | 1 => ChurnAction::CrashRandom {
                        count: dice.gen_range(0..=n),
                        spare_servers: dice.gen_range(0..2) == 0,
                    },
                    2 => ChurnAction::CrashServer {
                        port_index: dice.gen_range(0..homes.len()),
                    },
                    3 => ChurnAction::CrashGroup {
                        // duplicates, out-of-range and already-dead members
                        nodes: (0..8).map(|_| dice.gen_range(0..n + 4)).collect(),
                    },
                    4 => ChurnAction::RestoreAll {
                        clear_caches: false,
                    },
                    _ => ChurnAction::MigrateRandom { port_index: 0 },
                };
                let before = d.rng().clone();
                let out = d.churn(&action, &homes).to_vec();
                if matches!(action, ChurnAction::CrashGroup { .. }) {
                    assert_eq!(d.rng(), &before, "seed {seed}: {action:?} drew");
                }
                for r in &out {
                    match *r {
                        ResolvedChurn::Crash(v) => {
                            assert!(!std::mem::replace(&mut model[v.index()], true));
                        }
                        ResolvedChurn::Restore { node, .. } => {
                            assert!(std::mem::replace(&mut model[node.index()], false));
                        }
                        ResolvedChurn::Migrate { from, to, .. } => {
                            assert!(to != from && !model[to.index()], "seed {seed}");
                        }
                        ResolvedChurn::ClearAllCaches => unreachable!(),
                    }
                }
                assert_eq!(d.crashed(), model.as_slice(), "seed {seed}: {action:?}");
                let alive: Vec<NodeId> = (0..n).filter(|&v| !model[v]).map(NodeId::from).collect();
                assert_eq!(d.live(), alive.as_slice(), "seed {seed}: {action:?}");
                let before = d.rng().clone();
                match d.arrival() {
                    Some((client, _)) => assert!(!model[client.index()]),
                    None => {
                        outages += 1;
                        assert!(alive.is_empty());
                        assert_eq!(d.rng(), &before, "a dead network draws nothing");
                    }
                }
            }
        }
        assert!(outages > 0, "the mix must reach a total outage");
    }

    /// `Draws::churn` as it was before it drew from `live` in place: a
    /// fresh pool per event, filtered through `homes`, and `live`
    /// rebuilt from the flags after every event — the oracle for which
    /// node each draw picks.
    struct Reference {
        rng: StdRng,
        crashed: Vec<bool>,
        live: Vec<NodeId>,
    }

    impl Reference {
        fn churn(&mut self, action: &ChurnAction, homes: &[NodeId]) -> Vec<ResolvedChurn> {
            let out = match *action {
                ChurnAction::CrashRandom {
                    count,
                    spare_servers,
                } => {
                    let mut pool: Vec<NodeId> = self
                        .live
                        .iter()
                        .copied()
                        .filter(|v| !spare_servers || !homes.contains(v))
                        .collect();
                    let mut out = Vec::new();
                    for _ in 0..count.min(pool.len()) {
                        let k = self.rng.gen_range(0..pool.len());
                        out.push(ResolvedChurn::Crash(pool.swap_remove(k)));
                    }
                    out
                }
                ChurnAction::CrashServer { port_index } => {
                    let v = homes[port_index];
                    if self.crashed[v.index()] {
                        Vec::new()
                    } else {
                        vec![ResolvedChurn::Crash(v)]
                    }
                }
                ChurnAction::RestoreAll { clear_caches } => (0..self.crashed.len())
                    .filter(|&vi| self.crashed[vi])
                    .map(|vi| ResolvedChurn::Restore {
                        node: NodeId::from(vi),
                        clear_cache: clear_caches,
                    })
                    .collect(),
                ChurnAction::MigrateRandom { port_index } => {
                    let from = homes[port_index];
                    let pool: Vec<NodeId> =
                        self.live.iter().copied().filter(|&v| v != from).collect();
                    if pool.is_empty() {
                        return Vec::new();
                    }
                    let to = pick(&pool, &mut self.rng);
                    vec![ResolvedChurn::Migrate {
                        port_idx: port_index,
                        from,
                        to,
                    }]
                }
                ChurnAction::ClearAllCaches => vec![ResolvedChurn::ClearAllCaches],
                ChurnAction::CrashGroup { ref nodes } => {
                    let mut victims: Vec<usize> = nodes
                        .iter()
                        .copied()
                        .filter(|&vi| vi < self.crashed.len() && !self.crashed[vi])
                        .collect();
                    victims.sort_unstable();
                    victims.dedup();
                    victims
                        .into_iter()
                        .map(|vi| ResolvedChurn::Crash(NodeId::from(vi)))
                        .collect()
                }
            };
            for r in &out {
                match *r {
                    ResolvedChurn::Crash(v) => self.crashed[v.index()] = true,
                    ResolvedChurn::Restore { node, .. } => self.crashed[node.index()] = false,
                    ResolvedChurn::Migrate { .. } | ResolvedChurn::ClearAllCaches => {}
                }
            }
            self.live.clear();
            let alive = (0..self.crashed.len()).filter(|&vi| !self.crashed[vi]);
            self.live.extend(alive.map(NodeId::from));
            out
        }
    }

    /// `Draws::churn` resolves exactly what the reference resolves — the
    /// same list, the same generator state afterwards, the same `live()`
    /// and `crashed()` — over random event sequences: crash waves with the
    /// servers spared and not, partial and past the pool's size, homes
    /// duplicated and already down, followed by restores, group kills,
    /// migrations (which move the home, as the runner does) and cache
    /// wipes.
    #[test]
    fn churn_draws_what_the_reference_draws() {
        let mut waves = 0;
        for seed in 0..120u64 {
            let mut dice = StdRng::seed_from_u64(seed ^ 0x5eed);
            let n = [1, 2, 3, 24, 97][dice.gen_range(0..5usize)];
            let mut d = draws(seed, n);
            // few distinct values, so homes repeat
            let mut homes: Vec<NodeId> = (0..dice.gen_range(1..6))
                .map(|_| NodeId::from(dice.gen_range(0..n.min(4))))
                .collect();
            let mut reference = Reference {
                rng: d.rng().clone(),
                crashed: d.crashed().to_vec(),
                live: d.live().to_vec(),
            };
            for step in 0..50 {
                let action = match dice.gen_range(0..8) {
                    0..=2 => ChurnAction::CrashRandom {
                        count: dice.gen_range(0..=n + 2),
                        spare_servers: dice.gen_range(0..2) == 0,
                    },
                    3 => ChurnAction::CrashServer {
                        port_index: dice.gen_range(0..homes.len()),
                    },
                    4 => ChurnAction::CrashGroup {
                        nodes: (0..dice.gen_range(0..6))
                            .map(|_| dice.gen_range(0..n + 2))
                            .collect(),
                    },
                    5 => ChurnAction::RestoreAll {
                        clear_caches: dice.gen_range(0..2) == 0,
                    },
                    6 => ChurnAction::MigrateRandom {
                        port_index: dice.gen_range(0..homes.len()),
                    },
                    _ => ChurnAction::ClearAllCaches,
                };
                let want = reference.churn(&action, &homes);
                let got = d.churn(&action, &homes).to_vec();
                let at = format!("seed {seed} n {n} step {step}: {action:?}");
                assert_eq!(got, want, "{at}");
                assert_eq!(d.rng(), &reference.rng, "{at}");
                assert_eq!(d.crashed(), reference.crashed.as_slice(), "{at}");
                assert_eq!(d.live(), reference.live.as_slice(), "{at}");
                if matches!(action, ChurnAction::CrashRandom { .. }) && got.len() > 1 {
                    waves += 1;
                }
                for r in &got {
                    if let ResolvedChurn::Migrate { port_idx, to, .. } = *r {
                        homes[port_idx] = to;
                    }
                }
            }
        }
        assert!(waves > 100, "the mix must draw multi-node waves: {waves}");
    }

    #[test]
    fn same_tick_churn_precedes_arrivals() {
        let spec = scenarios::cold_vs_warm_cache(7);
        let t = compiled(&spec);
        let wipe_pos = t
            .events
            .iter()
            .position(|(_, e)| matches!(e, Event::Churn(_)))
            .expect("the cache wipe is scheduled");
        let (tick, _) = t.events[wipe_pos];
        // no arrival at the same tick may precede the churn event
        assert!(t.events[..wipe_pos]
            .iter()
            .all(|&(at, ref e)| at < tick || !matches!(e, Event::Arrival)));
    }
}
