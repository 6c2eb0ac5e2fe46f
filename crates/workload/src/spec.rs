//! Workload specifications: *what* load to offer, independent of the
//! topology, strategy and cost model it runs against.
//!
//! A [`Workload`] is a declarative description of production-shaped
//! traffic: how many services exist, how popular each one is
//! ([`PortPopularity`]), how locate operations arrive over time (open-loop
//! [`ArrivalProcess`] per [`Phase`]), how servers refresh their postings,
//! and a timed [`ChurnEvent`] schedule (crashes, restores, migrations,
//! cache wipes). The [`crate::runner::ScenarioRunner`] compiles a spec
//! into simulator injections against any `topology × strategy × protocol`
//! combination.
//!
//! Everything is deterministic: the spec carries a seed, and every random
//! decision (port choice, client choice, arrival spacing, churn targets)
//! is drawn from one generator in a fixed order.

use mm_proto::FaultProfile;
use mm_sim::SimTime;

/// How locate demand is spread over the port space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortPopularity {
    /// Every port equally likely.
    Uniform,
    /// Zipf-distributed popularity: port `i` (0-based rank) is requested
    /// with probability proportional to `1 / (i + 1)^exponent`. Skewed
    /// demand is what separates rendezvous structures in practice — a hot
    /// port concentrates load on its rendezvous nodes.
    Zipf {
        /// The skew exponent `s > 0`; `s ≈ 1` is classic web-like skew.
        exponent: f64,
    },
    /// Adversarial skew: *every* locate targets the same port, aiming the
    /// whole offered load at that port's rendezvous row. The degenerate
    /// limit of Zipf that a load balancer cannot help with — the paper's
    /// grid strategies concentrate such load on `√n` nodes.
    Hotspot {
        /// The pinned port (index into the workload's port space).
        port: usize,
    },
}

/// Open-loop arrival process for locate operations within one phase.
///
/// Open-loop means arrivals do not wait for earlier operations to finish —
/// the paper's single-locate experiments are the opposite regime, and
/// sustained load is exactly what they do not measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given expected rate (operations per
    /// simulated tick). Inter-arrival gaps are exponential.
    Poisson {
        /// Expected arrivals per tick (> 0).
        rate: f64,
    },
    /// One arrival every `interval` ticks, exactly.
    FixedRate {
        /// Ticks between consecutive arrivals (> 0).
        interval: SimTime,
    },
    /// No arrivals (quiet period — exercises idle-gap clock handling).
    Idle,
}

/// Think-time distribution of a closed-loop client between operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThinkTime {
    /// No pause: the client re-enters service the tick its verdict lands.
    Zero,
    /// Exactly `ticks` between a verdict and the client's next
    /// availability.
    Fixed {
        /// Pause length in ticks.
        ticks: SimTime,
    },
    /// Exponentially distributed pause with the given mean (ticks),
    /// rounded to the nearest tick.
    Exponential {
        /// Mean pause in ticks (> 0).
        mean: f64,
    },
}

/// Closed-loop client-pool model.
///
/// Open-loop arrivals measure cost per operation but hide overload: an
/// oversubscribed system just accumulates unresolved counters. A closed
/// pool of `clients` slots turns the same offered-arrival schedule into a
/// latency instrument — each offered operation waits in a dispatch queue
/// until a slot is free, so overload shows up as growing queueing delay
/// (and eventually as operations never dispatched before the horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientModel {
    /// Number of concurrent client slots (> 0).
    pub clients: usize,
    /// Pause between a client's verdict and its next availability.
    pub think: ThinkTime,
    /// How many times a client re-issues an operation whose verdict was
    /// unresolved (0 = give up immediately).
    pub retry_budget: u32,
    /// Backoff before the first retry, doubling per subsequent retry.
    pub retry_backoff: SimTime,
    /// Width of the fixed time-series report windows (> 0).
    pub window: SimTime,
}

/// One contiguous traffic phase. Phases run back to back; the runner
/// reports metrics per phase, so before/after comparisons (cold vs. warm,
/// calm vs. flash crowd) fall out of the phase structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, echoed in reports.
    pub name: String,
    /// Phase length in ticks.
    pub duration: SimTime,
    /// The arrival process during this phase.
    pub arrivals: ArrivalProcess,
}

impl Phase {
    /// Builds a phase.
    pub fn new(name: &str, duration: SimTime, arrivals: ArrivalProcess) -> Self {
        Phase {
            name: name.to_string(),
            duration,
            arrivals,
        }
    }
}

/// A scheduled disturbance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Absolute tick (from scenario start) at which the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: ChurnAction,
}

/// The kinds of churn a workload can inject.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// Crashes `count` random currently-live nodes. With `spare_servers`,
    /// nodes currently hosting a service are exempt (pure infrastructure
    /// churn); without it servers can die too.
    CrashRandom {
        /// How many nodes to take down.
        count: usize,
        /// Keep service hosts alive.
        spare_servers: bool,
    },
    /// Crashes the server currently hosting port `port_index`.
    CrashServer {
        /// Index into the workload's port space.
        port_index: usize,
    },
    /// Restores every crashed node. With `clear_caches`, restored nodes
    /// lose their rendezvous cache (volatile memory), so they answer
    /// misses until servers re-post.
    RestoreAll {
        /// Model lost volatile state on restore.
        clear_caches: bool,
    },
    /// Migrates the service on port `port_index` to a random live node
    /// (the paper's mobile-process scenario, under load).
    MigrateRandom {
        /// Index into the workload's port space.
        port_index: usize,
    },
    /// Empties every node's rendezvous cache (cold-cache experiments).
    ClearAllCaches,
    /// Crashes an explicit set of nodes atomically (same tick, one event):
    /// a correlated failure — a rack, a grid row, a decomposition part —
    /// rather than independent random deaths. Node indices are resolved
    /// against the run topology; already-crashed members are skipped.
    CrashGroup {
        /// Node indices to take down together (ascending by convention;
        /// the resolver sorts and dedups defensively).
        nodes: Vec<usize>,
    },
}

/// A node pinned to an adversarial behavior for the whole run (applied
/// before the first tick). Fail-stop churn composes on top: a Byzantine
/// node can still crash and restore, keeping its profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Node index in the run topology.
    pub node_index: usize,
    /// The behavior (see [`FaultProfile`]).
    pub fault: FaultProfile,
}

/// A complete seeded scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Scenario name, echoed in reports.
    pub name: String,
    /// Master seed; equal seeds produce byte-identical runs.
    pub seed: u64,
    /// Number of distinct service ports.
    pub ports: usize,
    /// Demand skew across ports.
    pub popularity: PortPopularity,
    /// Traffic phases, run back to back.
    pub phases: Vec<Phase>,
    /// Scheduled disturbances (absolute ticks).
    pub churn: Vec<ChurnEvent>,
    /// Servers re-post their address every `refresh_interval` ticks
    /// (`None` = post once at startup only). Refreshing is what heals
    /// caches after crashes and keeps migrations converging.
    pub refresh_interval: Option<SimTime>,
    /// After a successful locate, send an application request to the
    /// located address (exercises the stale-address recovery loop of
    /// §1.3 — necessary for measuring staleness recoveries).
    pub request_after_locate: bool,
    /// Ticks a client waits for outstanding answers before declaring an
    /// operation unresolved (crashed rendezvous never answer).
    pub op_timeout: SimTime,
    /// Closed-loop client pool. `None` keeps the historical open-loop
    /// behaviour (arrivals are issued the tick they are offered,
    /// regardless of how many operations are already in flight).
    pub clients: Option<ClientModel>,
    /// Byzantine node assignments, applied before the first tick. Empty
    /// for every benign workload — the hostile-world scenarios populate
    /// it with explicit, seed-derived node lists so the runner draws
    /// nothing from its own generator.
    pub faults: Vec<FaultSpec>,
}

impl Workload {
    /// Total scheduled horizon: the sum of phase durations.
    pub fn horizon(&self) -> SimTime {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// `true` when the workload exercises the hostile-world layer:
    /// Byzantine faults, correlated crash groups, or adversarial hotspot
    /// skew. Hostile runs carry extra verdict columns and a robustness
    /// block in their reports; benign runs keep the legacy byte-exact
    /// report shape.
    pub fn hostile(&self) -> bool {
        !self.faults.is_empty()
            || matches!(self.popularity, PortPopularity::Hotspot { .. })
            || self
                .churn
                .iter()
                .any(|e| matches!(e.action, ChurnAction::CrashGroup { .. }))
    }

    /// Sanity-checks the spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports == 0 {
            return Err("workload needs at least one port".into());
        }
        if self.phases.is_empty() {
            return Err("workload needs at least one phase".into());
        }
        for p in &self.phases {
            match p.arrivals {
                // NaN rates must fail too, hence the negated comparison
                ArrivalProcess::Poisson { rate }
                    if rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) =>
                {
                    return Err(format!("phase {:?}: Poisson rate must be > 0", p.name));
                }
                ArrivalProcess::FixedRate { interval: 0 } => {
                    return Err(format!("phase {:?}: interval must be > 0", p.name));
                }
                _ => {}
            }
            if p.duration == 0 {
                return Err(format!("phase {:?}: duration must be > 0", p.name));
            }
        }
        match self.popularity {
            PortPopularity::Zipf { exponent } => {
                // NaN exponents must fail too
                if exponent.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err("Zipf exponent must be > 0".into());
                }
            }
            PortPopularity::Hotspot { port } => {
                if port >= self.ports {
                    return Err(format!("hotspot pins port {port} of {}", self.ports));
                }
            }
            PortPopularity::Uniform => {}
        }
        let horizon = self.horizon();
        for e in &self.churn {
            if e.at >= horizon {
                return Err(format!(
                    "churn event at t={} is past the horizon {horizon}",
                    e.at
                ));
            }
            match &e.action {
                ChurnAction::CrashServer { port_index }
                | ChurnAction::MigrateRandom { port_index }
                    if *port_index >= self.ports =>
                {
                    return Err(format!(
                        "churn references port {port_index} of {}",
                        self.ports
                    ));
                }
                ChurnAction::CrashGroup { nodes } if nodes.is_empty() => {
                    return Err(format!("churn at t={}: empty crash group", e.at));
                }
                _ => {}
            }
        }
        {
            let mut seen = std::collections::BTreeSet::new();
            for f in &self.faults {
                if !seen.insert(f.node_index) {
                    return Err(format!(
                        "node {} assigned more than one fault profile",
                        f.node_index
                    ));
                }
            }
        }
        if self.op_timeout == 0 {
            return Err("op_timeout must be > 0".into());
        }
        if let Some(model) = &self.clients {
            if model.clients == 0 {
                return Err("client pool needs at least one client".into());
            }
            if model.window == 0 {
                return Err("time-series window width must be > 0".into());
            }
            if let ThinkTime::Exponential { mean } = model.think {
                // NaN means must fail too
                if mean.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err("think-time mean must be > 0".into());
                }
            }
            if self.request_after_locate {
                return Err("closed-loop pools drive locate-only workloads; \
                     request_after_locate is an open-loop feature"
                    .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> Workload {
        Workload {
            name: "t".into(),
            seed: 1,
            ports: 2,
            popularity: PortPopularity::Uniform,
            phases: vec![Phase::new(
                "p",
                100,
                ArrivalProcess::FixedRate { interval: 5 },
            )],
            churn: vec![],
            refresh_interval: None,
            request_after_locate: false,
            op_timeout: 32,
            clients: None,
            faults: vec![],
        }
    }

    fn pool() -> ClientModel {
        ClientModel {
            clients: 4,
            think: ThinkTime::Fixed { ticks: 2 },
            retry_budget: 1,
            retry_backoff: 8,
            window: 50,
        }
    }

    #[test]
    fn horizon_sums_phases() {
        let mut w = minimal();
        w.phases.push(Phase::new("q", 50, ArrivalProcess::Idle));
        assert_eq!(w.horizon(), 150);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut w = minimal();
        w.ports = 0;
        assert!(w.validate().is_err());

        let mut w = minimal();
        w.phases[0].arrivals = ArrivalProcess::Poisson { rate: 0.0 };
        assert!(w.validate().is_err());

        let mut w = minimal();
        w.churn.push(ChurnEvent {
            at: 1_000,
            action: ChurnAction::ClearAllCaches,
        });
        assert!(w.validate().is_err(), "churn past horizon");

        let mut w = minimal();
        w.churn.push(ChurnEvent {
            at: 10,
            action: ChurnAction::MigrateRandom { port_index: 7 },
        });
        assert!(w.validate().is_err(), "port index out of range");
    }

    #[test]
    fn hostile_spec_validation() {
        let mut w = minimal();
        assert!(!w.hostile());
        w.popularity = PortPopularity::Hotspot { port: 1 };
        assert!(w.hostile());
        assert!(w.validate().is_ok());
        w.popularity = PortPopularity::Hotspot { port: 2 };
        assert!(w.validate().is_err(), "hotspot port out of range");

        let mut w = minimal();
        w.churn.push(ChurnEvent {
            at: 10,
            action: ChurnAction::CrashGroup { nodes: vec![] },
        });
        assert!(w.validate().is_err(), "empty crash group");
        w.churn[0].action = ChurnAction::CrashGroup { nodes: vec![0, 1] };
        assert!(w.hostile());
        assert!(w.validate().is_ok());

        let mut w = minimal();
        w.faults.push(FaultSpec {
            node_index: 3,
            fault: FaultProfile::ForgedAddress,
        });
        assert!(w.hostile());
        assert!(w.validate().is_ok());
        w.faults.push(FaultSpec {
            node_index: 3,
            fault: FaultProfile::RefuseMatch,
        });
        assert!(w.validate().is_err(), "duplicate fault assignment");
    }

    #[test]
    fn client_model_validation() {
        let mut w = minimal();
        w.clients = Some(pool());
        assert!(w.validate().is_ok());

        let mut w = minimal();
        w.clients = Some(ClientModel {
            clients: 0,
            ..pool()
        });
        assert!(w.validate().is_err(), "empty pool");

        let mut w = minimal();
        w.clients = Some(ClientModel {
            window: 0,
            ..pool()
        });
        assert!(w.validate().is_err(), "zero window");

        let mut w = minimal();
        w.clients = Some(ClientModel {
            think: ThinkTime::Exponential { mean: 0.0 },
            ..pool()
        });
        assert!(w.validate().is_err(), "non-positive think mean");

        let mut w = minimal();
        w.clients = Some(ClientModel {
            think: ThinkTime::Exponential { mean: f64::NAN },
            ..pool()
        });
        assert!(w.validate().is_err(), "NaN think mean");

        let mut w = minimal();
        w.clients = Some(pool());
        w.request_after_locate = true;
        assert!(w.validate().is_err(), "closed loop rejects request mode");
    }
}
