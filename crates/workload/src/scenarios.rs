//! The built-in scenario library.
//!
//! Seven production-shaped workloads, each parameterized by node count
//! and seed. Durations scale with nothing — a scenario is the same length
//! at `n = 64` and `n = 65536`; what changes is the per-node pressure,
//! which is exactly what the phase reports measure.
//!
//! | scenario | stresses |
//! |---|---|
//! | [`steady_state`] | baseline throughput and cost under constant load |
//! | [`flash_crowd`] | Zipf-skewed demand spiking onto one hot service |
//! | [`rolling_churn`] | locates under waves of crash/restore (cache loss) |
//! | [`migrate_under_load`] | stale-address recovery while servers move |
//! | [`cold_vs_warm_cache`] | miss behaviour after a total cache wipe |
//! | [`overload_ramp`] | closed-loop saturation: queueing delay past the knee |
//! | [`flash_crowd_recovery`] | closed-loop retries through a mid-crowd outage |
//!
//! The hostile-world additions ([`HOSTILE`]) go beyond fail-stop churn:
//!
//! | scenario | stresses |
//! |---|---|
//! | [`rack_failure`] | correlated row-kills: one grid row, then two aligned rows |
//! | [`byzantine_liars`] | forged-address nodes out-bidding honest rendezvous |
//! | [`rendezvous_skew`] | the whole offered load aimed at one port's row |
//!
//! Each also has a closed-loop `-closed` variant (same hostility, driven
//! by a retrying client pool so recovery shows up as latency, not lost
//! arrivals).

use crate::spec::{
    ArrivalProcess, ChurnAction, ChurnEvent, ClientModel, FaultSpec, Phase, PortPopularity,
    ThinkTime, Workload,
};
use crate::timeline::replay_homes;
use mm_proto::FaultProfile;

/// Default client timeout used by the library scenarios. This is the
/// uniform-cost-model budget; under [`mm_sim::CostModel::Hops`] the
/// runner stretches it to cover a store-and-forward round trip
/// (≈ 2·diameter) on the actual topology, so sparse networks don't
/// misreport slow-but-healthy answers as unresolved.
pub const OP_TIMEOUT: u64 = 64;

/// Names of the open-loop library scenarios, in canonical order. Kept to
/// exactly the historical five so sweeps over `ALL` (and their JSON
/// output) stay byte-compatible; the closed-loop additions live in
/// [`CLOSED_LOOP`].
pub const ALL: [&str; 5] = [
    "steady-state",
    "flash-crowd",
    "rolling-churn",
    "migrate-under-load",
    "cold-vs-warm-cache",
];

/// Names of the closed-loop library scenarios ([`overload_ramp`],
/// [`flash_crowd_recovery`]).
pub const CLOSED_LOOP: [&str; 2] = ["overload-ramp", "flash-crowd-recovery"];

/// Names of the hostile-world scenarios: three open-loop plus their
/// closed-loop `-closed` variants. All are seed-deterministic — every
/// adversarial choice (which rows die, which nodes lie, which port is
/// hammered) is derived from the scenario seed at build time, so the spec
/// carries explicit node lists and the runner draws nothing extra.
pub const HOSTILE: [&str; 6] = [
    "rack-failure",
    "byzantine-liars",
    "rendezvous-skew",
    "rack-failure-closed",
    "byzantine-liars-closed",
    "rendezvous-skew-closed",
];

/// Builds a library scenario by name.
///
/// `n` is only used to scale churn widths (a fraction of the network);
/// the arrival rates are per-tick and topology-independent.
///
/// Returns `None` for unknown names.
pub fn by_name(name: &str, n: usize, seed: u64) -> Option<Workload> {
    match name {
        "steady-state" => Some(steady_state(seed)),
        "flash-crowd" => Some(flash_crowd(seed)),
        "rolling-churn" => Some(rolling_churn(n, seed)),
        "migrate-under-load" => Some(migrate_under_load(seed)),
        "cold-vs-warm-cache" => Some(cold_vs_warm_cache(seed)),
        "overload-ramp" => Some(overload_ramp(seed)),
        "flash-crowd-recovery" => Some(flash_crowd_recovery(n, seed)),
        "rack-failure" => Some(rack_failure(n, seed, false)),
        "byzantine-liars" => Some(byzantine_liars(n, seed, false)),
        "rendezvous-skew" => Some(rendezvous_skew(n, seed, false)),
        "rack-failure-closed" => Some(rack_failure(n, seed, true)),
        "byzantine-liars-closed" => Some(byzantine_liars(n, seed, true)),
        "rendezvous-skew-closed" => Some(rendezvous_skew(n, seed, true)),
        _ => None,
    }
}

/// Constant moderate load, no disturbance: the baseline every other
/// scenario is compared against.
pub fn steady_state(seed: u64) -> Workload {
    Workload {
        name: "steady-state".into(),
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("steady", 2000, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("cooldown", 400, ArrivalProcess::FixedRate { interval: 8 }),
        ],
        churn: vec![],
        refresh_interval: Some(500),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: None,
        faults: vec![],
    }
}

/// Zipf-skewed demand with a 10× arrival spike in the middle: the hot
/// port's rendezvous nodes absorb the crowd (watch `load_p99`).
pub fn flash_crowd(seed: u64) -> Workload {
    Workload {
        name: "flash-crowd".into(),
        seed,
        ports: 16,
        popularity: PortPopularity::Zipf { exponent: 1.2 },
        phases: vec![
            Phase::new("calm", 800, ArrivalProcess::Poisson { rate: 0.2 }),
            Phase::new("spike", 600, ArrivalProcess::Poisson { rate: 2.0 }),
            Phase::new("decay", 800, ArrivalProcess::Poisson { rate: 0.2 }),
        ],
        churn: vec![],
        refresh_interval: Some(500),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: None,
        faults: vec![],
    }
}

/// Waves of infrastructure churn under sustained load: a slice of the
/// network crashes, lives through a degraded window, restores with cold
/// caches, and the periodic refresh heals the posts — three times over.
pub fn rolling_churn(n: usize, seed: u64) -> Workload {
    let wave = (n / 8).max(1);
    let mut churn = Vec::new();
    for k in 0..3u64 {
        let base = 500 + k * 800;
        churn.push(ChurnEvent {
            at: base,
            action: ChurnAction::CrashRandom {
                count: wave,
                spare_servers: true,
            },
        });
        churn.push(ChurnEvent {
            at: base + 400,
            action: ChurnAction::RestoreAll { clear_caches: true },
        });
    }
    Workload {
        name: "rolling-churn".into(),
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("churning", 2400, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("recovered", 500, ArrivalProcess::Poisson { rate: 0.5 }),
        ],
        churn,
        refresh_interval: Some(200),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: None,
        faults: vec![],
    }
}

/// Services migrate every 120 ticks while clients locate *and call* them:
/// measures the §1.3 stale-address recovery loop under load
/// (`stale_requests` bounced, `staleness_recoveries` healed).
pub fn migrate_under_load(seed: u64) -> Workload {
    let mut churn = Vec::new();
    for k in 0..14u64 {
        churn.push(ChurnEvent {
            at: 400 + k * 120,
            action: ChurnAction::MigrateRandom {
                port_index: (k % 4) as usize,
            },
        });
    }
    Workload {
        name: "migrate-under-load".into(),
        seed,
        ports: 4,
        popularity: PortPopularity::Zipf { exponent: 0.8 },
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("migrating", 1700, ArrivalProcess::Poisson { rate: 1.0 }),
            Phase::new("settled", 400, ArrivalProcess::Poisson { rate: 1.0 }),
        ],
        churn,
        refresh_interval: Some(400),
        request_after_locate: true,
        op_timeout: OP_TIMEOUT,
        clients: None,
        faults: vec![],
    }
}

/// Identical load before and after a total rendezvous-cache wipe, with a
/// slow refresh cadence: the cold phase shows misses/unresolved piling up
/// until the next refresh re-posts everything.
pub fn cold_vs_warm_cache(seed: u64) -> Workload {
    Workload {
        name: "cold-vs-warm-cache".into(),
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warm", 1000, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("cold", 300, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("re-warmed", 700, ArrivalProcess::Poisson { rate: 0.5 }),
        ],
        // the wipe lands exactly at the warm/cold boundary; the refresh
        // cadence (tick 1300 = warm duration + cold duration) re-posts at
        // the cold/re-warmed boundary
        churn: vec![ChurnEvent {
            at: 1000,
            action: ChurnAction::ClearAllCaches,
        }],
        refresh_interval: Some(1300),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: None,
        faults: vec![],
    }
}

/// Closed-loop saturation sweep: a fixed pool of 24 clients (service ≈ 2
/// ticks + 2 ticks think ⇒ capacity ≈ 6 dispatches/tick) faces an offered
/// Poisson rate ramping from well under to well over that capacity.
/// Under the knee, queueing delay is ~0 and latency is the pure service
/// cost; past it, the dispatch queue — and its p99 delay — grows without
/// bound, and the tail of the ramp is abandoned at the horizon. This is
/// the regime the paper's one-shot experiments cannot see.
pub fn overload_ramp(seed: u64) -> Workload {
    let rates = [
        ("light", 2.0),
        ("approach", 4.0),
        ("knee", 8.0),
        ("overload", 12.0),
        ("collapse", 16.0),
    ];
    Workload {
        name: "overload-ramp".into(),
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: rates
            .iter()
            .map(|&(name, rate)| Phase::new(name, 500, ArrivalProcess::Poisson { rate }))
            .collect(),
        churn: vec![],
        refresh_interval: Some(500),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: Some(ClientModel {
            clients: 24,
            think: ThinkTime::Fixed { ticks: 2 },
            retry_budget: 1,
            retry_backoff: 8,
            window: 250,
        }),
        faults: vec![],
    }
}

/// Closed-loop flash crowd with a mid-spike outage: a quarter of the
/// network (servers included) crashes during the crowd, so in-flight
/// locates time out, clients burn their retry budgets against dead
/// rendezvous nodes, and the occupied pool backs the crowd up in the
/// dispatch queue. After the restore, the refresh cadence re-posts the
/// services and the time-series windows show the latency spike draining
/// back to the steady baseline — convergence-under-perturbation measured
/// as recovery time, not as a success bit.
pub fn flash_crowd_recovery(n: usize, seed: u64) -> Workload {
    Workload {
        name: "flash-crowd-recovery".into(),
        seed,
        ports: 8,
        popularity: PortPopularity::Zipf { exponent: 1.1 },
        phases: vec![
            Phase::new("calm", 600, ArrivalProcess::Poisson { rate: 2.0 }),
            Phase::new("crowd", 800, ArrivalProcess::Poisson { rate: 4.0 }),
            Phase::new("recovery", 600, ArrivalProcess::Poisson { rate: 2.0 }),
        ],
        churn: vec![
            ChurnEvent {
                at: 700,
                action: ChurnAction::CrashRandom {
                    count: (n / 4).max(1),
                    spare_servers: false,
                },
            },
            ChurnEvent {
                at: 1_100,
                action: ChurnAction::RestoreAll { clear_caches: true },
            },
        ],
        refresh_interval: Some(200),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: Some(ClientModel {
            clients: 48,
            think: ThinkTime::Fixed { ticks: 1 },
            retry_budget: 2,
            retry_backoff: 16,
            window: 200,
        }),
        faults: vec![],
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The node indices of grid row-band `r` under the checkerboard's
/// `⌈√n⌉`-banding (`Blocks::row_band`: node `i` lies in band `⌊i·w/n⌋`).
/// This is the "rack" unit of the correlated-failure scenarios: one band
/// is exactly the post set of every server homed in it, so killing a band
/// severs those services' entire rendezvous row in the base arrangement.
pub fn grid_row(n: usize, r: usize) -> Vec<usize> {
    let w = (n as f64).sqrt().ceil() as usize;
    let lo = (r * n).div_ceil(w);
    let hi = ((r + 1) * n).div_ceil(w).min(n);
    (lo..hi).collect()
}

/// The closed-loop client pool shared by the hostile `-closed` variants:
/// enough retry budget to ride out a locate that dies with its rack.
fn hostile_pool() -> ClientModel {
    ClientModel {
        clients: 32,
        think: ThinkTime::Fixed { ticks: 2 },
        retry_budget: 2,
        retry_backoff: 16,
        window: 200,
    }
}

/// Correlated crash of a service's *rendezvous row*: the grid row-band
/// the first port's server posts to dies mid-run — sparing every server
/// host, so both endpoints of every pair survive and only match-making is
/// severed (the adversarial case §2.4's *redundant* condition is about).
/// It heals, then the *aligned pair* of bands — `r` and `r + w/2`,
/// exactly the two bands a `Replicated(2)` checkerboard posts to — dies
/// together. Base checkerboard cannot resolve the victim service during
/// either window; replication rides out the single-rack window via its
/// shifted copy and fails only when both aligned copies are taken out,
/// which is the §2.4 tolerance bound made visible as phase hit-rates.
///
/// The builder replays the runner's seeded home draws (`timeline::replay_homes`)
/// to know the victims ahead of time, keeping the kill lists explicit in
/// the spec — the runner draws nothing extra.
pub fn rack_failure(n: usize, seed: u64, closed: bool) -> Workload {
    let homes: Vec<usize> = replay_homes(seed, n, 8).iter().map(|v| v.index()).collect();
    let w = ((n as f64).sqrt().ceil() as usize).max(1);
    let r0 = homes[0] * w / n; // the victim service's row band
    let aligned = (r0 + w / 2) % w;
    let spare = |nodes: Vec<usize>| -> Vec<usize> {
        nodes.into_iter().filter(|v| !homes.contains(v)).collect()
    };
    let mut one_rack = spare(grid_row(n, r0));
    if one_rack.is_empty() {
        // degenerate tiny universe: fall back to the full band so the
        // spec still validates (the demonstration needs n >= ~16 anyway)
        one_rack = grid_row(n, r0);
    }
    let mut both_racks = one_rack.clone();
    if aligned != r0 {
        both_racks.extend(spare(grid_row(n, aligned)));
        both_racks.sort_unstable();
        both_racks.dedup();
    }
    Workload {
        name: if closed {
            "rack-failure-closed".into()
        } else {
            "rack-failure".into()
        },
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("one-rack", 600, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("healed", 400, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("two-racks", 600, ArrivalProcess::Poisson { rate: 0.5 }),
            Phase::new("recovered", 400, ArrivalProcess::Poisson { rate: 0.5 }),
        ],
        churn: vec![
            ChurnEvent {
                at: 400,
                action: ChurnAction::CrashGroup { nodes: one_rack },
            },
            ChurnEvent {
                at: 1000,
                action: ChurnAction::RestoreAll { clear_caches: true },
            },
            ChurnEvent {
                at: 1400,
                action: ChurnAction::CrashGroup { nodes: both_racks },
            },
            ChurnEvent {
                at: 2000,
                action: ChurnAction::RestoreAll { clear_caches: true },
            },
        ],
        refresh_interval: Some(200),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: closed.then(hostile_pool),
        faults: vec![],
    }
}

/// Byzantine forged-address assault: `max(1, n/32)` evenly spaced nodes
/// (phase chosen by the seed) answer *every* query with a forged
/// maximum-stamp hit pointing at themselves. Honest rendezvous answers in
/// the same fan-out expose the lie as dissent (`detected_lie`); a fan-out
/// whose honest members are all cold or dead lets the forgery through
/// (`false_match`). The open-loop variant also calls the located address,
/// so escaped forgeries bounce off the liar as stale requests and the
/// §1.3 retry loop re-locates.
pub fn byzantine_liars(n: usize, seed: u64, closed: bool) -> Workload {
    let count = (n / 32).max(1).min(n);
    let spacing = (n / count).max(1);
    let start = (splitmix64(seed ^ 0xB12A_17E5_0000_0002) % n as u64) as usize;
    let mut liars: Vec<usize> = (0..count).map(|j| (start + j * spacing) % n).collect();
    liars.sort_unstable();
    Workload {
        name: if closed {
            "byzantine-liars-closed".into()
        } else {
            "byzantine-liars".into()
        },
        seed,
        ports: 8,
        popularity: PortPopularity::Uniform,
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("assault", 1600, ArrivalProcess::Poisson { rate: 1.0 }),
            Phase::new("cooldown", 400, ArrivalProcess::Poisson { rate: 0.5 }),
        ],
        churn: vec![],
        refresh_interval: Some(400),
        request_after_locate: !closed,
        op_timeout: OP_TIMEOUT,
        clients: closed.then(hostile_pool),
        faults: liars
            .into_iter()
            .map(|node_index| FaultSpec {
                node_index,
                fault: FaultProfile::ForgedAddress,
            })
            .collect(),
    }
}

/// Adversarial port skew: every arrival targets one seed-chosen port, so
/// the whole offered load lands on that port's rendezvous row while the
/// rest of the network idles. The interesting output is the load tail
/// (`load_p99` / `load_max` vs `load_p50`) and, closed-loop, the queueing
/// delay the hot row induces at rates a uniform mix absorbs easily.
pub fn rendezvous_skew(_n: usize, seed: u64, closed: bool) -> Workload {
    let ports = 8usize;
    let hot = (splitmix64(seed ^ 0x5CE7_0000_0000_0003) % ports as u64) as usize;
    Workload {
        name: if closed {
            "rendezvous-skew-closed".into()
        } else {
            "rendezvous-skew".into()
        },
        seed,
        ports,
        popularity: PortPopularity::Hotspot { port: hot },
        phases: vec![
            Phase::new("warmup", 400, ArrivalProcess::FixedRate { interval: 4 }),
            Phase::new("assault", 1200, ArrivalProcess::Poisson { rate: 2.0 }),
            Phase::new("relief", 400, ArrivalProcess::Poisson { rate: 0.5 }),
        ],
        churn: vec![],
        refresh_interval: Some(500),
        request_after_locate: false,
        op_timeout: OP_TIMEOUT,
        clients: closed.then(hostile_pool),
        faults: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_library_scenario_validates() {
        for name in ALL.iter().chain(&CLOSED_LOOP).chain(&HOSTILE) {
            let w = by_name(name, 64, 7).expect("known scenario");
            w.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&w.name, name);
        }
        assert!(by_name("nope", 64, 7).is_none());
    }

    #[test]
    fn open_loop_library_stays_open_loop() {
        // the historical five must keep `clients: None` (their JSON is a
        // compatibility surface); the closed-loop library must not
        for name in ALL {
            assert!(by_name(name, 64, 7).unwrap().clients.is_none(), "{name}");
        }
        for name in CLOSED_LOOP {
            assert!(by_name(name, 64, 7).unwrap().clients.is_some(), "{name}");
        }
        // hostile variants: the `-closed` suffix is exactly the client pool
        for name in HOSTILE {
            let w = by_name(name, 64, 7).unwrap();
            assert_eq!(
                w.clients.is_some(),
                name.ends_with("-closed"),
                "{name}: loop mode must match the suffix"
            );
            assert!(w.hostile(), "{name} must register as hostile");
        }
        // ...and the benign library must never trip the hostile gate
        for name in ALL.iter().chain(&CLOSED_LOOP) {
            assert!(!by_name(name, 64, 7).unwrap().hostile(), "{name}");
        }
    }

    #[test]
    fn grid_rows_tile_the_universe() {
        for n in [9usize, 16, 64, 60, 100] {
            let w = (n as f64).sqrt().ceil() as usize;
            let mut seen = vec![false; n];
            for r in 0..w {
                for i in grid_row(n, r) {
                    assert!(!seen[i], "n={n}: node {i} in two rows");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n}: rows must tile 0..n");
        }
    }

    #[test]
    fn rack_failure_kills_aligned_band_pairs_but_spares_hosts() {
        let w = rack_failure(64, 11, false);
        let groups: Vec<&Vec<usize>> = w
            .churn
            .iter()
            .filter_map(|ev| match &ev.action {
                ChurnAction::CrashGroup { nodes } => Some(nodes),
                _ => None,
            })
            .collect();
        assert_eq!(groups.len(), 2, "one-rack then two-racks");
        // the runner's home draws, replayed exactly as the builder does
        let homes: Vec<usize> = replay_homes(11, 64, 8).iter().map(|v| v.index()).collect();
        let victim_band = homes[0] / 8;
        // every killed node sits in the victim band or its Replicated(2)
        // shifted copy (stride n/2 = 4 rows on), and no server host dies:
        // the kill severs match-making while both endpoints stay alive
        for &i in groups[0] {
            assert_eq!(i / 8, victim_band, "one-rack stays in the victim band");
            assert!(!homes.contains(&i), "server hosts are spared");
        }
        let aligned = (victim_band + 4) % 8;
        for &i in groups[1] {
            let band = i / 8;
            assert!(band == victim_band || band == aligned, "aligned pair only");
            assert!(!homes.contains(&i), "server hosts are spared");
        }
        assert!(
            groups[1].len() > groups[0].len(),
            "second kill adds the copy"
        );
        assert!(
            groups[1].iter().any(|&i| i / 8 == aligned),
            "the Replicated(2) shifted band dies in round two"
        );
        assert_eq!(rack_failure(64, 11, false).churn, w.churn, "seed-stable");
    }

    #[test]
    fn byzantine_liars_are_distinct_forgers_and_seed_stable() {
        let w = byzantine_liars(256, 3, false);
        assert_eq!(w.faults.len(), 8, "n/32 liars at n=256");
        let mut idx: Vec<usize> = w.faults.iter().map(|f| f.node_index).collect();
        idx.dedup();
        assert_eq!(idx.len(), 8, "liars are distinct");
        assert!(idx.iter().all(|&i| i < 256));
        assert!(w
            .faults
            .iter()
            .all(|f| f.fault == FaultProfile::ForgedAddress));
        assert_eq!(
            byzantine_liars(256, 3, false).faults,
            w.faults,
            "same seed, same liars"
        );
        assert_ne!(
            byzantine_liars(256, 4, false).faults,
            w.faults,
            "different seed, different liars"
        );
        assert!(w.request_after_locate, "open loop calls the forged address");
        assert!(!byzantine_liars(256, 3, true).request_after_locate);
    }

    #[test]
    fn rendezvous_skew_pins_a_seeded_port() {
        let w = rendezvous_skew(64, 5, false);
        let PortPopularity::Hotspot { port } = w.popularity else {
            panic!("skew must use the hotspot law");
        };
        assert!(port < w.ports);
        assert_eq!(rendezvous_skew(1024, 5, false).popularity, w.popularity);
    }

    #[test]
    fn churn_widths_scale_with_n() {
        let small = rolling_churn(8, 1);
        let big = rolling_churn(1024, 1);
        let width = |w: &Workload| match w.churn[0].action {
            ChurnAction::CrashRandom { count, .. } => count,
            _ => unreachable!(),
        };
        assert_eq!(width(&small), 1);
        assert_eq!(width(&big), 128);
    }
}
