//! Seeded traffic generation: popularity sampling and arrival timelines.

use crate::spec::{ArrivalProcess, PortPopularity, ThinkTime};
use mm_sim::SimTime;
use rand::distributions::unit_f64;
use rand::rngs::StdRng;
use rand::Rng;

/// Samples port indices according to a [`PortPopularity`] law.
///
/// For Zipf the cumulative distribution is precomputed once; sampling is a
/// binary search, so even million-operation workloads stay cheap.
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    /// `cdf[i]` = P(port ≤ i); strictly increasing to 1.0.
    cdf: Vec<f64>,
    /// Adversarial hotspot: every draw resolves to this port. The draw
    /// still consumes one RNG coordinate so hostile and benign specs keep
    /// the same consumption order (and the CDF float edge cases at the
    /// pinned index never matter).
    pinned: Option<usize>,
}

impl PopularitySampler {
    /// Builds a sampler over `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`, a Zipf exponent is not positive, or a
    /// hotspot pins a port outside the space.
    pub fn new(ports: usize, popularity: PortPopularity) -> Self {
        assert!(ports > 0, "need at least one port");
        let mut pinned = None;
        let weights: Vec<f64> = match popularity {
            PortPopularity::Uniform => vec![1.0; ports],
            PortPopularity::Zipf { exponent } => {
                assert!(exponent > 0.0, "Zipf exponent must be > 0");
                (0..ports)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect()
            }
            PortPopularity::Hotspot { port } => {
                assert!(port < ports, "hotspot port out of range");
                pinned = Some(port);
                vec![1.0; ports]
            }
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Floating-point accumulation can leave the last entry a few ULPs
        // short of 1.0, which would silently hand the missing tail mass to
        // the least-popular port (every draw above the accumulated total
        // clamps to the final index). Pin the tail exactly.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        PopularitySampler { cdf, pinned }
    }

    /// Draws one port index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit_f64(rng);
        match self.pinned {
            Some(port) => port,
            None => self.index_for(u),
        }
    }

    /// The port index owning the CDF coordinate `u ∈ [0, 1)`: the first
    /// index whose cumulative mass exceeds `u`.
    fn index_for(&self, u: f64) -> usize {
        match self
            .cdf
            // both sides are finite and nonnegative, never `-0.0`: the
            // total order is the numeric one
            .binary_search_by(|c| c.total_cmp(&u))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.cdf.len()
    }
}

/// Generates the arrival ticks of one phase, `[start, end)`, open-loop.
///
/// Poisson phases draw exponential inter-arrival gaps; fixed-rate phases
/// tick like a metronome. Multiple arrivals can share a tick (the
/// simulator orders same-tick events by insertion).
pub fn arrival_times(
    process: ArrivalProcess,
    start: SimTime,
    end: SimTime,
    rng: &mut StdRng,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    match process {
        ArrivalProcess::Idle => {}
        ArrivalProcess::FixedRate { interval } => {
            assert!(interval > 0, "interval must be > 0");
            let mut t = start;
            while t < end {
                out.push(t);
                t += interval;
            }
        }
        ArrivalProcess::Poisson { rate } => {
            assert!(rate > 0.0, "rate must be > 0");
            let mut t = start as f64;
            loop {
                let u = unit_f64(rng);
                t += -(1.0 - u).ln() / rate;
                if t >= end as f64 {
                    break;
                }
                // Round to the nearest tick rather than truncating:
                // flooring shifted every arrival up to a full tick early
                // (a systematic bias of E[frac] = ½ tick per arrival) and
                // parked sub-tick first gaps exactly on the phase-start
                // boundary, where they collided with same-tick churn.
                // Rounding is unbiased; the rare arrival that rounds onto
                // `end` belongs to the next phase's window and is dropped.
                let tick = t.round() as SimTime;
                if tick < end {
                    out.push(tick);
                }
            }
        }
    }
    out
}

/// Draws one think-time pause in ticks. Only the exponential law consumes
/// the RNG, so deterministic specs (`Zero`/`Fixed`) keep the canonical
/// draw order identical whether or not a pool is configured.
pub fn think_ticks(think: ThinkTime, rng: &mut StdRng) -> SimTime {
    match think {
        ThinkTime::Zero => 0,
        ThinkTime::Fixed { ticks } => ticks,
        ThinkTime::Exponential { mean } => {
            let u = unit_f64(rng);
            (-(1.0 - u).ln() * mean).round() as SimTime
        }
    }
}

/// Draws a uniformly random element of `pool`.
///
/// # Panics
///
/// Panics if `pool` is empty.
pub fn pick<T: Copy>(pool: &[T], rng: &mut StdRng) -> T {
    assert!(!pool.is_empty(), "cannot pick from an empty pool");
    pool[rng.gen_range(0..pool.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_all_ports() {
        let s = PopularitySampler::new(8, PortPopularity::Uniform);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0u32; 8];
        for _ in 0..4000 {
            seen[s.sample(&mut rng)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 300), "roughly even: {seen:?}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let s = PopularitySampler::new(16, PortPopularity::Zipf { exponent: 1.2 });
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [0u32; 16];
        for _ in 0..8000 {
            seen[s.sample(&mut rng)] += 1;
        }
        assert!(
            seen[0] > 4 * seen[8].max(1),
            "rank 0 must dominate rank 8: {seen:?}"
        );
        assert!(seen[0] > seen[1], "monotone head: {seen:?}");
    }

    #[test]
    fn fixed_rate_metronome() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = arrival_times(
            ArrivalProcess::FixedRate { interval: 10 },
            100,
            150,
            &mut rng,
        );
        assert_eq!(t, vec![100, 110, 120, 130, 140]);
    }

    #[test]
    fn poisson_rate_is_roughly_right_and_seeded() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = arrival_times(ArrivalProcess::Poisson { rate: 0.5 }, 0, 10_000, &mut rng);
        assert!((4_000..6_000).contains(&t.len()), "got {}", t.len());
        assert!(t.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let mut rng2 = StdRng::seed_from_u64(6);
        let t2 = arrival_times(ArrivalProcess::Poisson { rate: 0.5 }, 0, 10_000, &mut rng2);
        assert_eq!(t, t2, "same seed, same timeline");
    }

    #[test]
    fn idle_is_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(arrival_times(ArrivalProcess::Idle, 0, 1_000, &mut rng).is_empty());
    }

    /// Regression for the truncation bias: realized Poisson rates must sit
    /// within a few percent of the requested rate at both ends of the rate
    /// range, and every arrival must stay inside the phase window.
    #[test]
    fn poisson_realized_rate_is_unbiased() {
        for (rate, start, end, seeds) in [
            (0.05f64, 1_000u64, 201_000u64, [1u64, 2, 3]),
            (2.0, 500, 50_500, [4, 5, 6]),
        ] {
            let duration = (end - start) as f64;
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let t = arrival_times(ArrivalProcess::Poisson { rate }, start, end, &mut rng);
                assert!(t.iter().all(|&a| a >= start && a < end), "window bounds");
                assert!(t.windows(2).all(|w| w[0] <= w[1]), "sorted");
                let realized = t.len() as f64 / duration;
                let rel = (realized / rate - 1.0).abs();
                assert!(
                    rel < 0.05,
                    "rate {rate} seed {seed}: realized {realized} is {rel:.3} off"
                );
            }
        }
    }

    /// The Zipf CDF must end at exactly 1.0 — otherwise draws above the
    /// accumulated total clamp to the least-popular port, silently
    /// re-weighting the tail.
    #[test]
    fn cdf_tail_is_pinned_to_one() {
        for ports in [2usize, 16, 1_000] {
            for popularity in [
                PortPopularity::Uniform,
                PortPopularity::Zipf { exponent: 0.7 },
                PortPopularity::Zipf { exponent: 1.3 },
            ] {
                let s = PopularitySampler::new(ports, popularity);
                assert_eq!(
                    *s.cdf.last().unwrap(),
                    1.0,
                    "{ports} ports, {popularity:?}: tail must be exact"
                );
                assert!(s.cdf.windows(2).all(|w| w[0] <= w[1]), "monotone CDF");
            }
        }
    }

    /// Boundary draws: a coordinate just below 1.0 belongs to the final
    /// port *because its CDF slice owns it*, not because of an
    /// out-of-range clamp; and the very first slice owns 0.0.
    #[test]
    fn boundary_draws_map_to_owning_ports() {
        let s = PopularitySampler::new(16, PortPopularity::Zipf { exponent: 1.2 });
        assert_eq!(s.index_for(0.0), 0);
        let just_below_one = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(s.index_for(just_below_one), 15);
        // the head's slice is wide under Zipf: mid-head draws stay put
        assert_eq!(s.index_for(s.cdf[0] / 2.0), 0);
        assert_eq!(s.index_for(s.cdf[0]), 0, "exact hit resolves to owner");
    }

    #[test]
    fn hotspot_pins_every_draw_but_still_consumes_the_rng() {
        let s = PopularitySampler::new(8, PortPopularity::Hotspot { port: 5 });
        let mut rng = StdRng::seed_from_u64(9);
        let mut benign = StdRng::seed_from_u64(9);
        let u = PopularitySampler::new(8, PortPopularity::Uniform);
        for _ in 0..64 {
            assert_eq!(s.sample(&mut rng), 5);
            u.sample(&mut benign);
        }
        assert_eq!(rng, benign, "hostile skew must not shift the draw sequence");
    }

    #[test]
    fn think_ticks_follow_the_law() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(think_ticks(ThinkTime::Zero, &mut rng), 0);
        assert_eq!(think_ticks(ThinkTime::Fixed { ticks: 7 }, &mut rng), 7);
        let mean = 12.0;
        let n = 4_000;
        let total: u64 = (0..n)
            .map(|_| think_ticks(ThinkTime::Exponential { mean }, &mut rng))
            .sum();
        let realized = total as f64 / n as f64;
        assert!(
            (realized / mean - 1.0).abs() < 0.1,
            "exponential mean drifted: {realized}"
        );
    }
}
