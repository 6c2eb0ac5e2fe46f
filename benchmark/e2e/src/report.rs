//! What the harness reads out of the reports the `scenarios` CLI prints:
//! the totals behind every metric, the per-phase invariants, and the
//! comparison that leaves wall-clock throughput out.

use crate::json::Value;

/// The only report key that measures the host; every other key must
/// repeat exactly at equal flags.
const THROUGHPUT: &str = "throughput";

/// Drops every `throughput` member, at any depth.
pub fn strip_throughput(v: &mut Value) {
    match v {
        Value::Obj(entries) => {
            entries.retain(|(k, _)| k != THROUGHPUT);
            entries.iter_mut().for_each(|(_, v)| strip_throughput(v));
        }
        Value::Arr(items) => items.iter_mut().for_each(strip_throughput),
        _ => {}
    }
}

/// FNV-1a over the bytes of a report, the digest printed as
/// `workload.report_fnv64`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One phase as the program reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// `<scenario>/<phase>`.
    pub name: String,
    pub events: u64,
    /// Events per second of wall clock; absent without `--throughput`.
    pub throughput: Option<f64>,
}

impl Phase {
    /// Seconds the phase's event loop ran. A phase that executed no event
    /// took no loop time, whatever rate it reports.
    pub fn loop_s(&self) -> f64 {
        match self.throughput {
            Some(rate) if self.events > 0 => self.events as f64 / rate,
            _ => 0.0,
        }
    }
}

/// Sums over every phase of every report in one or more CLI outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    pub events_executed: u64,
    pub message_passes: u64,
    pub locates_completed: u64,
    pub hits: u64,
    pub unresolved: u64,
    /// High-water mark, so the largest over the phases.
    pub peak_queue_depth: u64,
    /// Largest closed-loop `latency_p99` of any phase; `None` for
    /// open-loop reports, which carry no latency.
    pub latency_p99_ticks: Option<f64>,
    /// Operations the spec offered: `closed_loop.offered` where a phase
    /// has a client pool, `locates_issued` where it has none.
    pub ops_offered: u64,
    pub phases: Vec<Phase>,
}

impl Totals {
    /// Seconds spent inside the phase event loops.
    pub fn loop_s(&self) -> f64 {
        self.phases.iter().map(Phase::loop_s).sum()
    }

    /// `wall_s` less the phase event loops: process start, graph, router
    /// and node construction, set-up posts, timeline compile, report
    /// assembly, JSON and teardown.
    pub fn setup_s(&self, wall_s: f64) -> f64 {
        wall_s - self.loop_s()
    }

    /// Offered operations that did not end in a true match (`hits` leaves
    /// out forged answers, exposed or not). Abandoned, unresolved and
    /// forged answers are what the scenarios are built to produce, so this
    /// is a property of the spec, not a failure of the simulator. Taken
    /// over the whole run, because a verdict can land one phase after its
    /// arrival.
    pub fn ops_unanswered(&self) -> u64 {
        self.ops_offered.saturating_sub(self.hits)
    }

    /// The paper's cost measure over the whole workload.
    pub fn passes_per_locate(&self) -> f64 {
        self.message_passes as f64 / self.locates_completed as f64
    }
}

fn count(phase: &Value, key: &str) -> Result<u64, String> {
    phase
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("phase has no count `{key}`"))
}

/// Adds the reports of one CLI output (a JSON array) to `totals`, checking
/// the per-phase invariants on the way. `timed` says the run was made with
/// `--throughput`, so each phase must carry a usable rate.
pub fn accumulate(totals: &mut Totals, output: &Value, timed: bool) -> Result<(), String> {
    let reports = output.as_arr().ok_or("the CLI output is not an array")?;
    if reports.is_empty() {
        return Err("the CLI printed no report".into());
    }
    for report in reports {
        let scenario = report
            .get("scenario")
            .and_then(Value::as_str)
            .ok_or("report has no `scenario`")?;
        let phases = report
            .get("phases")
            .and_then(Value::as_arr)
            .ok_or("report has no `phases`")?;
        let mut report_events = 0;
        for phase in phases {
            let name = phase
                .get("name")
                .and_then(Value::as_str)
                .ok_or("phase has no `name`")?;
            let name = format!("{scenario}/{name}");
            let fail = |what: String| format!("{name}: {what}");

            let completed = count(phase, "locates_completed").map_err(&fail)?;
            let hits = count(phase, "hits").map_err(&fail)?;
            let misses = count(phase, "misses").map_err(&fail)?;
            let unresolved = count(phase, "unresolved").map_err(&fail)?;
            let passes = count(phase, "message_passes").map_err(&fail)?;
            let events = count(phase, "events_executed").map_err(&fail)?;
            // hostile specs class a forged answer as exposed or not, and
            // as neither hit nor miss; benign reports carry neither key
            let forged = ["detected_lie", "false_match"]
                .iter()
                .filter_map(|key| phase.get(key).and_then(Value::as_u64))
                .sum::<u64>();
            if completed != hits + misses + unresolved + forged {
                return Err(fail(format!(
                    "locates_completed {completed} != hits {hits} + misses {misses} + unresolved {unresolved} + forged {forged}"
                )));
            }
            let ppl = phase
                .get("passes_per_locate")
                .and_then(Value::as_f64)
                .ok_or_else(|| fail("no `passes_per_locate`".into()))?;
            // the report rounds the quotient to a double, nothing more
            if completed > 0 && (ppl * completed as f64 - passes as f64).abs() > 0.5 {
                return Err(fail(format!(
                    "passes_per_locate {ppl} x locates_completed {completed} != message_passes {passes}"
                )));
            }
            let throughput = phase.get(THROUGHPUT).and_then(Value::as_f64);
            if timed && !throughput.is_some_and(|r| r.is_finite() && (r > 0.0 || events == 0)) {
                return Err(fail(format!(
                    "no usable throughput ({throughput:?} over {events} events)"
                )));
            }

            let closed = phase.get("closed_loop");
            let offered = match closed {
                Some(c) => count(c, "offered").map_err(&fail)?,
                None => count(phase, "locates_issued").map_err(&fail)?,
            };
            if let Some(p99) = closed
                .and_then(|c| c.get("latency_p99"))
                .and_then(Value::as_f64)
            {
                let so_far = totals.latency_p99_ticks.unwrap_or(0.0);
                totals.latency_p99_ticks = Some(so_far.max(p99));
            }
            totals.events_executed += events;
            totals.message_passes += passes;
            totals.locates_completed += completed;
            totals.hits += hits;
            totals.unresolved += unresolved;
            totals.peak_queue_depth = totals
                .peak_queue_depth
                .max(count(phase, "peak_queue_depth").map_err(&fail)?);
            totals.ops_offered += offered;
            totals.phases.push(Phase {
                name,
                events,
                throughput,
            });
            report_events += events;
        }
        if report_events == 0 {
            return Err(format!("{scenario}: the run executed no event"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// An open-loop report with a phase that executed nothing.
    const OPEN: &str = r#"[{"scenario":"rolling-churn","phases":[
      {"name":"warmup","locates_issued":100,"locates_completed":100,"hits":100,"misses":0,
       "unresolved":0,"message_passes":13300,"events_executed":13420,"peak_queue_depth":568,
       "passes_per_locate":133.0,"throughput_per_kilotick":250.0,"throughput":1342000.0},
      {"name":"churning","locates_issued":1206,"locates_completed":1205,"hits":585,"misses":21,
       "unresolved":599,"message_passes":155547,"events_executed":156917,"peak_queue_depth":680,
       "passes_per_locate":129.08464730290456,"throughput_per_kilotick":502.08,"throughput":784585.0},
      {"name":"idle","locates_issued":0,"locates_completed":0,"hits":0,"misses":0,
       "unresolved":0,"message_passes":0,"events_executed":0,"peak_queue_depth":680,
       "passes_per_locate":0.0,"throughput_per_kilotick":0.0,"throughput":0.0}]}]"#;

    /// A closed-loop, hostile report: the pool's `offered` is the
    /// operation count, and a forged answer is a verdict but not a hit.
    const CLOSED: &str = r#"[{"scenario":"byzantine-liars-closed","phases":[
      {"name":"knee","locates_issued":2994,"locates_completed":2993,"hits":2980,"misses":1,
       "unresolved":2,"message_passes":383642,"events_executed":386746,"peak_queue_depth":1152,
       "passes_per_locate":128.17975275643167,"false_match":7,"detected_lie":3,
       "closed_loop":{"offered":3981,"dispatched":2994,"completed":2993,"abandoned":0,
                      "latency_p99":2.0},
       "throughput":3867460.0},
      {"name":"overload","locates_issued":10,"locates_completed":10,"hits":10,"misses":0,
       "unresolved":0,"message_passes":1280,"events_executed":1300,"peak_queue_depth":1100,
       "passes_per_locate":128.0,"false_match":0,
       "closed_loop":{"offered":40,"latency_p99":17.5},
       "throughput":1300000.0}]}]"#;

    fn totals(text: &str, timed: bool) -> Result<Totals, String> {
        let mut t = Totals::default();
        accumulate(&mut t, &parse(text).unwrap(), timed).map(|()| t)
    }

    #[test]
    fn open_loop_accounting() {
        let t = totals(OPEN, true).unwrap();
        assert_eq!(t.ops_offered, 100 + 1206);
        assert_eq!(t.ops_unanswered(), 1306 - 685);
        assert_eq!(t.locates_completed, 1305);
        assert_eq!(t.hits, 685);
        assert_eq!(t.unresolved, 599);
        assert_eq!(t.events_executed, 13420 + 156917);
        assert_eq!(t.message_passes, 13300 + 155547);
        assert_eq!(t.peak_queue_depth, 680);
        assert_eq!(t.latency_p99_ticks, None);
        assert_eq!(t.passes_per_locate(), 168847.0 / 1305.0);
        assert_eq!(t.phases[1].name, "rolling-churn/churning");
    }

    #[test]
    fn closed_loop_accounting() {
        let t = totals(CLOSED, true).unwrap();
        assert_eq!(t.ops_offered, 3981 + 40);
        assert_eq!(t.ops_unanswered(), (3981 + 40) - (2980 + 10));
        assert_eq!(t.latency_p99_ticks, Some(17.5));
        assert_eq!(t.peak_queue_depth, 1152);
    }

    #[test]
    fn setup_is_wall_less_the_event_loops() {
        let t = totals(OPEN, true).unwrap();
        // 13420 / 1342000 = 0.01 s, 156917 / 784585 = 0.2 s, and the
        // zero-event phase adds nothing although its rate is 0
        assert_eq!(t.phases[2].loop_s(), 0.0);
        assert!((t.loop_s() - 0.21).abs() < 1e-12);
        assert!((t.setup_s(0.25) - 0.04).abs() < 1e-12);
        // the untimed reference rep carries no rate: all of it is set-up
        let mut stripped = parse(OPEN).unwrap();
        strip_throughput(&mut stripped);
        let mut untimed = Totals::default();
        accumulate(&mut untimed, &stripped, false).unwrap();
        assert_eq!(untimed.loop_s(), 0.0);
        assert_eq!(untimed.setup_s(0.25), 0.25);
    }

    #[test]
    fn stripping_drops_only_the_wall_clock_key() {
        let mut a = parse(OPEN).unwrap();
        let mut b = parse(&OPEN.replace("1342000.0", "999.5")).unwrap();
        assert_ne!(a, b);
        strip_throughput(&mut a);
        strip_throughput(&mut b);
        assert_eq!(a, b);
        let text = a.to_compact();
        assert!(!text.contains("\"throughput\""));
        assert!(text.contains("throughput_per_kilotick"));
        // a count that differs is still a difference
        let mut c = parse(&OPEN.replace("\"hits\":585", "\"hits\":586")).unwrap();
        strip_throughput(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn invariants_are_checked_per_phase() {
        let broken = OPEN.replace("\"misses\":21", "\"misses\":20");
        assert!(totals(&broken, true).unwrap_err().contains("churning"));
        let broken = OPEN.replace("129.08464730290456", "129.2");
        assert!(totals(&broken, true)
            .unwrap_err()
            .contains("message_passes"));
        // a timed rep needs a finite, positive rate wherever events ran
        let broken = OPEN.replace("\"throughput\":784585.0", "\"throughput\":0.0");
        assert!(totals(&broken, true).unwrap_err().contains("throughput"));
        let mut stripped = parse(OPEN).unwrap();
        strip_throughput(&mut stripped);
        let mut t = Totals::default();
        assert!(accumulate(&mut t, &stripped, true).is_err());
        // a run that executed nothing at all measures nothing
        let idle = r#"[{"scenario":"s","phases":[{"name":"p","locates_issued":0,
            "locates_completed":0,"hits":0,"misses":0,"unresolved":0,"message_passes":0,
            "events_executed":0,"peak_queue_depth":0,"passes_per_locate":0.0}]}]"#;
        assert!(totals(idle, false).unwrap_err().contains("no event"));
        assert!(totals("[]", false).is_err());
    }

    #[test]
    fn the_digest_is_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"[1]\n"), fnv64(b"[2]\n"));
    }
}
