//! Simulation metrics: exact message-pass counts and load distribution.

/// Counters accumulated by a [`Sim`](crate::Sim) run.
///
/// `message_passes` is the paper's complexity measure: one per edge
/// traversal (hop). `sends`/`delivered`/`dropped` count whole messages.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Metrics {
    /// Total edge traversals — the paper's `m` numerator.
    pub message_passes: u64,
    /// Messages handed to the network (excluding free local deliveries).
    pub sends: u64,
    /// Messages delivered to a live destination handler.
    pub delivered: u64,
    /// Messages that died (crashed destination or severed path).
    pub dropped: u64,
    /// Number of crash events injected.
    pub crashes: u64,
    /// Events executed by the simulator loop (deliveries and drops at
    /// crashed nodes) — the denominator for events/sec.
    pub events_executed: u64,
    /// Highest number of simultaneously pending deliveries observed — the
    /// event core's working-set size. A uniform-cost multicast queues its
    /// remote copies as one entry, which counts once per copy here.
    pub peak_queue_depth: u64,
    /// Deliveries per node — cache pressure / rendezvous load.
    pub node_load: Vec<u64>,
}

impl Metrics {
    /// Fresh counters for an `n`-node simulation.
    pub fn new(n: usize) -> Self {
        Metrics {
            message_passes: 0,
            sends: 0,
            delivered: 0,
            dropped: 0,
            crashes: 0,
            events_executed: 0,
            peak_queue_depth: 0,
            node_load: vec![0; n],
        }
    }

    /// Counter-wise difference `self - earlier`: what happened between two
    /// snapshots. `peak_queue_depth` is a high-water mark, not a counter,
    /// so the later snapshot's value is kept as-is. The later snapshot is
    /// consumed and subtracted in place, so the difference costs no
    /// second per-node vector. (The workload runner subtracts only the
    /// counters this way, on snapshots without `node_load`: it walks the
    /// per-node loads against its own baseline, once per phase.)
    ///
    /// # Panics
    ///
    /// Panics if the snapshots disagree on the node count.
    pub fn delta(mut self, earlier: &Metrics) -> Metrics {
        assert_eq!(
            self.node_load.len(),
            earlier.node_load.len(),
            "snapshots must come from the same network"
        );
        self.message_passes -= earlier.message_passes;
        self.sends -= earlier.sends;
        self.delivered -= earlier.delivered;
        self.dropped -= earlier.dropped;
        self.crashes -= earlier.crashes;
        self.events_executed -= earlier.events_executed;
        for (a, b) in self.node_load.iter_mut().zip(&earlier.node_load) {
            *a -= b;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = Metrics::new(3);
        assert_eq!(m.message_passes, 0);
        assert_eq!(m.node_load, vec![0, 0, 0]);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_peak() {
        let mut before = Metrics::new(2);
        before.message_passes = 5;
        before.delivered = 3;
        before.node_load = vec![2, 1];
        before.peak_queue_depth = 9;
        let mut after = before.clone();
        after.message_passes = 12;
        after.delivered = 8;
        after.node_load = vec![4, 4];
        after.peak_queue_depth = 11;
        let d = after.delta(&before);
        assert_eq!(d.message_passes, 7);
        assert_eq!(d.delivered, 5);
        assert_eq!(d.node_load, vec![2, 3]);
        assert_eq!(d.peak_queue_depth, 11, "high-water mark, not a counter");
    }
}
