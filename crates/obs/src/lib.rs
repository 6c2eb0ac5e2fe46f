//! # mm-obs — deterministic causal tracing & metrics registry
//!
//! The paper's central quantity — how many rendezvous nodes a locate
//! actually meets a matching post at, `m(P,Q)` — is invisible in
//! aggregate counters. This crate makes per-operation causality a
//! first-class artifact shared by **both** runtimes (the `mm-sim`
//! discrete-event simulator and the threaded `mm-proto::live` network):
//!
//! * [`trace`] — span records forming one causal tree per workload
//!   operation (`post → store`, `locate → contact → request`), buffered
//!   in a bounded ring by [`trace::Tracer`] with deterministic seeded
//!   head-sampling, and flushed as JSONL by [`trace::TraceFile`]. Span
//!   ticks follow the **uniform-cost timing law** (fan-out delivered at
//!   `issue+1`, replies at `issue+2`) computed *virtually*, so a
//!   churn-free spec traced on the simulator and on live threads at the
//!   same seed produces **byte-identical** files.
//! * [`registry`] — named counters, gauges and log₂-bucketed histograms
//!   ([`registry::Registry`]), snapshotted per phase into the workload
//!   report behind the same schema-compat seam the closed-loop stats
//!   use (`skip_serializing_if`), so reports without observability stay
//!   byte-identical.
//! * [`mod@analyze`] — joins a flushed trace back into per-strategy tables:
//!   measured `m(P,Q)` per locate, hop latency attribution (transit vs.
//!   wait), and a conservation check that span costs exactly reproduce
//!   the run's `Metrics` message counters.
//!
//! Determinism contract: trace IDs are allocated in the shared
//! timeline/dispatch order of the workload runners, span emission order
//! is canonicalized by a `(trace, span)` sort at flush time, and
//! sampling decides per *trace* via a seeded hash — so a sampled trace
//! file is always an exact subset of the full one at the same seed.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod registry;
pub mod trace;

pub use analyze::{analyze, ConservationCheck, TraceAnalysis};
pub use registry::{
    BucketSnap, HistogramSnap, NamedValue, Registry, RegistrySnapshot, HIST_BUCKETS,
};
pub use trace::{
    SpanRecord, TraceConfig, TraceFile, TraceFooter, TraceHeader, Tracer, TRACE_VERSION,
};
