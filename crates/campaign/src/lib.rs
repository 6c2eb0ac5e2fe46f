//! # mm-campaign — declarative experiment campaigns
//!
//! The paper's tables are cross-products: a strategy family evaluated
//! over a range of network sizes, each cell an average over repeated
//! trials. Reproducing them one `scenarios` invocation at a time does not
//! scale past a handful of cells, and hand-rolled sweep scripts rot. This
//! crate makes the cross-product itself the unit of work:
//!
//! * [`paramset`] — a campaign **experiment** is an ID that expands to a
//!   deterministic `scenario × n × strategy × queue × runtime × seed`
//!   cross-product of [`RunConfig`](mm_workload::drive::RunConfig)s.
//! * [`exec`] — the parallel executor: scoped worker threads take runs
//!   by a shared atomic index, one JSON file per run. Because every
//!   worker calls
//!   [`mm_workload::drive`] — the same code path as the `scenarios`
//!   binary — each per-run file is **byte-identical** to the output of
//!   the equivalent single CLI invocation at the same seed, no matter how
//!   many workers ran or in what order runs finished.
//! * [`agg`] — the order-independent aggregation pipeline: joins a
//!   directory of per-run JSON back into theory-vs-measured tables
//!   (through `mm-analysis` summaries and scaling fits), emits a
//!   deterministic `BENCH_8.json` trajectory entry, and gates CI by
//!   failing when deterministic event counts drift from a committed
//!   snapshot — or when two runs that must agree byte-for-byte (same
//!   scenario/strategy/n/seed across queues or runtimes) do not.
//!
//! Determinism is inherited, not re-implemented: a campaign is just many
//! single runs, and single runs are already byte-reproducible.

#![forbid(unsafe_code)]

pub mod agg;
pub mod exec;
pub mod paramset;

pub use agg::{Aggregate, BenchCase};
pub use exec::{execute, ExecReport};
pub use paramset::{by_id, Experiment, EXPERIMENTS};
