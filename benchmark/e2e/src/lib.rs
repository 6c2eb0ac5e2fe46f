//! The end-to-end half of the repository's benchmark.
//!
//! The harness runs the release `scenarios` CLI as a child process, once
//! per rep, and measures it from outside; it links against nothing in the
//! repository. `../layers` borrows the statistics, span and JSON code from
//! here for the per-layer probes.

pub mod child;
pub mod json;
pub mod manifest;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
