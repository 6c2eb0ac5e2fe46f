//! # mm-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper (the experiment index
//! E1–E18 is [`all_experiments`]). Each experiment prints paper-style
//! tables and returns [`ExperimentRecord`]s comparing the paper's
//! predicted value with the measured one.
//!
//! Run everything: `cargo run --release -p mm-bench --bin experiments`
//! Run one:        `cargo run --release -p mm-bench --bin experiments -- e9`
//! Gate on it:     `cargo test --release -p mm-bench -- --ignored`

#![forbid(unsafe_code)]

pub mod harness;
pub mod protocols;
pub mod theory;
pub mod topologies;

pub use harness::{all_experiments, run_by_name, Experiment};
pub use mm_analysis::ExperimentRecord;
