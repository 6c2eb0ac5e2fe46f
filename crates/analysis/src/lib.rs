//! # mm-analysis — statistics, scaling fits and table rendering
//!
//! Support crate for the experiment harness: summary statistics with
//! confidence intervals ([`stats`]), log–log scaling-exponent fits used to
//! check the paper's `n^{1/2}` / `n^{(d−1)/d}` / `log n` claims ([`fit`]),
//! ASCII tables in the style of the paper's figures ([`table`]), and
//! serializable experiment records ([`record`]).

#![forbid(unsafe_code)]

pub mod fit;
pub mod record;
pub mod stats;
pub mod table;

pub use fit::log_log_slope;
pub use record::ExperimentRecord;
pub use stats::Summary;
pub use table::Table;
