//! # car-bench
//!
//! Experiment harness reproducing the evaluation of the ICDE'98 cyclic
//! association rules paper. The original figures plot the runtime of the
//! SEQUENTIAL and INTERLEAVED algorithms over synthetic Quest-style data
//! as one workload parameter at a time is swept; this crate provides
//!
//! * [`Scenario`] construction for the base workload and each sweep
//!   (DESIGN.md, experiment index EXP-1 … EXP-9),
//! * [`measure`] — one timed mining run with its work counters, and
//! * [`print_series`] — fixed-width tables in the shape of the paper's
//!   figure data.
//!
//! The `experiments` binary drives all sweeps; the Criterion benches
//! under `benches/` pin each figure as a regression benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod measure;
mod scenario;
mod table;

pub use measure::{measure, measure_named, Measurement};
pub use scenario::{base_cyclic_config, scenario, Scenario, ScenarioParams};
pub use table::{format_duration, print_series, SeriesRow};
