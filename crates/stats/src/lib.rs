//! # ebs-stats — measurement plumbing for the reproduction
//!
//! Everything the experiments use to turn simulator events into the rows
//! and series the paper reports:
//!
//! * [`Histogram`] — constant-memory log-bucketed latency histogram
//!   (median / p95 / p99 with ≤ ~1.6% error);
//! * [`Ecdf`] — exact CDF curves;
//! * [`TextTable`] — the aligned-table renderer used by the benchmark
//!   harness to print paper-style output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod summary;
mod table;

pub use hist::Histogram;
pub use summary::Ecdf;
pub use table::{f1, f2, TextTable};
