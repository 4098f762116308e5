//! # ebs-obs — deterministic sans-io observability
//!
//! The uniform telemetry substrate of the workspace (DESIGN.md §9). The
//! paper's whole evaluation methodology is telemetry: Fig. 6's SA/FN/BN/SSD
//! attribution comes from distributed trace, §4.5's sub-second failover
//! claims come from per-path health signals, and HPCC's INT is carried in
//! the wire format itself. This crate gives every layer one way to report:
//!
//! * [`Journal`] — a bounded ring buffer of typed [`Event`]s stamped with
//!   the *injected* [`SimTime`] (never a wall clock): spans, instants and
//!   counter samples, one Perfetto track per component;
//! * [`Metrics`] — a registry of counters, gauges and `ebs-stats`-backed
//!   histograms keyed by static `(component, name)` pairs;
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) and a flat metrics-snapshot JSON;
//! * [`Sample`] — the trait protocol crates implement so a host can scrape
//!   their state into a registry without the engines owning any telemetry
//!   state themselves.
//!
//! ## Determinism contract
//!
//! Everything here is pure state: no clocks, no threads, no ambient RNG, no
//! randomly-seeded hash collections. Two identical simulation runs produce
//! byte-identical journals, registries and exports. `ebs-lint` enforces the
//! sans-io and determinism tiers on this crate like on the protocol crates.
//!
//! ## Observation never perturbs behaviour
//!
//! Hosts own the journal and registry (sans-io discipline: engines are
//! *sampled*, they never write ambient state), so recording changes no
//! simulation output.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
mod journal;
mod metrics;

pub use export::{chrome_trace, metrics_snapshot};
pub use journal::{Event, EventKind, Journal, DEFAULT_CAPACITY};
pub use metrics::{MetricValue, Metrics};

use ebs_sim::SimTime;

/// Instrumentation is always compiled in. Nothing in the workspace
/// branches on this; it stays because `benchmark/` records it in the
/// stamp of every results file.
pub const ENABLED: bool = true;

/// Implemented by components whose state a host scrapes into a [`Metrics`]
/// registry. The component never holds a registry itself — the host owns
/// it and decides when to sample (typically at end of run, or periodically
/// for counter tracks in the journal).
///
/// Convention: a fresh sample pass starts from [`Metrics::clear`] (or a new
/// registry), so impls may use [`Metrics::counter_add`] freely to aggregate
/// across sibling components (e.g. all SOLAR clients of a testbed).
pub trait Sample {
    /// Write this component's current state into `m` as of `now`.
    fn sample_into(&self, now: SimTime, m: &mut Metrics);
}
