//! # ebs-chaos — deterministic chaos search over the EBS testbed
//!
//! The paper's robustness story (§4.5 sub-second multi-path failover,
//! §4.7 CRC aggregation against FPGA bit flips, Table 2's seven failure
//! scenarios) is reproduced elsewhere in this workspace by *scripted*
//! experiments. This crate searches the fault space instead,
//! FoundationDB-style: because the whole simulator is byte-deterministic,
//! a single `u64` seed fully reproduces any run — schedule, verdicts,
//! journal and metrics included.
//!
//! The pieces:
//!
//! * [`ChaosConfig`] + [`Schedule`] — a seeded **schedule generator**
//!   composing timed fault events from every injector the stack owns:
//!   fabric fail-stop / reboot / blackhole / random loss per device tier
//!   (`ebs-net`), DPU bit flips and PCIe stalls (`ebs-dpu`), SA QoS
//!   throttles (`ebs-sa`) and storage slowdowns (`ebs-storage`). See
//!   `docs/FAILURES.md` at the repository root for the full fault
//!   catalogue with paper cross-references.
//! * [`run_schedule`] — drives a schedule through an
//!   [`ebs_stack::Testbed`] (as the one-shard case of
//!   [`run_schedule_sharded`], which replays the same schedule across an
//!   [`ebs_stack::ShardedTestbed`]) and checks the **invariant
//!   oracles**: no I/O lost or duplicated, submit/complete counter
//!   conservation (QoS table
//!   vs traces vs obs journal spans), every I/O completes within a
//!   configurable recovery deadline once faults heal (Table 2's
//!   "unanswered ≥ 1 s" predicate generalized), event-queue quiescence
//!   after drain, and no corruption admitted undetected past the CRC
//!   aggregation check.
//! * [`shrink`] — on violation, bisects the schedule (drop fault events,
//!   shorten fault durations, reduce workload) to a minimal reproducing
//!   schedule, deterministically.
//! * [`write_repro`] — emits `chaos-repro-<seed>.json` plus the obs
//!   Chrome trace and an `explain_slowest`-style hop diagnosis of the
//!   slowest I/O for the violating run.
//!
//! ## Tiers
//!
//! `chaos_smoke` (under `cargo test`) sweeps ≈64 seeded schedules per
//! stack in seconds; the `--bench chaos` soak runs schedules until a
//! wall budget expires and replays any seed via `-- --replay <seed>`.
//! See EXPERIMENTS.md ("Chaos soak") for the workflow.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod oracle;
mod report;
mod runner;
mod schedule;
mod shrink;

pub use config::{BlkChaosConfig, ChaosConfig, FaultWeights, IncastConfig};
pub use oracle::Violation;
pub use report::{repro_json, write_repro};
pub use runner::{run_schedule, run_schedule_sharded, ChaosOutcome};
pub use schedule::{DeviceTier, FaultEvent, FaultKind, Schedule};
pub use shrink::{shrink, ShrinkOutcome};
