//! # ebs-sim — deterministic discrete-event simulation kernel
//!
//! The domain-free substrate every other crate in this workspace runs on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond virtual clock;
//! * [`EventQueue`] — a deterministic timer-wheel event queue with FIFO
//!   tie-breaking, plus the [`Scheduler`] trait and
//!   [`MapScheduler`] adapter that let subsystems schedule their own event
//!   types inside a composed world;
//! * [`Bandwidth`] — exact byte↔wire-time conversion for links, PCIe and
//!   pacing;
//! * [`FifoResource`] / [`Channel`] — analytic multi-server FIFO queues used
//!   to model CPU cores, DMA engines and PCIe channels without per-operation
//!   events;
//! * [`rng`] — labelled deterministic random streams so every stochastic
//!   component draws from its own reproducible sequence;
//! * [`fxmap`] — deterministic fast hashing ([`FxHashMap`]) for hot
//!   point-lookup maps, replacing SipHash + random seeding, and the one
//!   pinned [`Fnv1a`] fold behind stream labels, flow hashes and digests.
//!
//! Design follows the sans-io idiom of the session guides: protocol and
//! hardware models in the sibling crates are pure state machines; only the
//! composed world (in `ebs-stack`) owns an event loop, and it is a plain
//! `while let Some((t, ev)) = queue.pop()` over this crate's queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxmap;
mod queue;
mod rate;
mod resource;
pub mod rng;
mod time;

pub use fxmap::{Fnv1a, FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventQueue, MapScheduler, Scheduler};
pub use rate::Bandwidth;
pub use resource::{Channel, FifoResource};
pub use time::{SimDuration, SimTime};
