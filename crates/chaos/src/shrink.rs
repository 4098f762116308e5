//! Schedule shrinking: delta-debug a violating schedule down to a
//! minimal reproduction.
//!
//! Three reduction moves, applied greedily and deterministically until a
//! fixpoint: drop fault events (ddmin-style — halves, then singles),
//! halve fault durations (down to a 1 ms floor), and reduce the workload
//! (fio depth, then the horizon). A candidate is accepted iff it still
//! violates some oracle; because the runner is deterministic, acceptance
//! is a pure function of the candidate, so the shrink itself replays
//! bit-identically from the original schedule.

use ebs_sim::SimDuration;

use crate::runner::{run_schedule, ChaosOutcome};
use crate::schedule::Schedule;

/// Durations are not halved below this floor: sub-millisecond faults are
/// below every detection/convergence constant in the stacks and stop
/// being the same bug.
const MIN_HEAL: SimDuration = SimDuration::from_millis(1);

/// Hard cap on runner invocations during one shrink, so a pathological
/// schedule cannot stall a CI job. Reached only with dozens of faults.
const MAX_ATTEMPTS: usize = 256;

/// Result of shrinking a violating schedule.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimal still-violating schedule.
    pub minimal: Schedule,
    /// The (deterministic) outcome of running `minimal`.
    pub outcome: ChaosOutcome,
    /// Candidate runs spent reaching the fixpoint.
    pub candidates_tried: usize,
}

struct Shrinker {
    attempts: usize,
}

impl Shrinker {
    /// Run a candidate; `Some(outcome)` iff it still violates.
    fn violates(&mut self, candidate: &Schedule) -> Option<ChaosOutcome> {
        if self.attempts >= MAX_ATTEMPTS {
            return None;
        }
        self.attempts += 1;
        let outcome = run_schedule(candidate);
        if outcome.ok() {
            None
        } else {
            Some(outcome)
        }
    }
}

/// Shrink `schedule` to a minimal still-violating reproduction. Returns
/// `None` if the original run does not violate any oracle (nothing to
/// shrink).
pub fn shrink(schedule: &Schedule) -> Option<ShrinkOutcome> {
    let mut sh = Shrinker { attempts: 0 };
    let mut best = schedule.clone();
    let mut outcome = sh.violates(&best)?;

    loop {
        let mut progressed = false;

        // 1. Drop fault events: try removing chunks of decreasing size.
        let mut chunk = best.faults.len().div_ceil(2).max(1);
        while chunk >= 1 && best.faults.len() > 1 {
            let mut start = 0;
            while start < best.faults.len() && best.faults.len() > 1 {
                let end = (start + chunk).min(best.faults.len());
                let mut candidate = best.clone();
                candidate.faults.drain(start..end);
                if candidate.faults.is_empty() {
                    start = end;
                    continue;
                }
                if let Some(o) = sh.violates(&candidate) {
                    best = candidate;
                    outcome = o;
                    progressed = true;
                    // Same start index now points at the next chunk.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = chunk.div_ceil(2).max(1);
        }

        // 2. Halve fault durations toward the floor.
        loop {
            let mut halved = false;
            for i in 0..best.faults.len() {
                let cur = best.faults[i].heal_after;
                if cur <= MIN_HEAL {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.faults[i].heal_after = cur.mul_f64(0.5).max(MIN_HEAL);
                if let Some(o) = sh.violates(&candidate) {
                    best = candidate;
                    outcome = o;
                    progressed = true;
                    halved = true;
                }
            }
            if !halved {
                break;
            }
        }

        // 3. Reduce the workload: fio depth first, then the horizon (the
        //    horizon only shrinks while every fault still injects inside
        //    the workload window).
        while best.fio_depth > 1 {
            let mut candidate = best.clone();
            candidate.fio_depth /= 2;
            match sh.violates(&candidate) {
                Some(o) => {
                    best = candidate;
                    outcome = o;
                    progressed = true;
                }
                None => break,
            }
        }
        loop {
            let half = best.horizon.mul_f64(0.5);
            if half < SimDuration::from_millis(5) || best.faults.iter().any(|f| f.at >= half) {
                break;
            }
            let mut candidate = best.clone();
            candidate.horizon = half;
            match sh.violates(&candidate) {
                Some(o) => {
                    best = candidate;
                    outcome = o;
                    progressed = true;
                }
                None => break,
            }
        }

        if !progressed || sh.attempts >= MAX_ATTEMPTS {
            break;
        }
    }

    Some(ShrinkOutcome {
        minimal: best,
        outcome,
        candidates_tried: sh.attempts,
    })
}
