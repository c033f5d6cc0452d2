//! Greedy fault-schedule minimization (delta debugging).
//!
//! Given a failing schedule, repeatedly re-run with subsets of it and
//! keep any subset that still fails. Chunked passes (drop half, then
//! quarters, …) shrink fast; a final one-at-a-time pass removes every
//! individually unnecessary event. The
//! result is 1-minimal: removing any single remaining fault makes the
//! failure disappear — which is usually the difference between staring at
//! fourteen faults and staring at the two that matter.

use crate::schedule::ScheduledFault;

/// Minimize a failing schedule: `fails` replays a candidate schedule and
/// reports whether it still fails (a protocol run, or a kv workload run
/// of the same seed). Returns the reduced schedule, which still fails.
/// Panics if the input does not fail (nothing to minimize — a caller
/// bug).
pub fn minimize(
    schedule: &[ScheduledFault],
    mut fails: impl FnMut(&[ScheduledFault]) -> bool,
) -> Vec<ScheduledFault> {
    assert!(
        fails(schedule),
        "minimize() needs a failing schedule to start from"
    );
    let mut cur: Vec<ScheduledFault> = schedule.to_vec();
    // Passes dropping progressively smaller windows, then single faults
    // until a whole pass removes none: removals can re-enable others, and
    // the fixpoint is 1-minimal.
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut removed = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let cand: Vec<ScheduledFault> = [&cur[..start], &cur[end..]].concat();
            if fails(&cand) {
                cur = cand; // window was irrelevant; don't advance start
                removed = true;
            } else {
                start += chunk;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !removed {
            return cur;
        }
    }
}
