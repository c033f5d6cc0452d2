//! The closed-loop client of the evaluation (§7, *Hardware*): it keeps `CP`
//! (*concurrent proposals*) commands outstanding, re-proposing any that were
//! lost to leader changes, and records the time of every decided reply —
//! the raw signal behind the paper's throughput and down-time plots.

use crate::metrics::{DecideLog, LatencyHistogram};
use crate::runner::{Runner, Workload};
use crate::Cmd;
use simulator::SimTime;
use std::collections::{HashMap, HashSet};

/// Client ids start here so they can never collide with pre-loaded history.
pub const CLIENT_ID_BASE: u64 = 1_000_000_000;

/// Client workload parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Number of concurrent proposals kept outstanding (the paper's CP).
    pub cp: usize,
    /// Declared size of each proposed command in bytes (8 in the paper).
    pub entry_size: u32,
    /// Injection cap per tick; models the client/server proposal path
    /// capacity so simulated throughput saturates like real hardware.
    pub max_inject_per_tick: usize,
    /// Re-propose an outstanding command after this many ticks without a
    /// decided reply (covers entries lost to leader changes).
    pub retry_ticks: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            cp: 500,
            entry_size: 8,
            max_inject_per_tick: 500,
            retry_ticks: 200,
        }
    }
}

/// The closed-loop client.
pub struct Client {
    config: ClientConfig,
    next_id: u64,
    /// Outstanding proposals: id -> (tick, time) of the last attempt.
    outstanding: HashMap<u64, (u64, SimTime)>,
    /// Completion tracking: all ids below `frontier` are done, plus the
    /// out-of-order set above it.
    frontier: u64,
    done_above: HashSet<u64>,
    ticks: u64,
    /// Decide-reply timeline (throughput windows, gaps).
    pub decides: DecideLog,
    /// Propose-to-decide latency distribution.
    pub latencies: LatencyHistogram,
}

impl Client {
    /// Create a client recording decide events into windows of `window`
    /// simulated microseconds.
    pub fn new(config: ClientConfig, window: SimTime, gap_threshold: SimTime) -> Self {
        Client {
            config,
            next_id: CLIENT_ID_BASE,
            outstanding: HashMap::new(),
            frontier: CLIENT_ID_BASE,
            done_above: HashSet::new(),
            ticks: 0,
            decides: DecideLog::new(window, gap_threshold),
            latencies: LatencyHistogram::new(),
        }
    }

    /// Total commands completed.
    pub fn completed(&self) -> u64 {
        self.decides.total()
    }

    /// Mark `id` complete; returns the time of its last proposal attempt,
    /// or `None` for duplicates and foreign ids.
    fn complete(&mut self, id: u64) -> Option<SimTime> {
        if id < self.frontier || self.done_above.contains(&id) {
            return None; // duplicate or pre-loaded history
        }
        let proposed_at = self.outstanding.remove(&id).map(|(_, at)| at).unwrap_or(0);
        self.done_above.insert(id);
        while self.done_above.remove(&self.frontier) {
            self.frontier += 1;
        }
        Some(proposed_at)
    }
}

impl Workload for Client {
    /// Collect decided replies, top up the window at the live leader,
    /// retry losses.
    fn step(&mut self, run: &mut Runner) {
        self.ticks += 1;
        let now = run.now();
        // 1. Count a command once, at its first decided reply anywhere.
        for d in run.decided() {
            for &id in &d.ids {
                if let Some(proposed_at) = self.complete(id) {
                    self.decides.record(now);
                    self.latencies.record(now.saturating_sub(proposed_at));
                }
            }
        }
        // 2. Propose to the freshest live leader claimant.
        let Some(leader) = run.leader() else {
            return;
        };
        // 3. Top up to CP outstanding (bounded per tick).
        let mut budget = self.config.max_inject_per_tick;
        while self.outstanding.len() < self.config.cp && budget > 0 {
            let cmd = Cmd::sized(self.next_id, self.config.entry_size);
            if !run.propose(leader, cmd) {
                break;
            }
            self.outstanding.insert(self.next_id, (self.ticks, now));
            self.next_id += 1;
            budget -= 1;
        }
        // 4. Periodically re-propose stragglers (entries lost to leader
        //    changes are the client's responsibility to retry).
        if self.ticks.is_multiple_of(self.config.retry_ticks) {
            let stale: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(_, &(t, _))| self.ticks - t >= self.config.retry_ticks)
                .map(|(&id, _)| id)
                .collect();
            for id in stale.into_iter().take(budget.max(64)) {
                let cmd = Cmd::sized(id, self.config.entry_size);
                if run.propose(leader, cmd) {
                    self.outstanding.insert(id, (self.ticks, now));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_deduplicates_and_advances_frontier() {
        let mut c = Client::new(ClientConfig::default(), 1_000_000, 1_000_000);
        let b = CLIENT_ID_BASE;
        assert!(c.complete(b).is_some());
        assert!(c.complete(b).is_none(), "duplicate rejected");
        assert!(c.complete(b + 2).is_some());
        assert!(c.complete(b + 1).is_some());
        assert_eq!(c.frontier, b + 3);
        assert!(c.done_above.is_empty(), "frontier absorbed the set");
    }

    #[test]
    fn foreign_ids_are_ignored() {
        let mut c = Client::new(ClientConfig::default(), 1_000_000, 1_000_000);
        assert!(
            c.complete(5).is_none(),
            "pre-loaded history id must not count"
        );
        assert_eq!(c.completed(), 0);
    }
}
