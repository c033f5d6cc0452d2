//! Replayable event traces, their fingerprints, and run reports.
//!
//! Every chaos run records what happened — faults as resolved (with the
//! concrete pids the leader-relative patterns landed on), decided batches,
//! leadership changes, phase transitions, the violation if any. Two runs of
//! the same seed must produce bit-identical traces; [`fingerprint`] folds a
//! trace into one `u64` so that claim is cheap to check and to print.

use crate::schedule::ScheduledFault;
use crate::NodeId;
use std::collections::BTreeMap;

/// A detected violation: the failing invariant plus evidence, stamped with
/// the simulation tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub tick: u64,
    pub invariant: String,
    pub detail: String,
}

/// Named run statistics, summed over sweeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_default() += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, other: &Counters) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        f.write_str(&parts.join(", "))
    }
}

/// Everything one run of either driver produced: same run ⇒ bit-identical
/// report (asserted by the replay tests).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// What ran, one `key: value` line each.
    pub header: String,
    pub seed: u64,
    pub schedule: Vec<ScheduledFault>,
    pub trace: Vec<TraceEvent>,
    pub fingerprint: u64,
    pub violation: Option<Violation>,
    /// Decided positions and convergence ticks of a protocol run, a
    /// workload's own counts for a kv run.
    pub stats: Counters,
}

/// One observed event of a chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A fault fired, with leader-relative parts resolved to pids.
    Fault { tick: u64, desc: String },
    /// A server delivered newly decided commands starting at absolute log
    /// position `base`.
    Decide {
        tick: u64,
        pid: NodeId,
        base: u64,
        ids: Vec<u64>,
    },
    /// A server started claiming leadership under a new epoch.
    Leader {
        tick: u64,
        pid: NodeId,
        epoch: u64,
        owner: NodeId,
    },
    /// Phase transition (start, forced heal, liveness convergence).
    Phase { tick: u64, desc: String },
    /// An invariant was violated; the run stops here.
    Violation { tick: u64, desc: String },
}

/// FNV-1a over the canonical rendering of the trace. Stable across runs of
/// the same binary, which is what seed-replay debugging needs.
pub fn fingerprint(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for b in format!("{e:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Human-readable failure report: header, seed, violation, schedule, full
/// trace. This is what the CLI prints and what CI uploads as an artifact.
pub fn render_report(report: &ChaosReport) -> String {
    let mut out = format!(
        "{}seed: {}\nfingerprint: {:016x}\n",
        report.header, report.seed, report.fingerprint
    );
    match &report.violation {
        Some(v) => out.push_str(&format!(
            "VIOLATION at tick {}: [{}] {}\n",
            v.tick, v.invariant, v.detail
        )),
        None => out.push_str("no violation\n"),
    }
    out.push_str("\nschedule:\n");
    for f in &report.schedule {
        out.push_str(&format!("  @{:>6} {:?}\n", f.at_tick, f.fault));
    }
    out.push_str("\ntrace:\n");
    for e in &report.trace {
        match e {
            TraceEvent::Fault { tick, desc } => {
                out.push_str(&format!("  @{tick:>6} fault  {desc}\n"));
            }
            TraceEvent::Decide {
                tick,
                pid,
                base,
                ids,
            } => {
                out.push_str(&format!(
                    "  @{tick:>6} decide pid={pid} pos={base}..{} ids={ids:?}\n",
                    base + ids.len() as u64
                ));
            }
            TraceEvent::Leader {
                tick,
                pid,
                epoch,
                owner,
            } => {
                out.push_str(&format!(
                    "  @{tick:>6} leader pid={pid} epoch=({epoch},{owner})\n"
                ));
            }
            TraceEvent::Phase { tick, desc } => {
                out.push_str(&format!("  @{tick:>6} phase  {desc}\n"));
            }
            TraceEvent::Violation { tick, desc } => {
                out.push_str(&format!("  @{tick:>6} VIOLATION {desc}\n"));
            }
        }
    }
    out
}
