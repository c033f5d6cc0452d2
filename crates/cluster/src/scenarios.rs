//! Experiment entry points: one function per evaluation scenario of §7.
//!
//! Absolute scales are reduced from the paper's GCP testbed to laptop-sized
//! simulated runs (documented in `EXPERIMENTS.md`): election timeouts of
//! {10 ms, 50 ms, 500 ms} instead of {50 ms, 500 ms, 50 s}, partition
//! durations of {10 s, 20 s, 40 s} instead of {1, 2, 4} min, and a 120 MB
//! migration volume built from 750 k × 160 B entries instead of 15 M × 8 B.
//! The *shape* comparisons (who recovers, relative down-times in units of
//! election timeouts, relative degradation periods and peak IO) are scale-
//! free.

use crate::client::ClientConfig;
use crate::metrics::RunReport;
use crate::nemesis::Fault;
use crate::protocol::ProtocolKind;
use crate::runner::{RunConfig, Runner};
use crate::NodeId;
use simulator::{ms, sec, SimTime};

/// Outcome of one §7.2 partial-connectivity run.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    pub protocol: String,
    /// Longest period without decided replies during the partition window.
    pub downtime_us: SimTime,
    /// Did the protocol make progress again *before* the partition healed?
    pub recovered_during_partition: bool,
    /// Decided replies during the partition window.
    pub decided_during: u64,
    /// Decided replies over the full run.
    pub total_decided: u64,
    /// Max leader changes observed by a server.
    pub leader_changes: u64,
    /// Max leadership rank (ballot/term/view) at the end — the term
    /// inflation the paper reports for Raft.
    pub final_rank: u64,
}

/// Outcome of one §7.3 reconfiguration run.
#[derive(Debug, Clone)]
pub struct ReconfigOutcome {
    pub protocol: String,
    /// Throughput per window over the whole run (decided replies).
    pub windows: Vec<u64>,
    /// Window length used.
    pub window_us: SimTime,
    /// When the reconfiguration was submitted.
    pub submitted_at: SimTime,
    /// When every member of the new configuration was active.
    pub completed_at: Option<SimTime>,
    /// Baseline throughput (mean decided/s before the reconfiguration).
    pub baseline_tput: f64,
    /// Worst relative throughput during the switch (0.1 = 90 % drop).
    pub worst_relative_tput: f64,
    /// How long throughput stayed below 90 % of baseline, µs.
    pub degraded_for_us: SimTime,
    /// Longest complete service outage, µs.
    pub downtime_us: SimTime,
    /// Peak outgoing bytes of any single server over one window.
    pub peak_io_bytes: u64,
    /// Total bytes sent by the busiest server.
    pub max_node_bytes: u64,
}

/// Default tick: 1 ms of simulated time.
pub const TICK_US: SimTime = ms(1);

// ----------------------------------------------------------------------
// §2 partial-partition patterns as pure cut-set computations
// ----------------------------------------------------------------------
//
// Each function maps a membership (and the pattern's distinguished servers,
// resolved against the live leader at injection time) to the symmetric link
// pairs to cut. Every fault schedule fires them through the one
// [`crate::Nemesis`], so a randomized chaos schedule exercises exactly the
// topologies of the paper's §2 analysis.

/// §2a quorum-loss: every server keeps only its link to the `hub`; all
/// other pairs are cut. No server is quorum-connected except the hub, so
/// only a quorum-connected-election protocol recovers (Fig. 1a).
pub fn quorum_loss_cuts(members: &[NodeId], hub: NodeId) -> Vec<(NodeId, NodeId)> {
    let mut cuts = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in members.iter().skip(i + 1) {
            if a != hub && b != hub {
                cuts.push((a, b));
            }
        }
    }
    cuts
}

/// §2b constrained election, stage 2: the `old_leader` is fully
/// partitioned and everyone else keeps only their link to the (stale-log)
/// `hub` (Fig. 1b). Stage 1 is the single cut `(hub, old_leader)`.
pub fn constrained_stage2_cuts(
    members: &[NodeId],
    hub: NodeId,
    old_leader: NodeId,
) -> Vec<(NodeId, NodeId)> {
    let mut cuts = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in members.iter().skip(i + 1) {
            let keeps = (a == hub || b == hub) && a != old_leader && b != old_leader;
            if !keeps {
                cuts.push((a, b));
            }
        }
    }
    cuts
}

/// §2c chained: connect the servers in a line (each only to its
/// pid-neighbours) by cutting every non-adjacent pair. With ≥4 servers no
/// fully-connected server exists — the configuration Table 1 argues
/// livelocks Raft and VR permanently.
pub fn chained_line_cuts(members: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut cuts = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in members.iter().skip(i + 2) {
            cuts.push((a, b));
        }
    }
    cuts
}

// ----------------------------------------------------------------------
// §7.1 — regular execution (Fig. 7)
// ----------------------------------------------------------------------

/// Geographic region of a server in the WAN setting of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Asia,
    Eu,
    Us,
}

/// Latency overrides matching the WAN settings of §7.1: the last server is
/// "us-central1" (with the client), earlier servers split between
/// "asia-northeast1" (one-way 72.5 ms to us-central) and "eu-west1"
/// (52.5 ms). Same-region links stay at LAN latency.
pub fn wan_latency_overrides(n: usize) -> Vec<(NodeId, NodeId, SimTime)> {
    let region = |pid: NodeId| -> Region {
        if pid as usize == n {
            Region::Us
        } else if (pid as usize) <= (n - 1) / 2 {
            Region::Asia
        } else {
            Region::Eu
        }
    };
    let one_way = |a: Region, b: Region| -> SimTime {
        use Region::*;
        match (a, b) {
            (Asia, Asia) | (Eu, Eu) | (Us, Us) => 100, // same region: LAN
            (Asia, Us) | (Us, Asia) => 72_500,
            (Eu, Us) | (Us, Eu) => 52_500,
            (Asia, Eu) | (Eu, Asia) => 112_500,
        }
    };
    let mut overrides = Vec::new();
    for a in 1..=n as NodeId {
        for b in (a + 1)..=n as NodeId {
            overrides.push((a, b, one_way(region(a), region(b))));
        }
    }
    overrides
}

/// One Fig. 7 run: `n` servers, CP concurrent proposals, LAN or WAN.
pub fn normal_run(
    protocol: ProtocolKind,
    n: usize,
    cp: usize,
    wan: bool,
    duration: SimTime,
    seed: u64,
) -> RunReport {
    let config = RunConfig {
        protocol,
        n,
        client: ClientConfig {
            cp,
            entry_size: 8,
            max_inject_per_tick: 1_000,
            retry_ticks: 500,
        },
        tick_us: TICK_US,
        // The election timeout must exceed the heartbeat round trip, so
        // WAN deployments run with proportionally longer timeouts (the
        // paper's testbed would equally never run a 5 ms timeout over a
        // 145 ms RTT link).
        election_timeout_us: if wan { ms(500) } else { ms(5) },
        latency_us: 100, // 0.2 ms RTT LAN
        latency_overrides: if wan {
            wan_latency_overrides(n)
        } else {
            Vec::new()
        },
        duration,
        window_us: sec(1),
        gap_threshold_us: ms(100),
        seed,
        ..Default::default()
    };
    Runner::new(config).run()
}

// ----------------------------------------------------------------------
// §7.2 — partial connectivity (Fig. 8, Table 1)
// ----------------------------------------------------------------------

/// Which §2 scenario to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    QuorumLoss,
    ConstrainedElection,
    /// The 3-server chain of Fig. 1c (used by Fig. 8c).
    Chained,
    /// The 5-server chain of §2c's general argument: no fully-connected
    /// server exists, so protocols relying on one (Raft, VR, Multi-Paxos)
    /// livelock permanently — Table 1's chained column.
    ChainedFive,
}

impl Scenario {
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::QuorumLoss => "quorum-loss",
            Scenario::ConstrainedElection => "constrained",
            Scenario::Chained => "chained",
            Scenario::ChainedFive => "chained-5",
        }
    }
}

/// One §7.2 run: warm up fully connected, inject the scenario, heal, and
/// measure down-time within the partition window.
pub fn partition_run(
    protocol: ProtocolKind,
    scenario: Scenario,
    election_timeout_us: SimTime,
    partition_for: SimTime,
    seed: u64,
) -> PartitionOutcome {
    let n = match scenario {
        Scenario::Chained => 3,
        _ => 5,
    };
    let warmup = sec(5);
    let partition_at = warmup;
    let heal_at = partition_at + partition_for;
    let duration = heal_at + sec(5);
    let mut schedule: Vec<(SimTime, Fault)> = Vec::new();
    match scenario {
        Scenario::QuorumLoss => schedule.push((partition_at, Fault::QuorumLoss)),
        Scenario::ConstrainedElection => {
            // Disconnect the future hub from the leader first so its log is
            // outdated when it must win the election (§7.2). The gap must
            // stay *below* the election timeout: long enough for the leader
            // to replicate entries the hub misses, short enough that the
            // hub does not start an election before the full partition.
            let gap = (election_timeout_us / 2).max(TICK_US * 2);
            schedule.push((partition_at, Fault::ConstrainedStage1));
            schedule.push((partition_at + gap, Fault::ConstrainedStage2));
        }
        Scenario::Chained => schedule.push((partition_at, Fault::Chained)),
        Scenario::ChainedFive => schedule.push((partition_at, Fault::ChainedLine)),
    }
    schedule.push((heal_at, Fault::HealAll));
    let config = RunConfig {
        protocol,
        n,
        client: ClientConfig {
            cp: 100,
            entry_size: 8,
            max_inject_per_tick: 100,
            retry_ticks: 100,
        },
        tick_us: TICK_US,
        election_timeout_us,
        latency_us: 100,
        duration,
        window_us: sec(1),
        gap_threshold_us: (election_timeout_us / 2).max(ms(20)),
        schedule,
        seed,
        ..Default::default()
    };
    let report = Runner::new(config).run();
    // For the constrained scenario the real partition starts at stage 2.
    let window_start = match scenario {
        Scenario::ConstrainedElection => partition_at + (election_timeout_us / 2).max(TICK_US * 2),
        _ => partition_at,
    };
    let downtime_us = report.decides.downtime_in(window_start, heal_at);
    let decided_during = report.decides.decided_in(window_start, heal_at);
    // "Recovered" = decided replies kept flowing after the scenario's
    // initial election disruption, well before the heal.
    let probe_from = window_start + partition_for / 2;
    let recovered = report.decides.decided_in(probe_from, heal_at) > 0;
    PartitionOutcome {
        protocol: report.protocol.clone(),
        downtime_us,
        recovered_during_partition: recovered,
        decided_during,
        total_decided: report.total_decided,
        leader_changes: report.leader_changes,
        final_rank: report.final_rank,
    }
}

// ----------------------------------------------------------------------
// §7.3 — reconfiguration (Fig. 9)
// ----------------------------------------------------------------------

/// One §7.3 run: 5 servers with a 120 MB history; replace one server or a
/// majority; measure throughput per window and leader IO.
pub fn reconfig_run(
    protocol: ProtocolKind,
    replace_majority: bool,
    cp: usize,
    seed: u64,
) -> ReconfigOutcome {
    assert!(matches!(
        protocol,
        ProtocolKind::OmniPaxos | ProtocolKind::OmniPaxosLeaderMigration | ProtocolKind::Raft
    ));
    let n = 5;
    let joiners = if replace_majority { 3 } else { 1 };
    // The initial configuration is pids 1..=5; the last server wins the
    // first Omni-Paxos election (max ballot), so keep it and replace
    // low-pid followers.
    let new_nodes: Vec<NodeId> = if replace_majority {
        vec![4, 5, 6, 7, 8]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let reconfig_at = sec(20);
    let duration = sec(80);
    let window_us = sec(5); // the paper's Fig. 9 window
    let config = RunConfig {
        protocol,
        n,
        joiners,
        client: ClientConfig {
            cp,
            entry_size: 8,
            max_inject_per_tick: 100,
            retry_ticks: 1_000,
        },
        tick_us: TICK_US,
        election_timeout_us: ms(50),
        latency_us: 100,
        nic_bytes_per_sec: Some(25_000_000), // 25 MB/s
        duration,
        initial_log: 750_000,
        initial_entry_size: 160, // 750 k × 160 B = 120 MB, the paper's volume
        window_us,
        gap_threshold_us: ms(100),
        schedule: vec![(reconfig_at, Fault::ReconfigureTo(new_nodes))],
        seed,
        ..Default::default()
    };
    let report = Runner::new(config).run();
    summarize_reconfig(report, reconfig_at, window_us, duration)
}

fn summarize_reconfig(
    report: RunReport,
    submitted_at: SimTime,
    window_us: SimTime,
    duration: SimTime,
) -> ReconfigOutcome {
    let windows: Vec<u64> = report.decides.series().values().to_vec();
    let pre_from = (submitted_at / window_us).saturating_sub(5) as usize;
    let pre_to = (submitted_at / window_us) as usize;
    let baseline: f64 = if pre_to > pre_from {
        windows[pre_from..pre_to.min(windows.len())]
            .iter()
            .map(|&v| v as f64)
            .sum::<f64>()
            / (pre_to - pre_from) as f64
    } else {
        0.0
    };
    let mut worst = f64::INFINITY;
    let mut degraded_windows = 0u64;
    let post_from = pre_to;
    let post_to = ((duration / window_us) as usize).min(windows.len());
    for w in windows.iter().take(post_to).skip(post_from) {
        let rel = if baseline > 0.0 {
            *w as f64 / baseline
        } else {
            1.0
        };
        if rel < worst {
            worst = rel;
        }
        if rel < 0.9 {
            degraded_windows += 1;
        }
    }
    if !worst.is_finite() {
        worst = 1.0;
    }
    let downtime_us = report.decides.downtime_in(submitted_at, duration);
    ReconfigOutcome {
        protocol: report.protocol.clone(),
        baseline_tput: baseline * 1e6 / window_us as f64,
        worst_relative_tput: worst,
        degraded_for_us: degraded_windows * window_us,
        downtime_us,
        peak_io_bytes: report.max_peak_io(),
        max_node_bytes: report.bytes_sent.iter().map(|(_, b)| *b).max().unwrap_or(0),
        windows,
        window_us,
        submitted_at,
        completed_at: report.reconfig_done_at,
    }
}
