//! `cluster.*` and `simulator.*`: the paper's partial-connectivity
//! scenarios (§2, Table 1) on the deterministic simulator, which injects a
//! 100 µs one-way LAN delay. Simulated time is exact — the figures repeat
//! to the digit for a given seed — so they are reported in `sim_ms` /
//! `sim_us`; only `simulator.events_per_wall_s` reads the wall clock.

use crate::metrics::Outcome;
use cluster::protocol::ProtocolKind;
use cluster::scenarios::{normal_run, partition_run, Scenario};
use simulator::{ms, sec, Network, NetworkConfig};
use std::time::Instant;

/// Election timeout of the scenarios: the paper's 50 ms point.
const ELECTION_TIMEOUT_MS: u64 = 50;

pub fn run(seed: u64, out: &mut Outcome) {
    let partition = sec(3);
    let mut changes = 0;
    for (scenario, metric) in [
        (Scenario::QuorumLoss, "cluster.downtime_quorum_loss_ms"),
        (
            Scenario::ConstrainedElection,
            "cluster.downtime_constrained_ms",
        ),
        (Scenario::ChainedFive, "cluster.downtime_chained_ms"),
    ] {
        let o = partition_run(
            ProtocolKind::OmniPaxos,
            scenario,
            ms(ELECTION_TIMEOUT_MS),
            partition,
            seed,
        );
        // The paper's claim: Omni-Paxos makes progress again *during* the
        // partition, in every one of the three scenarios.
        out.check(o.recovered_during_partition, || {
            format!(
                "simulator: Omni-Paxos did not recover during {}",
                scenario.name()
            )
        });
        out.set(metric, o.downtime_us as f64 / 1e3);
        changes = changes.max(o.leader_changes);
    }
    out.set("cluster.leader_changes", changes as f64);

    // Steady state, 3 servers on the simulated LAN, 64 concurrent
    // proposals: bytes on the wire per decided entry and decide latency.
    let report = normal_run(ProtocolKind::OmniPaxos, 3, 64, false, sec(1), seed);
    let bytes: u64 = report.bytes_sent.iter().map(|(_, b)| b).sum();
    out.check(report.total_decided > 0, || {
        "simulator: nothing decided in steady state".into()
    });
    out.set(
        "cluster.bytes_per_decided",
        bytes as f64 / report.total_decided.max(1) as f64,
    );
    out.set("cluster.sim_p50_us", report.latency.quantile_us(0.5) as f64);
    out.set(
        "simulator.events_per_wall_s",
        events_per_wall_second(400_000),
    );
}

/// The discrete-event core on its own: messages sent between five nodes
/// and popped in delivery order, per second of wall time.
fn events_per_wall_second(events: u64) -> f64 {
    let nodes: Vec<u64> = (1..=5).collect();
    let mut net: Network<u64> = Network::new(NetworkConfig {
        nodes: nodes.clone(),
        default_latency_us: 100,
        ..Default::default()
    });
    let start = Instant::now();
    let mut delivered = 0u64;
    let mut i = 0u64;
    while delivered < events {
        for _ in 0..64 {
            let (src, dst) = (
                nodes[(i % 5) as usize],
                nodes[((i + 1 + i / 5 % 4) % 5) as usize],
            );
            if src != dst {
                net.send(src, dst, 64, i);
            }
            i += 1;
        }
        let deadline = net.now() + 200;
        while let Some(d) = net.pop_next_before(deadline) {
            std::hint::black_box(d.msg);
            delivered += 1;
        }
        net.advance_to(deadline);
    }
    delivered as f64 / start.elapsed().as_secs_f64()
}
