//! Fail-recovery experiments through the full harness (§3's failure model):
//! servers crash (volatile state lost, storage kept), stay down, and
//! recover — availability and safety must behave as the model promises.

use cluster::client::{Client, ClientConfig};
use cluster::protocol::{ProtoMsg, ProtocolKind, Replica};
use cluster::runner::{self, RunConfig, Runner};
use cluster::{Cmd, Fault, NodeId};
use simulator::{ms, sec};
use std::cell::Cell;
use std::rc::Rc;

fn base_config(schedule: Vec<(u64, Fault)>) -> RunConfig {
    RunConfig {
        protocol: ProtocolKind::OmniPaxos,
        n: 3,
        client: ClientConfig {
            cp: 50,
            entry_size: 8,
            max_inject_per_tick: 50,
            retry_ticks: 100,
        },
        election_timeout_us: ms(20),
        duration: sec(12),
        window_us: sec(1),
        gap_threshold_us: ms(40),
        schedule,
        seed: 5,
        ..Default::default()
    }
}

#[test]
fn follower_crash_does_not_interrupt_service() {
    // Crash a follower at 3 s, recover it at 6 s: a majority remains, so
    // the client harvest must show no down-time at all.
    let config = base_config(vec![(sec(3), Fault::Crash(1)), (sec(6), Fault::Recover(1))]);
    // Pid 3 wins the initial election (max ballot), so pid 1 is a follower.
    let report = Runner::new(config).run();
    assert_eq!(
        report.decides.downtime_in(sec(2), sec(11)),
        0,
        "a follower crash must be invisible to clients"
    );
    assert!(report.total_decided > 100_000);
}

#[test]
fn leader_crash_recovers_within_bounded_downtime() {
    let config = base_config(vec![
        (sec(3), Fault::CrashLeader),
        (sec(7), Fault::RecoverAll),
    ]);
    let report = Runner::new(config).run();
    let downtime = report.decides.downtime_in(sec(3), sec(11));
    assert!(downtime > 0, "a leader crash must be visible");
    assert!(
        downtime <= ms(200),
        "fail-over took {downtime}us, expected a few election timeouts"
    );
    // Service resumed long before (and independent of) the recovery.
    assert!(report.decides.decided_in(sec(4), sec(7)) > 0);
}

#[test]
fn repeated_rolling_crashes_never_lose_decided_entries() {
    // Roll a crash through every server, one at a time, with recovery in
    // between; total decided keeps growing and the run ends healthy.
    let schedule = vec![
        (sec(2), Fault::Crash(1)),
        (sec(3), Fault::Recover(1)),
        (sec(4), Fault::Crash(2)),
        (sec(5), Fault::Recover(2)),
        (sec(6), Fault::Crash(3)),
        (sec(7), Fault::Recover(3)),
        (sec(8), Fault::CrashLeader),
        (sec(9), Fault::RecoverAll),
    ];
    let report = Runner::new(base_config(schedule)).run();
    // Progress in the last second proves the cluster is healthy again.
    assert!(
        report.decides.decided_in(sec(11), sec(12)) > 10_000,
        "cluster must be at full speed after the rolling restarts: {:?}",
        report.decides.series().values()
    );
}

#[test]
fn crash_during_partition_still_recovers_after_heal() {
    // Combine the failure modes: partition the cluster, crash a server
    // inside the majority side, recover and heal.
    let schedule = vec![
        (sec(2), Fault::CutLink(1, 2)),
        (sec(2), Fault::CutLink(1, 3)),
        (sec(4), Fault::Crash(2)),
        (sec(5), Fault::Recover(2)),
        (sec(8), Fault::HealAll),
    ];
    let report = Runner::new(base_config(schedule)).run();
    assert!(
        report.decides.decided_in(sec(10), sec(12)) > 10_000,
        "cluster must recover after heal: {:?}",
        report.decides.series().values()
    );
}

/// Counts what reaches a server while the test holds it crashed.
struct Spy {
    inner: Box<dyn Replica>,
    down: Rc<Cell<NodeId>>,
    misdirected: Rc<Cell<u64>>,
}

impl Spy {
    fn check(&self) {
        if self.down.get() == self.inner.pid() {
            self.misdirected.set(self.misdirected.get() + 1);
        }
    }
}

impl Replica for Spy {
    fn pid(&self) -> NodeId {
        self.inner.pid()
    }
    fn tick(&mut self) {
        self.inner.tick()
    }
    fn handle(&mut self, from: NodeId, msg: ProtoMsg) {
        self.inner.handle(from, msg)
    }
    fn outgoing(&mut self) -> Vec<(NodeId, ProtoMsg)> {
        self.inner.outgoing()
    }
    fn propose(&mut self, cmd: Cmd) -> bool {
        self.check();
        self.inner.propose(cmd)
    }
    fn poll_decided(&mut self) -> Vec<u64> {
        self.inner.poll_decided()
    }
    fn is_leader(&self) -> bool {
        self.inner.is_leader()
    }
    fn leader_rank(&self) -> u64 {
        self.inner.leader_rank()
    }
    fn leader_changes(&self) -> u64 {
        self.inner.leader_changes()
    }
    fn reconnected(&mut self, pid: NodeId) {
        self.inner.reconnected(pid)
    }
    fn fail_recovery(&mut self) {
        self.inner.fail_recovery()
    }
    fn reconfigure(&mut self, new_nodes: Vec<NodeId>) -> bool {
        self.check();
        self.inner.reconfigure(new_nodes)
    }
    fn reconfigured_to(&self, new_nodes: &[NodeId]) -> bool {
        self.inner.reconfigured_to(new_nodes)
    }
    fn decided_base(&self) -> u64 {
        self.inner.decided_base()
    }
    fn decided_log_ids(&self) -> (u64, Vec<u64>) {
        self.inner.decided_log_ids()
    }
    fn leader_epoch(&self) -> Option<(u64, NodeId)> {
        self.inner.leader_epoch()
    }
}

#[test]
fn nothing_is_proposed_to_or_reconfigured_through_a_crashed_server() {
    // A crashed leader still believes it leads until someone out-ballots
    // it; the client and the reconfiguration operator must look past it.
    let config = RunConfig {
        joiners: 1,
        election_timeout_us: ms(50),
        duration: sec(6),
        ..base_config(Vec::new())
    };
    let (down, misdirected) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let replicas = (1..=4)
        .map(|pid| {
            Box::new(Spy {
                inner: runner::replica_for(&config, pid),
                down: down.clone(),
                misdirected: misdirected.clone(),
            }) as Box<dyn Replica>
        })
        .collect();
    let mut client = Client::new(config.client.clone(), sec(1), ms(40));
    let mut run = Runner::with_replicas(config, replicas);
    while run.now() < sec(2) {
        run.step(&mut client);
    }
    let leader = run.leader().expect("a leader after 2 s");
    let target: Vec<NodeId> = (1..=4).filter(|&p| p != leader).collect();
    run.fire(&Fault::Crash(leader));
    run.fire(&Fault::ReconfigureTo(target));
    down.set(leader);
    while run.now() < sec(6) {
        run.step(&mut client);
    }
    assert_eq!(
        misdirected.get(),
        0,
        "calls reached crashed server {leader}"
    );
    let now = run.leader().expect("a live leader took over");
    assert_ne!(now, leader);
    assert!(client.completed() > 0);
}
