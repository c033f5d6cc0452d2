//! The kv chaos driver: one seeded, replayable, minimizable loop under
//! every key-value workload.
//!
//! The driver owns the cluster — [`ShardedKvNode`]s over the simulated
//! network (a one-shard node is the shape `omni-kv-server` deploys and is
//! wire-identical to a plain `KvNode`) — and the phases of a run:
//!
//! 1. an optional calm start (a [`Workload::ready`] hook, e.g. funding);
//! 2. the fault phase: [`FAULT_TICKS`] ticks of client traffic while a
//!    pre-generated fault schedule fires (and, on a sharded cluster, a
//!    snapshot-first shard move onto a standby joiner on even seeds);
//! 3. the forced heal and the converge loop: every shard has a
//!    leader all its members agree on, has decided a fresh probe write,
//!    and its members hold identical state machines; the workload has
//!    [`settled`](Workload::settled);
//! 4. the audit: no session table ahead of what its clients issued, then
//!    the workload's own [`audit`](Workload::audit).
//!
//! After every tick the driver checks **verdict stability**: a node may
//! report an applied `(shard, client, seq)` again (a retransmit replays
//! the cached verdict) but never with a different value, which would mean
//! the op re-executed. Faults, phases and the final statistics go into a
//! trace whose fingerprint is the run's identity.

use crate::kv_chaos::Sessions;
use crate::monitor::{breach, Breach};
use crate::nemesis::{Nemesis, Servers};
use crate::read_chaos::Reads;
use crate::schedule::{generate_kv, Fault, ScheduledFault, HEAL};
use crate::trace::{fingerprint, ChaosReport, Counters, TraceEvent, Violation};
use crate::txn_chaos::Bank;
use crate::NodeId;
use kvstore::{
    shard_config, shard_of_key, KvCommand, KvNode, KvOp, KvResult, ReadMode, ShardedKvNode,
    TXN_CLIENT_FLAG,
};
use omnipaxos::service::{OmniPaxosServer, ServerConfig, ServiceMsg};
use omnipaxos::{FaultyStorage, MemoryStorage, StorageFaultKind};
use simulator::Rng;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Replica storage: in memory, with armable disk failpoints (unarmed, the
/// wrapper is a pass-through).
pub type Store = FaultyStorage<KvCommand, MemoryStorage<KvCommand>>;
pub type Node = ShardedKvNode<Store>;

/// Voting members, pids `1..=VOTERS`.
const VOTERS: usize = 3;
/// The standby joiner's pid.
const JOINER: NodeId = VOTERS as NodeId + 1;
/// Ticks of the fault phase.
pub const FAULT_TICKS: u64 = 1_500;
/// Fault-phase tick at which a planned shard move is proposed.
const MOVE_AT: u64 = 750;
/// Bounds of the calm start and the converge loop.
const CALM_TICKS: u64 = 800;
const CONVERGE_TICKS: u64 = 10_000;
/// The session client of the post-heal probe writes.
const PROBE_CLIENT: u64 = 9;
const PROBE_VALUE: i64 = 777_000;

/// The cluster a workload runs on, and its fault mix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// More than one shard brings a standby joiner (pid 4) that a shard
    /// is moved onto.
    pub shards: usize,
    /// Recovering a live server compacts it instead (see
    /// [`generate_kv`]).
    pub compact: bool,
    /// Disk faults join the mix.
    pub disk: bool,
}

/// What one kv workload adds to the driver: its traffic and its checks.
pub trait Workload {
    fn shape(&self) -> Shape;
    /// `pid`'s service config, before per-shard leader spreading.
    fn config(&self, pid: NodeId) -> ServerConfig {
        ServerConfig::with(pid)
    }
    /// Calm start: called after each fault-free tick `t` (and once at
    /// `t = 0`) until it returns `true`.
    fn ready(&mut self, _t: u64, _cx: &mut Cluster) -> bool {
        true
    }
    /// Client traffic of fault-phase tick `t`.
    fn traffic(&mut self, t: u64, cx: &mut Cluster);
    /// Does node `i`'s clock run fast at tick `t` (one extra tick)?
    fn skew(&self, _t: u64, _i: usize) -> bool {
        false
    }
    /// Check node `i`'s results of one tick.
    fn observe(
        &mut self,
        _i: usize,
        _node: &mut Node,
        _results: &[(u32, KvResult)],
        _stats: &mut Counters,
    ) -> Result<(), Breach> {
        Ok(())
    }
    /// Node `pid` restarted from its storage (crash or disk halt).
    fn recovered(&mut self, _pid: NodeId) {}
    /// Convergence beyond the driver's; `Err` says what is outstanding.
    fn settled(&self, _cx: &Cluster) -> Result<(), String> {
        Ok(())
    }
    /// Final checks, once the cluster converged and decided the probes.
    fn audit(&mut self, _cx: &mut Cluster) -> Result<(), Breach> {
        Ok(())
    }
}

/// The cluster under test, as workloads see it.
pub struct Cluster {
    /// Node `i` has pid `i + 1`.
    pub nodes: Vec<Node>,
    nemesis: Nemesis<ServiceMsg<KvCommand>>,
    /// Client-side randomness, independent of the fault schedule.
    pub rng: Rng,
    pub stats: Counters,
    shards: usize,
    /// Highest seq handed out per `(shard, client)`.
    issued: BTreeMap<(u32, u64), u64>,
}

impl Cluster {
    pub fn live(&self, i: usize) -> bool {
        self.nemesis.live(i as NodeId + 1)
    }

    /// Live nodes claiming leadership of `shard` (under a partition the
    /// deposed and the new leader may both claim).
    pub fn claimants(&self, shard: u32) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.live(i) && self.nodes[i].is_leader(shard))
            .collect()
    }

    /// The first live node claiming leadership of `shard`.
    pub fn leader(&self, shard: u32) -> Option<usize> {
        self.claimants(shard).first().copied()
    }

    /// The next session seq of `client` on `shard`. Every session command
    /// takes its seq here, so the audit knows what each client issued.
    pub fn issue(&mut self, shard: u32, client: u64) -> u64 {
        let seq = self.issued.entry((shard, client)).or_default();
        *seq += 1;
        *seq
    }

    pub fn node(&self, pid: NodeId) -> &Node {
        &self.nodes[(pid - 1) as usize]
    }

    /// The membership of `shard` as the cluster itself reports it (via
    /// the shard's current leader).
    pub fn membership(&self, shard: u32) -> Vec<NodeId> {
        (self.nodes.iter())
            .find(|n| n.is_leader(shard))
            .map(|n| n.shard(shard).server_ref().nodes().to_vec())
            .unwrap_or_default()
    }

    /// Every shard has a leader, routing has converged — every member's
    /// view of the shard's leader is the same non-zero node — and all
    /// members hold identical state machines (map, sessions and txn
    /// state). Non-members (a donor after a move, an unused joiner) are
    /// out of the shard's routing domain and are not consulted.
    fn converged(&self) -> bool {
        (0..self.shards as u32).all(|s| {
            let members = self.membership(s);
            let views: HashSet<NodeId> =
                members.iter().map(|&p| self.node(p).leader_of(s)).collect();
            !members.is_empty()
                && views.len() == 1
                && !views.contains(&0)
                && self.probed(members[0], s)
                && (members[1..].iter()).all(|&p| {
                    self.node(p).shard(s).state_machine()
                        == self.node(members[0]).shard(s).state_machine()
                })
        })
    }

    /// Has `pid` applied the post-heal probe write of `shard`?
    fn probed(&self, pid: NodeId, shard: u32) -> bool {
        let key = probe_key(shard, self.shards);
        self.node(pid).read_local(&key) == Some(PROBE_VALUE + shard as i64)
    }

    /// One line per shard for the did-not-converge error.
    fn diagnose(&self) -> String {
        (0..self.shards as u32)
            .map(|s| {
                let members = self.membership(s);
                let views: Vec<NodeId> =
                    members.iter().map(|&p| self.node(p).leader_of(s)).collect();
                let probed: Vec<bool> = members.iter().map(|&p| self.probed(p, s)).collect();
                format!("shard {s}: members {members:?} leader views {views:?} probed {probed:?}")
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Has any of `node`'s shards fail-stopped on a storage error?
fn halted(node: &Node) -> bool {
    (0..node.n_shards() as u32).any(|s| node.shard(s).server_ref().is_halted())
}

/// The servers as a fault sees them.
struct Fleet<'a> {
    nodes: &'a mut [Node],
    w: &'a mut dyn Workload,
    stats: &'a mut Counters,
    /// The shard a compaction or disk fault hits.
    shard: u32,
}

impl Fleet<'_> {
    fn node(&mut self, pid: NodeId) -> &mut Node {
        &mut self.nodes[(pid - 1) as usize]
    }
}

impl Servers for Fleet<'_> {
    /// Leader-relative faults pivot on shard 0's leader.
    fn leader(&self, crashed: &BTreeSet<NodeId>) -> Option<NodeId> {
        (self.nodes.iter())
            .find(|n| !crashed.contains(&n.pid()) && n.is_leader(0))
            .map(|n| n.pid())
    }

    fn reconnected(&mut self, pid: NodeId, peer: NodeId) {
        self.node(pid).reconnected(peer);
    }

    fn recover(&mut self, pid: NodeId) {
        self.node(pid).fail_recovery();
        self.w.recovered(pid);
    }

    fn is_halted(&self, pid: NodeId) -> bool {
        halted(&self.nodes[(pid - 1) as usize])
    }

    fn compact(&mut self, pid: NodeId) -> String {
        let s = self.shard;
        match self.node(pid).compact(s) {
            Ok(upto) => format!("shard {s} upto={upto}"),
            Err(_) => format!("shard {s} (nothing to trim)"),
        }
    }

    fn arm_disk(&mut self, pid: NodeId, kind: StorageFaultKind) -> Option<String> {
        let s = self.shard;
        let Some(omni) = self.node(pid).shard_mut(s).server().omni() else {
            return Some(format!(" shard {s} (not a member)"));
        };
        omni.sequence_paxos().storage().arm(kind);
        self.stats.add("disk_faults", 1);
        Some(format!(" shard {s}"))
    }
}

struct Driver {
    w: Box<dyn Workload>,
    cx: Cluster,
    seed: u64,
    /// The tick being run.
    t: u64,
    trace: Vec<TraceEvent>,
    /// Per node: the verdict of each applied `(shard, client, seq)`.
    verdicts: Vec<BTreeMap<(u32, u64, u64), Option<i64>>>,
}

/// The keys `{prefix}0`, `{prefix}1`, … that hash to shard `s`.
pub fn keys_of(prefix: &str, s: u32, shards: usize) -> impl Iterator<Item = String> + '_ {
    (0..)
        .map(move |i| format!("{prefix}{i}"))
        .filter(move |k| shard_of_key(k, shards) == s)
}

/// A key of shard `s` that no workload writes.
fn probe_key(s: u32, shards: usize) -> String {
    keys_of("probe", s, shards)
        .next()
        .expect("some key hashes to every shard")
}

impl Driver {
    fn phase(&mut self, desc: String) {
        self.trace.push(TraceEvent::Phase { tick: self.t, desc });
    }

    /// Fire one fault at the current tick and trace its resolved form.
    fn fire(&mut self, fault: &Fault) {
        let Cluster {
            nodes,
            nemesis,
            stats,
            shards,
            ..
        } = &mut self.cx;
        // Drawn from the seed and the tick, so a fault lands on the same
        // shard however much of the schedule around it a minimizer drops.
        let salt = self.seed ^ self.t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut fleet = Fleet {
            nodes,
            w: &mut *self.w,
            stats,
            shard: Rng::seed_from_u64(salt).below(*shards as u64) as u32,
        };
        let desc = nemesis.fire(fault, &mut fleet);
        self.trace.push(TraceEvent::Fault { tick: self.t, desc });
    }

    /// Run tick `self.t`: deliver, tick every live node, send what it
    /// queued, and check its results.
    fn step(&mut self) -> Result<(), Breach> {
        let t = self.t;
        let Cluster {
            nodes,
            nemesis,
            stats,
            ..
        } = &mut self.cx;
        nemesis.deliver(t, |src, dst, msg| {
            nodes[(dst - 1) as usize].handle(src, msg)
        });
        for (i, node) in nodes.iter_mut().enumerate() {
            let pid = i as NodeId + 1;
            let out = node.outgoing();
            if !nemesis.live(pid) {
                continue; // a down server sends nothing; backlog discarded
            }
            node.tick();
            if self.w.skew(t, i) {
                node.tick();
            }
            for (to, msg) in out {
                let bytes = msg.size_bytes();
                nemesis.net.send(pid, to, bytes, msg);
            }
            let results = node.take_results();
            for (shard, r) in &results {
                // Coordinator-issued records are outside the session
                // table (idempotent by txn id, seqs private to each
                // coordinator incarnation), so only session clients
                // carry the invariant.
                if !r.applied || r.client & TXN_CLIENT_FLAG != 0 {
                    continue;
                }
                match self.verdicts[i].insert((*shard, r.client, r.seq), r.value) {
                    None => stats.add("applied", 1),
                    Some(prev) if prev != r.value => {
                        return breach(
                            "verdict-stability",
                            format!(
                                "node {pid} shard {shard} reported ({}, {}) applied with \
                                 {prev:?}, then {:?}",
                                r.client, r.seq, r.value
                            ),
                        );
                    }
                    Some(_) => {}
                }
            }
            self.w.observe(i, node, &results, stats)?;
        }
        Ok(())
    }

    /// One post-heal tick. Faults stop at the heal, so a failpoint armed
    /// late that fires only now is answered by an immediate restart.
    fn settle_tick(&mut self) -> Result<(), Breach> {
        self.t += 1;
        if self.cx.nodes.iter().any(halted) {
            self.fire(&Fault::RecoverAll);
        }
        self.step()
    }

    /// Snapshot-first shard move: the donors compact the shard, then its
    /// leader proposes the membership with the joiner replacing the donor.
    /// Every other shard keeps its faults and traffic.
    fn move_shard(&mut self, shard: u32, donor: NodeId) {
        let mut members: Vec<NodeId> = (1..JOINER).filter(|&p| p != donor).collect();
        members.push(JOINER);
        for i in 0..VOTERS {
            if self.cx.live(i) {
                let _ = self.cx.nodes[i].compact(shard);
            }
        }
        // Whether the move lands is the cluster's call (a crashed leader
        // may legally lose the proposal): the audit reads it back from
        // the final membership.
        let via = self.cx.leader(shard);
        if let Some(li) = via {
            let _ = self.cx.nodes[li].reconfigure(shard, members.clone());
        }
        self.phase(format!("move shard {shard} to {members:?} via {via:?}"));
    }

    /// No session table on any node runs ahead of what its client issued.
    fn check_sessions(&self) -> Result<(), Breach> {
        for n in &self.cx.nodes {
            for s in 0..self.cx.shards as u32 {
                let ahead = (n.shard(s).state_machine().sessions().iter())
                    .map(|(&c, e)| (c, e.seq, self.cx.issued.get(&(s, c)).copied().unwrap_or(0)))
                    .filter(|&(_, seq, issued)| seq > issued)
                    .min();
                if let Some((client, seq, issued)) = ahead {
                    return breach(
                        "sessions",
                        format!(
                            "shard {s} session table ahead of reality on node {}: client \
                             {client} at seq {seq}, only {issued} issued",
                            n.pid()
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    fn run(&mut self, schedule: &[ScheduledFault]) -> Result<(), Breach> {
        let shape = self.w.shape();
        while !self.w.ready(self.t, &mut self.cx) {
            if self.t == CALM_TICKS {
                return breach("setup", "workload not ready in a calm cluster".into());
            }
            self.t += 1;
            self.step()?;
        }
        let t0 = self.t;
        self.phase("faults".into());
        // A joiner gets one shard, from a seeded donor, on even seeds.
        let plan = (shape.shards > 1 && self.seed.is_multiple_of(2)).then(|| {
            let shard = (self.seed / 2 % shape.shards as u64) as u32;
            (shard, 1 + (self.seed / 8 % VOTERS as u64) as NodeId)
        });
        let mut due = schedule.iter().peekable();
        for rel in 1..=FAULT_TICKS {
            self.t = t0 + rel;
            while let Some(f) = due.next_if(|f| f.at_tick <= rel) {
                self.fire(&f.fault);
            }
            if let (MOVE_AT, Some((shard, donor))) = (rel, plan) {
                self.move_shard(shard, donor);
            }
            self.w.traffic(self.t, &mut self.cx);
            self.step()?;
        }

        for fault in HEAL {
            self.fire(&fault);
        }
        self.phase("forced heal".into());
        // No shard lost: a fresh probe write per shard must decide at every
        // member of the shard's (possibly moved) membership, (re)submitted
        // to the current leader like a retrying client — a leader may
        // accept a proposal and lose leadership before replicating it.
        let shards = self.cx.shards as u32;
        let probes: Vec<KvCommand> = (0..shards)
            .map(|s| KvCommand {
                client: PROBE_CLIENT,
                seq: self.cx.issue(s, PROBE_CLIENT),
                op: KvOp::Put {
                    key: probe_key(s, shards as usize),
                    value: PROBE_VALUE + s as i64,
                },
            })
            .collect();
        let healed = self.t;
        loop {
            if self.t - healed == CONVERGE_TICKS {
                let outstanding = self.w.settled(&self.cx).err().unwrap_or_default();
                return breach(
                    "convergence",
                    format!(
                        "no convergence {CONVERGE_TICKS} ticks after the heal: {}; {outstanding}",
                        self.cx.diagnose()
                    ),
                );
            }
            if (self.t - healed).is_multiple_of(100) {
                for (s, cmd) in (0..shards).zip(&probes) {
                    if let Some(li) = self.cx.leader(s) {
                        let _ = self.cx.nodes[li].submit_batch(s, [cmd.clone()]);
                    }
                }
            }
            self.settle_tick()?;
            if (self.t - healed).is_multiple_of(16)
                && self.cx.converged()
                && self.w.settled(&self.cx).is_ok()
            {
                break;
            }
        }
        self.cx.stats.add("converge_ticks", self.t - healed);
        self.phase(format!("converged in {} ticks", self.t - healed));

        self.check_sessions()?;
        if let Some((shard, _)) = plan {
            if (self.cx.membership(shard)).contains(&JOINER) {
                self.cx.stats.add("moves", 1);
            }
        }
        self.w.audit(&mut self.cx)
    }
}

/// Build `w`'s cluster and run it under `schedule` (fault-phase ticks).
/// The replay and minimization entry point of every kv workload.
pub fn run(w: Box<dyn Workload>, seed: u64, schedule: &[ScheduledFault]) -> ChaosReport {
    let shape = w.shape();
    let voters: Vec<NodeId> = (1..JOINER).collect();
    let joiner = (shape.shards > 1).then_some(JOINER);
    let all: Vec<NodeId> = voters.iter().copied().chain(joiner).collect();
    let nodes: Vec<Node> = (all.iter())
        .map(|&pid| {
            let shards = (0..shape.shards as u32).map(|s| {
                KvNode::from_server(if voters.contains(&pid) {
                    let cfg = shard_config(&w.config(pid), s, &voters);
                    OmniPaxosServer::with_storage(cfg, voters.clone(), Store::default())
                } else {
                    OmniPaxosServer::new_joiner(w.config(pid))
                })
            });
            ShardedKvNode::from_shards(shards.collect())
        })
        .collect();
    let mut d = Driver {
        cx: Cluster {
            nemesis: Nemesis::new(all.clone(), voters, seed),
            rng: Rng::seed_from_u64(seed ^ 0x5E55_10D5),
            stats: Counters::default(),
            shards: shape.shards,
            issued: BTreeMap::new(),
            nodes,
        },
        verdicts: vec![BTreeMap::new(); all.len()],
        w,
        seed,
        t: 0,
        trace: vec![TraceEvent::Phase {
            tick: 0,
            desc: format!("start seed={seed} {shape:?}"),
        }],
    };
    let violation = d.run(schedule).err().map(|b| {
        let desc = format!("[{}] {}", b.invariant, b.detail);
        d.trace.push(TraceEvent::Violation { tick: d.t, desc });
        Violation {
            tick: d.t,
            invariant: b.invariant.to_string(),
            detail: b.detail,
        }
    });
    let stats = d.cx.stats;
    d.trace.push(TraceEvent::Phase {
        tick: d.t,
        desc: format!("stats {stats}"),
    });
    ChaosReport {
        header: format!("shape: {shape:?}\n"),
        seed,
        schedule: schedule.to_vec(),
        fingerprint: fingerprint(&d.trace),
        trace: d.trace,
        violation,
        stats,
    }
}

/// One kv workload as the CLI sweeps it.
#[derive(Clone, Copy)]
pub struct KvWorkload {
    /// The sweep's label.
    pub name: &'static str,
    /// Tag of its trace files.
    pub slug: &'static str,
    /// The CLI flag that sweeps it.
    pub flag: &'static str,
    /// The statistics its sweep summary shows.
    pub headline: &'static [&'static str],
    build: fn(u64) -> Box<dyn Workload>,
}

/// Every kv workload, in sweep order.
pub const KV_WORKLOADS: [KvWorkload; 6] = [
    KvWorkload {
        name: "kv store (sessions)",
        slug: "kv",
        flag: "--kv-seeds",
        headline: &["applied"],
        build: |_| Box::new(Sessions::new(1)),
    },
    KvWorkload {
        name: "read modes [log]",
        slug: "read-log",
        flag: "--read-seeds",
        headline: &["reads_served"],
        build: |seed| Box::new(Reads::new(ReadMode::Log, seed)),
    },
    KvWorkload {
        name: "read modes [lease]",
        slug: "read-lease",
        flag: "--read-seeds",
        headline: &["reads_served"],
        build: |seed| Box::new(Reads::new(ReadMode::Lease, seed)),
    },
    KvWorkload {
        name: "read modes [read-index]",
        slug: "read-index",
        flag: "--read-seeds",
        headline: &["reads_served"],
        build: |seed| Box::new(Reads::new(ReadMode::ReadIndex, seed)),
    },
    KvWorkload {
        name: "sharded kv (multi-group)",
        slug: "shard",
        flag: "--shard-seeds",
        headline: &["moves"],
        build: |_| Box::new(Sessions::new(4)),
    },
    KvWorkload {
        name: "cross-shard txns (2pc)",
        slug: "txn",
        flag: "--txn-seeds",
        headline: &["committed", "aborted_overdrawn", "aborted_other"],
        build: |_| Box::new(Bank::default()),
    },
];

impl KvWorkload {
    /// Generate this workload's schedule for `seed` and run it.
    pub fn run(self, seed: u64) -> ChaosReport {
        let shape = (self.build)(seed).shape();
        let schedule = generate_kv(seed, VOTERS, FAULT_TICKS, shape.compact, shape.disk);
        self.run_schedule(seed, &schedule)
    }

    /// Replay one specific schedule.
    pub fn run_schedule(self, seed: u64, schedule: &[ScheduledFault]) -> ChaosReport {
        let mut report = run((self.build)(seed), seed, schedule);
        report.header = format!(
            "workload: {}\nreplay: chaos {} 1 --base-seed {seed}\n{}",
            self.name, self.flag, report.header
        );
        report
    }
}
