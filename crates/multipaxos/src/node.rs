//! The Multi-Paxos replica: proposer, acceptor and learner collapsed into
//! one node, as deployed implementations do.
//!
//! Slots are decided independently (per-slot Paxos), but commands are only
//! *delivered* in contiguous slot order, as any RSM requires — which is why
//! the paper finds no throughput difference between deciding in parallel
//! and deciding a strictly growing log (§7.1, §9).

use crate::{Bal, Command, NodeId};
use std::collections::HashMap;

/// Fixed framing overhead per message (same size model as the other
/// protocol crates).
pub const HEADER_BYTES: usize = 32;

/// What occupies one slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<C> {
    /// Gap filler proposed by a new leader for undecided holes.
    Noop,
    /// A client command.
    Cmd(C),
}

impl<C: Command> Payload<C> {
    fn size_bytes(&self) -> usize {
        match self {
            Payload::Noop => 0,
            Payload::Cmd(c) => c.size_bytes(),
        }
    }
}

/// The Multi-Paxos message alphabet. `P2a`/`P2b` are batched: FIFO links
/// make cumulative acknowledgement sound, mirroring the pipelining of the
/// other protocols so that the §7.1 comparison is apples-to-apples.
#[derive(Debug, Clone, PartialEq)]
pub enum MpMsg<C> {
    /// Phase 1: establish `ballot`; the receiver replies with everything it
    /// accepted at slots `>= from_slot`.
    P1a { ballot: Bal, from_slot: u64 },
    /// Phase 1 promise with the acceptor's accepted suffix.
    P1b {
        ballot: Bal,
        accepted: Vec<(u64, Bal, Payload<C>)>,
        contig: u64,
    },
    /// Phase 2: accept `entries` (slot, value) under `ballot`;
    /// `decided_upto` piggybacks the leader's decision watermark.
    P2a {
        ballot: Bal,
        entries: Vec<(u64, Payload<C>)>,
        decided_upto: u64,
    },
    /// Cumulative Phase 2 ack: all slots `< contig` are accepted.
    P2b { ballot: Bal, contig: u64 },
    /// Preemption: "I promised `promised`, your ballot is stale." This is
    /// the leader-vote gossip of Table 1.
    Nack { promised: Bal },
    /// Node-liveness heartbeat for the failure detector; also carries the
    /// sender's decision watermark so idle followers converge.
    Ping { ballot: Bal, decided_upto: u64 },
    /// Ask for decided values in `[from_slot, ..)` (gap repair after a
    /// partition).
    CatchupReq { from_slot: u64 },
    /// Decided values starting at `from_slot`.
    CatchupResp {
        from_slot: u64,
        entries: Vec<Payload<C>>,
        decided_upto: u64,
    },
}

impl<C: Command> MpMsg<C> {
    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        let payload = match self {
            MpMsg::P1b { accepted, .. } => {
                accepted.iter().map(|(_, _, p)| 16 + p.size_bytes()).sum()
            }
            MpMsg::P2a { entries, .. } => entries.iter().map(|(_, p)| 8 + p.size_bytes()).sum(),
            MpMsg::CatchupResp { entries, .. } => entries.iter().map(Payload::size_bytes).sum(),
            _ => 0,
        };
        HEADER_BYTES + payload
    }
}

/// Static configuration of a Multi-Paxos node.
#[derive(Debug, Clone)]
pub struct MpConfig {
    /// This server.
    pub pid: NodeId,
    /// All servers (including `pid`).
    pub nodes: Vec<NodeId>,
    /// Heartbeat period in ticks.
    pub ping_ticks: u64,
    /// Suspect the believed leader after this many ticks of silence.
    pub fd_timeout_ticks: u64,
}

impl MpConfig {
    /// Defaults comparable to the other protocols' timing.
    pub fn with(pid: NodeId, nodes: Vec<NodeId>) -> Self {
        assert!(nodes.contains(&pid));
        MpConfig {
            pid,
            nodes,
            ping_ticks: 5,
            fd_timeout_ticks: 20,
        }
    }
}

fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// A Phase 1 promise: the acceptor's accepted suffix plus its contiguous
/// prefix length.
type PromiseState<C> = (Vec<(u64, Bal, Payload<C>)>, u64);

/// A Multi-Paxos replica. Drive with `tick`/`handle`/`outgoing_messages`.
pub struct MpNode<C: Command> {
    config: MpConfig,
    /// Acceptor: promised ballot.
    promised: Bal,
    /// Acceptor: per-slot accepted `(ballot, value)`; `None` is a hole.
    accepted: Vec<Option<(Bal, Payload<C>)>>,
    /// All slots `< contig` hold accepted values.
    contig: u64,
    /// Decision watermark: slots `< decided_upto` are chosen.
    decided_upto: u64,
    /// Delivery cursor for `poll_decided`.
    delivered: u64,
    // Proposer state.
    ballot: Bal,
    /// Phase 1 complete: we are the active leader.
    active: bool,
    /// Phase 1 in progress.
    phase1: bool,
    p1_promises: HashMap<NodeId, PromiseState<C>>,
    /// Cumulative Phase 2 acks per follower.
    p2_contig: HashMap<NodeId, u64>,
    /// Next slot the leader hands to a proposal.
    next_slot: u64,
    /// Entries appended since the last drain (batched into one P2a).
    unsent_from: u64,
    /// Highest ballot observed anywhere: whom we believe leads.
    max_seen: Bal,
    // Failure detector (node liveness).
    last_heard: HashMap<NodeId, u64>,
    now_ticks: u64,
    ping_elapsed: u64,
    /// Decision watermark last broadcast (to piggyback on pings).
    announced_upto: u64,
    outgoing: Vec<(NodeId, MpMsg<C>)>,
    /// Leader changes observed (metrics).
    leader_changes: u64,
}

impl<C: Command> MpNode<C> {
    pub fn new(config: MpConfig) -> Self {
        MpNode {
            promised: Bal::bottom(),
            accepted: Vec::new(),
            contig: 0,
            decided_upto: 0,
            delivered: 0,
            ballot: Bal::new(0, config.pid),
            active: false,
            phase1: false,
            p1_promises: HashMap::new(),
            p2_contig: HashMap::new(),
            next_slot: 0,
            unsent_from: 0,
            max_seen: Bal::bottom(),
            last_heard: HashMap::new(),
            now_ticks: 0,
            ping_elapsed: 0,
            announced_upto: 0,
            outgoing: Vec::new(),
            leader_changes: 0,
            config,
        }
    }

    pub fn pid(&self) -> NodeId {
        self.config.pid
    }

    /// Is this node the active (Phase-1-complete) leader?
    pub fn is_leader(&self) -> bool {
        self.active
    }

    /// The pid this node believes currently leads (0 = unknown).
    pub fn believed_leader(&self) -> NodeId {
        self.max_seen.pid
    }

    /// Slots chosen so far.
    pub fn decided_upto(&self) -> u64 {
        self.decided_upto
    }

    /// Leader changes observed by this node.
    pub fn leader_changes(&self) -> u64 {
        self.leader_changes
    }

    /// The *delivered* decided client commands, in slot order (noop fillers
    /// are skipped, and slots past the first hole are excluded, exactly
    /// like delivery). External invariant checkers compare this against the
    /// history accumulated from [`MpNode::poll_decided`] to detect a
    /// silently rewritten decided prefix.
    pub fn decided_log(&self) -> impl Iterator<Item = &C> {
        self.accepted[..self.delivered as usize]
            .iter()
            .filter_map(|slot| match slot {
                Some((_, Payload::Cmd(c))) => Some(c),
                _ => None,
            })
    }

    /// Our current proposer ballot; when [`MpNode::is_leader`] it is the
    /// ballot this leader's accepts carry (epoch for leader-uniqueness
    /// audits).
    pub fn current_ballot(&self) -> crate::Bal {
        self.ballot
    }

    /// Newly decided client commands, in slot order. Noops are skipped. A
    /// hole (undelivered slot) blocks delivery until repaired — commands
    /// must be executed in order.
    pub fn poll_decided(&mut self) -> Vec<C> {
        let mut out = Vec::new();
        while self.delivered < self.decided_upto {
            match self.accepted.get(self.delivered as usize) {
                Some(Some((_, Payload::Cmd(c)))) => out.push(c.clone()),
                Some(Some((_, Payload::Noop))) => {}
                _ => break, // hole: wait for catch-up
            }
            self.delivered += 1;
        }
        out
    }

    /// Propose a command; fails unless this node is the active leader.
    pub fn propose(&mut self, cmd: C) -> bool {
        if !self.active {
            return false;
        }
        // A stale claimant's slot counter can trail what this node has
        // since accepted or delivered (a recovered ex-leader that caught
        // up via CatchupResp before learning of its successor): chosen
        // slots are immutable, so proposals only ever append past the
        // local log — never overwrite below it.
        let floor = (self.accepted.len() as u64).max(self.decided_upto);
        self.next_slot = self.next_slot.max(floor);
        let slot = self.next_slot;
        self.next_slot += 1;
        self.set_accepted(slot, self.ballot, Payload::Cmd(cmd));
        true
    }

    fn set_accepted(&mut self, slot: u64, b: Bal, v: Payload<C>) {
        if self.accepted.len() as u64 <= slot {
            self.accepted.resize(slot as usize + 1, None);
        }
        self.accepted[slot as usize] = Some((b, v));
        while (self.contig as usize) < self.accepted.len()
            && self.accepted[self.contig as usize].is_some()
        {
            self.contig += 1;
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advance logical time by one tick: heartbeats and failure detection.
    pub fn tick(&mut self) {
        self.now_ticks += 1;
        self.ping_elapsed += 1;
        if self.ping_elapsed >= self.config.ping_ticks {
            self.ping_elapsed = 0;
            let msg = MpMsg::Ping {
                ballot: if self.active {
                    self.ballot
                } else {
                    self.max_seen
                },
                decided_upto: self.decided_upto,
            };
            for &peer in &self.config.nodes.clone() {
                if peer != self.config.pid {
                    self.outgoing.push((peer, msg.clone()));
                }
            }
        }
        // Failure detection on the believed leader's *node* (§2a: this is
        // why the quorum-connected server never campaigns while the stale
        // leader is still reachable).
        if !self.active {
            let leader = self.max_seen.pid;
            let suspect = if leader == 0 || leader == self.config.pid {
                // No leader established (or we believe our own stalled
                // campaign): compete, or retry a stalled Phase 1 with a
                // fresh ballot, after a grace period. The retry matters
                // after a heal — peers follow the highest ballot they
                // hear, which may be ours, so nobody else will campaign.
                self.now_ticks > self.config.fd_timeout_ticks
            } else {
                let heard = self.last_heard.get(&leader).copied().unwrap_or(0);
                self.now_ticks.saturating_sub(heard) > self.config.fd_timeout_ticks
            };
            if suspect {
                self.takeover();
            }
        }
    }

    /// Increment the ballot above everything seen and start Phase 1.
    fn takeover(&mut self) {
        self.ballot = Bal::new(self.max_seen.n.max(self.ballot.n) + 1, self.config.pid);
        self.max_seen = self.ballot;
        self.phase1 = true;
        self.active = false;
        self.p1_promises.clear();
        // Self-promise.
        self.promised = self.promised.max(self.ballot);
        let from_slot = self.decided_upto;
        self.p1_promises.insert(
            self.config.pid,
            (self.accepted_suffix(from_slot), self.contig),
        );
        // Reset the FD so we don't immediately re-suspect mid-election.
        self.now_ticks = 0;
        self.last_heard.clear();
        if self.p1_promises.len() >= majority(self.config.nodes.len()) {
            self.complete_phase1();
            return;
        }
        for &peer in &self.config.nodes.clone() {
            if peer != self.config.pid {
                self.outgoing.push((
                    peer,
                    MpMsg::P1a {
                        ballot: self.ballot,
                        from_slot,
                    },
                ));
            }
        }
    }

    /// Longest prefix this node can cumulatively acknowledge under
    /// `ballot`: decided slots are immutable, but above the decision
    /// watermark only slots accepted at exactly `ballot` count. A prefix
    /// accepted under an older leader may diverge from the current
    /// leader's log, so acking it would let the leader declare slots
    /// chosen that a majority never accepted with its values.
    fn acked_contig(&self, ballot: Bal) -> u64 {
        let mut s = self.decided_upto;
        while let Some(Some((b, _))) = self.accepted.get(s as usize) {
            if *b != ballot {
                break;
            }
            s += 1;
        }
        s
    }

    fn accepted_suffix(&self, from_slot: u64) -> Vec<(u64, Bal, Payload<C>)> {
        self.accepted
            .iter()
            .enumerate()
            .skip(from_slot as usize)
            .filter_map(|(i, s)| s.as_ref().map(|(b, v)| (i as u64, *b, v.clone())))
            .collect()
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Drain outgoing messages, flushing unsent accepted entries first.
    pub fn outgoing_messages(&mut self) -> Vec<(NodeId, MpMsg<C>)> {
        self.flush_p2a();
        std::mem::take(&mut self.outgoing)
    }

    /// Feed one incoming message.
    pub fn handle(&mut self, from: NodeId, msg: MpMsg<C>) {
        self.last_heard.insert(from, self.now_ticks);
        match msg {
            MpMsg::P1a { ballot, from_slot } => self.handle_p1a(from, ballot, from_slot),
            MpMsg::P1b {
                ballot,
                accepted,
                contig,
            } => self.handle_p1b(from, ballot, accepted, contig),
            MpMsg::P2a {
                ballot,
                entries,
                decided_upto,
            } => self.handle_p2a(from, ballot, entries, decided_upto),
            MpMsg::P2b { ballot, contig } => self.handle_p2b(from, ballot, contig),
            MpMsg::Nack { promised } => self.handle_nack(promised),
            MpMsg::Ping {
                ballot,
                decided_upto,
            } => {
                self.observe(ballot);
                if decided_upto > self.decided_upto && ballot >= self.max_seen {
                    self.advance_decided(decided_upto, ballot, from);
                }
            }
            MpMsg::CatchupReq { from_slot } => self.handle_catchup_req(from, from_slot),
            MpMsg::CatchupResp {
                from_slot,
                entries,
                decided_upto,
            } => self.handle_catchup_resp(from_slot, entries, decided_upto),
        }
    }

    fn observe(&mut self, b: Bal) {
        if b > self.max_seen {
            if b.pid != self.max_seen.pid {
                self.leader_changes += 1;
            }
            self.max_seen = b;
        }
    }

    fn handle_p1a(&mut self, from: NodeId, ballot: Bal, from_slot: u64) {
        if ballot > self.promised {
            self.promised = ballot;
            self.observe(ballot);
            if self.active || self.phase1 {
                // Preempted mid-leadership.
                self.active = false;
                self.phase1 = false;
            }
            self.outgoing.push((
                from,
                MpMsg::P1b {
                    ballot,
                    accepted: self.accepted_suffix(from_slot),
                    contig: self.contig,
                },
            ));
        } else {
            self.outgoing.push((
                from,
                MpMsg::Nack {
                    promised: self.promised,
                },
            ));
        }
    }

    fn handle_p1b(
        &mut self,
        from: NodeId,
        ballot: Bal,
        accepted: Vec<(u64, Bal, Payload<C>)>,
        contig: u64,
    ) {
        if !self.phase1 || ballot != self.ballot {
            return;
        }
        self.p1_promises.insert(from, (accepted, contig));
        if self.p1_promises.len() >= majority(self.config.nodes.len()) {
            self.complete_phase1();
        }
    }

    /// Adopt, per slot, the value accepted at the highest ballot among the
    /// majority (Paxos P2c), fill holes with noops, and become active.
    fn complete_phase1(&mut self) {
        self.phase1 = false;
        self.active = true;
        let promises = std::mem::take(&mut self.p1_promises);
        let mut best: HashMap<u64, (Bal, Payload<C>)> = HashMap::new();
        let mut max_slot = self.decided_upto;
        for (_, (suffix, _)) in promises {
            for (slot, b, v) in suffix {
                max_slot = max_slot.max(slot + 1);
                match best.get(&slot) {
                    Some((cur, _)) if *cur >= b => {}
                    _ => {
                        best.insert(slot, (b, v));
                    }
                }
            }
        }
        // Re-propose adopted values (and noops for holes) under our ballot.
        for slot in self.decided_upto..max_slot {
            let v = best.remove(&slot).map(|(_, v)| v).unwrap_or(Payload::Noop);
            self.set_accepted(slot, self.ballot, v);
        }
        self.next_slot = max_slot;
        self.unsent_from = self.decided_upto;
        self.p2_contig.clear();
        // Followers will cumulative-ack from their own contig; we learn it
        // from their first P2b.
    }

    /// Stream accepted-but-unsent slots to all peers in one batch.
    fn flush_p2a(&mut self) {
        if !self.active || self.unsent_from >= self.next_slot {
            if self.active && self.decided_upto > self.announced_upto {
                // Nothing new to send but the watermark moved: announce it.
                self.announced_upto = self.decided_upto;
                let msg = MpMsg::P2a {
                    ballot: self.ballot,
                    entries: Vec::new(),
                    decided_upto: self.decided_upto,
                };
                for &peer in &self.config.nodes.clone() {
                    if peer != self.config.pid {
                        self.outgoing.push((peer, msg.clone()));
                    }
                }
            }
            return;
        }
        let entries: Vec<(u64, Payload<C>)> = (self.unsent_from..self.next_slot)
            .map(|s| {
                let (_, v) = self.accepted[s as usize]
                    .as_ref()
                    .expect("leader log has no holes");
                (s, v.clone())
            })
            .collect();
        self.unsent_from = self.next_slot;
        self.announced_upto = self.decided_upto;
        let msg = MpMsg::P2a {
            ballot: self.ballot,
            entries,
            decided_upto: self.decided_upto,
        };
        for &peer in &self.config.nodes.clone() {
            if peer != self.config.pid {
                self.outgoing.push((peer, msg.clone()));
            }
        }
    }

    fn handle_p2a(
        &mut self,
        from: NodeId,
        ballot: Bal,
        entries: Vec<(u64, Payload<C>)>,
        decided_upto: u64,
    ) {
        if ballot < self.promised {
            self.outgoing.push((
                from,
                MpMsg::Nack {
                    promised: self.promised,
                },
            ));
            return;
        }
        self.promised = ballot;
        self.observe(ballot);
        if (self.active || self.phase1) && ballot.pid != self.config.pid {
            self.active = false;
            self.phase1 = false;
        }
        // Detect a gap: entries that start above our ballot-verified prefix
        // mean we missed traffic (e.g. during a partition) — repair via
        // catch-up from the decision watermark, so stale slots accepted
        // under an older leader get overwritten too, not just holes.
        if let Some((first_slot, _)) = entries.first() {
            if *first_slot > self.acked_contig(ballot) {
                self.outgoing.push((
                    from,
                    MpMsg::CatchupReq {
                        from_slot: self.decided_upto,
                    },
                ));
            }
        }
        for (slot, v) in entries {
            // Slots below the decision watermark hold chosen values:
            // immutable. A stale claimant that paused before losing its
            // ballot can still stream never-chosen proposals at old slots
            // (its ballot equals what we promised long ago) — accepting
            // them would overwrite delivered history.
            if slot < self.decided_upto {
                continue;
            }
            self.set_accepted(slot, ballot, v);
        }
        self.advance_decided(decided_upto, ballot, from);
        self.outgoing.push((
            from,
            MpMsg::P2b {
                ballot,
                contig: self.acked_contig(ballot),
            },
        ));
    }

    fn advance_decided(&mut self, upto: u64, ballot: Bal, from: NodeId) {
        if upto > self.decided_upto {
            // Only slots verified under the announcing leader's ballot may
            // be delivered: a prefix accepted under an older leader can
            // hold values that were never chosen.
            let verified = self.acked_contig(ballot);
            self.decided_upto = upto.min(verified.max(self.decided_upto));
            if upto > self.decided_upto {
                // We are told more is decided than we hold verified: fetch
                // the chosen values (overwriting any stale ones).
                self.outgoing.push((
                    from,
                    MpMsg::CatchupReq {
                        from_slot: self.decided_upto,
                    },
                ));
            }
        }
    }

    fn handle_p2b(&mut self, from: NodeId, ballot: Bal, contig: u64) {
        if !self.active || ballot != self.ballot {
            return;
        }
        let e = self.p2_contig.entry(from).or_insert(0);
        let advanced = contig > *e;
        *e = (*e).max(contig);
        let acked = *e;
        // A follower whose ack stalls below our streamed window diverged or
        // missed traffic (partition, stale-leader prefix): the regular
        // stream only covers `unsent_from..`, so resync it from its ack
        // point — re-accepting under our ballot both repairs stale slots
        // and lets its cumulative ack advance. An ack that advanced is the
        // stream working: the rest of the window is still on the wire.
        if !advanced && acked < self.unsent_from {
            let entries: Vec<(u64, Payload<C>)> = (acked..self.unsent_from)
                .map(|s| {
                    let (_, v) = self.accepted[s as usize]
                        .as_ref()
                        .expect("leader log has no holes");
                    (s, v.clone())
                })
                .collect();
            self.outgoing.push((
                from,
                MpMsg::P2a {
                    ballot: self.ballot,
                    entries,
                    decided_upto: self.decided_upto,
                },
            ));
        }
        // Chosen = the majority-th largest cumulative ack (self counts with
        // its own ballot-verified prefix).
        let mut acks: Vec<u64> = self.p2_contig.values().copied().collect();
        acks.push(self.acked_contig(self.ballot));
        acks.sort_unstable_by(|a, b| b.cmp(a));
        let maj = majority(self.config.nodes.len());
        if acks.len() >= maj {
            let chosen = acks[maj - 1];
            if chosen > self.decided_upto {
                self.decided_upto = chosen;
            }
        }
    }

    fn handle_nack(&mut self, promised: Bal) {
        self.observe(promised);
        if promised > self.ballot && (self.active || self.phase1) {
            // Preempted: become passive and monitor the new leader's node.
            self.active = false;
            self.phase1 = false;
            self.now_ticks = 0; // reset FD grace for the new leader
        }
    }

    fn handle_catchup_req(&mut self, from: NodeId, from_slot: u64) {
        if from_slot >= self.decided_upto {
            return;
        }
        let entries: Vec<Payload<C>> = (from_slot..self.decided_upto)
            .filter_map(|s| {
                self.accepted
                    .get(s as usize)
                    .and_then(|o| o.as_ref())
                    .map(|(_, v)| v.clone())
            })
            .collect();
        if entries.len() as u64 == self.decided_upto - from_slot {
            self.outgoing.push((
                from,
                MpMsg::CatchupResp {
                    from_slot,
                    entries,
                    decided_upto: self.decided_upto,
                },
            ));
        }
    }

    fn handle_catchup_resp(&mut self, from_slot: u64, entries: Vec<Payload<C>>, decided_upto: u64) {
        let fetched_upto = from_slot + entries.len() as u64;
        for (i, v) in entries.into_iter().enumerate() {
            let slot = from_slot + i as u64;
            if slot < self.decided_upto {
                // Already delivered here: immutable (and identical, since
                // both copies are chosen values).
                continue;
            }
            // The responder only ships values below its decision watermark,
            // so they are chosen: adopt them even over a locally accepted
            // value — ours may be a stale leader's never-chosen proposal.
            self.set_accepted(slot, self.promised, v);
        }
        if decided_upto > self.decided_upto {
            // Everything fetched is chosen; beyond that our own prefix is
            // unverified, so don't outrun what the responder sent.
            self.decided_upto = decided_upto
                .min(self.contig)
                .min(fetched_upto.max(self.decided_upto));
        }
    }
}

impl<C: Command> std::fmt::Debug for MpNode<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpNode")
            .field("pid", &self.config.pid)
            .field("ballot", &self.ballot)
            .field("active", &self.active)
            .field("contig", &self.contig)
            .field("decided_upto", &self.decided_upto)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(nodes: &mut [MpNode<u64>], steps: usize) {
        for _ in 0..steps {
            step(nodes, |_, _, _| {});
        }
    }

    /// One lossless round: tick, collect every node's outgoing messages
    /// (showing each to `seen`), deliver them all.
    fn step(nodes: &mut [MpNode<u64>], mut seen: impl FnMut(NodeId, NodeId, &MpMsg<u64>)) {
        for n in nodes.iter_mut() {
            n.tick();
        }
        let mut inbox = Vec::new();
        for n in nodes.iter_mut() {
            let from = n.pid();
            for (to, m) in n.outgoing_messages() {
                seen(from, to, &m);
                inbox.push((from, to, m));
            }
        }
        for (from, to, m) in inbox {
            if let Some(n) = nodes.iter_mut().find(|n| n.pid() == to) {
                n.handle(from, m);
            }
        }
    }

    fn cluster(n: usize) -> Vec<MpNode<u64>> {
        let nodes: Vec<NodeId> = (1..=n as NodeId).collect();
        nodes
            .iter()
            .map(|&p| MpNode::new(MpConfig::with(p, nodes.clone())))
            .collect()
    }

    #[test]
    fn one_active_leader_emerges() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let active: Vec<NodeId> = nodes
            .iter()
            .filter(|n| n.is_leader())
            .map(|n| n.pid())
            .collect();
        assert_eq!(active.len(), 1, "exactly one active leader: {nodes:?}");
    }

    #[test]
    fn decides_in_slot_order() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        for v in 1..=10 {
            assert!(nodes[li].propose(v));
        }
        run(&mut nodes, 50);
        for n in nodes.iter_mut() {
            assert!(n.decided_upto() >= 10, "{n:?}");
            let d = n.poll_decided();
            assert_eq!(d, (1..=10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn takeover_adopts_previously_accepted_values() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        for v in 1..=5 {
            nodes[li].propose(v);
        }
        run(&mut nodes, 50);
        // Force a different node to take over.
        let ti = (li + 1) % 3;
        nodes[ti].takeover();
        run(&mut nodes, 100);
        // All decided values survive the change, in order.
        let mut a = nodes[ti].poll_decided();
        // Drop noops implicitly; the commands must still be 1..=5 prefix.
        a.truncate(5);
        assert_eq!(a, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn noop_fills_holes_after_takeover() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        // Propose but cut delivery so nothing is decided (no run()).
        nodes[li].propose(42);
        // A new leader must still converge: takeover re-proposes.
        let ti = (li + 1) % 3;
        nodes[ti].takeover();
        run(&mut nodes, 100);
        let leader = nodes.iter().position(|n| n.is_leader()).unwrap();
        nodes[leader].propose(43);
        run(&mut nodes, 100);
        let decided: Vec<u64> = nodes[leader].poll_decided();
        assert!(decided.contains(&43));
    }

    #[test]
    fn nack_preempts_stale_leader() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        // Another node takes over with a higher ballot.
        let ti = (li + 1) % 3;
        nodes[ti].takeover();
        run(&mut nodes, 100);
        assert!(
            !nodes[li].is_leader(),
            "old leader must be preempted via Nack gossip"
        );
    }

    /// Streaming with a window wider than one round of acks: every P2b
    /// acks less than the leader has already sent, which is no reason to
    /// resend. Without loss, each slot goes to each follower once.
    #[test]
    fn lossless_streaming_sends_each_slot_once() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        let leader = nodes[li].pid();
        let mut sends: HashMap<(NodeId, u64), u32> = HashMap::new();
        let mut count = |from: NodeId, to: NodeId, m: &MpMsg<u64>| {
            if let (true, MpMsg::P2a { entries, .. }) = (from == leader, m) {
                for (slot, _) in entries {
                    *sends.entry((to, *slot)).or_default() += 1;
                }
            }
        };
        for round in 0..20u64 {
            for v in 0..5 {
                assert!(nodes[li].propose(round * 5 + v));
            }
            step(&mut nodes, &mut count);
        }
        for _ in 0..20 {
            step(&mut nodes, &mut count);
        }
        assert!(nodes.iter().all(|n| n.decided_upto() == 100), "{nodes:?}");
        assert_eq!(sends.len(), 2 * 100, "every slot reached both followers");
        let resent = sends.values().filter(|&&k| k > 1).count();
        assert_eq!(resent, 0, "(follower, slot) pairs sent more than once");
    }

    #[test]
    fn proposals_fail_on_non_leader() {
        let mut nodes = cluster(3);
        run(&mut nodes, 200);
        let fi = nodes.iter().position(|n| !n.is_leader()).unwrap();
        assert!(!nodes[fi].propose(9));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn cluster(n: usize) -> Vec<MpNode<u64>> {
        let nodes: Vec<NodeId> = (1..=n as NodeId).collect();
        nodes
            .iter()
            .map(|&p| MpNode::new(MpConfig::with(p, nodes.clone())))
            .collect()
    }

    fn run_filtered(nodes: &mut [MpNode<u64>], steps: usize, blocked: &[(NodeId, NodeId)]) {
        for _ in 0..steps {
            for n in nodes.iter_mut() {
                n.tick();
            }
            let mut inbox = Vec::new();
            for n in nodes.iter_mut() {
                let from = n.pid();
                for (to, m) in n.outgoing_messages() {
                    inbox.push((from, to, m));
                }
            }
            for (from, to, m) in inbox {
                if blocked.contains(&(from, to)) || blocked.contains(&(to, from)) {
                    continue;
                }
                if let Some(n) = nodes.iter_mut().find(|n| n.pid() == to) {
                    n.handle(from, m);
                }
            }
        }
    }

    #[test]
    fn isolated_follower_catches_up_after_heal() {
        // Fully isolate one follower (partial cuts make it take over
        // through the third node — Multi-Paxos has no leader stickiness),
        // decide entries without it, heal: phase 1 adoption plus catch-up
        // must repair it in order, whoever ends up leading.
        let mut nodes = cluster(3);
        run_filtered(&mut nodes, 200, &[]);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        let leader_pid = nodes[li].pid();
        let victim = (1..=3).find(|&p| p != leader_pid).unwrap();
        let cut: Vec<(NodeId, NodeId)> = (1..=3)
            .filter(|&p| p != victim)
            .map(|p| (victim, p))
            .collect();
        for v in 1..=20 {
            assert!(nodes[li].propose(v), "leader must accept proposals");
        }
        run_filtered(&mut nodes, 100, &cut);
        let vi = nodes.iter().position(|n| n.pid() == victim).unwrap();
        assert_eq!(nodes[vi].decided_upto(), 0, "victim saw nothing");
        run_filtered(&mut nodes, 400, &[]); // healed
        for n in nodes.iter_mut() {
            assert!(n.decided_upto() >= 20, "{n:?} must recover all slots");
            let decided = n.poll_decided();
            assert_eq!(
                &decided[..20],
                &(1..=20).collect::<Vec<u64>>()[..],
                "chosen values survive takeovers, in order"
            );
        }
    }

    #[test]
    fn quorum_loss_shape_deadlocks_multipaxos() {
        // The §2a argument at the unit level: leader connected only to the
        // hub; everyone else only to the hub; nobody can make progress and
        // the hub never campaigns (it still hears the leader's pings).
        let mut nodes = cluster(5);
        run_filtered(&mut nodes, 300, &[]);
        let li = nodes.iter().position(|n| n.is_leader()).unwrap();
        let leader = nodes[li].pid();
        let hub = (1..=5).find(|&p| p != leader).unwrap();
        let mut blocked = Vec::new();
        for a in 1..=5u64 {
            for b in (a + 1)..=5u64 {
                if a != hub && b != hub {
                    blocked.push((a, b));
                }
            }
        }
        let before = nodes[li].decided_upto();
        for v in 1..=5 {
            nodes[li].propose(v + 100);
        }
        run_filtered(&mut nodes, 400, &blocked);
        let hub_i = nodes.iter().position(|n| n.pid() == hub).unwrap();
        assert!(
            !nodes[hub_i].is_leader(),
            "the hub must never campaign while the stale leader pings it"
        );
        assert_eq!(
            nodes[li].decided_upto(),
            before,
            "no progress during quorum loss"
        );
    }
}
