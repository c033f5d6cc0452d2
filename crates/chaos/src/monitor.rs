//! The invariant monitor: cluster-wide safety checks over observations.
//!
//! The monitor never looks inside a protocol; it only consumes the
//! [`cluster::Replica`] observation hooks (`poll_decided` batches with
//! their absolute base position, retained decided logs, leadership epochs,
//! election audits) and cross-checks them against a global model:
//!
//! * a **position map** `absolute log position → command id`, fed by both
//!   delivered batches and retained-log scans — any two servers that ever
//!   disagree at one position violate uniform agreement (SC2), and a
//!   server whose retained log silently rewrites history collides with
//!   its own earlier reports;
//! * per-server **monotone cursors** — the delivery cursor and the
//!   decided-log length never move backwards, which is exactly "nothing
//!   acknowledged as decided is lost across crash + recovery";
//! * the **proposed set** for validity (SC1);
//! * a **leader-epoch table** `epoch → pid` for at-most-one-leader-per-
//!   epoch (term/view/ballot);
//! * per-server **election audits**, which must be strictly increasing
//!   (the paper's LE3).

use crate::NodeId;
use cluster::Replica;
use std::collections::{HashMap, HashSet};

/// A detected invariant violation: which invariant, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    pub invariant: &'static str,
    pub detail: String,
}

pub(crate) fn breach<T>(invariant: &'static str, detail: String) -> Result<T, Breach> {
    Err(Breach { invariant, detail })
}

/// Cluster-wide invariant state, updated as the harness observes servers.
#[derive(Debug)]
pub struct Monitor {
    /// Global decided history: absolute position → command id.
    positions: HashMap<u64, u64>,
    /// Ids accepted for replication (SC1 ground truth).
    proposed: HashSet<u64>,
    /// Per-server delivery cursor after the last drain.
    cursor: Vec<u64>,
    /// Per-server highest observed decided-log length.
    decided_len: Vec<u64>,
    /// Epoch → the single pid allowed to lead under it.
    epoch_owner: HashMap<(u64, NodeId), NodeId>,
    /// Per-server set of delivered command ids (liveness probes).
    delivered: Vec<HashSet<u64>>,
}

impl Monitor {
    pub fn new(n: usize) -> Self {
        Monitor {
            positions: HashMap::new(),
            proposed: HashSet::new(),
            cursor: vec![0; n],
            decided_len: vec![0; n],
            epoch_owner: HashMap::new(),
            delivered: vec![HashSet::new(); n],
        }
    }

    /// Record a command accepted for replication.
    pub fn on_proposed(&mut self, id: u64) {
        self.proposed.insert(id);
    }

    /// Has server `pid` delivered command `id`?
    pub fn has_delivered(&self, pid: NodeId, id: u64) -> bool {
        self.delivered[(pid - 1) as usize].contains(&id)
    }

    /// Distinct decided log positions observed cluster-wide.
    pub fn decided_positions(&self) -> u64 {
        self.positions.len() as u64
    }

    /// Check one id at one absolute position against the global history.
    fn check_position(&mut self, pid: NodeId, pos: u64, id: u64) -> Result<(), Breach> {
        if !self.proposed.contains(&id) {
            return breach(
                "validity",
                format!("server {pid} decided id {id} at position {pos}, which was never proposed"),
            );
        }
        match self.positions.get(&pos) {
            Some(&prev) if prev != id => breach(
                "prefix-agreement",
                format!("position {pos}: server {pid} decided id {id}, but id {prev} was already decided there"),
            ),
            Some(_) => Ok(()),
            None => {
                self.positions.insert(pos, id);
                Ok(())
            }
        }
    }

    /// Account a drained `poll_decided` batch that started at absolute
    /// position `base`. Call with an empty batch too — the cursor check is
    /// what catches a server whose acknowledged state went backwards.
    pub fn on_decided(&mut self, pid: NodeId, base: u64, ids: &[u64]) -> Result<(), Breach> {
        let i = (pid - 1) as usize;
        if base < self.cursor[i] {
            return breach(
                "durability",
                format!(
                    "server {pid} delivery cursor moved backwards: {} -> {base} \
                     (decided state lost across recovery)",
                    self.cursor[i]
                ),
            );
        }
        for (k, &id) in ids.iter().enumerate() {
            self.check_position(pid, base + k as u64, id)?;
            self.delivered[i].insert(id);
        }
        self.cursor[i] = base + ids.len() as u64;
        Ok(())
    }

    /// Cross-check a server's retained decided log against the global
    /// history, and its length against the monotone floor.
    pub fn scan_retained(&mut self, r: &dyn Replica) -> Result<(), Breach> {
        let pid = r.pid();
        let i = (pid - 1) as usize;
        let (base, ids) = r.decided_log_ids();
        let len = base + ids.len() as u64;
        if len < self.decided_len[i] {
            return breach(
                "durability",
                format!(
                    "server {pid} decided log shrank: {} -> {len} entries",
                    self.decided_len[i]
                ),
            );
        }
        self.decided_len[i] = len;
        for (k, &id) in ids.iter().enumerate() {
            self.check_position(pid, base + k as u64, id)?;
        }
        Ok(())
    }

    /// Check a server's leadership claim and election audit.
    pub fn check_leadership(&mut self, r: &dyn Replica) -> Result<(), Breach> {
        let pid = r.pid();
        if let Some(epoch) = r.leader_epoch() {
            match self.epoch_owner.get(&epoch) {
                Some(&owner) if owner != pid => {
                    return breach(
                        "leader-epoch-uniqueness",
                        format!(
                            "servers {owner} and {pid} both claimed leadership in epoch {epoch:?}"
                        ),
                    );
                }
                Some(_) => {}
                None => {
                    self.epoch_owner.insert(epoch, pid);
                }
            }
        }
        let audit = r.audit_elections();
        for w in audit.windows(2) {
            if w[1] <= w[0] {
                return breach(
                    "election-audit",
                    format!(
                        "server {pid} elected non-increasing ballots: {:?} then {:?} (LE3)",
                        w[0], w[1]
                    ),
                );
            }
        }
        Ok(())
    }
}
