//! The transport abstraction: one trait, two backends.
//!
//! [`NetworkLink`] is the narrow waist between the replica drivers (the
//! cluster runner, the kv server) and the bytes underneath. The simulator
//! backend ([`SimHub`]/[`SimLink`]) keeps every deterministic test exactly
//! as deterministic as before; the TCP backend (`tcp::TcpTransport`) runs
//! the same replica code over real sockets. The paper's session-based
//! FIFO links (§4.1.3) surface here as [`LinkEvent::SessionEstablished`] /
//! [`LinkEvent::SessionDropped`]: a dropped session means messages may
//! have been lost, so the replica must re-sync state (`PrepareReq`).

use omnipaxos::NodeId;
use simulator::{Network, NetworkConfig, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::Instant;

/// Anything a link can hand the replica driver.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent<M> {
    /// A message arrived from `from`.
    Message { from: NodeId, msg: M },
    /// A new session to `peer` is live. Messages flow FIFO within it.
    /// Replicas use this to trigger `reconnected()` → `PrepareReq`
    /// re-sync, since anything sent in the previous session may be lost.
    SessionEstablished { peer: NodeId, session: u64 },
    /// The session to `peer` died (socket error, heartbeat timeout, or a
    /// simulated cut). In-flight messages may be lost.
    SessionDropped { peer: NodeId, session: u64 },
}

/// Transport-level counters, for benches and assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkCounters {
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    /// Sends attempted while no session to the destination was up.
    pub send_drops: u64,
    /// Intact frames dropped for forward-compat reasons (unknown kind,
    /// unknown version, undecodable payload) — counted, never fatal.
    pub frames_dropped: u64,
    pub sessions_established: u64,
    pub sessions_dropped: u64,
    pub reconnect_attempts: u64,
    /// Coalesced writes issued by session writers: each batch is one
    /// `write_all` covering `writer_frames / writer_batches` frames on
    /// average. A simulated link has no writer, so these stay zero there.
    pub writer_batches: u64,
    /// Frames carried by those coalesced writes.
    pub writer_frames: u64,
    /// Payload bytes carried by those coalesced writes (excludes
    /// heartbeats, which have their own counters below).
    pub writer_bytes: u64,
    /// Idle-keepalive HEARTBEAT frames actually emitted.
    pub heartbeats_sent: u64,
    /// Heartbeat cadence points skipped because real traffic within the
    /// interval already proved the link alive.
    pub heartbeats_suppressed: u64,
}

/// Byte accounting for messages entering a link. The simulator needs a
/// size to model NIC serialization; implementors reuse their existing
/// `size_bytes` models.
pub trait MsgSize {
    fn size_bytes(&self) -> usize;
}

impl<T: omnipaxos::Entry> MsgSize for omnipaxos::ServiceMsg<T> {
    fn size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

/// Lock `m`, recovering from poison. Reader and session threads die on
/// connection errors by design; a panic in one (a bug, but survivable)
/// must degrade to a dropped session, not take the whole transport down
/// with it. Every guarded structure here (queues, peer table, session
/// numbers) stays consistent under poison: each critical section completes
/// its updates or none matter beyond a lost message.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Who signalled a drive loop's [`Waker`]; indexes its per-source counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// The replication link queued messages or session events.
    Link = 0,
    /// A gateway connection queued client requests.
    Gateway = 1,
    /// A `ServerHandle` call was posted.
    Control = 2,
}

#[derive(Default)]
struct WakerInner {
    /// Set by producers, cleared by the loop *before* it drains its
    /// queues — so anything queued after the drain finds the flag clear,
    /// sets it, and the loop's next wait returns at once.
    signaled: AtomicBool,
    /// The thread running the loop, unparked by the signal that sets the
    /// flag (later ones find it set and skip the lock and the syscall).
    sleeper: Mutex<Option<Thread>>,
    wakes: [AtomicU64; 3],
}

/// The one thing a server's drive loop sleeps on. Producers (socket
/// reader threads, control handles) call [`Waker::wake`] *after* queueing
/// their work; the loop clears the flag, drains every queue, and only
/// then parks — a wake can be early, never lost.
#[derive(Clone, Default)]
pub struct Waker(Arc<WakerInner>);

impl Waker {
    /// Signal the loop. Cheap when it is already signalled.
    pub fn wake(&self, source: WakeSource) {
        self.0.wakes[source as usize].fetch_add(1, Ordering::Relaxed);
        if !self.0.signaled.swap(true, Ordering::SeqCst) {
            // An unpark that lands before the loop parks is kept as the
            // thread's token: that park returns at once.
            if let Some(t) = &*lock_unpoisoned(&self.0.sleeper) {
                t.unpark();
            }
        }
    }

    /// Signals sent so far, indexed by [`WakeSource`].
    pub fn wakes(&self) -> [u64; 3] {
        [0, 1, 2].map(|i| self.0.wakes[i].load(Ordering::Relaxed))
    }

    /// Loop side: the calling thread is the one that will wait.
    pub(crate) fn attach(&self) {
        *lock_unpoisoned(&self.0.sleeper) = Some(std::thread::current());
    }

    /// Loop side: forget earlier signals. Call before draining.
    pub(crate) fn clear(&self) {
        self.0.signaled.store(false, Ordering::SeqCst);
    }

    /// Loop side: park until signalled or `deadline`. Returns whether a
    /// signal (rather than the deadline) ended the wait. A leftover token
    /// or a spurious unpark only goes round the flag check again.
    pub(crate) fn wait_until(&self, deadline: Instant) -> bool {
        while !self.0.signaled.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            std::thread::park_timeout(left);
        }
        true
    }
}

struct InboxState<T> {
    items: Vec<T>,
    waker: Option<Waker>,
    closed: bool,
}

/// A many-producers, one-drive-loop queue: a producer hands over a whole
/// burst under one lock and signals the loop's [`Waker`] once.
pub(crate) struct Inbox<T> {
    source: WakeSource,
    state: Mutex<InboxState<T>>,
}

impl<T> Inbox<T> {
    pub(crate) fn new(source: WakeSource) -> Self {
        Inbox {
            source,
            state: Mutex::new(InboxState {
                items: Vec::new(),
                waker: None,
                closed: false,
            }),
        }
    }

    /// Queue `items` and wake the loop (no-op for an empty burst; a
    /// closed inbox drops them).
    pub(crate) fn push(&self, items: impl IntoIterator<Item = T>) {
        let mut state = lock_unpoisoned(&self.state);
        if state.closed {
            return;
        }
        let before = state.items.len();
        state.items.extend(items);
        if state.items.len() > before {
            if let Some(w) = &state.waker {
                w.wake(self.source);
            }
        }
    }

    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut lock_unpoisoned(&self.state).items)
    }

    /// Install the loop's waker. Items already queued need no signal: a
    /// drive loop always drains before it first waits.
    pub(crate) fn set_waker(&self, waker: Waker) {
        lock_unpoisoned(&self.state).waker = Some(waker);
    }

    /// Nobody will drain any more: hand back what is queued and drop
    /// whatever is pushed from now on, until [`Inbox::reopen`].
    pub(crate) fn close(&self) -> Vec<T> {
        let mut state = lock_unpoisoned(&self.state);
        state.closed = true;
        std::mem::take(&mut state.items)
    }

    pub(crate) fn reopen(&self) {
        lock_unpoisoned(&self.state).closed = false;
    }
}

/// A node's handle onto the network, simulated or real.
///
/// The contract both backends honor:
/// - `send` is fire-and-forget; without an established session the
///   message is dropped and counted (`send_drops`), like UDP to a dead
///   host. Replication protocols already tolerate loss.
/// - `poll` drains everything currently deliverable, in order. Within a
///   session, messages from one peer arrive FIFO.
/// - Session numbers per peer pair are monotonically increasing for the
///   lifetime of the pair (across reconnects).
pub trait NetworkLink<M>: Send {
    /// This node's id.
    fn pid(&self) -> NodeId;
    /// Queue `msg` for delivery to `to`.
    fn send(&mut self, to: NodeId, msg: M);
    /// Drain pending events (messages + session changes), in order.
    fn poll(&mut self) -> Vec<LinkEvent<M>>;
    /// Current counters snapshot.
    fn counters(&self) -> LinkCounters;
    /// Install the drive loop's [`Waker`]: a backend whose events arrive
    /// on other threads signals it after queueing each burst. The default
    /// ignores it — a simulated link only changes under its driver's own
    /// hands, so there is nothing to wake for.
    fn set_waker(&mut self, _waker: Waker) {}
}

struct HubState<M> {
    net: Network<M>,
    /// Delivered-but-not-polled events, per node.
    ready: HashMap<NodeId, VecDeque<LinkEvent<M>>>,
    /// Session number per unordered pair, bumped on every establish.
    sessions: HashMap<(NodeId, NodeId), u64>,
    counters: HashMap<NodeId, LinkCounters>,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// The deterministic backend: wraps the discrete-event [`Network`] and
/// fans its deliveries out to per-node [`SimLink`] handles.
///
/// Time does not advance on its own — the driving loop calls
/// [`SimHub::drain_due`] with each tick deadline, which moves every due
/// delivery into its destination's ready queue. `cut`/`heal` flip link
/// state and synthesize the session events a real transport would emit,
/// so session-driven recovery logic is testable without sockets.
pub struct SimHub<M> {
    state: Arc<Mutex<HubState<M>>>,
}

impl<M> Clone for SimHub<M> {
    fn clone(&self) -> Self {
        SimHub {
            state: Arc::clone(&self.state),
        }
    }
}

impl<M: MsgSize> SimHub<M> {
    pub fn new(config: NetworkConfig) -> Self {
        let nodes = config.nodes.clone();
        let mut state = HubState {
            net: Network::new(config),
            ready: HashMap::new(),
            sessions: HashMap::new(),
            counters: HashMap::new(),
        };
        // Every pair starts connected: session 1 for all, established
        // silently (replicas treat boot as already-connected, matching
        // the pre-transport simulator semantics).
        for (i, &a) in nodes.iter().enumerate() {
            state.ready.entry(a).or_default();
            state.counters.entry(a).or_default();
            for &b in &nodes[i + 1..] {
                state.sessions.insert(pair(a, b), 1);
            }
        }
        SimHub {
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// A node's handle. One per node; handles share the hub.
    pub fn link(&self, pid: NodeId) -> SimLink<M> {
        SimLink {
            hub: self.clone(),
            pid,
        }
    }

    /// Move every delivery due by `deadline` into its destination's ready
    /// queue (in global delivery order), then advance time to `deadline`.
    pub fn drain_due(&self, deadline: SimTime) {
        let mut s = self.state.lock().unwrap();
        while let Some(d) = s.net.pop_next_before(deadline) {
            let c = s.counters.entry(d.dst).or_default();
            c.msgs_received += 1;
            s.ready
                .entry(d.dst)
                .or_default()
                .push_back(LinkEvent::Message {
                    from: d.src,
                    msg: d.msg,
                });
        }
        s.net.advance_to(deadline);
    }

    /// Cut the link between `a` and `b` (both directions). If it was up,
    /// both sides get a `SessionDropped` for the current session.
    pub fn cut(&self, a: NodeId, b: NodeId) {
        let mut s = self.state.lock().unwrap();
        if s.net.links_mut().set_link(a, b, false) {
            let session = *s.sessions.get(&pair(a, b)).unwrap_or(&1);
            for (me, peer) in [(a, b), (b, a)] {
                s.counters.entry(me).or_default().sessions_dropped += 1;
                s.ready
                    .entry(me)
                    .or_default()
                    .push_back(LinkEvent::SessionDropped { peer, session });
            }
        }
    }

    /// Heal the link between `a` and `b`. If it was down, a new session
    /// (previous + 1) is established and both sides are told.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut s = self.state.lock().unwrap();
        if s.net.links_mut().set_link(a, b, true) {
            let session = {
                let e = s.sessions.entry(pair(a, b)).or_insert(0);
                *e += 1;
                *e
            };
            for (me, peer) in [(a, b), (b, a)] {
                s.counters.entry(me).or_default().sessions_established += 1;
                s.ready
                    .entry(me)
                    .or_default()
                    .push_back(LinkEvent::SessionEstablished { peer, session });
            }
        }
    }

    /// Drop queued in-flight traffic between a pair — what a real
    /// connection teardown does to its socket buffers.
    pub fn drop_in_flight_between(&self, a: NodeId, b: NodeId) {
        self.state.lock().unwrap().net.drop_in_flight_between(a, b);
    }

    /// Simulate a node crash: lose its in-flight and undelivered traffic.
    pub fn crash(&self, node: NodeId) {
        let mut s = self.state.lock().unwrap();
        s.net.drop_in_flight_for(node);
        s.ready.entry(node).or_default().clear();
    }

    /// Direct access to the underlying network (stats, link table,
    /// jitter) for drivers that need more than the link API.
    pub fn with_net<R>(&self, f: impl FnOnce(&mut Network<M>) -> R) -> R {
        let mut s = self.state.lock().unwrap();
        f(&mut s.net)
    }
}

/// One node's [`NetworkLink`] onto a [`SimHub`].
pub struct SimLink<M> {
    hub: SimHub<M>,
    pid: NodeId,
}

impl<M: MsgSize + Send> NetworkLink<M> for SimLink<M> {
    fn pid(&self) -> NodeId {
        self.pid
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let mut s = self.hub.state.lock().unwrap();
        let bytes = msg.size_bytes();
        let up = s.net.links().is_up(self.pid, to);
        let c = s.counters.entry(self.pid).or_default();
        if up {
            c.msgs_sent += 1;
            c.bytes_sent += bytes as u64;
        } else {
            c.send_drops += 1;
        }
        // Down links also drop inside `Network::send` (keeping its drop
        // stats accurate); the counter split above mirrors the TCP
        // backend's no-session accounting.
        s.net.send(self.pid, to, bytes, msg);
    }

    fn poll(&mut self) -> Vec<LinkEvent<M>> {
        let mut s = self.hub.state.lock().unwrap();
        s.ready.entry(self.pid).or_default().drain(..).collect()
    }

    fn counters(&self) -> LinkCounters {
        let s = self.hub.state.lock().unwrap();
        s.counters.get(&self.pid).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64);
    impl MsgSize for Ping {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    fn hub() -> SimHub<Ping> {
        SimHub::new(NetworkConfig {
            nodes: vec![1, 2, 3],
            default_latency_us: 1_000,
            jitter_us: 0,
            nic_bytes_per_sec: None,
            priority_bytes: 0,
            seed: 7,
        })
    }

    #[test]
    fn delivery_respects_latency_and_fifo() {
        let hub = hub();
        let mut l1 = hub.link(1);
        let mut l2 = hub.link(2);
        l1.send(2, Ping(1));
        l1.send(2, Ping(2));
        hub.drain_due(500);
        assert!(l2.poll().is_empty(), "nothing due before latency");
        hub.drain_due(2_000);
        let got = l2.poll();
        assert_eq!(
            got,
            vec![
                LinkEvent::Message {
                    from: 1,
                    msg: Ping(1)
                },
                LinkEvent::Message {
                    from: 1,
                    msg: Ping(2)
                },
            ]
        );
        assert_eq!(l1.counters().msgs_sent, 2);
        assert_eq!(l2.counters().msgs_received, 2);
    }

    #[test]
    fn cut_drops_sends_and_heal_bumps_session() {
        let hub = hub();
        let mut l1 = hub.link(1);
        let mut l2 = hub.link(2);
        hub.cut(1, 2);
        assert_eq!(
            l1.poll(),
            vec![LinkEvent::SessionDropped {
                peer: 2,
                session: 1
            }]
        );
        l1.send(2, Ping(9));
        hub.drain_due(10_000);
        assert!(l2
            .poll()
            .iter()
            .all(|e| !matches!(e, LinkEvent::Message { .. })));
        assert_eq!(l1.counters().send_drops, 1);

        hub.heal(1, 2);
        assert_eq!(
            l2.poll(),
            vec![LinkEvent::SessionEstablished {
                peer: 1,
                session: 2
            }]
        );
        // Double heal is a no-op: no duplicate session events.
        hub.heal(1, 2);
        assert!(l2.poll().is_empty());
    }
}
