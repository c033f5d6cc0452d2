//! Byte encodings for the kv layer: commands for the WAL and the wire,
//! plus the client-facing request/reply protocol.
//!
//! [`KvCommand`] implements [`WalEncode`], which serves double duty: it
//! makes `WalStorage<KvCommand>` possible (durable kv logs) and it is the
//! entry-type bound the wire codec (`omnipaxos::wire`) needs to ship
//! `ServiceMsg<KvCommand>` between real servers.
//!
//! [`KvWire`] is the client protocol spoken on a server's client port:
//! a request carries a full [`KvCommand`] (the client owns its session
//! numbering, so retries dedup server-side), and the server answers with
//! the applied result, a leader redirect, or a transient retry hint.
//! Discriminants are stable and append-only, like every enum on the wire
//! (see `omnipaxos::messages` for the forward-compatibility rules).

use crate::store::{KvCommand, KvOp, KvResult, ReadMode, TxnGuard, TxnPrepare, TxnSpec, WriteOp};
use omnipaxos::wire::{put_str, BatchCache, Reader, Wire, WireError};
use omnipaxos::{NodeId, WalEncode};

fn put_opt_i64(buf: &mut Vec<u8>, v: &Option<i64>) {
    match v {
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        None => buf.push(0),
    }
}

fn get_opt_i64(r: &mut Reader, what: &'static str) -> Result<Option<i64>, WireError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.i64(what)?)),
        v => Err(WireError::UnknownDiscriminant { what, value: v }),
    }
}

fn put_write(buf: &mut Vec<u8>, w: &WriteOp) {
    match w {
        WriteOp::Put { key, value } => {
            buf.push(0);
            put_str(buf, key);
            buf.extend_from_slice(&value.to_le_bytes());
        }
        WriteOp::Delete { key } => {
            buf.push(1);
            put_str(buf, key);
        }
        WriteOp::Add { key, delta } => {
            buf.push(2);
            put_str(buf, key);
            buf.extend_from_slice(&delta.to_le_bytes());
        }
    }
}

fn get_write(r: &mut Reader) -> Result<WriteOp, WireError> {
    Ok(match r.u8("WriteOp discriminant")? {
        0 => WriteOp::Put {
            key: r.str("WriteOp.key")?,
            value: r.i64("WriteOp.value")?,
        },
        1 => WriteOp::Delete {
            key: r.str("WriteOp.key")?,
        },
        2 => WriteOp::Add {
            key: r.str("WriteOp.key")?,
            delta: r.i64("WriteOp.delta")?,
        },
        v => {
            return Err(WireError::UnknownDiscriminant {
                what: "WriteOp",
                value: v,
            })
        }
    })
}

fn put_writes(buf: &mut Vec<u8>, writes: &[WriteOp]) {
    buf.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for w in writes {
        put_write(buf, w);
    }
}

fn get_writes(r: &mut Reader) -> Result<Vec<WriteOp>, WireError> {
    // A write is at least 5 bytes (disc + empty-key length).
    let n = r.count(5, "WriteOp list")?;
    (0..n).map(|_| get_write(r)).collect()
}

fn put_guard(buf: &mut Vec<u8>, g: &TxnGuard) {
    match g {
        TxnGuard::MinValue { key, min } => {
            buf.push(0);
            put_str(buf, key);
            buf.extend_from_slice(&min.to_le_bytes());
        }
        TxnGuard::Equals { key, expect } => {
            buf.push(1);
            put_str(buf, key);
            put_opt_i64(buf, expect);
        }
    }
}

fn get_guard(r: &mut Reader) -> Result<TxnGuard, WireError> {
    Ok(match r.u8("TxnGuard discriminant")? {
        0 => TxnGuard::MinValue {
            key: r.str("TxnGuard.key")?,
            min: r.i64("TxnGuard.min")?,
        },
        1 => TxnGuard::Equals {
            key: r.str("TxnGuard.key")?,
            expect: get_opt_i64(r, "TxnGuard.expect")?,
        },
        v => {
            return Err(WireError::UnknownDiscriminant {
                what: "TxnGuard",
                value: v,
            })
        }
    })
}

fn put_guards(buf: &mut Vec<u8>, guards: &[TxnGuard]) {
    buf.extend_from_slice(&(guards.len() as u32).to_le_bytes());
    for g in guards {
        put_guard(buf, g);
    }
}

fn get_guards(r: &mut Reader) -> Result<Vec<TxnGuard>, WireError> {
    // A guard is at least 6 bytes (disc + empty-key length + flag).
    let n = r.count(6, "TxnGuard list")?;
    (0..n).map(|_| get_guard(r)).collect()
}

impl WalEncode for KvCommand {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.client.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        match &self.op {
            KvOp::Put { key, value } => {
                buf.push(0);
                put_str(buf, key);
                buf.extend_from_slice(&value.to_le_bytes());
            }
            KvOp::Delete { key } => {
                buf.push(1);
                put_str(buf, key);
            }
            KvOp::Add { key, delta } => {
                buf.push(2);
                put_str(buf, key);
                buf.extend_from_slice(&delta.to_le_bytes());
            }
            KvOp::Transfer { from, to, amount } => {
                buf.push(3);
                put_str(buf, from);
                put_str(buf, to);
                buf.extend_from_slice(&amount.to_le_bytes());
            }
            KvOp::Read { key } => {
                buf.push(4);
                put_str(buf, key);
            }
            KvOp::Cas { key, expect, set } => {
                buf.push(5);
                put_str(buf, key);
                put_opt_i64(buf, expect);
                put_opt_i64(buf, set);
            }
            KvOp::WriteBatch { writes } => {
                buf.push(6);
                put_writes(buf, writes);
            }
            KvOp::TxnPrepare(p) => {
                buf.push(7);
                buf.extend_from_slice(&p.txn.0.to_le_bytes());
                buf.extend_from_slice(&p.txn.1.to_le_bytes());
                buf.extend_from_slice(&p.coord_shard.to_le_bytes());
                buf.extend_from_slice(&(p.participants.len() as u32).to_le_bytes());
                for &s in &p.participants {
                    buf.extend_from_slice(&s.to_le_bytes());
                }
                put_guards(buf, &p.guards);
                put_writes(buf, &p.writes);
            }
            KvOp::TxnDecide { txn, commit } => {
                buf.push(8);
                buf.extend_from_slice(&txn.0.to_le_bytes());
                buf.extend_from_slice(&txn.1.to_le_bytes());
                buf.push(*commit as u8);
            }
            KvOp::TxnCommit { txn } => {
                buf.push(9);
                buf.extend_from_slice(&txn.0.to_le_bytes());
                buf.extend_from_slice(&txn.1.to_le_bytes());
            }
            KvOp::TxnAbort { txn } => {
                buf.push(10);
                buf.extend_from_slice(&txn.0.to_le_bytes());
                buf.extend_from_slice(&txn.1.to_le_bytes());
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let cmd = decode_command(&mut r).ok()?;
        r.is_empty().then_some(cmd)
    }
}

fn get_txn_id(r: &mut Reader) -> Result<(u64, u64), WireError> {
    Ok((r.u64("TxnId.client")?, r.u64("TxnId.seq")?))
}

fn decode_command(r: &mut Reader) -> Result<KvCommand, WireError> {
    let client = r.u64("KvCommand.client")?;
    let seq = r.u64("KvCommand.seq")?;
    let op = match r.u8("KvOp discriminant")? {
        0 => KvOp::Put {
            key: r.str("Put.key")?,
            value: r.i64("Put.value")?,
        },
        1 => KvOp::Delete {
            key: r.str("Delete.key")?,
        },
        2 => KvOp::Add {
            key: r.str("Add.key")?,
            delta: r.i64("Add.delta")?,
        },
        3 => KvOp::Transfer {
            from: r.str("Transfer.from")?,
            to: r.str("Transfer.to")?,
            amount: r.i64("Transfer.amount")?,
        },
        4 => KvOp::Read {
            key: r.str("Read.key")?,
        },
        5 => KvOp::Cas {
            key: r.str("Cas.key")?,
            expect: get_opt_i64(r, "Cas.expect")?,
            set: get_opt_i64(r, "Cas.set")?,
        },
        6 => KvOp::WriteBatch {
            writes: get_writes(r)?,
        },
        7 => {
            let txn = get_txn_id(r)?;
            let coord_shard = r.u32("TxnPrepare.coord_shard")?;
            let n = r.count(4, "TxnPrepare.participants")?;
            let participants = (0..n)
                .map(|_| r.u32("TxnPrepare.participant"))
                .collect::<Result<_, _>>()?;
            KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn,
                coord_shard,
                participants,
                guards: get_guards(r)?,
                writes: get_writes(r)?,
            }))
        }
        8 => KvOp::TxnDecide {
            txn: get_txn_id(r)?,
            commit: r.bool("TxnDecide.commit")?,
        },
        9 => KvOp::TxnCommit {
            txn: get_txn_id(r)?,
        },
        10 => KvOp::TxnAbort {
            txn: get_txn_id(r)?,
        },
        v => {
            return Err(WireError::UnknownDiscriminant {
                what: "KvOp",
                value: v,
            })
        }
    };
    Ok(KvCommand { client, seq, op })
}

/// Client-visible state of a transaction, as reported by
/// [`KvWire::TxnStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// No trace of the transaction on the queried server.
    Unknown,
    /// Prepared or being driven; not yet resolved.
    Pending,
    Committed,
    Aborted,
}

impl TxnState {
    /// Stable wire discriminant (append-only).
    pub const fn discriminant(self) -> u8 {
        match self {
            TxnState::Unknown => 0,
            TxnState::Pending => 1,
            TxnState::Committed => 2,
            TxnState::Aborted => 3,
        }
    }

    /// Inverse of [`TxnState::discriminant`].
    pub const fn from_discriminant(v: u8) -> Option<Self> {
        match v {
            0 => Some(TxnState::Unknown),
            1 => Some(TxnState::Pending),
            2 => Some(TxnState::Committed),
            3 => Some(TxnState::Aborted),
            _ => None,
        }
    }
}

/// The client protocol: one enum for both directions of a client
/// connection, framed like every other wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum KvWire {
    /// Client → server: apply this command. The command's `(client, seq)`
    /// identity makes retries after redirects or reconnects exactly-once.
    Request(KvCommand),
    /// Server → client: the command decided and applied; here is its
    /// result.
    Reply(KvResult),
    /// Server → client: this server is not the leader; try `leader`
    /// (0 = currently unknown, pick another server).
    Redirect { leader: NodeId },
    /// Server → client: the leader could not take the proposal right now
    /// (e.g. mid-reconfiguration); retry the same command shortly.
    Retry { seq: u64 },
    /// Server → client (sharded gateway): the request's key belongs to
    /// `shard`, whose leader is `leader` (0 = currently unknown). The
    /// client refreshes its cached routing table entry and re-sends there.
    ShardRedirect { shard: u32, leader: NodeId },
    /// Client → server: send me the routing table.
    ShardsReq,
    /// Server → client: the routing table — the known leader pid per
    /// shard, indexed by shard id (0 = unknown). `leaders.len()` is the
    /// cluster's shard count.
    Shards { leaders: Vec<NodeId> },
    /// Client → server: a linearizable read of `key`, served per `mode`
    /// (see [`ReadMode`]): log marker, leader lease, or read index. The
    /// `(client, seq)` identity ties the eventual [`KvWire::Reply`] back
    /// to the request; log-free modes never enter the session table, so
    /// any replica can answer a `ReadIndex` read.
    ReadRequest {
        mode: ReadMode,
        client: u64,
        seq: u64,
        key: String,
    },
    /// Client → server: run this cross-shard transaction. `(client, seq)`
    /// is the transaction id — globally unique and the dedup key across
    /// every coordinator that ever drives it. The eventual
    /// [`KvWire::Reply`] reports `applied: true` iff the transaction
    /// committed (value 1 = committed, 0 = aborted).
    TxnRequest {
        client: u64,
        seq: u64,
        spec: TxnSpec,
    },
    /// Client → server: what became of transaction `(client, seq)`? Used
    /// after a reconnect to resolve an in-doubt outcome.
    TxnStatusReq { client: u64, seq: u64 },
    /// Server → client: the queried server's view of the transaction.
    TxnStatus {
        client: u64,
        seq: u64,
        state: TxnState,
    },
    /// Server → client: the typed rejection for a multi-key op whose keys
    /// span shards (batch, transfer) submitted on the single-shard path.
    /// The client must use the transaction path instead of retrying.
    CrossShard { seq: u64 },
}

impl KvWire {
    /// Stable wire discriminant (append-only).
    pub const fn discriminant(&self) -> u8 {
        match self {
            KvWire::Request(_) => 0,
            KvWire::Reply(_) => 1,
            KvWire::Redirect { .. } => 2,
            KvWire::Retry { .. } => 3,
            KvWire::ShardRedirect { .. } => 4,
            KvWire::ShardsReq => 5,
            KvWire::Shards { .. } => 6,
            KvWire::ReadRequest { .. } => 7,
            KvWire::TxnRequest { .. } => 8,
            KvWire::TxnStatusReq { .. } => 9,
            KvWire::TxnStatus { .. } => 10,
            KvWire::CrossShard { .. } => 11,
        }
    }
}

impl Wire for KvWire {
    fn encode(&self, buf: &mut Vec<u8>, _cache: &mut BatchCache) {
        buf.push(self.discriminant());
        match self {
            KvWire::Request(cmd) => WalEncode::encode(cmd, buf),
            KvWire::Reply(res) => {
                buf.extend_from_slice(&res.client.to_le_bytes());
                buf.extend_from_slice(&res.seq.to_le_bytes());
                match res.value {
                    Some(v) => {
                        buf.push(1);
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                    None => buf.push(0),
                }
                buf.push(res.applied as u8);
            }
            KvWire::Redirect { leader } => buf.extend_from_slice(&leader.to_le_bytes()),
            KvWire::Retry { seq } => buf.extend_from_slice(&seq.to_le_bytes()),
            KvWire::ShardRedirect { shard, leader } => {
                buf.extend_from_slice(&shard.to_le_bytes());
                buf.extend_from_slice(&leader.to_le_bytes());
            }
            KvWire::ShardsReq => {}
            KvWire::Shards { leaders } => {
                buf.extend_from_slice(&(leaders.len() as u32).to_le_bytes());
                for &l in leaders {
                    buf.extend_from_slice(&l.to_le_bytes());
                }
            }
            KvWire::ReadRequest {
                mode,
                client,
                seq,
                key,
            } => {
                buf.push(mode.discriminant());
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
                put_str(buf, key);
            }
            KvWire::TxnRequest { client, seq, spec } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
                put_guards(buf, &spec.guards);
                put_writes(buf, &spec.writes);
            }
            KvWire::TxnStatusReq { client, seq } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            KvWire::TxnStatus { client, seq, state } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(state.discriminant());
            }
            KvWire::CrossShard { seq } => buf.extend_from_slice(&seq.to_le_bytes()),
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match r.u8("KvWire discriminant")? {
            0 => KvWire::Request(decode_command(r)?),
            1 => {
                let client = r.u64("KvResult.client")?;
                let seq = r.u64("KvResult.seq")?;
                let value = match r.u8("KvResult.value flag")? {
                    0 => None,
                    1 => Some(r.i64("KvResult.value")?),
                    v => {
                        return Err(WireError::UnknownDiscriminant {
                            what: "KvResult.value flag",
                            value: v,
                        })
                    }
                };
                KvWire::Reply(KvResult {
                    client,
                    seq,
                    value,
                    applied: r.bool("KvResult.applied")?,
                })
            }
            2 => KvWire::Redirect {
                leader: r.u64("Redirect.leader")?,
            },
            3 => KvWire::Retry {
                seq: r.u64("Retry.seq")?,
            },
            4 => KvWire::ShardRedirect {
                shard: r.u32("ShardRedirect.shard")?,
                leader: r.u64("ShardRedirect.leader")?,
            },
            5 => KvWire::ShardsReq,
            6 => {
                let n = r.count(8, "Shards.leaders")?;
                let mut leaders = Vec::with_capacity(n);
                for _ in 0..n {
                    leaders.push(r.u64("Shards.leader")?);
                }
                KvWire::Shards { leaders }
            }
            7 => {
                let mode = r.u8("ReadRequest.mode")?;
                let mode =
                    ReadMode::from_discriminant(mode).ok_or(WireError::UnknownDiscriminant {
                        what: "ReadMode",
                        value: mode,
                    })?;
                KvWire::ReadRequest {
                    mode,
                    client: r.u64("ReadRequest.client")?,
                    seq: r.u64("ReadRequest.seq")?,
                    key: r.str("ReadRequest.key")?,
                }
            }
            8 => KvWire::TxnRequest {
                client: r.u64("TxnRequest.client")?,
                seq: r.u64("TxnRequest.seq")?,
                spec: TxnSpec {
                    guards: get_guards(r)?,
                    writes: get_writes(r)?,
                },
            },
            9 => KvWire::TxnStatusReq {
                client: r.u64("TxnStatusReq.client")?,
                seq: r.u64("TxnStatusReq.seq")?,
            },
            10 => {
                let client = r.u64("TxnStatus.client")?;
                let seq = r.u64("TxnStatus.seq")?;
                let state = r.u8("TxnStatus.state")?;
                let state =
                    TxnState::from_discriminant(state).ok_or(WireError::UnknownDiscriminant {
                        what: "TxnState",
                        value: state,
                    })?;
                KvWire::TxnStatus { client, seq, state }
            }
            11 => KvWire::CrossShard {
                seq: r.u64("CrossShard.seq")?,
            },
            v => {
                return Err(WireError::UnknownDiscriminant {
                    what: "KvWire",
                    value: v,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(seq: u64, op: KvOp) -> KvCommand {
        KvCommand { client: 7, seq, op }
    }

    #[test]
    fn commands_roundtrip_via_wal_encode() {
        let ops = vec![
            KvOp::Put {
                key: "k".into(),
                value: -3,
            },
            KvOp::Delete { key: "gone".into() },
            KvOp::Add {
                key: "ctr".into(),
                delta: 41,
            },
            KvOp::Transfer {
                from: "a".into(),
                to: "b".into(),
                amount: 100,
            },
            KvOp::Read { key: "k".into() },
            KvOp::Cas {
                key: "c".into(),
                expect: Some(3),
                set: None,
            },
            KvOp::Cas {
                key: "c".into(),
                expect: None,
                set: Some(-9),
            },
            KvOp::WriteBatch {
                writes: vec![
                    WriteOp::Put {
                        key: "a".into(),
                        value: 1,
                    },
                    WriteOp::Delete { key: "b".into() },
                    WriteOp::Add {
                        key: "c".into(),
                        delta: -2,
                    },
                ],
            },
            KvOp::TxnPrepare(Box::new(TxnPrepare {
                txn: (7, 12),
                coord_shard: 1,
                participants: vec![0, 1, 3],
                guards: vec![
                    TxnGuard::MinValue {
                        key: "from".into(),
                        min: 50,
                    },
                    TxnGuard::Equals {
                        key: "v".into(),
                        expect: None,
                    },
                ],
                writes: vec![WriteOp::Add {
                    key: "from".into(),
                    delta: -50,
                }],
            })),
            KvOp::TxnDecide {
                txn: (7, 12),
                commit: true,
            },
            KvOp::TxnCommit { txn: (7, 12) },
            KvOp::TxnAbort { txn: (7, 13) },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let c = cmd(i as u64, op);
            let mut buf = Vec::new();
            WalEncode::encode(&c, &mut buf);
            assert_eq!(KvCommand::decode(&buf), Some(c));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let c = cmd(1, KvOp::Read { key: "x".into() });
        let mut buf = Vec::new();
        WalEncode::encode(&c, &mut buf);
        buf.push(0);
        assert_eq!(KvCommand::decode(&buf), None);
    }

    #[test]
    fn non_utf8_key_is_typed_error() {
        let c = cmd(1, KvOp::Read { key: "xy".into() });
        let mut buf = Vec::new();
        WalEncode::encode(&c, &mut buf);
        // Corrupt the key bytes (trailing 2 bytes of the string).
        let n = buf.len();
        buf[n - 2] = 0xFF;
        buf[n - 1] = 0xFE;
        assert_eq!(KvCommand::decode(&buf), None);
    }

    #[test]
    fn client_protocol_roundtrips() {
        let msgs = vec![
            KvWire::Request(cmd(
                9,
                KvOp::Put {
                    key: "x".into(),
                    value: 5,
                },
            )),
            KvWire::Reply(KvResult {
                client: 7,
                seq: 9,
                value: Some(5),
                applied: true,
            }),
            KvWire::Reply(KvResult {
                client: 7,
                seq: 10,
                value: None,
                applied: false,
            }),
            KvWire::Redirect { leader: 3 },
            KvWire::Retry { seq: 9 },
            KvWire::ShardRedirect {
                shard: 2,
                leader: 1,
            },
            KvWire::ShardsReq,
            KvWire::Shards {
                leaders: vec![1, 0, 3],
            },
            KvWire::ReadRequest {
                mode: ReadMode::Lease,
                client: 7,
                seq: 11,
                key: "x".into(),
            },
            KvWire::ReadRequest {
                mode: ReadMode::ReadIndex,
                client: 7,
                seq: 12,
                key: "".into(),
            },
            KvWire::ReadRequest {
                mode: ReadMode::Log,
                client: 8,
                seq: 1,
                key: "deep/key".into(),
            },
            KvWire::TxnRequest {
                client: 7,
                seq: 13,
                spec: TxnSpec::transfer("alice", "bob", 25),
            },
            KvWire::TxnRequest {
                client: 7,
                seq: 14,
                spec: TxnSpec::default(),
            },
            KvWire::TxnStatusReq { client: 7, seq: 13 },
            KvWire::TxnStatus {
                client: 7,
                seq: 13,
                state: TxnState::Committed,
            },
            KvWire::TxnStatus {
                client: 7,
                seq: 15,
                state: TxnState::Unknown,
            },
            KvWire::CrossShard { seq: 16 },
        ];
        for m in &msgs {
            let bytes = m.to_bytes();
            assert_eq!(&KvWire::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn txn_state_discriminants_roundtrip() {
        for s in [
            TxnState::Unknown,
            TxnState::Pending,
            TxnState::Committed,
            TxnState::Aborted,
        ] {
            assert_eq!(TxnState::from_discriminant(s.discriminant()), Some(s));
        }
        assert_eq!(TxnState::from_discriminant(4), None);
    }
}
