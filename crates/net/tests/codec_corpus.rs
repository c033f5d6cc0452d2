//! Codec property tests plus a committed byte corpus.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Round-trip**: every message variant the transport can carry
//!    (`ServiceMsg<KvCommand>` with all `PaxosMsg`/`BleMsg` variants
//!    inside, plus the `KvWire` client protocol) survives frame encode →
//!    frame decode → payload decode unchanged.
//! 2. **Malice and damage**: truncation at *every* byte boundary and a
//!    bit flip at *every* bit position produce a typed error — never a
//!    panic, never a silently wrong decode.
//! 3. **Stability**: the committed corpus files under `tests/corpus/`
//!    byte-match freshly encoded frames, so an accidental wire-format
//!    change fails CI instead of silently breaking cross-version
//!    clusters. Regenerate deliberately with:
//!    `CORPUS_WRITE=1 cargo test -p net --test codec_corpus`.

use kvstore::{
    KvCommand, KvOp, KvResult, KvWire, ReadMode, TxnGuard, TxnPrepare, TxnSpec, TxnState, WriteOp,
};
use net::client::{READ_FLAG, TXN_FLAG};
use net::frame::{self, kind, FrameError};
use omnipaxos::messages::*;
use omnipaxos::wire::{checksum_parts, Wire, WireError};
use omnipaxos::{Ballot, LogEntry, OmniMessage, ServiceMsg, StopSign};
use std::path::PathBuf;

fn cmd(client: u64, seq: u64, op: KvOp) -> KvCommand {
    KvCommand { client, seq, op }
}

fn entry(seq: u64) -> LogEntry<KvCommand> {
    LogEntry::Normal(cmd(
        7,
        seq,
        KvOp::Put {
            key: format!("k{seq}"),
            value: seq as i64,
        },
    ))
}

/// Every `PaxosMsg` variant, wrapped the way the transport ships them.
fn paxos_samples() -> Vec<(String, ServiceMsg<KvCommand>)> {
    let b = Ballot::new(3, 1, 2);
    let msgs: Vec<(&str, PaxosMsg<KvCommand>)> = vec![
        ("prepare_req", PaxosMsg::PrepareReq),
        (
            "prepare",
            PaxosMsg::Prepare(Prepare {
                n: b,
                decided_idx: 7,
                accepted_rnd: Ballot::bottom(),
                log_idx: 9,
            }),
        ),
        (
            "promise",
            PaxosMsg::Promise(Promise {
                n: b,
                accepted_rnd: b,
                log_idx: 5,
                decided_idx: 3,
                suffix_start: 3,
                suffix: vec![entry(1), LogEntry::stopsign(StopSign::new(2, vec![1, 2]))],
                snapshot: Some((3, vec![1u8, 2, 3].into())),
            }),
        ),
        (
            "accept_sync",
            PaxosMsg::AcceptSync(AcceptSync {
                n: b,
                sync_idx: 2,
                decided_idx: 1,
                suffix: vec![entry(10), entry(11)].into(),
            }),
        ),
        (
            "accept_decide",
            PaxosMsg::AcceptDecide(AcceptDecide {
                n: b,
                start_idx: 4,
                decided_idx: 4,
                entries: vec![entry(42)].into(),
            }),
        ),
        (
            "accepted",
            PaxosMsg::Accepted(Accepted { n: b, log_idx: 5 }),
        ),
        (
            "decide",
            PaxosMsg::Decide(Decide {
                n: b,
                decided_idx: 5,
            }),
        ),
        (
            "snapshot_meta",
            PaxosMsg::SnapshotMeta(SnapshotMeta {
                n: b,
                snapshot_idx: 100,
                total_bytes: 4096,
            }),
        ),
        (
            "snapshot_chunk",
            PaxosMsg::SnapshotChunk(SnapshotChunk {
                n: b,
                snapshot_idx: 100,
                offset: 512,
                total_bytes: 4096,
                data: vec![9u8; 64].into(),
            }),
        ),
        (
            "snapshot_ack",
            PaxosMsg::SnapshotAck(SnapshotAck {
                n: b,
                snapshot_idx: 100,
                received: 576,
            }),
        ),
        (
            "proposal_forward",
            PaxosMsg::ProposalForward(vec![entry(1), entry(2)]),
        ),
        (
            "read_index_req",
            PaxosMsg::ReadIndexReq(ReadIndexReq { token: 77 }),
        ),
        (
            "read_index_resp",
            PaxosMsg::ReadIndexResp(ReadIndexResp { token: 77, idx: 41 }),
        ),
        (
            "read_check",
            PaxosMsg::ReadCheck(ReadCheck { n: b, seq: 6 }),
        ),
        (
            "read_check_ack",
            PaxosMsg::ReadCheckAck(ReadCheckAck { n: b, seq: 6 }),
        ),
    ];
    msgs.into_iter()
        .map(|(name, m)| {
            (
                format!("paxos_{name}"),
                ServiceMsg::Omni {
                    config_id: 1,
                    msg: OmniMessage::Paxos(Message::with(1, 2, m)),
                },
            )
        })
        .collect()
}

fn service_samples() -> Vec<(String, ServiceMsg<KvCommand>)> {
    let b = Ballot::new(2, 0, 1);
    let mut out: Vec<(String, ServiceMsg<KvCommand>)> = vec![
        (
            "ble_heartbeat_request".into(),
            ServiceMsg::Omni {
                config_id: 1,
                msg: OmniMessage::Ble(BleMessage {
                    from: 1,
                    to: 2,
                    msg: BleMsg::HeartbeatRequest { round: 4 },
                }),
            },
        ),
        (
            "ble_heartbeat_reply".into(),
            ServiceMsg::Omni {
                config_id: 1,
                msg: OmniMessage::Ble(BleMessage {
                    from: 2,
                    to: 1,
                    msg: BleMsg::HeartbeatReply {
                        round: 4,
                        ballot: b,
                        quorum_connected: true,
                    },
                }),
            },
        ),
        (
            "ble_heartbeat_reply_lease".into(),
            ServiceMsg::Omni {
                config_id: 1,
                msg: OmniMessage::Ble(BleMessage {
                    from: 2,
                    to: 1,
                    msg: BleMsg::HeartbeatReplyLease {
                        round: 4,
                        ballot: b,
                        quorum_connected: true,
                        lease: true,
                    },
                }),
            },
        ),
        (
            "svc_start_config".into(),
            ServiceMsg::StartConfig {
                ss: StopSign::new(2, vec![1, 2, 4]),
                old_nodes: vec![1, 2, 3],
                log_len: 100,
                snap_idx: 40,
            },
        ),
        (
            "svc_config_started".into(),
            ServiceMsg::ConfigStarted { config_id: 2 },
        ),
        (
            "svc_segment_req".into(),
            ServiceMsg::SegmentReq { from: 0, to: 50 },
        ),
        (
            "svc_segment_resp".into(),
            ServiceMsg::SegmentResp {
                start: 0,
                entries: vec![
                    cmd(1, 1, KvOp::Delete { key: "a".into() }),
                    cmd(
                        1,
                        2,
                        KvOp::Transfer {
                            from: "a".into(),
                            to: "b".into(),
                            amount: 10,
                        },
                    ),
                ]
                .into(),
                served_to: 2,
                requested_to: 50,
            },
        ),
        ("svc_snap_req".into(), ServiceMsg::SnapReq { offset: 128 }),
        (
            "svc_snap_resp".into(),
            ServiceMsg::SnapResp {
                idx: 40,
                offset: 128,
                chunk: vec![5u8; 32].into(),
                total: 4096,
            },
        ),
        // Multi-group envelope: a non-zero group wrapping replication
        // traffic. Bare messages above double as group 0, so the
        // pre-envelope corpus files pin backward compatibility.
        (
            "svc_group_omni".into(),
            ServiceMsg::Group {
                group: 3,
                msg: Box::new(ServiceMsg::Omni {
                    config_id: 2,
                    msg: OmniMessage::Paxos(Message::with(
                        1,
                        2,
                        PaxosMsg::AcceptDecide(AcceptDecide {
                            n: b,
                            start_idx: 12,
                            decided_idx: 11,
                            entries: vec![entry(12)].into(),
                        }),
                    )),
                }),
            },
        ),
        (
            "svc_group_segment_req".into(),
            ServiceMsg::Group {
                group: 1,
                msg: Box::new(ServiceMsg::SegmentReq { from: 5, to: 25 }),
            },
        ),
        // Shared-BLE carrier: several groups' heartbeats to one peer in a
        // single frame, including an empty carrier (a legal flush).
        (
            "svc_group_ble".into(),
            ServiceMsg::GroupBle {
                beats: vec![
                    (
                        0,
                        1,
                        BleMessage {
                            from: 1,
                            to: 2,
                            msg: BleMsg::HeartbeatRequest { round: 9 },
                        },
                    ),
                    (
                        2,
                        1,
                        BleMessage {
                            from: 1,
                            to: 2,
                            msg: BleMsg::HeartbeatReply {
                                round: 9,
                                ballot: b,
                                quorum_connected: true,
                            },
                        },
                    ),
                    (
                        3,
                        4,
                        BleMessage {
                            from: 1,
                            to: 2,
                            msg: BleMsg::HeartbeatReply {
                                round: 9,
                                ballot: Ballot::bottom(),
                                quorum_connected: false,
                            },
                        },
                    ),
                ],
            },
        ),
        (
            "svc_group_ble_empty".into(),
            ServiceMsg::GroupBle { beats: vec![] },
        ),
        // Lease grants ride the shared-BLE carrier like any other reply.
        (
            "svc_group_ble_lease".into(),
            ServiceMsg::GroupBle {
                beats: vec![(
                    1,
                    2,
                    BleMessage {
                        from: 2,
                        to: 1,
                        msg: BleMsg::HeartbeatReplyLease {
                            round: 11,
                            ballot: b,
                            quorum_connected: true,
                            lease: false,
                        },
                    },
                )],
            },
        ),
    ];
    out.extend(paxos_samples());
    out
}

fn kv_samples() -> Vec<(String, KvWire)> {
    vec![
        (
            "kv_request".into(),
            KvWire::Request(cmd(
                9,
                1,
                KvOp::Add {
                    key: "ctr".into(),
                    delta: -3,
                },
            )),
        ),
        (
            "kv_reply".into(),
            KvWire::Reply(KvResult {
                client: 9,
                seq: 1,
                value: Some(-3),
                applied: true,
            }),
        ),
        ("kv_redirect".into(), KvWire::Redirect { leader: 2 }),
        ("kv_retry".into(), KvWire::Retry { seq: 1 }),
        (
            "kv_shard_redirect".into(),
            KvWire::ShardRedirect {
                shard: 3,
                leader: 2,
            },
        ),
        ("kv_shards_req".into(), KvWire::ShardsReq),
        (
            "kv_shards".into(),
            KvWire::Shards {
                leaders: vec![1, 2, 0, 3],
            },
        ),
        (
            "kv_read_lease".into(),
            KvWire::ReadRequest {
                mode: ReadMode::Lease,
                client: READ_FLAG | 9,
                seq: READ_FLAG | 4,
                key: "ctr".into(),
            },
        ),
        (
            "kv_read_index".into(),
            KvWire::ReadRequest {
                mode: ReadMode::ReadIndex,
                client: READ_FLAG | 9,
                seq: READ_FLAG | 5,
                key: String::new(),
            },
        ),
        (
            "kv_read_log".into(),
            KvWire::ReadRequest {
                mode: ReadMode::Log,
                client: 9,
                seq: 6,
                key: "deep/nested key".into(),
            },
        ),
        // Transaction subsystem ops, each as a plain Request frame: the
        // log-entry encodings are what replicas and WALs persist.
        (
            "kv_cas".into(),
            KvWire::Request(cmd(
                9,
                7,
                KvOp::Cas {
                    key: "ctr".into(),
                    expect: Some(-3),
                    set: None,
                },
            )),
        ),
        (
            "kv_cas_insert".into(),
            KvWire::Request(cmd(
                9,
                8,
                KvOp::Cas {
                    key: "fresh".into(),
                    expect: None,
                    set: Some(1),
                },
            )),
        ),
        (
            "kv_write_batch".into(),
            KvWire::Request(cmd(
                9,
                9,
                KvOp::WriteBatch {
                    writes: vec![
                        WriteOp::Put {
                            key: "a".into(),
                            value: 1,
                        },
                        WriteOp::Add {
                            key: "b".into(),
                            delta: -2,
                        },
                        WriteOp::Delete { key: "c".into() },
                    ],
                },
            )),
        ),
        (
            "kv_txn_prepare".into(),
            KvWire::Request(cmd(
                (1 << 62) | 1, // coordinator identity: TXN_CLIENT_FLAG | pid
                1,
                KvOp::TxnPrepare(Box::new(TxnPrepare {
                    txn: (9, TXN_FLAG | 1),
                    coord_shard: 0,
                    participants: vec![0, 2],
                    guards: vec![TxnGuard::MinValue {
                        key: "acct0".into(),
                        min: 30,
                    }],
                    writes: vec![
                        WriteOp::Add {
                            key: "acct0".into(),
                            delta: -30,
                        },
                        WriteOp::Add {
                            key: "acct1".into(),
                            delta: 30,
                        },
                    ],
                })),
            )),
        ),
        (
            "kv_txn_prepare_equals".into(),
            KvWire::Request(cmd(
                (1 << 62) | 2,
                2,
                KvOp::TxnPrepare(Box::new(TxnPrepare {
                    txn: (9, TXN_FLAG | 2),
                    coord_shard: 1,
                    participants: vec![1],
                    guards: vec![TxnGuard::Equals {
                        key: "ver".into(),
                        expect: Some(4),
                    }],
                    writes: vec![WriteOp::Put {
                        key: "ver".into(),
                        value: 5,
                    }],
                })),
            )),
        ),
        (
            "kv_txn_decide".into(),
            KvWire::Request(cmd(
                (1 << 62) | 1,
                3,
                KvOp::TxnDecide {
                    txn: (9, TXN_FLAG | 1),
                    commit: true,
                },
            )),
        ),
        (
            "kv_txn_commit".into(),
            KvWire::Request(cmd(
                (1 << 62) | 1,
                4,
                KvOp::TxnCommit {
                    txn: (9, TXN_FLAG | 1),
                },
            )),
        ),
        (
            "kv_txn_abort".into(),
            KvWire::Request(cmd(
                (1 << 62) | 1,
                5,
                KvOp::TxnAbort {
                    txn: (9, TXN_FLAG | 2),
                },
            )),
        ),
        // Client-facing transaction frames.
        (
            "kv_txn_request".into(),
            KvWire::TxnRequest {
                client: 9,
                seq: TXN_FLAG | 1,
                spec: TxnSpec::transfer("acct0", "acct1", 30),
            },
        ),
        (
            "kv_txn_request_empty".into(),
            KvWire::TxnRequest {
                client: 9,
                seq: TXN_FLAG | 3,
                spec: TxnSpec {
                    guards: vec![],
                    writes: vec![],
                },
            },
        ),
        (
            "kv_txn_status_req".into(),
            KvWire::TxnStatusReq {
                client: 9,
                seq: TXN_FLAG | 1,
            },
        ),
        (
            "kv_txn_status_committed".into(),
            KvWire::TxnStatus {
                client: 9,
                seq: TXN_FLAG | 1,
                state: TxnState::Committed,
            },
        ),
        (
            "kv_txn_status_unknown".into(),
            KvWire::TxnStatus {
                client: 9,
                seq: TXN_FLAG | 9,
                state: TxnState::Unknown,
            },
        ),
        ("kv_cross_shard".into(), KvWire::CrossShard { seq: 11 }),
    ]
}

/// All sample frames: (name, frame bytes, frame kind).
fn sample_frames() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, msg) in service_samples() {
        out.push((name, frame::encode_frame(kind::MSG, &msg.to_bytes())));
    }
    for (name, msg) in kv_samples() {
        out.push((name, frame::encode_frame(kind::KV, &msg.to_bytes())));
    }
    out
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_variant_roundtrips_through_a_frame() {
    for (name, msg) in service_samples() {
        let bytes = frame::encode_frame(kind::MSG, &msg.to_bytes());
        let (f, used) = frame::decode_frame(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(used, bytes.len(), "{name}");
        let back = ServiceMsg::<KvCommand>::from_bytes(&f.payload)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, msg, "{name}");
    }
    for (name, msg) in kv_samples() {
        let bytes = frame::encode_frame(kind::KV, &msg.to_bytes());
        let (f, _) = frame::decode_frame(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = KvWire::from_bytes(&f.payload).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, msg, "{name}");
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    for (name, bytes) in sample_frames() {
        for n in 0..bytes.len() {
            match frame::decode_frame(&bytes[..n]) {
                Err(FrameError::Truncated) => {}
                other => panic!("{name} prefix {n}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn bit_flips_never_decode_and_never_panic() {
    for (name, bytes) in sample_frames() {
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match frame::decode_frame(&flipped) {
                    // A flip may never yield the original frame back; any
                    // typed error is acceptable, a panic is not.
                    Err(_) => {}
                    Ok((f, _)) => {
                        // Only the kind byte is outside the decoded
                        // payload's own self-checks but inside the CRC —
                        // so an Ok here can only be... nothing: the CRC
                        // covers version, kind, length and payload alike.
                        panic!(
                            "{name}: flip at byte {byte} bit {bit} decoded as {:?}",
                            f.kind
                        )
                    }
                }
            }
        }
    }
}

#[test]
fn nested_group_envelope_is_a_typed_error() {
    // Group-in-Group is not a legal wire shape (one level of multiplexing
    // only); the codec must reject it on decode rather than recurse.
    let nested: ServiceMsg<KvCommand> = ServiceMsg::Group {
        group: 1,
        msg: Box::new(ServiceMsg::Group {
            group: 2,
            msg: Box::new(ServiceMsg::SegmentReq { from: 0, to: 1 }),
        }),
    };
    let bytes = nested.to_bytes();
    match ServiceMsg::<KvCommand>::from_bytes(&bytes) {
        Err(e) => assert!(!FrameError::from(e).is_fatal()),
        Ok(m) => panic!("nested envelope decoded as {:?}", m.discriminant()),
    }
}

#[test]
fn unknown_payload_discriminant_is_droppable_not_fatal() {
    // A well-formed frame whose payload starts with an unassigned
    // discriminant: the frame layer accepts it, the codec rejects it with
    // a typed error, and the transport's policy for that error is
    // drop-and-count (FrameError::Wire is non-fatal).
    let payload = vec![0xEEu8, 1, 2, 3];
    let bytes = frame::encode_frame(kind::MSG, &payload);
    let (f, _) = frame::decode_frame(&bytes).expect("envelope is fine");
    match ServiceMsg::<KvCommand>::from_bytes(&f.payload) {
        Err(e @ WireError::UnknownDiscriminant { .. }) => {
            assert!(!FrameError::from(e).is_fatal());
        }
        other => panic!("expected UnknownDiscriminant, got {other:?}"),
    }
}

#[test]
fn future_version_is_droppable_when_sealed() {
    let (_, bytes) = &sample_frames()[0];
    let mut future = bytes.clone();
    future[4] = 2; // bump version, then re-seal the checksum
    let n = future.len();
    let crc = checksum_parts(&[&future[4..n - 4]]);
    future[n - 4..].copy_from_slice(&crc.to_le_bytes());
    match frame::decode_frame(&future) {
        Err(e @ FrameError::BadVersion(2)) => assert!(!e.is_fatal()),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

/// A `Read` that hands a byte sequence out in chunks of the given sizes
/// (cycled) — what a TCP stream is free to do to it.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    reads: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// What a reader does with one frame: deliver it, or drop it and stay in
/// sync (sealed envelope, unknown version).
#[derive(Debug, PartialEq)]
enum Outcome {
    Frame(frame::Frame),
    Dropped(u8),
}

type Fatal = std::mem::Discriminant<FrameError>;

/// The reference: `decode_frame` over the whole byte sequence, one frame
/// at a time, until the first fatal error (end of input is `Truncated`).
fn one_at_a_time(mut bytes: &[u8]) -> (Vec<Outcome>, Fatal) {
    let mut out = Vec::new();
    loop {
        match frame::decode_frame(bytes) {
            Ok((f, used)) => {
                out.push(Outcome::Frame(f));
                bytes = &bytes[used..];
            }
            Err(FrameError::BadVersion(v)) => {
                out.push(Outcome::Dropped(v));
                let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
                bytes = &bytes[frame::HEADER_LEN + len + frame::TRAILER_LEN..];
            }
            Err(e) => {
                assert!(e.is_fatal());
                return (out, std::mem::discriminant(&e));
            }
        }
    }
}

/// The burst reader over the same bytes, chopped up by `sizes`.
fn in_bursts(bytes: &[u8], sizes: Vec<usize>) -> (Vec<Outcome>, Fatal) {
    let mut reader = frame::FrameReader::new(Chunked {
        data: bytes,
        sizes,
        reads: 0,
    });
    let mut out = Vec::new();
    loop {
        let read = reader.read_burst(|f| {
            out.push(match f {
                Ok(f) => Outcome::Frame(f),
                Err(FrameError::BadVersion(v)) => Outcome::Dropped(v),
                Err(e) => panic!("fatal error handed to the frame callback: {e}"),
            })
        });
        if let Err(e) = read {
            assert!(e.is_fatal());
            return (out, std::mem::discriminant(&e));
        }
    }
}

/// The burst reader is the frame-at-a-time reader, however the stream is
/// chopped up: same frames in the same order, same droppable-vs-fatal
/// split, same fatal error — with frames straddling the buffer's end, a
/// frame several times the buffer's size, and corruption mid-stream.
#[test]
fn burst_reader_equals_frame_at_a_time_reader() {
    let frames: Vec<Vec<u8>> = sample_frames().into_iter().map(|(_, b)| b).collect();
    let reseal = |f: &mut Vec<u8>| {
        let n = f.len();
        let crc = checksum_parts(&[&f[4..n - 4]]);
        f[n - 4..].copy_from_slice(&crc.to_le_bytes());
    };
    let mut future = frames[0].clone();
    future[4] = 9;
    reseal(&mut future);
    let huge = frame::encode_frame(kind::MSG, &vec![0xA5; 3 * frame::BURST_BUF + 17]);

    // The corpus twice over (well past one buffer), a droppable frame and
    // an oversized one in the middle of it.
    let mut clean = Vec::new();
    let mut cut = 0;
    for (i, f) in frames.iter().chain(&frames).enumerate() {
        clean.extend_from_slice(f);
        if i == 5 {
            clean.extend_from_slice(&future);
        }
        if i == frames.len() {
            clean.extend_from_slice(&huge);
            cut = clean.len();
        }
    }

    // Each fatal mutant is spliced in at a frame boundary past the middle,
    // with intact frames after it that must never be delivered.
    let with = |mutant: &[u8]| {
        let mut s = clean[..cut].to_vec();
        s.extend_from_slice(mutant);
        s.extend_from_slice(&clean[cut..]);
        s
    };
    let mut bad_magic = frames[1].clone();
    bad_magic[0] ^= 0xFF;
    let mut bad_crc = frames[2].clone();
    let mid = bad_crc.len() / 2;
    bad_crc[mid] ^= 0x10;
    let mut bad_version_unsealed = frames[3].clone();
    bad_version_unsealed[4] = 9;
    let mut oversize = frames[4].clone();
    oversize[6..10].copy_from_slice(&(frame::MAX_PAYLOAD + 1).to_le_bytes());
    let truncated = FrameError::Truncated;
    let checksum = FrameError::BadChecksum {
        expected: 0,
        got: 0,
    };
    let streams = [
        ("clean", clean.clone(), &truncated),
        (
            "cut mid-frame",
            clean[..clean.len() - 3].to_vec(),
            &truncated,
        ),
        ("bad magic", with(&bad_magic), &FrameError::BadMagic([0; 4])),
        ("bad crc", with(&bad_crc), &checksum),
        ("unsealed version", with(&bad_version_unsealed), &checksum),
        ("oversize", with(&oversize), &FrameError::TooLarge(0)),
    ];

    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut patterns: Vec<Vec<usize>> = [1, 7, 4096, frame::BURST_BUF, usize::MAX]
        .iter()
        .map(|&n| vec![n])
        .collect();
    for _ in 0..24 {
        // Mostly small chunks with the odd full-buffer one, or the reverse.
        let len = 1 + next() as usize % 8;
        patterns.push(
            (0..len)
                .map(|_| match next() % 4 {
                    0 => 1 + next() as usize % 16,
                    1 => 1 + next() as usize % 2048,
                    _ => 1 + next() as usize % frame::BURST_BUF,
                })
                .collect(),
        );
    }

    for (name, stream, fatal) in &streams {
        let want = one_at_a_time(stream);
        assert!(
            want.0.len() > frames.len() && want.1 == std::mem::discriminant(*fatal),
            "{name}: the reference must pass the huge frame and end in {fatal:?}"
        );
        for sizes in &patterns {
            let got = in_bursts(stream, sizes.clone());
            assert!(
                got == want,
                "{name}, chunks {sizes:?}: {} outcomes then {:?}, want {} then {:?}",
                got.0.len(),
                got.1,
                want.0.len(),
                want.1
            );
        }
    }
}

/// The committed corpus: `ok_*.bin` must decode to exactly today's
/// encodings; `bad_*.bin` must fail with a typed error. Regenerate with
/// `CORPUS_WRITE=1`.
#[test]
fn committed_corpus_is_stable() {
    let dir = corpus_dir();
    let frames = sample_frames();
    let mut bad: Vec<(String, Vec<u8>)> = Vec::new();
    {
        let (_, ok) = &frames[0];
        let mut truncated = ok.clone();
        truncated.truncate(ok.len() - 3);
        bad.push(("bad_truncated".into(), truncated));
        let mut magic = ok.clone();
        magic[0] = b'N';
        bad.push(("bad_magic".into(), magic));
        let mut flip = ok.clone();
        let mid = flip.len() / 2;
        flip[mid] ^= 0x10;
        bad.push(("bad_bitflip".into(), flip));
        let mut huge = ok.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        bad.push(("bad_huge_len".into(), huge));
        let mut ver = ok.clone();
        ver[4] = 9;
        let n = ver.len();
        let crc = checksum_parts(&[&ver[4..n - 4]]);
        ver[n - 4..].copy_from_slice(&crc.to_le_bytes());
        bad.push(("bad_version_sealed".into(), ver));
    }

    if std::env::var("CORPUS_WRITE").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in frames.iter() {
            std::fs::write(dir.join(format!("ok_{name}.bin")), bytes).unwrap();
        }
        for (name, bytes) in &bad {
            std::fs::write(dir.join(format!("{name}.bin")), bytes).unwrap();
        }
        return;
    }

    for (name, bytes) in frames.iter() {
        let path = dir.join(format!("ok_{name}.bin"));
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing corpus file {path:?}: {e} (run CORPUS_WRITE=1)"));
        assert_eq!(
            &committed, bytes,
            "wire format drifted for {name}; if intentional, bump WIRE_VERSION and regenerate"
        );
        let (f, _) = frame::decode_frame(&committed).unwrap();
        assert!(
            ServiceMsg::<KvCommand>::from_bytes(&f.payload).is_ok()
                || KvWire::from_bytes(&f.payload).is_ok()
        );
    }
    for (name, bytes) in &bad {
        let path = dir.join(format!("{name}.bin"));
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing corpus file {path:?}: {e} (run CORPUS_WRITE=1)"));
        assert_eq!(&committed, bytes, "bad-corpus drifted for {name}");
        assert!(
            frame::decode_frame(&committed).is_err(),
            "{name} must not decode"
        );
    }
}
