//! The WAL's on-disk format is pinned byte for byte.
//!
//! A fixed script of mutations — an append batch, a promise, an accepted
//! round, a decided index, an `append_on_prefix` truncation, a stop-sign,
//! group-commit syncs with their durable-point markers, a trim and a
//! snapshot — runs against a fresh file, and the file must equal the
//! committed hex fixture. A second phase rewrites the same state as a
//! checkpoint and pins that record too. An encoder change that moves a
//! single byte fails here instead of making old logs unreadable.
//! Regenerate deliberately with:
//! `WAL_GOLDEN_WRITE=1 cargo test -p omnipaxos --test wal_golden`.

use omnipaxos::{Ballot, LogEntry, StopSign, Storage, WalStorage};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("omnipaxos-golden-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::new();
    for line in bytes.chunks(32) {
        for b in line {
            s.push_str(&format!("{b:02x}"));
        }
        s.push('\n');
    }
    s
}

/// Compare `bytes` with the fixture `name` (or rewrite it on request).
fn check(name: &str, bytes: &[u8]) {
    let path = fixture(name);
    let hex = to_hex(bytes);
    if std::env::var_os("WAL_GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &hex).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture present");
    assert!(
        want == hex,
        "{name}: WAL bytes differ from the committed fixture\nwant:\n{want}got:\n{hex}"
    );
}

#[test]
fn wal_bytes_match_the_committed_fixture() {
    let path = tmp("script");
    let mut w: WalStorage<u64> = WalStorage::open(&path).unwrap();
    w.checkpoint_every = 0;
    w.append_entries((1..=6).map(LogEntry::Normal).collect())
        .unwrap();
    w.set_promise(Ballot::new(3, 1, 2)).unwrap();
    w.set_accepted_round(Ballot::new(3, 1, 2)).unwrap();
    w.set_decided_idx(2).unwrap();
    w.sync().unwrap();

    w.append_on_prefix(4, vec![LogEntry::Normal(40), LogEntry::Normal(50)])
        .unwrap();
    let mut ss = StopSign::new(2, vec![1, 2, 4]);
    ss.metadata = vec![9, 8, 7];
    w.append_entry(LogEntry::stopsign(ss)).unwrap();
    w.append_entry(LogEntry::Normal(u64::MAX)).unwrap();
    w.set_decided_idx(5).unwrap();
    w.trim(1).unwrap();
    w.set_snapshot(2, vec![0xAB; 5].into()).unwrap();
    w.sync().unwrap();
    check("wal_script.hex", &std::fs::read(&path).unwrap());

    w.checkpoint().unwrap();
    check("wal_checkpoint.hex", &std::fs::read(&path).unwrap());

    // The fixture is also a valid log: it replays to the scripted state.
    drop(w);
    let w: WalStorage<u64> = WalStorage::open(&path).unwrap();
    assert_eq!(
        (w.get_compacted_idx(), w.get_log_len(), w.get_decided_idx()),
        (2, 8, 5)
    );
    assert_eq!(w.get_promise(), Ballot::new(3, 1, 2));
    assert!(w.entries_ref(6, 7)[0].is_stopsign());
    std::fs::remove_file(&path).unwrap();
}
