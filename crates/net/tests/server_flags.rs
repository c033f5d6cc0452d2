//! The shipped binaries end to end: `omni-kv-server` rejects malformed
//! flags with the usage text and exit status 2 instead of silently
//! defaulting them, and `omni-kv-client` drives a running server.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn malformed_flags_exit_with_usage() {
    let bad: [&[&str]; 6] = [
        &["--shards", "x"],
        &["--shards", "0"],
        &["--lease-ticks", "x"],
        &["--lease-epsilon", "-1"],
        &["--tick-ms", "0"],
        &["--tick-ms"],
    ];
    for flags in bad {
        // Port 0 everywhere: a server that wrongly accepts the flags binds
        // and runs, which the deadline below turns into a failure.
        let mut child = Command::new(env!("CARGO_BIN_EXE_omni-kv-server"))
            .args(["--pid", "1", "--peers", "1=127.0.0.1:0"])
            .args(["--client-addr", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn omni-kv-server");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait") {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("{flags:?}: the server started instead of refusing the flags");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let stderr = std::io::read_to_string(child.stderr.take().expect("stderr")).unwrap();
        assert_eq!(status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
    }
}

/// Kills the server when the test ends, whichever way it ends.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Run `omni-kv-client` against `servers`; its exit status and stdout.
fn kv_client(servers: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_omni-kv-client"))
        .args(["--servers", servers])
        .args(args)
        .output()
        .expect("run omni-kv-client");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    (out.status.code(), stdout.trim().to_string())
}

/// The shipped client against the shipped server: a one-replica cluster
/// of two shards, driven through every kind of request.
#[test]
fn cli_client_drives_a_two_shard_server() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_omni-kv-server"))
        .args(["--pid", "1", "--peers", "1=127.0.0.1:0"])
        .args(["--client-addr", "127.0.0.1:0", "--shards", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn omni-kv-server");
    let stderr = child.stderr.take().expect("stderr");
    let server = Running(child);
    // The server names its bound ports on its first line.
    let mut banner = String::new();
    BufReader::new(stderr)
        .read_line(&mut banner)
        .expect("server banner");
    let addr = banner
        .split_whitespace()
        .find_map(|w| w.strip_prefix("clients="))
        .unwrap_or_else(|| panic!("no client address in {banner:?}"));
    let servers = format!("1={addr}");
    let run = |args: &[&str]| kv_client(&servers, args);

    assert_eq!(run(&["put", "k", "5"]), (Some(0), "ok applied=true".into()));
    assert_eq!(run(&["read", "k"]), (Some(0), "5".into()));
    assert_eq!(
        run(&["cas", "k", "4", "6"]),
        (Some(0), "conflict applied=false actual=5".into())
    );

    // Two accounts on different shards make the transfer a transaction.
    let shard = |k: &str| kvstore::shard_of_key(k, 2);
    let to = (0..)
        .map(|i| format!("acct-{i}"))
        .find(|k| shard(k) != shard("acct-from"))
        .expect("a key on the other shard");
    assert_eq!(run(&["put", "acct-from", "100"]).0, Some(0));
    let (code, out) = run(&["transfer", "acct-from", &to, "30"]);
    assert_eq!(code, Some(0), "{out}");
    let id = out
        .strip_prefix("committed applied=true txn=")
        .unwrap_or_else(|| panic!("not a committed txn: {out:?}"));
    let (client, seq) = id.split_once(':').expect("txn=<client>:<seq>");
    assert_eq!(
        run(&["txn-status", client, seq]),
        (Some(0), "Committed".into())
    );
    drop(server);

    // Nobody listens on a port just freed: the deadline ends the call.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port")
        .port();
    let started = Instant::now();
    let (code, _) = kv_client(
        &format!("1=127.0.0.1:{port}"),
        &["--deadline-ms", "300", "put", "k", "1"],
    );
    assert_eq!(code, Some(1), "a call nobody answers fails");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "took {:?} against a 300 ms deadline",
        started.elapsed()
    );
}
