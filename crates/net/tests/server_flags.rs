//! `omni-kv-server` rejects malformed flags with the usage text and exit
//! status 2 instead of silently defaulting them.

use std::process::{Command, Stdio};
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
