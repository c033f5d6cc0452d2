//! Command-line client for a running omni-kv cluster.
//!
//! ```text
//! omni-kv-client --servers 1=127.0.0.1:7201,2=127.0.0.1:7202 put balance 100
//! omni-kv-client --servers ... read balance        # linearizable
//! omni-kv-client --servers ... add balance -25
//! omni-kv-client --servers ... delete balance
//! omni-kv-client --servers ... cas balance 100 75  # set 75 iff currently 100
//! omni-kv-client --servers ... transfer a b 25     # atomic, cross-shard if needed
//! omni-kv-client --servers ... txn-status <client> <seq>
//! omni-kv-client --servers ... bench 1000          # closed loop: sequential puts
//! omni-kv-client --servers ... pbench 100000 512   # open loop: 512 puts in flight
//! omni-kv-client --servers ... --deadline-ms 2000 read balance
//! ```
//!
//! `cas` takes `nil` for either value: `cas k nil 5` inserts iff absent,
//! `cas k 5 nil` deletes iff currently 5. `transfer` routes same-shard
//! pairs through the atomic single-entry op, which prints
//! `ok applied=<verdict>`, and cross-shard pairs through the 2PC
//! transaction path, which prints the verdict and the transaction id
//! (`txn=<client>:<seq>`) that `txn-status <client> <seq>` takes.

use kvstore::{KvOp, NodeId, ReadMode, TxnSpec};
use net::client::{KvClient, PipelinedKvClient};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: omni-kv-client --servers <pid=addr,...> [--deadline-ms N] \
         [--read-mode log|lease|read-index] \
         (put <k> <v> | read <k> | add <k> <d> | delete <k> | \
         cas <k> <expect|nil> <set|nil> | transfer <from> <to> <amount> | \
         txn-status <client> <seq> | bench <n> | pbench <n> [window])"
    );
    std::process::exit(2)
}

fn parse_servers(spec: &str) -> Option<Vec<(NodeId, SocketAddr)>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (pid, addr) = part.split_once('=')?;
        out.push((
            pid.trim().parse().ok()?,
            addr.trim().parse::<SocketAddr>().ok()?,
        ));
    }
    (!out.is_empty()).then_some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut servers = None;
    let mut deadline = None;
    let mut read_mode = ReadMode::Log;
    let mut rest: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--servers" => servers = it.next().and_then(|v| parse_servers(v)),
            "--read-mode" => {
                read_mode = match it.next().map(String::as_str) {
                    Some("log") => ReadMode::Log,
                    Some("lease") => ReadMode::Lease,
                    Some("read-index") => ReadMode::ReadIndex,
                    _ => usage(),
                };
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                deadline = Some(Duration::from_millis(ms.max(1)));
            }
            other => rest.push(other),
        }
    }
    let Some(servers) = servers else { usage() };
    // Client id from pid + time so concurrent clients get distinct
    // sessions without coordination.
    let client_id = (std::process::id() as u64) << 32
        | std::time::UNIX_EPOCH
            .elapsed()
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(1);
    let mut client = KvClient::new(client_id, servers.clone());
    if let Some(d) = deadline {
        // Overall per-op deadline: retries and redirects keep going until
        // it lapses, then the op fails with a timeout error.
        client.set_timeout(d);
    }

    let result = match rest.as_slice() {
        ["put", k, v] => {
            let v: i64 = v.parse().unwrap_or_else(|_| usage());
            client
                .put(k, v)
                .map(|r| println!("ok applied={}", r.applied))
        }
        ["read", k] => client.read_with_mode(k, read_mode).map(|v| match v {
            Some(v) => println!("{v}"),
            None => println!("(nil)"),
        }),
        ["add", k, d] => {
            let d: i64 = d.parse().unwrap_or_else(|_| usage());
            client
                .add(k, d)
                .map(|r| println!("{}", r.value.map_or("(nil)".into(), |v| v.to_string())))
        }
        ["delete", k] => client
            .delete(k)
            .map(|r| println!("ok applied={}", r.applied)),
        ["cas", k, expect, set] => {
            let parse_opt = |s: &str| -> Option<i64> {
                if s == "nil" {
                    None
                } else {
                    Some(s.parse().unwrap_or_else(|_| usage()))
                }
            };
            client.cas(k, parse_opt(expect), parse_opt(set)).map(|r| {
                if r.applied {
                    println!("ok applied=true");
                } else {
                    println!(
                        "conflict applied=false actual={}",
                        r.value.map_or("(nil)".into(), |v| v.to_string())
                    );
                }
            })
        }
        ["transfer", from, to, amount] => {
            let amount: i64 = amount.parse().unwrap_or_else(|_| usage());
            // Learn the shard count from the cluster so same-shard pairs
            // ride the cheap single-entry path.
            let n_shards = net::fetch_shards(&servers, Duration::from_secs(2))
                .map(|l| l.len())
                .unwrap_or(1);
            if kvstore::shard_of_key(from, n_shards) == kvstore::shard_of_key(to, n_shards) {
                client
                    .op(KvOp::Transfer {
                        from: (*from).into(),
                        to: (*to).into(),
                        amount,
                    })
                    .map(|r| println!("ok applied={}", r.applied))
            } else {
                client.txn(TxnSpec::transfer(*from, *to, amount)).map(|r| {
                    println!(
                        "{} applied={} txn={}:{}",
                        if r.applied { "committed" } else { "aborted" },
                        r.applied,
                        r.client,
                        r.seq
                    )
                })
            }
        }
        ["txn-status", c, s] => {
            let c: u64 = c.parse().unwrap_or_else(|_| usage());
            let s: u64 = s.parse().unwrap_or_else(|_| usage());
            client.txn_status(c, s).map(|state| println!("{state:?}"))
        }
        ["bench", n] => {
            let n: u64 = n.parse().unwrap_or_else(|_| usage());
            let start = Instant::now();
            let mut done = 0u64;
            for i in 0..n {
                if client.put("bench-key", i as i64).is_ok() {
                    done += 1;
                }
            }
            let secs = start.elapsed().as_secs_f64();
            println!(
                "{done}/{n} ops in {secs:.3}s  ({:.0} ops/s)",
                done as f64 / secs.max(1e-9)
            );
            Ok(())
        }
        ["pbench", n] | ["pbench", n, _] => {
            let n: u64 = n.parse().unwrap_or_else(|_| usage());
            let window: usize = match rest.as_slice() {
                [_, _, w] => w.parse().unwrap_or_else(|_| usage()),
                _ => 512,
            };
            let mut pipe = PipelinedKvClient::new(client_id, servers);
            let start = Instant::now();
            let mut submitted = 0u64;
            let mut done = 0u64;
            let mut retries_snapshot = 0u64;
            let res = loop {
                while submitted < n && pipe.in_flight() < window {
                    pipe.submit(KvOp::Put {
                        key: format!("bench-key-{}", submitted % 64),
                        value: submitted as i64,
                    });
                    submitted += 1;
                }
                match pipe.wait(Duration::from_millis(50)) {
                    Ok(rs) => done += rs.len() as u64,
                    Err(e) => break Err(e),
                }
                if done == n {
                    retries_snapshot = pipe.retries_seen();
                    break Ok(());
                }
            };
            let secs = start.elapsed().as_secs_f64();
            println!(
                "{done}/{n} ops in {secs:.3}s  ({:.0} ops/s, window {window}, \
                 {retries_snapshot} retries)",
                done as f64 / secs.max(1e-9)
            );
            res
        }
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
