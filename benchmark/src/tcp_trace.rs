//! The traced run of a TCP workload (`--trace 1`): one cluster whose
//! servers run [`tcpcluster`]'s copy of the serving loop, taken through
//! window 1 with the stopwatch off and then on (the difference is the
//! tracing overhead), window 256 under the stopwatch, an open-loop rate
//! ladder, window 1024, a 1-replica baseline, and the workload's own block
//! (fail-over for `tcp_put`, the 2PC figures and the simulator scenarios
//! for `tcp_txn_2shard`).
//!
//! Everything here is ungated: on this host p99s, open-loop latencies,
//! saturation, time without service, CPU per op and RSS all spread past
//! 25 % run to run.

use crate::estimator::{self, LatencySlices, RateSlices};
use crate::hist::Histogram;
use crate::host;
use crate::metrics::Outcome;
use crate::tcp::{self, Acc, ClientTimes, Sinks, Workload, WINDOW};
use crate::tcpcluster::{Cluster, Ctl, Snapshot, Transport};
use crate::trace::Tracer;
use net::tcp::TcpConfig;
use std::time::{Duration, Instant};

/// Open-loop rungs, ops/s. 5k, 20k and 60k are reported by name; the rest
/// give `load.max_rate_ok_ops_s` its resolution.
const LADDER: [f64; 5] = [5_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0];
/// A rung is OK if its p99 from the due instant stays under this and no
/// more than this much work is still outstanding when its schedule ends.
const LATENCY_LIMIT: Duration = Duration::from_millis(20);
const SAT_WINDOW: usize = 1_024;
const FAILOVER_RATE: f64 = 2_000.0;
const KILLS: usize = 8;

/// Sum of a counter over the servers of a snapshot set.
fn total(snaps: &[Snapshot], f: impl Fn(&Snapshot) -> u64) -> u64 {
    snaps.iter().map(f).sum()
}

/// Decided entries over all shards (the longest copy of each).
fn decided(snaps: &[Snapshot]) -> u64 {
    let shards = snaps.first().map_or(0, |s| s.decided.len());
    (0..shards)
        .map(|i| snaps.iter().map(|s| s.decided[i]).max().unwrap_or(0))
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

pub fn run(workload: Workload, seed: u64, seconds: f64, smoke: bool, out: &mut Outcome) {
    let who = workload.name();
    let span = |frac: f64| Duration::from_secs_f64(seconds * frac);
    let mut acc = Acc::new(workload);
    let mut spans = Tracer::new(150_000);

    let (cluster, mut driver, secs) = match tcp::set_up(workload, workload.spec(true), seed) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || format!("{who}: traced set-up: {e}"));
            return;
        }
    };
    acc.setup_s.push(secs);
    out.set("load.host_probe_mops", host::host_probe_mops(span(0.004)));

    let measured = (|| -> Result<(), String> {
        // Window 1, stopwatch off, then on.
        let mut off = LatencySlices::new(50);
        driver.window1(
            Instant::now() + span(0.04),
            &mut Sinks {
                w1: Some(&mut off),
                latency: Some(&mut acc.w1_all),
                ..Sinks::default()
            },
        )?;
        cluster.send_all(|| Ctl::Stopwatch(true));
        let before = cluster.snapshots();
        let ops_before = driver.tallies.completed;
        let mut client = ClientTimes::default();
        driver.window1(
            Instant::now() + span(0.04),
            &mut Sinks {
                w1: Some(&mut acc.w1),
                latency: Some(&mut acc.w1_all),
                spans: Some(&mut spans),
                client_ns: Some(&mut client),
                ..Sinks::default()
            },
        )?;
        let after = cluster.snapshots();
        let w1_ops = driver.tallies.completed - ops_before;
        if !off.medians.is_empty() && !acc.w1.medians.is_empty() {
            let (a, b) = (
                estimator::quiet_latency(&off.medians),
                estimator::quiet_latency(&acc.w1.medians),
            );
            out.set("trace.overhead_frac", (b - a) / a);
            out.set("w1_p50_us", b);
            out.set(
                "load.plain_w1_p50_us",
                acc.w1_all.quantile_or_zero(0.5) / 1e3,
            );
            out.set("load.w1_p99_us", acc.w1_all.quantile_or_zero(0.99) / 1e3);
            // Share of a window-1 op's latency that is nobody's processor
            // time: not the client's submit, not any server's busy pump.
            let busy = total(&after, |s| s.busy_ns) - total(&before, |s| s.busy_ns);
            let attributed = (busy + client.submit_ns) as f64 / w1_ops.max(1) as f64;
            let p50_ns = acc.w1_all.quantile_or_zero(0.5);
            out.set(
                "trace.unattributed_frac",
                (1.0 - attributed / p50_ns.max(1.0)).max(0.0),
            );
        }
        out.set(
            "net.server.idle_sleeps_per_op",
            ratio(
                total(&after, |s| s.idle_sleeps) - total(&before, |s| s.idle_sleeps),
                w1_ops,
            ),
        );
        out.set(
            "net.client.submit_ns",
            ratio(client.submit_ns, client.submits),
        );

        // Window 256 under the stopwatch.
        driver.later_phases(workload);
        let before = cluster.snapshots();
        let tallies_before = driver.tallies.clone();
        let cpu0 = host::process_cpu_seconds();
        let t0 = Instant::now();
        let mut client = ClientTimes::default();
        let mut lat = Histogram::new();
        let mut transfer_lat = Histogram::new();
        driver.closed_loop(
            WINDOW,
            Instant::now() + span(0.10),
            &mut Sinks {
                rate: Some(&mut acc.rate),
                latency: Some(&mut lat),
                transfer_latency: Some(&mut transfer_lat),
                spans: Some(&mut spans),
                client_ns: Some(&mut client),
                ..Sinks::default()
            },
        )?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::process_cpu_seconds() - cpu0;
        let after = cluster.snapshots();
        cluster.send_all(|| Ctl::Stopwatch(false));
        let t = &driver.tallies;
        let ops = t.completed - tallies_before.completed;
        let delta = |f: &dyn Fn(&Snapshot) -> u64| total(&after, f) - total(&before, f);
        out.set("load.win_lat_p50_us", lat.quantile_or_zero(0.5) / 1e3);
        out.set("load.win_lat_p99_us", lat.quantile_or_zero(0.99) / 1e3);
        out.set("load.plain_ops_per_s", acc.rate.plain_rate());
        out.set(
            "load.slice_spread_frac",
            estimator::iqr_over_median(&acc.rate.rates),
        );
        out.set("load.cpu_ms_per_kop", cpu * 1e3 / (ops.max(1) as f64 / 1e3));
        out.set(
            "net.client.pump_ns",
            ratio(client.pump_ns, client.pumped_ops),
        );
        out.set(
            "net.server.pump_busy_frac",
            delta(&|s| s.busy_ns) as f64 / 1e9 / (wall * after.len().max(1) as f64),
        );
        out.set(
            "net.server.pump_ns_per_op",
            ratio(delta(&|s| s.busy_ns), ops),
        );
        out.set(
            "net.server.tick_ns",
            ratio(delta(&|s| s.tick_ns), delta(&|s| s.ticks)),
        );
        out.set(
            "net.server.ops_per_proposal_batch",
            ratio(delta(&|s| s.proposed_ops), delta(&|s| s.proposal_batches)),
        );
        out.set(
            "net.server.replies_per_flush",
            ratio(delta(&|s| s.reply_frames), delta(&|s| s.reply_batches)),
        );
        out.set(
            "net.tcp.msgs_per_op",
            ratio(delta(&|s| s.link.msgs_sent), ops),
        );
        out.set(
            "net.tcp.bytes_per_op",
            ratio(delta(&|s| s.link.bytes_sent), ops),
        );
        out.set(
            "net.tcp.frames_per_write",
            ratio(
                delta(&|s| s.link.writer_frames),
                delta(&|s| s.link.writer_batches),
            ),
        );
        let entries = decided(&after) - decided(&before);
        out.set(
            "omnipaxos.sequence_paxos.log_entries_per_op",
            ratio(entries, ops),
        );
        if workload == Workload::Txn2Shard {
            let transfers = t.transfers - tallies_before.transfers;
            let cas = t.cas - tallies_before.cas;
            // Every op that is not a transfer is one log entry.
            let plain = ops - (t.transfers_committed - tallies_before.transfers_committed);
            out.set(
                "kvstore.txn.log_entries_per_transfer",
                ratio(entries.saturating_sub(plain), transfers),
            );
            out.set(
                "kvstore.txn.commit_frac",
                ratio(
                    t.transfers_committed - tallies_before.transfers_committed,
                    transfers,
                ),
            );
            out.set(
                "kvstore.txn.transfer_p50_us",
                transfer_lat.quantile_or_zero(0.5) / 1e3,
            );
            out.set(
                "kvstore.txn.cas_conflict_frac",
                ratio(t.cas_refused - tallies_before.cas_refused, cas),
            );
        }

        // Open-loop ladder, timed from the due instant.
        let mut late = Histogram::new();
        let mut max_ok = 0.0;
        for rate in LADDER {
            let mut h = Histogram::new();
            let mut rung_late = Histogram::new();
            let (_, backlog) = driver.open_loop(
                rate,
                span(0.033),
                &mut Sinks {
                    latency: Some(&mut h),
                    gen_late: Some(&mut rung_late),
                    ..Sinks::default()
                },
            )?;
            let p50 = h.quantile_or_zero(0.5) / 1e3;
            let p99 = h.quantile(0.99).unwrap_or(h.max() as f64);
            if p99 <= LATENCY_LIMIT.as_nanos() as f64
                && (backlog as f64) <= rate * LATENCY_LIMIT.as_secs_f64()
            {
                max_ok = rate;
                // On a rung the cluster keeps up with, lateness is the
                // generator's own; past it, it is the in-flight cap's.
                late.merge(&rung_late);
            }
            match rate as u64 {
                5_000 => out.set("load.r5k_p50_us", p50),
                20_000 => {
                    out.set("load.r20k_p50_us", p50);
                    out.set("load.r20k_p99_us", h.quantile_or_zero(0.99) / 1e3);
                }
                60_000 => out.set("load.r60k_p50_us", p50),
                _ => {}
            }
        }
        out.set("load.max_rate_ok_ops_s", max_ok);
        out.set("load.gen_late_p99_us", late.quantile_or_zero(0.99) / 1e3);

        // Saturation: window 1024, closed loop.
        let mut sat = RateSlices::new(workload.slice_ops());
        driver.closed_loop(
            SAT_WINDOW,
            Instant::now() + span(0.05),
            &mut Sinks {
                rate: Some(&mut sat),
                ..Sinks::default()
            },
        )?;
        out.set("load.sat_ops_per_s", sat.plain_rate());
        Ok(())
    })();
    if let Err(e) = measured {
        out.check(false, || format!("{who}: traced run: {e}"));
    }
    out.set("net.client.retries", driver.client.retries() as f64);
    out.set("net.client.rotations", driver.client.rotations() as f64);
    if !acc.rate.rates.is_empty() {
        out.set("ops_per_s", estimator::quiet_rate(&acc.rate.rates));
    }
    let finals = tcp::end_round(workload, cluster, driver, &mut acc, out).finals;
    let sum_finals =
        |f: &dyn Fn(&Snapshot) -> u64| finals.iter().map(|(s, _)| f(s)).sum::<u64>() as f64;
    out.set("net.server.shed", sum_finals(&|s| s.shed));
    out.set(
        "net.server.cross_shard_rejects",
        sum_finals(&|s| s.cross_shard_rejects),
    );
    out.set(
        "net.tcp.heartbeats_sent",
        sum_finals(&|s| s.link.heartbeats_sent),
    );
    out.set("net.tcp.send_drops", sum_finals(&|s| s.link.send_drops));
    out.set(
        "net.tcp.sessions_dropped",
        sum_finals(&|s| s.link.sessions_dropped),
    );
    for (_, server_spans) in finals {
        spans.merge(server_spans);
    }

    solo_baseline(workload, seed, span(0.04), &mut acc, out);
    match workload {
        Workload::Put => failover(seed, seconds, smoke, &mut acc, out),
        Workload::Txn2Shard => crate::sim::run(seed, out),
        Workload::ReadLease => {}
    }

    out.attempted = acc.tallies.attempted;
    out.failed = acc.tallies.failed;
    out.set("load.leader_moves", acc.leader_moves as f64);
    out.set("omnipaxos.ble.leader_changes", acc.leader_changes as f64);
    out.set("load.peak_rss_mb", host::peak_rss_mb());
    out.set("load.failed_frac", ratio(out.failed, out.attempted));
    out.set("load.checks_failed", out.check_failures.len() as f64);
    let path = host::out_dir().join(format!("trace-{who}.json"));
    match spans.write_json(&path, who) {
        Ok(()) => out.notes.push(("trace_file", path.display().to_string())),
        Err(e) => out.notes.push(("trace_file_error", e.to_string())),
    }
}

/// The same workload on one replica: what window-1 latency costs with no
/// replication round at all.
fn solo_baseline(workload: Workload, seed: u64, span: Duration, acc: &mut Acc, out: &mut Outcome) {
    let mut spec = workload.spec(false);
    spec.replicas = 1;
    match tcp::set_up(workload, spec, seed ^ 0x5010) {
        Ok((cluster, mut driver, _)) => {
            let mut w1 = LatencySlices::new(50);
            let res = driver.window1(
                Instant::now() + span,
                &mut Sinks {
                    w1: Some(&mut w1),
                    ..Sinks::default()
                },
            );
            if let Err(e) = res {
                out.check(false, || format!("{}: solo baseline: {e}", workload.name()));
            }
            if !w1.medians.is_empty() {
                out.set("load.solo_w1_p50_us", estimator::quiet_latency(&w1.medians));
            }
            tcp::end_round(workload, cluster, driver, acc, out);
        }
        Err(e) => out.check(false, || {
            format!("{}: solo baseline set-up: {e}", workload.name())
        }),
    }
}

/// Who the servers agree leads shard 0 (the view most of them hold).
fn agreed_leader(cluster: &Cluster) -> Option<u64> {
    let views: Vec<u64> = cluster
        .snapshots()
        .iter()
        .filter_map(|s| s.leaders.first().copied())
        .collect();
    (1..=cluster.spec.replicas)
        .find(|pid| views.iter().filter(|&&v| v == *pid).count() * 2 > views.len())
}

/// `net.failover.*`: a default cluster (50 ms BLE round, default client
/// timers) under a 2 000 ops/s open-loop schedule while the leader's
/// transport is killed [`KILLS`] times. Requests due while nobody leads
/// are on the schedule and counted.
fn failover(seed: u64, seconds: f64, smoke: bool, acc: &mut Acc, out: &mut Outcome) {
    let workload = Workload::Put;
    let mut spec = workload.spec(true);
    spec.hb_timeout_ticks = omnipaxos::service::ServerConfig::with(1).hb_timeout_ticks;
    let (cluster, mut driver, _) = match tcp::set_up(workload, spec, seed ^ 0xFA11) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || format!("failover: set-up: {e}"));
            return;
        }
    };
    let kills = if smoke { 2 } else { KILLS };
    let budget = Duration::from_secs_f64(seconds * 0.42);
    let gap = Duration::from_secs_f64(1.0 / FAILOVER_RATE);
    let start = Instant::now();
    let mut issued = 0u32;
    let mut on_time = 0u64;
    let mut downtimes = Vec::new();
    let mut last_done = Instant::now();
    // One kill cycle: kill, wait for service to resume, restore, settle.
    let mut killed: Option<(u64, Instant)> = None;
    let mut worst_gap = Duration::ZERO;
    let mut next_action = start + Duration::from_millis(300);
    let mut done_kills = 0;
    let result = (|| -> Result<(), String> {
        loop {
            let now = Instant::now();
            let finished = done_kills >= kills && killed.is_none();
            if finished && driver.outstanding() == 0 {
                return Ok(());
            }
            if !finished && now.duration_since(start) > budget + Duration::from_secs(8) {
                return Err(format!("only {done_kills} of {kills} kill cycles fit"));
            }
            if !finished {
                let due = (now.duration_since(start).as_secs_f64() * FAILOVER_RATE) as u32;
                while issued < due {
                    driver.submit_scheduled(start + gap * issued);
                    issued += 1;
                }
            }
            let before = driver.tallies.completed;
            let within = driver.collect_scheduled(Duration::from_micros(400), LATENCY_LIMIT)?;
            on_time += within;
            let now = Instant::now();
            if driver.tallies.completed > before {
                worst_gap = worst_gap.max(now.duration_since(last_done));
                last_done = now;
            }
            match killed {
                None if done_kills < kills && now >= next_action => {
                    if let Some(leader) = agreed_leader(&cluster) {
                        cluster.send(leader, Ctl::KillTransport);
                        killed = Some((leader, now));
                        worst_gap = Duration::ZERO;
                    } else {
                        next_action = now + Duration::from_millis(100);
                    }
                }
                // Service is back once ops complete again (after a real
                // gap) and most servers name another leader: restore the
                // victim's transport and let the cluster settle.
                Some((victim, at))
                    if now.duration_since(at) > Duration::from_millis(400)
                        && now.duration_since(last_done) < Duration::from_millis(20)
                        && worst_gap > Duration::from_millis(20)
                        && agreed_leader(&cluster).is_some_and(|l| l != victim) =>
                {
                    downtimes.push(worst_gap.as_secs_f64() * 1e3);
                    let t =
                        Transport::bind(victim, cluster.repl_addrs.clone(), TcpConfig::default())
                            .map_err(|e| format!("re-bind transport: {e}"))?;
                    cluster.send(victim, Ctl::SetTransport(Box::new(t)));
                    killed = None;
                    done_kills += 1;
                    next_action = now + Duration::from_millis(500);
                }
                Some((_, at)) if now.duration_since(at) > Duration::from_secs(8) => {
                    return Err("service did not resume within 8 s of a leader kill".into());
                }
                _ => {}
            }
        }
    })();
    if let Err(e) = result {
        out.check(false, || format!("failover: {e}"));
    }
    if !downtimes.is_empty() {
        out.set("net.failover.downtime_ms", estimator::median(&downtimes));
    }
    out.set("net.failover.goodput_frac", ratio(on_time, issued as u64));
    out.notes.push((
        "failover",
        format!(
            "{} kills, downtimes {:?} ms",
            downtimes.len(),
            downtimes.iter().map(|d| d.round()).collect::<Vec<_>>()
        ),
    ));
    // A fail-over moves the leader by design: not a `leader_moves` of the
    // measured clusters, and the election count is the block's own.
    let (moves, changes) = (acc.leader_moves, acc.leader_changes);
    let end = tcp::end_round(workload, cluster, driver, acc, out);
    out.set("net.failover.lost_acked_keys", end.lost_acked_keys as f64);
    acc.leader_moves = moves;
    acc.leader_changes = changes;
}
