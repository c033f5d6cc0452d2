//! The metric tables — the same names, units and bounds as
//! `/BENCHMARK.json` (a unit test keeps the two equal) — and the result
//! every workload fills in.

use crate::json::Json;
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    /// Mirrored in `/BENCHMARK.json`; read by the table test.
    #[allow(dead_code)]
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tcp_put",
        why: "3 replicas over loopback TCP, 100% puts: client, gateway batching, sequence_paxos, tcp fan-out, apply, reply; storage idle",
    },
    Workload {
        name: "tcp_read_lease",
        why: "same cluster, 95% lease reads / 5% puts: same client, gateway and pump loop while the log, codec and followers idle",
    },
    Workload {
        name: "tcp_txn_2shard",
        why: "2 shards led by different nodes, 16 put / 3 CAS / 1 cross-shard 2PC transfer: shard routing, txn, multigroup, per-shard maps",
    },
    Workload {
        name: "engine_put_wal",
        why: "one thread, no sockets: 3 KvNode<WalStorage> with every message through the wire and frame codecs; CPU cost with exact counts",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Bounds are max(0.10, 3 x the worst quartile-distance-over-median seen in
/// the four recorded sets of `baseline/`), capped at 0.25; see
/// `baseline/README.md` for the evidence behind each.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "w1_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.113,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrored in `/BENCHMARK.json`; read by the table test.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const LO: &str = "lower";
const HI: &str = "higher";

pub const PER_LAYER: &[PerLayer] = &[
    // load.* — every workload
    m("load.w1_p99_us", "us", LO),
    m("load.win_lat_p50_us", "us", LO),
    m("load.win_lat_p99_us", "us", LO),
    m("load.plain_w1_p50_us", "us", LO),
    m("load.plain_ops_per_s", "1/s", HI),
    m("load.slice_spread_frac", "frac", LO),
    m("load.host_probe_mops", "Mops/s", HI),
    m("load.gen_late_p99_us", "us", LO),
    m("load.r5k_p50_us", "us", LO),
    m("load.r20k_p50_us", "us", LO),
    m("load.r20k_p99_us", "us", LO),
    m("load.r60k_p50_us", "us", LO),
    m("load.max_rate_ok_ops_s", "1/s", HI),
    m("load.sat_ops_per_s", "1/s", HI),
    m("load.solo_w1_p50_us", "us", LO),
    m("load.cpu_ms_per_kop", "ms", LO),
    m("load.peak_rss_mb", "MB", LO),
    m("load.leader_moves", "count", LO),
    m("load.failed_frac", "frac", LO),
    m("load.checks_failed", "count", LO),
    // net.* — the three tcp workloads
    m("net.client.submit_ns", "ns", LO),
    m("net.client.pump_ns", "ns", LO),
    m("net.client.retries", "count", LO),
    m("net.client.rotations", "count", LO),
    m("net.server.idle_sleeps_per_op", "count", LO),
    m("net.server.pump_busy_frac", "frac", LO),
    m("net.server.pump_ns_per_op", "ns", LO),
    m("net.server.tick_ns", "ns", LO),
    m("net.server.ops_per_proposal_batch", "count", HI),
    m("net.server.replies_per_flush", "count", HI),
    m("net.server.shed", "count", LO),
    m("net.server.cross_shard_rejects", "count", LO),
    m("net.tcp.msgs_per_op", "count", LO),
    m("net.tcp.bytes_per_op", "B", LO),
    m("net.tcp.frames_per_write", "count", HI),
    m("net.tcp.heartbeats_sent", "count", LO),
    m("net.tcp.send_drops", "count", LO),
    m("net.tcp.sessions_dropped", "count", LO),
    // net.failover.* — tcp_put
    m("net.failover.downtime_ms", "ms", LO),
    m("net.failover.goodput_frac", "frac", HI),
    m("net.failover.lost_acked_keys", "count", LO),
    // engine.* — engine_put_wal
    m("engine.gen_ns", "ns", LO),
    m("engine.submit_ns", "ns", LO),
    m("engine.leader_handle_ns", "ns", LO),
    m("engine.follower_handle_ns", "ns", LO),
    m("engine.outgoing_ns", "ns", LO),
    m("engine.take_results_ns", "ns", LO),
    m("engine.tick_ns", "ns", LO),
    m("engine.wire_encode_ns", "ns", LO),
    m("engine.wire_decode_ns", "ns", LO),
    m("engine.frame_encode_ns", "ns", LO),
    m("engine.frame_decode_ns", "ns", LO),
    m("engine.unattributed_frac", "frac", LO),
    m("engine.solo_ns", "ns", LO),
    m("engine.msgs_per_op", "count", LO),
    m("engine.wire_bytes_per_op", "B", LO),
    m("engine.allocs_per_op", "count", LO),
    m("engine.alloc_bytes_per_op", "B", LO),
    // isolated layer timings — engine_put_wal unless marked [all]
    m("omnipaxos.sequence_paxos.decide_ns_per_entry", "ns", LO),
    m("omnipaxos.sequence_paxos.log_entries_per_op", "count", LO),
    m("omnipaxos.wire.batch_cache_hit_frac", "frac", HI),
    m("omnipaxos.ble.round_ns", "ns", LO),
    m("omnipaxos.ble.leader_changes", "count", LO),
    m("omnipaxos.wal.append_ns_per_entry", "ns", LO),
    m("omnipaxos.wal.sync_us_p50", "us", LO),
    m("omnipaxos.wal.entries_per_sync", "count", HI),
    m("omnipaxos.wal.syncs_per_op", "count", LO),
    m("omnipaxos.wal.bytes_per_entry", "B", LO),
    m("omnipaxos.wal.replay_ms_per_100k", "ms", LO),
    m("omnipaxos.service.catchup_ms", "ms", LO),
    m("kvstore.store.apply_put_ns", "ns", LO),
    m("kvstore.store.apply_cas_ns", "ns", LO),
    m("kvstore.store.apply_dup_ns", "ns", LO),
    m("kvstore.wire.encode_ns", "ns", LO),
    m("kvstore.wire.decode_ns", "ns", LO),
    m("kvstore.shard.route_ns", "ns", LO),
    // kvstore.txn.*, cluster.*, simulator.* — tcp_txn_2shard
    m("kvstore.txn.log_entries_per_transfer", "count", LO),
    m("kvstore.txn.commit_frac", "frac", HI),
    m("kvstore.txn.transfer_p50_us", "us", LO),
    m("kvstore.txn.cas_conflict_frac", "frac", LO),
    m("cluster.downtime_quorum_loss_ms", "sim_ms", LO),
    m("cluster.downtime_constrained_ms", "sim_ms", LO),
    m("cluster.downtime_chained_ms", "sim_ms", LO),
    m("cluster.leader_changes", "count", LO),
    m("cluster.bytes_per_decided", "B", LO),
    m("cluster.sim_p50_us", "sim_us", LO),
    m("simulator.events_per_wall_s", "1/s", HI),
    // trace.* — every workload
    m("trace.overhead_frac", "frac", LO),
    m("trace.unattributed_frac", "frac", LO),
];

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness check that did not hold.
    pub check_failures: Vec<String>,
    /// Metric values by table name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form facts worth keeping with the run (`wal_dir`, boots, ...).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|e| e.name == name) || PER_LAYER.iter().any(|p| p.name == name),
            "{name} is in neither metric table"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: every end-to-end metric with `--trace 0`, every
    /// per-layer metric (0 where this workload does not produce it) with
    /// `--trace 1`.
    pub fn result_line(&self, traced: bool) -> Json {
        let metric = |name: &'static str, unit: &'static str| {
            (
                name,
                Json::obj(vec![
                    (
                        "value",
                        Json::Num(self.values.get(name).copied().unwrap_or(0.0)),
                    ),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        };
        let metrics = if traced {
            PER_LAYER.iter().map(|p| metric(p.name, p.unit)).collect()
        } else {
            END_TO_END.iter().map(|e| metric(e.name, e.unit)).collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("read /BENCHMARK.json"))
            .expect("parse /BENCHMARK.json")
    }

    fn field<'a>(v: &'a Json, k: &str) -> &'a str {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {k}"))
    }

    #[test]
    fn benchmark_json_and_the_tables_agree() {
        let b = manifest();
        let keys: Vec<&str> = b
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = b.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((field(j, "name"), field(j, "why")), (w.name, w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (e.name, e.unit, e.better)
            );
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(e.bound),
                "{}",
                e.name
            );
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        let layers = b.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, p) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (p.name, p.unit, p.better)
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for (n, u) in WORKLOADS
            .iter()
            .map(|w| (w.name, "count"))
            .chain(END_TO_END.iter().map(|e| (e.name, e.unit)))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(name_ok(n), "name {n}");
            assert!(unit_ok(u), "unit {u}");
            assert!(seen.insert(n), "{n} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == LO));
    }

    #[test]
    fn result_lines_carry_exactly_the_tabled_metrics() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("w1_p50_us", 2187.5);
        let line = o.result_line(false);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        assert_eq!(
            o.result_line(true)
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
        o.check(false, || "boom".into());
        assert_eq!(
            o.result_line(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
