#!/usr/bin/env sh
# Validate the shape of the committed BENCH_*.json result files: each must
# be a JSON object naming its bench, and every metrics section must hold
# finite, non-negative numbers (a NaN/Infinity or a negative rate means a
# broken measurement, not a slow one). Run from the repo root.
set -eu

python3 - "$@" <<'PY'
import glob
import json
import math
import sys

files = sys.argv[1:] or sorted(glob.glob("BENCH_*.json"))
if not files:
    print("check_bench: no BENCH_*.json files found", file=sys.stderr)
    sys.exit(1)

errors = []


def check_numbers(path, prefix, obj):
    """Every numeric leaf must be finite and non-negative."""
    for key, value in obj.items():
        where = f"{path}: {prefix}{key}"
        if isinstance(value, dict):
            check_numbers(path, f"{prefix}{key}.", value)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    check_numbers(path, f"{prefix}{key}[{i}].", item)
                elif isinstance(item, (int, float)) and not isinstance(item, bool):
                    if not math.isfinite(item):
                        errors.append(f"{where}[{i}] is not finite: {item}")
                    elif item < 0:
                        errors.append(f"{where}[{i}] is negative: {item}")
                else:
                    errors.append(f"{where}[{i}] has unexpected type {type(item).__name__}")
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            if not math.isfinite(value):
                errors.append(f"{where} is not finite: {value}")
            elif value < 0:
                errors.append(f"{where} is negative: {value}")
        elif isinstance(value, str):
            continue
        else:
            errors.append(f"{where} has unexpected type {type(value).__name__}")


def check_open_loop_sweep(path, data):
    """BENCH_PR6 schema: the open-loop sweep must cover the 1→10k
    in-flight range with at least five points, each carrying throughput
    and latency percentiles; the peak must clear the floor (35k ops/s on
    a full run, 3.5k on --quick), and the under-load correctness checks
    must all have passed."""
    sweep = data.get("open_loop_sweep")
    if not isinstance(sweep, list) or len(sweep) < 5:
        errors.append(f"{path}: open_loop_sweep must be a list of >=5 points")
        return
    need = ("in_flight", "ops", "elapsed_s", "ops_per_sec", "p50_us", "p99_us")
    for i, pt in enumerate(sweep):
        if not isinstance(pt, dict):
            errors.append(f"{path}: open_loop_sweep[{i}] is not an object")
            return
        missing = [k for k in need if not isinstance(pt.get(k), (int, float))]
        if missing:
            errors.append(f"{path}: open_loop_sweep[{i}] missing numeric {missing}")
    windows = [pt["in_flight"] for pt in sweep if isinstance(pt.get("in_flight"), (int, float))]
    if not windows or min(windows) > 1 or max(windows) < 10_000:
        errors.append(f"{path}: sweep must span in_flight 1 -> 10000 (got {windows})")
    rates = [pt["ops_per_sec"] for pt in sweep if isinstance(pt.get("ops_per_sec"), (int, float))]
    floor = 3_500 if data.get("quick") else 35_000
    if not rates or max(rates) < floor:
        errors.append(
            f"{path}: peak open-loop throughput {max(rates or [0]):.0f} ops/s "
            f"below the {floor} floor"
        )
    checks = data.get("checks")
    if not isinstance(checks, dict):
        errors.append(f"{path}: missing under-load correctness checks")
        return
    for k in ("completions_exactly_once", "final_reads_linearizable", "replicas_converged"):
        if not checks.get(k):
            errors.append(f"{path}: correctness check {k!r} did not pass")


def check_sharded_sweep(path, data):
    """BENCH_PR7 schema: one point per shard count in {1, 2, 4}, each the
    peak of a per-shard-window sweep with throughput, latency percentiles
    and CPU-saturation evidence; the per-shard correctness checks must all
    have passed. The 1→4 scaling gate is conditioned on the host's
    *measured* parallelism: shard groups scale across cores, so a host
    whose scheduler grants ~1 core (cgroup quota, single-cpu VM) runs
    every shard count at the same CPU-saturated ceiling — there the gate
    demands no multiplexing overhead instead of a physically impossible
    speedup."""
    sweep = data.get("shard_sweep")
    if not isinstance(sweep, list) or len(sweep) < 3:
        errors.append(f"{path}: shard_sweep must be a list of >=3 points")
        return
    need = (
        "shards", "per_shard_window", "ops", "elapsed_s", "ops_per_sec",
        "p50_us", "p99_us", "cpu_cores_busy",
    )
    for i, pt in enumerate(sweep):
        if not isinstance(pt, dict):
            errors.append(f"{path}: shard_sweep[{i}] is not an object")
            return
        missing = [k for k in need if not isinstance(pt.get(k), (int, float))]
        if missing:
            errors.append(f"{path}: shard_sweep[{i}] missing numeric {missing}")
        per_shard = pt.get("per_shard_ops")
        if not isinstance(per_shard, list) or len(per_shard) != pt.get("shards"):
            errors.append(
                f"{path}: shard_sweep[{i}] per_shard_ops must list one count per shard"
            )
        elif pt.get("ops") != sum(per_shard):
            errors.append(
                f"{path}: shard_sweep[{i}] per_shard_ops must sum to ops "
                f"(completions lost or double-counted)"
            )
    counts = {pt.get("shards") for pt in sweep}
    if not {1, 2, 4} <= counts:
        errors.append(f"{path}: shard_sweep must cover shards 1, 2 and 4 (got {sorted(counts)})")
        return
    floor = 3_500 if data.get("quick") else 35_000
    for pt in sweep:
        if isinstance(pt.get("ops_per_sec"), (int, float)) and pt["ops_per_sec"] < floor:
            errors.append(
                f"{path}: {pt.get('shards')}-shard peak {pt['ops_per_sec']:.0f} ops/s "
                f"below the {floor} floor"
            )
    scaling = data.get("scaling_1_to_4")
    cores = data.get("host_effective_cores")
    if not isinstance(scaling, (int, float)) or not isinstance(cores, (int, float)):
        errors.append(f"{path}: missing scaling_1_to_4 / host_effective_cores")
    elif cores >= 2.0:
        if scaling < 1.5:
            errors.append(
                f"{path}: 1->4 shard scaling {scaling:.2f}x below the 1.5x gate "
                f"on a host with {cores:.2f} effective cores"
            )
    elif scaling < 0.85:
        errors.append(
            f"{path}: 1->4 shard scaling {scaling:.2f}x shows multiplexing overhead "
            f"(>= 0.85x required even without parallelism)"
        )
    else:
        print(
            f"check_bench: {path} host has {cores:.2f} effective cores -- parallel "
            f"scaling impossible, enforcing the no-overhead gate ({scaling:.2f}x >= 0.85x)"
        )
    checks = data.get("checks")
    if not isinstance(checks, dict):
        errors.append(f"{path}: missing per-shard correctness checks")
        return
    for k in (
        "completions_exactly_once_per_shard",
        "final_reads_linearizable",
        "per_shard_replicas_converged",
        "routing_converged",
    ):
        if not checks.get(k):
            errors.append(f"{path}: correctness check {k!r} did not pass")


def check_read_modes(path, data):
    """BENCH_PR8 schema: one peak point per read mode in {log, lease,
    read-index}, each from a 95/5 read/write open-loop window sweep with
    read/write latency percentiles and the decided-log length as log-free
    evidence. The lease-over-log throughput gate is conditioned on the
    host's *measured* parallelism: lease reads are served from the
    leader's memory while log reads ride replication + fsync, but on a
    ~1-core host both paths serialize onto the same CPU and converge to
    the same ceiling — there the gate demands the lease path adds no
    overhead instead of a physically impossible multiplier. The log-free
    structural checks (decided log grows with writes only) hold on any
    host."""
    sweep = data.get("mode_sweep")
    if not isinstance(sweep, list) or len(sweep) < 3:
        errors.append(f"{path}: mode_sweep must be a list of >=3 points")
        return
    need = (
        "in_flight", "ops", "reads", "writes", "total_writes", "elapsed_s",
        "ops_per_sec", "read_p50_us", "read_p99_us", "write_p50_us",
        "write_p99_us", "decided_log_entries", "cpu_cores_busy",
    )
    by_mode = {}
    for i, pt in enumerate(sweep):
        if not isinstance(pt, dict):
            errors.append(f"{path}: mode_sweep[{i}] is not an object")
            return
        missing = [k for k in need if not isinstance(pt.get(k), (int, float))]
        if missing:
            errors.append(f"{path}: mode_sweep[{i}] missing numeric {missing}")
            continue
        if pt["reads"] + pt["writes"] != pt["ops"]:
            errors.append(
                f"{path}: mode_sweep[{i}] reads + writes must sum to ops "
                f"(completions lost or double-counted)"
            )
        if pt["reads"] < 15 * pt["writes"]:
            errors.append(
                f"{path}: mode_sweep[{i}] is not read-heavy "
                f"({pt['reads']} reads vs {pt['writes']} writes)"
            )
        by_mode[pt.get("mode")] = pt
    if not {"log", "lease", "read-index"} <= set(by_mode):
        errors.append(
            f"{path}: mode_sweep must cover log, lease and read-index "
            f"(got {sorted(k for k in by_mode if isinstance(k, str))})"
        )
        return
    floor = 3_500 if data.get("quick") else 35_000
    for name, pt in by_mode.items():
        if pt["ops_per_sec"] < floor:
            errors.append(
                f"{path}: {name} peak {pt['ops_per_sec']:.0f} ops/s "
                f"below the {floor} floor"
            )
    # Log-free evidence, host-independent: lease / read-index reads must
    # not land in the replicated log, log-mode reads must. The decided
    # log is measured once per mode and is cumulative over every swept
    # window, so the bound uses the run's total_writes (the reported
    # point's writes cover only the best window).
    slack = 300
    log, lease, ri = by_mode["log"], by_mode["lease"], by_mode["read-index"]
    if log["decided_log_entries"] <= log["total_writes"] + slack:
        errors.append(f"{path}: log-mode reads must ride the replicated log")
    for name, pt in (("lease", lease), ("read-index", ri)):
        if pt["decided_log_entries"] >= pt["total_writes"] + slack:
            errors.append(
                f"{path}: {name}-mode decided log ({pt['decided_log_entries']} entries) "
                f"grew with the reads -- reads are not log-free"
            )
    ratio = data.get("lease_over_log")
    cores = data.get("host_effective_cores")
    if not isinstance(ratio, (int, float)) or not isinstance(cores, (int, float)):
        errors.append(f"{path}: missing lease_over_log / host_effective_cores")
    elif cores >= 2.0:
        if ratio < 5.0:
            errors.append(
                f"{path}: lease-over-log throughput {ratio:.2f}x below the 5x gate "
                f"on a host with {cores:.2f} effective cores"
            )
    elif ratio < 0.85:
        errors.append(
            f"{path}: lease-over-log throughput {ratio:.2f}x shows lease overhead "
            f"(>= 0.85x required even without parallelism)"
        )
    else:
        print(
            f"check_bench: {path} host has {cores:.2f} effective cores -- the 5x "
            f"lease gate needs parallelism, enforcing the no-overhead gate "
            f"({ratio:.2f}x >= 0.85x)"
        )
    checks = data.get("checks")
    if not isinstance(checks, dict):
        errors.append(f"{path}: missing read-mode correctness checks")
        return
    for k in (
        "completions_exactly_once",
        "final_reads_linearizable",
        "replicas_converged",
        "lease_reads_log_free",
        "read_index_reads_log_free",
    ):
        if not checks.get(k):
            errors.append(f"{path}: correctness check {k!r} did not pass")


def check_txn_mix(path, data):
    """BENCH_PR9 schema: one best point from the 80/15/5 put/cas/transfer
    window sweep over the 4-shard cluster, with per-class latency
    percentiles (a 2PC transfer costs several log entries across two
    shards — folding it into one histogram would hide that) and the
    self-audited correctness checks: exactly-once completions, CAS
    verdicts matching the client-side model, and the committed-transfer
    balance audit (every account holds exactly its expected balance and
    the bank total is conserved). Both transfer outcomes must have been
    exercised: the workload plants guaranteed-abort transfers, so zero
    aborts — like zero commits — means a path went untested."""
    best = data.get("best")
    if not isinstance(best, dict):
        errors.append(f"{path}: missing best point")
        return
    need = (
        "per_shard_window", "ops", "puts", "cas_ops", "transfers",
        "elapsed_s", "ops_per_sec", "put_p50_us", "put_p99_us",
        "cas_p50_us", "cas_p99_us", "txn_p50_us", "txn_p99_us",
        "cpu_cores_busy",
    )
    missing = [k for k in need if not isinstance(best.get(k), (int, float))]
    if missing:
        errors.append(f"{path}: best point missing numeric {missing}")
        return
    if best["puts"] + best["cas_ops"] + best["transfers"] != best["ops"]:
        errors.append(
            f"{path}: puts + cas_ops + transfers must sum to ops "
            f"(completions lost or double-counted)"
        )
    # The 80/15/5 mix, within 2% of each target fraction.
    for name, frac in (("puts", 0.80), ("cas_ops", 0.15), ("transfers", 0.05)):
        share = best[name] / best["ops"] if best["ops"] else 0.0
        if abs(share - frac) > 0.02:
            errors.append(
                f"{path}: {name} are {share:.3f} of the mix, wanted {frac:.2f}"
            )
    floor = 2_000 if data.get("quick") else 8_000
    if best["ops_per_sec"] < floor:
        errors.append(
            f"{path}: mixed-workload throughput {best['ops_per_sec']:.0f} ops/s "
            f"below the {floor} floor"
        )
    for k in ("transfers_committed", "transfers_aborted", "cas_conflicts"):
        if not isinstance(data.get(k), (int, float)) or data[k] <= 0:
            errors.append(
                f"{path}: {k} must be positive (that path went unexercised)"
            )
    checks = data.get("checks")
    if not isinstance(checks, dict):
        errors.append(f"{path}: missing txn-mix correctness checks")
        return
    for k in (
        "completions_exactly_once",
        "cas_verdicts_match_model",
        "transfer_balances_conserved",
        "final_reads_linearizable",
        "per_shard_replicas_converged",
        "no_cross_shard_rejections",
    ):
        if not checks.get(k):
            errors.append(f"{path}: correctness check {k!r} did not pass")


for path in files:
    errors_before = len(errors)
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        continue
    if not isinstance(data, dict):
        errors.append(f"{path}: top level must be a JSON object")
        continue
    if not isinstance(data.get("bench"), str) or not data["bench"]:
        errors.append(f'{path}: missing or empty "bench" name')
    sections = {k: v for k, v in data.items() if isinstance(v, dict)}
    if not sections:
        errors.append(f"{path}: no metrics sections (nested objects) found")
    for name, section in sections.items():
        numeric = [v for v in section.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if not numeric:
            errors.append(f"{path}: section {name!r} has no numeric fields")
    check_numbers(path, "", data)
    if data.get("bench") == "net-open-loop":
        check_open_loop_sweep(path, data)
    if data.get("bench") == "net-sharded-open-loop":
        check_sharded_sweep(path, data)
    if data.get("bench") == "net-read-modes":
        check_read_modes(path, data)
    if data.get("bench") == "net-txn-mix":
        check_txn_mix(path, data)
    if len(errors) == errors_before:
        print(f"check_bench: {path} ok ({data.get('bench')}, {len(sections)} sections)")

if errors:
    for e in errors:
        print(f"check_bench: {e}", file=sys.stderr)
    sys.exit(1)
PY
