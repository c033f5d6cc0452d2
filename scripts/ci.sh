#!/usr/bin/env sh
# Offline CI pipeline, split into named stages. Run from the repo root.
# Everything works without network access (no external dependencies).
#
# Usage:
#   scripts/ci.sh              # all stages
#   scripts/ci.sh all          # same
#   scripts/ci.sh fmt          # one stage
#   scripts/ci.sh clippy build # several stages, in the given order
#
# Stages: fmt clippy build test net chaos shard reads storage-faults txn bench benchmark paper perf-smoke
# Each stage is timed; a summary table prints at the end and is also
# written to ci-summary.json (stage, status, seconds) for the workflow
# to publish as a step summary.
set -eu

SUMMARY=""
JSON_STAGES=""
FAILED=0

stage_fmt() {
    echo "==> [fmt] cargo fmt --check"
    cargo fmt --all -- --check
}

stage_clippy() {
    echo "==> [clippy] cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_build() {
    echo "==> [build] cargo build --release"
    cargo build --workspace --release
}

stage_test() {
    # Every workspace test target, the snapshot and BLE property suites
    # included (they used to be re-run by name here, for nothing).
    echo "==> [test] cargo test"
    cargo test --workspace -q
}

stage_net() {
    # Stages run as `stage_x || rc=$?`, where `set -e` is off: chain by hand.
    echo "==> [net] wire codec unit + property/corpus tests"
    cargo test -q -p net --lib || return 1
    cargo test -q -p net --test codec_corpus || return 1
    echo "==> [net] session re-sync semantics (sim + TCP backends agree)"
    cargo test -q -p net --test session_semantics || return 1
    echo "==> [net] loopback cluster smoke over real sockets (time-bounded)"
    NET_SMOKE_OPS=1000 cargo test -q -p net --test loopback three_node_cluster_survives_leader_transport_kill || return 1
    echo "==> [net] shipped binaries end to end (server flags, CLI client)"
    cargo test -q -p net --test server_flags
}

stage_chaos() {
    # Twice, in two processes: every run must replay, so the two outputs
    # may differ in their timing column only.
    echo "==> [chaos] quick deterministic chaos gate (all protocols + kv workloads), run twice"
    first=$(mktemp)
    second=$(mktemp)
    rc=0
    cargo run --release -q -p chaos -- --quick --kv-seeds 25 > "$first" || rc=1
    cat "$first"
    cargo run --release -q -p chaos -- --quick --kv-seeds 25 > "$second" || rc=1
    untimed='s/ +[0-9]+[.][0-9]+s( total)?$//'
    sed -E "$untimed" "$first" > "$first.untimed"
    sed -E "$untimed" "$second" > "$second.untimed"
    if ! diff "$first.untimed" "$second.untimed"; then
        echo "chaos: two processes printed different results -- a run does not replay" >&2
        rc=1
    fi
    rm -f "$first" "$second" "$first.untimed" "$second.untimed"
    return "$rc"
}

stage_shard() {
    echo "==> [shard] sharded loopback cluster: routing + per-shard convergence"
    cargo test -q -p net --test loopback sharded
    echo "==> [shard] per-shard WAL isolation across kill-and-restart"
    cargo test -q -p kvstore --test shard_wal_isolation
    echo "==> [shard] quick multi-group chaos sweep (cross-shard invariants + shard moves)"
    cargo run --release -q -p chaos -- --shard-seeds 25
    echo "==> [shard] sharded open-loop sweep (quick) + schema/scaling gate"
    cargo run --release -q -p bench --bin hotpath -- --net-loopback --shards --quick
    sh scripts/check_bench.sh BENCH_PR7.json
}

stage_reads() {
    echo "==> [reads] read-mode loopback e2e (log / lease / read-index over TCP)"
    cargo test -q -p net --test loopback read_modes
    echo "==> [reads] lease safety unit tests (recovery, reconfig, deposed leader)"
    cargo test -q -p omnipaxos lease
    cargo test -q -p kvstore read
    echo "==> [reads] quick read-chaos sweep (clock skew + partitions, all three modes)"
    cargo run --release -q -p chaos -- --read-seeds 25
    echo "==> [reads] 95/5 read-mode sweep (quick) + schema/ratio gate"
    cargo run --release -q -p bench --bin hotpath -- --reads --quick
    sh scripts/check_bench.sh BENCH_PR8.json
}

stage_storage_faults() {
    echo "==> [storage-faults] WAL crash-point torture (every-byte truncation + bit flips)"
    cargo test -q -p omnipaxos --test wal_torture
    echo "==> [storage-faults] fail-stop semantics unit + integration tests"
    cargo test -q -p omnipaxos fault
    cargo test -q -p omnipaxos halt
    cargo test -q -p chaos disk
    echo "==> [storage-faults] seeded disk-fault chaos sweep (quick)"
    cargo run --release -q -p chaos -- --disk-seeds 25
}

stage_txn() {
    echo "==> [txn] transaction e2e over TCP (cas exactly-once, spanning rejection, 2PC, closed-loop txn)"
    cargo test -q -p net --test loopback -- retried_cas spanning_transfer cross_shard_transactions closed_loop_write_after_a_txn || return 1
    echo "==> [txn] coordinator + transactional state-machine unit tests"
    cargo test -q -p kvstore txn
    cargo test -q -p kvstore cas
    echo "==> [txn] quick 2PC chaos sweep (partitions, crashes, disk faults, shard moves)"
    cargo run --release -q -p chaos -- --txn-seeds 25
    echo "==> [txn] mixed put/cas/transfer workload (quick) + schema/conservation gate"
    cargo run --release -q -p bench --bin hotpath -- --txn-mix --quick
    sh scripts/check_bench.sh BENCH_PR9.json
}

stage_bench() {
    echo "==> [bench] catchup bench (quick): snapshot-first vs full-log replay"
    cargo run --release -q -p bench --bin hotpath -- --catchup --quick
    echo "==> [bench] validate BENCH_*.json result shape"
    sh scripts/check_bench.sh
}

# The repository's benchmark is a package outside the workspace (it
# measures the crates through their public surface), so nothing above
# compiles it: a rename in crates/net would break the ruler unnoticed.
stage_benchmark() {
    # Stages run as `stage_x || rc=$?`, where `set -e` is off: chain by hand.
    echo "==> [benchmark] unit tests of the benchmark package"
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml || return 1
    echo "==> [benchmark] smoke: every workload, traced and untraced, all checks"
    smoke=$(mktemp)
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- --smoke > "$smoke"
    smoke_rc=$?
    cat "$smoke"
    if [ "$smoke_rc" -eq 0 ]; then
        echo "==> [benchmark] allocation ceiling on the engine's replication path"
        python3 - "$smoke" <<'PY'
import json, sys
# Only the traced engine_put_wal run counts allocations; the count is
# exact and the same for every seed. 8.61 per put once entries were
# encoded in place, moved into storage and applied by reference (32.3
# before); one more copy of each entry on any replica adds at least 1.
CEILING = 9.0
lines = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]
counts = [l["metrics"]["engine.allocs_per_op"]["value"] for l in lines
          if l["metrics"].get("engine.allocs_per_op", {}).get("value", 0) > 0]
if len(counts) != 1:
    sys.exit(f"alloc ceiling: expected one traced engine run, found {len(counts)}")
if counts[0] > CEILING:
    sys.exit(f"alloc ceiling: engine.allocs_per_op {counts[0]:.2f} is above {CEILING}"
             " -- a per-entry copy is back on the replication path")
print(f"alloc ceiling: engine.allocs_per_op {counts[0]:.2f} (ceiling {CEILING})")
PY
        smoke_rc=$?
    fi
    rm -f "$smoke"
    return "$smoke_rc"
}

stage_paper() {
    # The paper's own numbers (Table 1, Figs 7-9) are deterministic: each
    # binary must reprint its committed results file byte for byte. A
    # refresh of a results file needs the shape tests in
    # crates/cluster/tests/table1.rs green and a stated reason.
    echo "==> [paper] regenerate Table 1 and Figs 7-9, compare with results_*.txt"
    cargo build --release -q -p bench --bins || return 1
    rc=0
    for fig in table1 fig8 fig9 fig7; do
        out=$(mktemp)
        began=$(date +%s)
        if ! "target/release/$fig" > "$out"; then
            echo "paper: $fig exited with an error" >&2
            rc=1
        elif ! cmp "$out" "results_$fig.txt"; then
            diff "results_$fig.txt" "$out" || true
            echo "paper: $fig no longer reproduces results_$fig.txt" >&2
            rc=1
        else
            echo "paper: $fig matches results_$fig.txt ($(($(date +%s) - began))s)"
        fi
        rm -f "$out"
    done
    return "$rc"
}

stage_perf_smoke() {
    echo "==> [perf-smoke] open-loop socket burst (quick sweep over TCP loopback)"
    cargo run --release -q -p bench --bin hotpath -- --net-loopback --quick
    echo "==> [perf-smoke] peak throughput floor (10x the closed-loop baseline) + window-1 ceiling"
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_PR6.json"))
sweep = data["open_loop_sweep"]
best = max(p["ops_per_sec"] for p in sweep)
FLOOR = 3_500  # ~10x the PR 4 closed-loop 348.5 ops/s
if best < FLOOR:
    print(f"perf-smoke: peak open-loop throughput {best:.0f} ops/s is below "
          f"the {FLOOR} ops/s floor -- the socket hot path regressed", file=sys.stderr)
    sys.exit(1)
print(f"perf-smoke: peak open-loop throughput {best:.0f} ops/s (floor {FLOOR})")
# One op in flight crosses three sleeping threads; if any of them polls
# instead of being woken, this is milliseconds (2.4 ms before PR 13).
w1 = next(p["p50_us"] for p in sweep if p["in_flight"] == 1)
CEILING = 500  # ROADMAP item 1's gate
if w1 >= CEILING:
    print(f"perf-smoke: window-1 p50 {w1:.0f} us is not below the {CEILING} us "
          f"ceiling -- something on the serving path sleep-polls again", file=sys.stderr)
    sys.exit(1)
print(f"perf-smoke: window-1 p50 {w1:.0f} us (ceiling {CEILING})")
PY
}

run_stage() {
    name="$1"
    start=$(date +%s)
    rc=0
    "stage_$name" || rc=$?
    end=$(date +%s)
    if [ "$rc" -eq 0 ]; then
        status=ok
    else
        status=FAIL
        FAILED=1
    fi
    SUMMARY="${SUMMARY}$(printf '%-15s %-5s %4ss' "$name" "$status" "$((end - start))")
"
    JSON_STAGES="${JSON_STAGES}${JSON_STAGES:+,
}    {\"stage\": \"$name\", \"status\": \"$status\", \"seconds\": $((end - start))}"
    return "$rc"
}

write_summary_json() {
    printf '{\n  "stages": [\n%s\n  ],\n  "failed": %s\n}\n' \
        "$JSON_STAGES" "$FAILED" > ci-summary.json
}

STAGES="$*"
if [ -z "$STAGES" ] || [ "$STAGES" = "all" ]; then
    STAGES="fmt clippy build test net chaos shard reads storage-faults txn bench benchmark paper perf-smoke"
fi

for s in $STAGES; do
    case "$s" in
        fmt|clippy|build|test|net|chaos|shard|reads|txn|bench|benchmark|paper)
            # Fail fast, but still print the summary table below.
            if ! run_stage "$s"; then
                break
            fi
            ;;
        storage-faults)
            if ! run_stage storage_faults; then
                break
            fi
            ;;
        perf-smoke)
            if ! run_stage perf_smoke; then
                break
            fi
            ;;
        *)
            echo "unknown stage: $s (stages: fmt clippy build test net chaos shard reads storage-faults txn bench benchmark paper perf-smoke)" >&2
            exit 2
            ;;
    esac
done

write_summary_json
echo ""
echo "stage           status  time"
echo "----------------------------"
printf '%s' "$SUMMARY"
echo "----------------------------"
if [ "$FAILED" -eq 0 ]; then
    echo "CI OK"
else
    echo "CI FAILED"
    exit 1
fi
