#!/bin/sh
# Record the four ten-run sets the bounds rest on: two quiet, two beside a
# synthetic noisy neighbour (one thread of the allocate-and-hash loop, the
# `noise` subcommand). Run from the repository root; takes ~85 minutes.
#
#   sh benchmark/baseline/record.sh [seconds-per-run]
set -eu
SECONDS_PER_RUN=${1:-30}
OUT=benchmark/baseline
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/omni-benchmark
for set in quiet-1 noisy-1 quiet-2 noisy-2; do
    rm -f "$OUT/$set.json"
    case $set in
    noisy-*) "$BIN" noise 100000 & NOISE=$! ;;
    *) NOISE= ;;
    esac
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        for w in tcp_put tcp_read_lease tcp_txn_2shard engine_put_wal; do
            "$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
                --record "$OUT/$set.json" | tail -1
        done
    done
    if [ -n "$NOISE" ]; then
        kill "$NOISE"
        wait "$NOISE" 2>/dev/null || true
    fi
done
"$BIN" compare "$OUT/quiet-1.json" "$OUT/quiet-2.json"
"$BIN" compare "$OUT/quiet-1.json" "$OUT/noisy-1.json"
"$BIN" compare "$OUT/quiet-2.json" "$OUT/noisy-2.json"
