#!/usr/bin/env bash
# Full verification sweep: build, tests, docs, experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (all targets)"
cargo build --workspace --all-targets --release

echo "== lint (clippy, warnings are errors)"
# indexing_slicing stays advisory at the clippy layer: dash-analyze below
# denies direct indexing in the secure scope (with zero baseline), where
# it matters; a blanket clippy error would only force blanket module
# allows in the non-secure crates.
cargo clippy --workspace --all-targets --release -- -D warnings -A clippy::indexing-slicing

echo "== static analysis (dash-analyze, all lints denied, cross-function taint)"
# Covers the token lints plus the call-graph taint pass: any path from a
# Secret-producing function to a formatter that never goes through an
# audited open (open_via/open_local) is a build failure. The set includes
# the constant-time lint: data-dependent branches, comparisons, `%`/`/`,
# and table lookups on share material in the mpc arithmetic modules deny
# with a zero baseline.
cargo run --release -p dash-analyze -- --deny all --format json

echo "== analyzer differential (AST engine must cover the token engine)"
# The AST taint engine replaced the token-stream pass; this guard runs
# both over the workspace and fails if the AST engine misses any
# cross-function-taint site the legacy engine still finds.
cargo run --release -p dash-analyze -- --differential

echo "== analyzer runtime budget (E15)"
# The gate runs uncached on every sweep, so its own runtime is pinned:
# E15 asserts the median full-workspace AST analysis stays under 1.5 s.
./target/release/exp15_analyze

echo "== analyzer baseline must stay empty"
# The grandfathered secure-indexing sites were burned down to zero; the
# gate is one-way. New findings get fixed or pragma'd with a written
# justification — never re-baselined.
if ! grep -q '"findings": \[\]' analyze-baseline.json; then
    echo "error: analyze-baseline.json is non-empty; fix or pragma the findings" >&2
    exit 1
fi

echo "== format"
cargo fmt --all --check

echo "== tests"
cargo test --workspace --release

echo "== debug-build secure-scan suites (bit identity, debug assertions)"
# The blocked secure pipeline must be bit-identical to the monolithic
# path; DASH_BLOCKED_CASES bounds the randomized sweep so CI stays fast
# (raise it locally for a deeper search). The run is a debug build, so
# it also exercises the debug assertions that per-block traffic counters
# partition the total and that every party derived a bit-identical
# result — over the in-process mesh, over loopback TCP and on the
# checkpointed path; every other test stage runs --release.
DASH_BLOCKED_CASES=16 cargo test -p dash-core --test blocked_secure \
    --test tcp_secure --test checkpoint_resume

echo "== trace smoke (scan --trace-out, then schema/invariant validation)"
# A tiny end-to-end observability round trip: simulate a 2-party study,
# run a blocked secure scan with tracing on, and validate the emitted
# dash-trace/1 JSON (schema, counter conservation, span monotonicity).
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
./target/release/dash simulate --out "$TRACE_TMP" --samples 40,50 \
    --variants 12 --causal 3 --covariates 2 --seed 7
./target/release/dash secure-scan --dir "$TRACE_TMP" --block-size 4 \
    --audit false --metrics true --trace-out "$TRACE_TMP/trace.json" \
    --out "$TRACE_TMP/ref.tsv"
./target/release/dash-analyze --validate-trace "$TRACE_TMP/trace.json"

echo "== multi-process TCP smoke (3 real party processes over loopback)"
# The same workload again, but as three OS processes talking real TCP:
# results must be byte-identical to the in-process reference above, each
# party must exit 0 within its watchdog, and party 0's emitted trace must
# pass the same schema/conservation validation as the in-process one.
# The reference workload above is 2-party (party0/ and party1/), so the
# TCP run is two processes on a randomized loopback port pair.
PORT_BASE=$((20000 + RANDOM % 20000))
PEERS2="127.0.0.1:$PORT_BASE,127.0.0.1:$((PORT_BASE + 1))"
TCP_PIDS=()
for i in 0 1; do
    timeout 120 ./target/release/dash party --id "$i" --peers "$PEERS2" \
        --dir "$TRACE_TMP/party$i" --block-size 4 --audit false \
        --out "$TRACE_TMP/tcp$i.tsv" \
        $([ "$i" = 0 ] && echo "--trace-out $TRACE_TMP/tcp-trace.json") \
        > "$TRACE_TMP/party$i.log" 2>&1 &
    TCP_PIDS+=($!)
done
for pid in "${TCP_PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "error: a dash party process failed; logs follow" >&2
        cat "$TRACE_TMP"/party*.log >&2
        exit 1
    fi
done
for i in 0 1; do
    cmp "$TRACE_TMP/ref.tsv" "$TRACE_TMP/tcp$i.tsv" || {
        echo "error: party $i TCP results differ from in-process reference" >&2
        exit 1
    }
done
./target/release/dash-analyze --validate-trace "$TRACE_TMP/tcp-trace.json"

echo "== crash/resume chaos smoke (mid-stream RST, kill a party, resume, byte-compare)"
# Three real party processes, checkpointing at every block boundary. Party
# 2 dials party 0 through the `dash chaos` proxy, which resets the first
# connection mid-stream (past the 96-byte hello exchange) so supervision
# has to reconnect and replay. Party 2 also kills itself right after block
# 0's checkpoint is durable (the --crash-after-block hook stands in for a
# well-timed kill -9) and is restarted with --resume inside the reconnect
# window. All three result files must still be byte-identical to the
# in-process reference — recovery must be invisible in the results.
CHAOS_TMP="$TRACE_TMP/chaos"
./target/release/dash simulate --out "$CHAOS_TMP" --samples 20,25,15 \
    --variants 12 --causal 3 --covariates 2 --seed 5
./target/release/dash secure-scan --dir "$CHAOS_TMP" --block-size 4 \
    --audit false --out "$CHAOS_TMP/ref.tsv"
CHAOS_BASE=$((20000 + RANDOM % 20000))
PEERS3="127.0.0.1:$CHAOS_BASE,127.0.0.1:$((CHAOS_BASE + 1)),127.0.0.1:$((CHAOS_BASE + 2))"
PROXY_ADDR="127.0.0.1:$((CHAOS_BASE + 3))"
# Party 2's view of the mesh routes its party-0 link through the proxy.
PEERS3_PROXIED="$PROXY_ADDR,127.0.0.1:$((CHAOS_BASE + 1)),127.0.0.1:$((CHAOS_BASE + 2))"
./target/release/dash chaos --listen "$PROXY_ADDR" \
    --upstream "127.0.0.1:$CHAOS_BASE" --fault rst-after=200 \
    --policy first-connection > "$CHAOS_TMP/chaos.log" 2>&1 &
CHAOS_PROXY_PID=$!
CHAOS_PIDS=()
for i in 0 1; do
    timeout 180 ./target/release/dash party --id "$i" --peers "$PEERS3" \
        --dir "$CHAOS_TMP/party$i" --block-size 4 --audit false \
        --checkpoint-dir "$CHAOS_TMP/ckpt" --out "$CHAOS_TMP/res$i.tsv" \
        > "$CHAOS_TMP/party$i.log" 2>&1 &
    CHAOS_PIDS+=($!)
done
timeout 180 ./target/release/dash party --id 2 --peers "$PEERS3_PROXIED" \
    --dir "$CHAOS_TMP/party2" --block-size 4 --audit false \
    --checkpoint-dir "$CHAOS_TMP/ckpt" --crash-after-block 0 \
    --out "$CHAOS_TMP/res2.tsv" > "$CHAOS_TMP/party2-crash.log" 2>&1 &
if wait $!; then
    echo "error: party 2 should have died after block 0's checkpoint" >&2
    cat "$CHAOS_TMP/party2-crash.log" >&2
    exit 1
fi
timeout 180 ./target/release/dash party --id 2 --peers "$PEERS3_PROXIED" \
    --dir "$CHAOS_TMP/party2" --block-size 4 --audit false \
    --checkpoint-dir "$CHAOS_TMP/ckpt" --resume true \
    --out "$CHAOS_TMP/res2.tsv" > "$CHAOS_TMP/party2-resume.log" 2>&1 &
CHAOS_PIDS+=($!)
for pid in "${CHAOS_PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "error: a party in the chaos smoke failed; logs follow" >&2
        cat "$CHAOS_TMP"/party*.log >&2
        exit 1
    fi
done
kill "$CHAOS_PROXY_PID" 2>/dev/null || true
grep -q "resuming from block 1" "$CHAOS_TMP/party2-resume.log" || {
    echo "error: party 2 did not resume from its checkpoint; log follows" >&2
    cat "$CHAOS_TMP/party2-resume.log" >&2
    exit 1
}
for i in 0 1 2; do
    cmp "$CHAOS_TMP/ref.tsv" "$CHAOS_TMP/res$i.tsv" || {
        echo "error: party $i chaos-smoke results differ from reference" >&2
        exit 1
    }
done

echo "== timing-leak smoke (E14, bounded samples, enforced)"
# The dudect harness must see no class split in the F61 arithmetic. The
# bounded sample count keeps CI fast (raise DASH_TIMING_SAMPLES locally
# for a deeper scan); the loosened threshold absorbs shared-runner noise.
# The in-run positive control is reported but not enforced here — a noisy
# host can drown it without invalidating the negatives' machinery.
DASH_TIMING_SAMPLES=2000 DASH_TIMING_THRESHOLD=8 DASH_TIMING_ENFORCE=1 \
    ./target/release/exp14_timing

echo "== docs"
cargo doc --workspace --no-deps

echo "== experiments (E1..E15)"
cargo run --release -p dash-bench --bin run_all

echo "== done"
