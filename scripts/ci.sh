#!/usr/bin/env bash
# Offline CI for the timemask workspace.
#
# 1. Guard the hermetic-build policy (DESIGN.md §5): every dependency of
#    every workspace crate must itself be a workspace path dependency —
#    no registry (crates.io or mirror) or git sources, ever.
# 2. Build and test the whole workspace with `--offline`, proving the
#    tree compiles and passes with no network and no registry cache.
# 3. Prime-generation differential: the ignored tm-logic test checks
#    the on-set and off-set primes of every extracted node table of the
#    20 Table 2 stand-ins against a Quine–McCluskey oracle, in release.
# 4. Table 1 telemetry smoke: run the `table1` regenerator with
#    TM_METRICS_OUT and validate the emitted metrics snapshot against
#    the closed schema registry (unknown metric names, malformed
#    digests, or a schema-version bump all fail CI here, not in a
#    downstream dashboard), requiring a nonzero short-path per-output
#    latency digest and nonzero ITE-cache and unique-table hits.
# 5. Panic audit (DESIGN.md §7): non-test library code may only contain
#    panic-capable calls (`unwrap()`, `expect(`, `panic!(`) in files
#    allowlisted — with justification — in scripts/panic_allowlist.txt.
#    Untrusted-input paths (parsers, runtime entry points) must return
#    `TmError` instead. Stale allowlist entries fail too.
# 6. Fuzz smoke: the mutation-based BLIF parser fuzz suite (hundreds of
#    adversarial documents; any panic fails the run).
# 7. Serve smoke: boot the daemon with a tiny admission gate and a
#    per-point step budget, drive it with loadgen's smoke mode (which
#    must trip admission shedding), and validate the STATS snapshot
#    against the schema, requiring a nonzero budget fallback from the
#    exact rung.
# 8. Trace smoke: boot the daemon, drive it with loadgen, pull a
#    flight-recorder export over the `trace` verb, and validate the
#    Chrome trace JSON (nesting, phase sums) with `tm-profile --check`.
# 9. Chaos smoke (DESIGN.md §13): boot the daemon with the fault plane
#    armed via TM_FAULTS (seeded socket stalls, read errors, admission
#    refusals, worker-spawn failures), drive it with loadgen's chaos
#    mode under the shared retry policy, send the `shutdown` verb, and
#    require a clean-drain exit code plus a schema-valid final stats
#    snapshot with nonzero fault-injection and deadline counters.
# 10. GC smoke (DESIGN.md §14): boot the daemon with the BDD capacity
#    tier armed at a floor watermark (GC after every request), drive
#    the smoke mix, and require nonzero bdd.gc.runs/bdd.gc.reclaimed in
#    the schema-valid STATS snapshot; then run the 10k-request soak
#    battery (TM_SOAK=1), whose watermark phase holds bdd.store.live
#    exactly flat between request boundaries.
# 11. Fleet smoke (DESIGN.md §15): a small sharded lifetime run whose
#    metrics snapshot must carry the fleet counters, plus a schema check
#    of the fresh report and of the committed BENCH_fleet.json.
# 12. Packed-kernel sweep: the release-only `tm-sim` differential
#    replays hundreds of generated netlists, up to the `cmb`/`cu`
#    stand-in sizes, through the packed and scalar timing kernels with
#    uniform and with skewed per-pin delays, and requires bit-identical
#    sampled and settled words in every lane. Then the release-only
#    `tm-masking` replay differential replays the masked designs of all
#    20 Table 2 stand-ins through the shared replay and a scalar oracle
#    and requires identical raw-error, escape, activation and detection
#    counts.
# 13. Dormant-site check: the release `dormant_sites` test times every
#    dormant instrumentation entry point that hot code calls (telemetry
#    counters, digests and spans, flight-recorder phases, fault-plane
#    hooks) against an empty loop in paired, interleaved blocks, and
#    fails any site whose median per-call cost exceeds a fixed bound.
#    Its self-test must see an injected 50 ns spin trip the same check.
#    (The exact work-count pins, `tm-bench`'s `work_counts` test, run
#    with the workspace tests in stage 2.)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermetic-dependency guard =="
# `cargo metadata` lists every resolved package; workspace path
# dependencies have "source": null, anything fetched has a source URL.
# No jq in the image, so scan the JSON for non-null "source" keys.
metadata=$(cargo metadata --format-version 1 --offline)
if printf '%s' "$metadata" | grep -o '"source":"[^"]*"' | grep -q .; then
    echo "ERROR: non-workspace dependencies found:" >&2
    printf '%s' "$metadata" | grep -o '"name":"[^"]*","version":"[^"]*","id":"[^"]*","license' \
        | head -20 >&2 || true
    printf '%s' "$metadata" | grep -o '"source":"[^"]*"' | sort -u >&2
    echo "The workspace must stay hermetic: extend crates/testkit instead" >&2
    echo "of adding a dependency (see DESIGN.md §5)." >&2
    exit 1
fi
echo "ok: all dependencies are workspace-local"

echo "== offline release build =="
cargo build --release --offline --workspace --all-targets

echo "== offline workspace tests =="
cargo test -q --offline --workspace

echo "== two-level differential (primes + covers) =="
cargo test --release --offline -p tm-logic -- --ignored

echo "== table1 telemetry smoke + schema validation =="
metrics_json=target/tm-bench/ci-table1-metrics.json
rm -f "$metrics_json"
TM_METRICS_OUT="$metrics_json" ./target/release/table1 > /dev/null
test -s "$metrics_json" || { echo "ERROR: table1 wrote no metrics snapshot" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero spcf.short_path.output_ns --require-nonzero bdd.cache.hits \
    --require-nonzero bdd.unique.hits "$metrics_json"

echo "== panic audit (non-test library code) =="
audit=$(mktemp)
raw=$(mktemp)
# Everything before the first `#[cfg(test)]` in each library source file
# (test modules sit at the end of files in this workspace); demo binaries
# under src/bin/ are not library code. Comment-only lines are skipped.
# One awk pass over every file — a per-file loop with its failures
# swallowed can silently lose a file's lines under load and misreport
# its allowlist entry as stale; here an awk failure aborts the script.
find crates/*/src src -name '*.rs' ! -path '*/bin/*' -print0 | sort -z \
    | xargs -0 awk 'FNR==1{intest=0} /#\[cfg\(test\)\]/{intest=1}
                    !intest{print FILENAME":"FNR": "$0}' > "$raw"
grep -E '\.unwrap\(\)|\.expect\(|panic!\(' "$raw" \
     | grep -vE ':[0-9]+: *//' > "$audit" || true
rm -f "$raw"
offenders=$(cut -d: -f1 "$audit" | sort -u)
audit_fail=0
for f in $offenders; do
    if ! grep -qxF "$f" scripts/panic_allowlist.txt; then
        echo "ERROR: $f has panic-capable calls but is not allowlisted:" >&2
        grep "^$f:" "$audit" >&2
        audit_fail=1
    fi
done
while read -r entry; do
    case "$entry" in ''|\#*) continue ;; esac
    if ! printf '%s\n' "$offenders" | grep -qxF "$entry"; then
        echo "ERROR: stale allowlist entry: $entry (no panic-capable calls remain)" >&2
        audit_fail=1
    fi
done < scripts/panic_allowlist.txt
if [ "$audit_fail" -ne 0 ]; then
    echo "Convert the panic to a TmError (untrusted input) or justify the" >&2
    echo "file in scripts/panic_allowlist.txt (see DESIGN.md §7)." >&2
    exit 1
fi
rm -f "$audit"
echo "ok: every panic-capable library file is allowlisted"

echo "== parser fuzz smoke =="
cargo test -q --offline -p tm-netlist --test blif_fuzz

echo "== serve smoke (daemon + loadgen + admission shed) =="
# Start the daemon on an ephemeral port with a deliberately tiny
# admission gate, drive it with the load generator's smoke mode (which
# includes a connection burst that must trip admission control), and
# validate the STATS metrics against the closed schema. The 20-step
# per-point budget is below what a cold session's first short-path
# point of the smoke corpus needs, so the degradation ladder must step
# down (`resilience.fallback.node_based`); warm repeats fit it.
serve_metrics_json=target/tm-bench/ci-serve-metrics.json
serve_log=target/tm-bench/ci-serve.log
rm -f "$serve_metrics_json"
mkdir -p target/tm-bench
./target/release/tm-server --addr 127.0.0.1:0 --workers 2 --admit 1 --max-steps 20 \
    > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    serve_addr=$(sed -n 's/^listening //p' "$serve_log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
[ -n "${serve_addr:-}" ] || { echo "ERROR: tm-server never reported its address" >&2; exit 1; }
./target/release/loadgen --addr "$serve_addr" --smoke --expect-shed \
    --stats-out "$serve_metrics_json"
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
test -s "$serve_metrics_json" || { echo "ERROR: loadgen wrote no metrics snapshot" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero serve.requests --require-nonzero serve.shed \
    --require-nonzero bdd.unique.misses --require-nonzero spcf.short_path.stab_calls \
    --require-nonzero resilience.fallback.node_based \
    "$serve_metrics_json"

echo "== trace smoke (flight recorder + trace verb + tm-profile --check) =="
# Boot the daemon with --slow-ms 0 so every request trips slow-capture,
# serve the loadgen smoke mix, then pull a `trace` export and validate
# it end to end: Chrome trace JSON well-formed, phase spans nest per
# (pid, tid), per-request phase durations sum within the request's wall
# time, and the stats snapshot proves events actually flowed.
trace_metrics_json=target/tm-bench/ci-trace-metrics.json
trace_export_json=target/tm-bench/ci-trace-export.json
trace_log=target/tm-bench/ci-trace-serve.log
rm -f "$trace_metrics_json" "$trace_export_json"
./target/release/tm-server --addr 127.0.0.1:0 --workers 2 --slow-ms 0 \
    > "$trace_log" 2>/dev/null &
trace_pid=$!
trap 'kill "$trace_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    trace_addr=$(sed -n 's/^listening //p' "$trace_log")
    [ -n "$trace_addr" ] && break
    sleep 0.1
done
[ -n "${trace_addr:-}" ] || { echo "ERROR: tm-server never reported its address" >&2; exit 1; }
./target/release/loadgen --addr "$trace_addr" --smoke --stats-out "$trace_metrics_json"
./target/release/tm-profile --addr "$trace_addr" --check --out "$trace_export_json"
kill "$trace_pid" 2>/dev/null || true
trap - EXIT
test -s "$trace_export_json" || { echo "ERROR: tm-profile wrote no trace export" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero serve.trace.events --require-nonzero serve.slow.captured \
    "$trace_metrics_json"

echo "== chaos smoke (fault plane + retry policy + clean drain) =="
# Arm the fault plane from the environment: seeded read stalls past the
# frame deadline, read errors, admission refusals and worker-spawn
# failures. The loadgen chaos pass must ride them out via the shared
# tm-client retry policy, the `shutdown` verb must drain the daemon
# cleanly (exit 0), and the final stats snapshot must be schema-valid
# with the injection and deadline counters nonzero.
chaos_stats_json=target/tm-bench/ci-chaos-final-stats.json
chaos_log=target/tm-bench/ci-chaos-serve.log
rm -f "$chaos_stats_json"
TM_FAULTS='io.read.delay@p=0.05,ms=80;io.read.err@p=0.01;gate.admit.fail@p=0.02;worker.spawn.fail@nth=2' \
TM_FAULTS_SEED=20090420 \
./target/release/tm-server --addr 127.0.0.1:0 --workers 4 \
    --frame-deadline-ms 40 --drain-grace-ms 5000 \
    --final-stats "$chaos_stats_json" > "$chaos_log" 2>/dev/null &
chaos_pid=$!
trap 'kill "$chaos_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    chaos_addr=$(sed -n 's/^listening //p' "$chaos_log")
    [ -n "$chaos_addr" ] && break
    sleep 0.1
done
[ -n "${chaos_addr:-}" ] || { echo "ERROR: tm-server never reported its address" >&2; exit 1; }
./target/release/loadgen --addr "$chaos_addr" --requests 300 --seed 4242 --shutdown
if ! wait "$chaos_pid"; then
    echo "ERROR: tm-server did not drain cleanly under chaos" >&2
    exit 1
fi
trap - EXIT
test -s "$chaos_stats_json" || { echo "ERROR: daemon wrote no final stats snapshot" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero fault.injected.total --require-nonzero serve.deadline.hits \
    --require-nonzero serve.drain.requested \
    "$chaos_stats_json"

echo "== gc smoke (capacity tier: low-watermark daemon + soak battery) =="
# Arm the BDD capacity tier with a floor watermark so every request is
# followed by between-request GC, plus an idle-eviction window; drive
# the smoke mix and require the collection counters in the schema-valid
# STATS snapshot. Responses must be unaffected — loadgen's smoke checks
# still apply.
gc_metrics_json=target/tm-bench/ci-gc-metrics.json
gc_log=target/tm-bench/ci-gc-serve.log
rm -f "$gc_metrics_json"
./target/release/tm-server --addr 127.0.0.1:0 --workers 2 \
    --gc-watermark 1 --session-idle-ms 60000 > "$gc_log" 2>/dev/null &
gc_pid=$!
trap 'kill "$gc_pid" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    gc_addr=$(sed -n 's/^listening //p' "$gc_log")
    [ -n "$gc_addr" ] && break
    sleep 0.1
done
[ -n "${gc_addr:-}" ] || { echo "ERROR: tm-server never reported its address" >&2; exit 1; }
./target/release/loadgen --addr "$gc_addr" --smoke --stats-out "$gc_metrics_json"
kill "$gc_pid" 2>/dev/null || true
trap - EXIT
test -s "$gc_metrics_json" || { echo "ERROR: loadgen wrote no metrics snapshot" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero bdd.gc.runs --require-nonzero bdd.gc.reclaimed \
    --require-nonzero serve.requests "$gc_metrics_json"
# The 10k-request soak: phase 3 re-runs the rotation under the same
# floor watermark in-process and pins bdd.store.live flat between
# request boundaries.
TM_SOAK=1 cargo test -q --offline --release -p tm-server --test soak

echo "== fleet smoke (sharded lifetime sim + packed/scalar differential) =="
# A small fleet end to end: the packed pass, the scalar baseline
# cohort, and the bit-identity replay all run inside the binary (it
# exits nonzero if the kernels diverge or nothing flags). The metrics
# snapshot must carry the fleet counters, and both the fresh report
# and the committed perf datapoint must satisfy the report schema.
fleet_metrics_json=target/tm-bench/ci-fleet-metrics.json
fleet_smoke_json=target/tm-bench/fleet_smoke.json
rm -f "$fleet_metrics_json" "$fleet_smoke_json"
./target/release/fleet --smoke --out "$fleet_smoke_json" \
    --metrics-out "$fleet_metrics_json"
test -s "$fleet_metrics_json" || { echo "ERROR: fleet wrote no metrics snapshot" >&2; exit 1; }
cargo run -q --offline --release -p tm-telemetry --bin validate_metrics -- \
    --require-nonzero fleet.chips --require-nonzero fleet.flagged \
    --require-nonzero sim.packed.blocks "$fleet_metrics_json"
./target/release/fleet --check-report "$fleet_smoke_json"
./target/release/fleet --check-report BENCH_fleet.json

echo "== packed-kernel sweep (uniform + skewed pin delays, release) =="
cargo test --release --offline -p tm-sim --test packed_differential -- --ignored
cargo test --release --offline -p tm-masking --test replay_differential -- --ignored

echo "== dormant-site check (paired in-process A/B, release) =="
unset TM_TRACE TM_FAULTS TM_FAULTS_SEED
cargo test --release --offline -p tm-bench --test dormant_sites -- --ignored --nocapture

echo "CI OK"
