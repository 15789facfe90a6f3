#!/usr/bin/env bash
# The CI gate, runnable locally: `./ci.sh [stage]`.
#
# Stages (each is one named job in .github/workflows/ci.yml, so a red
# X pinpoints the broken gate without re-running the others):
#
#   lint          rustfmt, clippy -D warnings, rustdoc -D warnings,
#                 BENCH_*.json record lint, artifacts/*.json parse
#   build-test    release build + full workspace test suite + perfbench
#                 build
#   determinism   double-run byte-diff gates (E8 trace, E10 doctor,
#                 E11 incident bundle, E13 attribution, paper fidelity,
#                 dispatch fingerprints); every output is also diffed
#                 against its checked-in pin under artifacts/
#   perf          `bench perf-payload`, `bench perf-sched` and
#                 `bench perf-dir` regression checks
#   all           every stage in order (the default; what `./ci.sh` runs)
#
# Every cargo invocation is --offline: the build is hermetic by policy
# (no registry access; see README.md "Offline, hermetic builds"). If a
# step fails here, it fails in CI, and vice versa.
#
# Every bench step runs one subcommand of the single `bench` binary
# (`cargo run -p bench -- <subcommand>`; see crates/bench/src/bin/bench/).
#
# The perf gates take no knobs: their bounds (the E9 events/sec floor
# of 50000 at N=1000, the 200 µs p99 dispatch and lookup budgets, the
# 1.03 attribution-overhead ceiling) are constants in
# crates/bench/src/bin/bench/perf_sched.rs and perf_dir.rs.

set -euo pipefail
cd "$(dirname "$0")"

STAGE="${1:-all}"

# --- gate bookkeeping -------------------------------------------------
# Every gate records its wall time; the summary table prints on exit,
# also after a failure, so slow gates are visible either way.

GATE_NAMES=()
GATE_SECS=()

print_timing_summary() {
    local n=${#GATE_NAMES[@]}
    if ((n == 0)); then
        return
    fi
    echo
    echo "gate wall-time summary"
    local i
    for ((i = 0; i < n; i++)); do
        printf '  %-28s %4ss\n' "${GATE_NAMES[$i]}" "${GATE_SECS[$i]}"
    done
}
trap print_timing_summary EXIT

# gate <name> <command...> — run one named gate, recording wall time.
gate() {
    local name="$1"
    shift
    echo
    echo "==> [$name] $*"
    local t0=$SECONDS
    "$@"
    GATE_NAMES+=("$name")
    GATE_SECS+=($((SECONDS - t0)))
}

# run_determinism_gate <name> <subcommand> <args...> — run a bench
# export subcommand twice with identical arguments and byte-diff every
# artifact.
# Occurrences of @OUT in the args are substituted with the per-run
# output prefix (target/<name>-gate/a, then .../b); each substituted
# path is an artifact that must come out byte-identical.
run_determinism_gate() {
    local name="$1" subcommand="$2"
    shift 2
    local dir="target/${name}-gate"
    mkdir -p "$dir"
    local a_args=() b_args=() a_files=() b_files=() arg
    for arg in "$@"; do
        if [[ "$arg" == *@OUT* ]]; then
            a_args+=("${arg//@OUT/$dir/a}")
            b_args+=("${arg//@OUT/$dir/b}")
            a_files+=("${arg//@OUT/$dir/a}")
            b_files+=("${arg//@OUT/$dir/b}")
        else
            a_args+=("$arg")
            b_args+=("$arg")
        fi
    done
    cargo run --offline --release -p bench -- "$subcommand" "${a_args[@]}"
    cargo run --offline --release -p bench -- "$subcommand" "${b_args[@]}"
    local i
    for i in "${!a_files[@]}"; do
        diff "${a_files[$i]}" "${b_files[$i]}"
        echo "    byte-identical: ${a_files[$i]}"
    done
}

# pinned_gate <name> <pin-prefix> <subcommand> <args...> — run_determinism_gate,
# then diff every @OUT.<suffix> artifact of run a against its checked-in
# pin artifacts/<pin-prefix><suffix>, so no change can drift a recorded
# artifact unnoticed.
pinned_gate() {
    local name="$1" prefix="$2"
    shift 2
    run_determinism_gate "$name" "$@"
    local arg suffix
    for arg in "$@"; do
        if [[ "$arg" == @OUT.* ]]; then
            suffix="${arg#@OUT.}"
            diff "target/${name}-gate/a.$suffix" "artifacts/$prefix$suffix"
            echo "    matches the pin: artifacts/$prefix$suffix"
        fi
    done
}

# --- stages -----------------------------------------------------------

stage_lint() {
    gate fmt cargo fmt --all --check
    gate clippy cargo clippy --offline --workspace --all-targets -- -D warnings
    # Every intra-doc link must resolve and point at something the
    # rendered docs show, so docs that name deleted or private items fail.
    gate rustdoc env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
    # Committed BENCH_*.json records must parse and carry the
    # name/before/after/units convention, and every artifacts/*.json
    # pin must parse, so a hand-edited or truncated pin fails here.
    gate bench-lint cargo run --offline --release -p bench -- lint .
}

# perfbench_build — build the benchmark harness, a workspace of its own
# compiled against the crates' public API, so an API change that breaks
# it fails here. The build rewrites perfbench/Cargo.lock; the committed
# lockfile is restored afterwards, also when the build fails.
perfbench_build() {
    mkdir -p target
    cp perfbench/Cargo.lock target/perfbench-Cargo.lock
    local status=0
    cargo build --offline --release --manifest-path perfbench/Cargo.toml || status=$?
    cp target/perfbench-Cargo.lock perfbench/Cargo.lock
    return "$status"
}

stage_build_test() {
    gate build cargo build --offline --release
    gate test cargo test --offline --workspace -q
    gate perfbench-build perfbench_build
}

stage_determinism() {
    # E8 trace gate: the observability run must export byte-identical
    # artifacts — metrics snapshot, Perfetto trace, folded flamegraph
    # stacks — across two fresh runs of the same seed, equal to the
    # checked-in artifacts/E8_*, so the exact metric names and span
    # source/stage/detail text cannot drift unnoticed.
    gate trace-determinism pinned_gate trace E8_ trace \
        --json @OUT.metrics.json \
        --perfetto @OUT.perfetto.json \
        --folded @OUT.folded
    # E10 doctor gate: the fault-injection run must export a
    # byte-identical doctor health report (JSON) and OpenMetrics
    # exposition — the windowed sampler, the SLO burn-rate engine and
    # the doctor are all on the deterministic path — equal to the
    # checked-in artifacts/E10_*.
    gate doctor-determinism pinned_gate doctor E10_ doctor \
        --doctor @OUT.doctor.json \
        --openmetrics @OUT.metrics.om
    # E11 incident gate: the E13 fault run's trigger plane must
    # snapshot a byte-identical incident bundle (and final doctor
    # report) across two runs — the trigger plane and the
    # flight-recorder ring sit on the deterministic path. Both must
    # equal the checked-in artifacts/E11_*, so a moved topology digest
    # fails here.
    gate incident-determinism pinned_gate incident E11_ incident \
        --bundle @OUT.incident.json \
        --doctor @OUT.doctor.json
    # E13 attribution gate: the continuous profiler's snapshot, the
    # differential doctor's diff and the checked-in baseline must all
    # come out byte-identical across two runs — the incremental span
    # fold, the exemplar capture and the diff ranking are pure
    # functions of the deterministic span journal — and equal to the
    # checked-in artifacts/E13_*.
    gate attrib-determinism pinned_gate attrib E13_ attrib \
        --attrib @OUT.attrib.json \
        --diff @OUT.attrib_diff.json \
        --baseline @OUT.attrib_baseline.json
    # Paper fidelity pin: the simulated E1/E2/E3/E5 results must come
    # out byte-identical across two runs *and* equal to the checked-in
    # artifacts/paper_fidelity.json, so no change can drift the paper's
    # numbers unnoticed. `bench fidelity` itself fails when E3 leaves
    # ±10% of Figure 11 or E2's uMiddle share leaves 3%..7%.
    gate paper-fidelity pinned_gate fidelity "" fidelity --out @OUT.paper_fidelity.json
    # Dispatch-order pin: the E9 federation at 1000 devices, the E12
    # federation through one churn cycle, the Figure 11 RMI-MB path and
    # the E10 world (multicast frames with one member) each hash every
    # handler call (instant, process, callback kind,
    # delivery identity) over a fixed virtual span. The hashes and call
    # counts must come out byte-identical across two runs and equal to
    # the checked-in artifacts/dispatch_fingerprints.json, so a kernel
    # change that reorders, drops or adds a handler call fails here
    # even where the smaller E8-E13 fixtures do not notice.
    gate dispatch-fingerprint pinned_gate fingerprint "" fingerprint \
        --out @OUT.dispatch_fingerprints.json
}

stage_perf() {
    # Data-path micro-bench smoke: exercises the bench kernels once and
    # the deterministic decode-linearity regression, without timing
    # anything.
    gate perf-payload cargo run --offline --release -p bench -- perf-payload --check
    # Scheduler gates: timer-wheel kernel vs reference heap, E9
    # events/sec floor and near-linearity, p99 dispatch budget, E9b
    # scheduler pops per delivered datagram (flat from 100 to 1000
    # devices), telemetry sampler and attribution overhead ceilings
    # (the attribution one on the span-heavy E9 federation), and the
    # differential perf doctor against the checked-in attribution
    # baseline (artifacts/E13_attrib_baseline.json), so a regression is
    # reported by component; a baseline that does not parse fails.
    gate perf-sched cargo run --offline --release -p bench -- perf-sched --check
    # Directory-federation gates: the E12 delta-gossip federation must
    # send exactly its pinned steady-state bytes with post-churn
    # convergence inside the anti-entropy bound, and the indexed
    # federation lookup must hold its p99 budget with zero full-scan
    # fallbacks at 100k advertised ports.
    gate perf-dir cargo run --offline --release -p bench -- perf-dir --check
}

case "$STAGE" in
lint) stage_lint ;;
build-test) stage_build_test ;;
determinism) stage_determinism ;;
perf) stage_perf ;;
all)
    stage_lint
    stage_build_test
    stage_determinism
    stage_perf
    ;;
*)
    echo "usage: ./ci.sh [lint|build-test|determinism|perf|all]" >&2
    exit 2
    ;;
esac

echo
echo "ci.sh: stage '$STAGE' green"
