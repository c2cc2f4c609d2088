#!/usr/bin/env bash
# Local CI: format, lint, build, and the tier-1 test suite — fully offline.
#
# Usage: ./ci.sh [--quick]
#   --quick  fast tier: fmt/clippy/build/test (plus fmt and `--locked`
#            clippy of the benchmark crate) and the byte-identity gates
#            (thread-count, profiler zero-perturbation, committed-baseline,
#            full-scale figures vs the committed repro_full.json).
#            Minutes, suitable for every push. Windowed-vs-whole calendar
#            identity is a workspace test (tests/rack_claims.rs).
#   (bare)   full tier: the quick tier plus fault/adversary/crash soaks,
#            the guest-memory oracle at 2048 cases, the chaos explorer,
#            the sweep + rack scaling measurements and their BENCH_*.json
#            artifacts, and the perf-regression gate.
#
# The BENCH_*.json artifacts are staged in a temp dir and only moved into
# the repo root after every gate has passed, so a failing run can never
# leave a half-regenerated (and silently stale) artifact pair behind.
set -euo pipefail
cd "$(dirname "$0")"

TIER=full
case "${1:-}" in
    --quick) TIER=quick ;;
    "") ;;
    *) echo "usage: ./ci.sh [--quick]" >&2; exit 2 ;;
esac

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark crate (benchmark/) is a workspace of its own, so neither
# `--workspace` call above reaches it: lint it here, so a crate API change
# that breaks its build fails CI. `--locked` makes a crate dependency edit
# that would rewrite benchmark/Cargo.lock fail here instead of silently
# changing the lock file. Its tests (benchmark/check.sh) stay out until
# its smoke test accepts a zero `ibmon.scan_alloc_bytes`.
echo "==> benchmark/: cargo fmt --check, cargo clippy --locked -- -D warnings"
(cd benchmark && cargo fmt --check &&
    cargo clippy --offline --locked --release --all-targets -- -D warnings)

# --workspace everywhere: the repo root is itself a package (resex-repro),
# so a bare `cargo build` would build only it — leaving the resex-bench
# `repro` binary the gates below depend on stale (or missing on a fresh
# clone), and skipping the member crates' test suites.
echo "==> cargo build --release --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --workspace (superset of tier-1)"
cargo test -q --offline --workspace

REPRO=./target/release/repro
# Pool width for the determinism replays: the host's cores, but at least 4
# so cross-thread stealing is exercised even on small CI hosts. The timed
# sweep, rack and profile legs run one pool thread per core ($CORES), the
# width the pool is built for: an oversubscribed pool times its own
# contention.
PAR_THREADS="${RESEX_PAR_THREADS:-$(nproc)}"
if [ "$PAR_THREADS" -lt 4 ]; then PAR_THREADS=4; fi
CORES=$(nproc)
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# fig9_replay NAME THREADS CHECK [ARGS...]: runs `repro fig9 --quick ARGS`
# on one pool thread, then on THREADS, and cmps the two JSON files. The
# first run is kept as $TMP/NAME.json with its output in $TMP/NAME.txt,
# then CHECK (a function, or `:` for none) runs with NAME as argument.
fig9_replay() {
    local name=$1 threads=$2 check=$3
    shift 3
    RESEX_THREADS=1 "$REPRO" fig9 --quick "$@" --json "$TMP/$name.json" > "$TMP/$name.txt" 2>&1
    RESEX_THREADS="$threads" "$REPRO" fig9 --quick "$@" --json "$TMP/$name.b.json" >/dev/null 2>&1
    cmp "$TMP/$name.json" "$TMP/$name.b.json"
    "$check" "$name"
}

echo "==> determinism gate: fig9 --quick JSON, RESEX_THREADS=1 vs $PAR_THREADS"
fig9_replay fig9_seq "$PAR_THREADS" :
echo "    byte-identical"

echo "==> zero-perturbation gate: profiled fig9 JSON byte-identical to unprofiled"
# The DES self-profiler must be a pure observer: running fig9 under
# `repro profile` may not change a byte of the figure data.
RESEX_THREADS=1 "$REPRO" profile fig9 --quick --json "$TMP/fig9_prof.json" \
    --profile-json "$TMP/fig9_report.json" >/dev/null 2>&1
cmp "$TMP/fig9_seq.json" "$TMP/fig9_prof.json"
grep -q '"schema": "resex-profile-v1"' "$TMP/fig9_report.json" || {
    echo "    FAIL: profile report missing schema"; exit 1; }
grep -q '"name": "FabricSync"' "$TMP/fig9_report.json" || {
    echo "    FAIL: profile report event-type table is empty"; exit 1; }
echo "    byte-identical; profile report parsed with a populated event-type table"

echo "==> adversary-off/crash-off byte-identity gate: fig9 --quick vs committed baseline"
# The antagonist plane's zero-cost contract — and the crash plane's: with
# no --adversary flag and no crash rates armed the binary must produce
# byte-for-byte the JSON committed before either plane existed. If this
# fails after an *intentional* fig9 format change, regenerate with:
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --json tests/baselines/fig9_quick.json
cmp tests/baselines/fig9_quick.json "$TMP/fig9_seq.json"
echo "    byte-identical to tests/baselines/fig9_quick.json"

echo "==> full-scale figures gate: repro all --full JSON vs committed repro_full.json"
# Every figure at full scale must reproduce the committed artifact byte
# for byte (repro_full.txt is not gated: it carries wall-clock timings).
# If this fails after an *intentional* figure change, regenerate with:
#   ./target/release/repro all --full --json repro_full.json
RESEX_THREADS="$CORES" "$REPRO" all --full --json "$TMP/repro_full.json" >/dev/null 2>&1
cmp repro_full.json "$TMP/repro_full.json"
echo "    byte-identical to repro_full.json"

if [ "$TIER" = quick ]; then
    echo "==> OK (quick tier; run bare ./ci.sh for soak/chaos/perf and BENCH artifacts)"
    exit 0
fi

echo "==> guest-memory oracle soak: lazy_oracle at PROPTEST_CASES=2048"
# The quick tier's workspace tests run the on-demand guest memory against
# its flat reference at proptest's default 256 cases; the soak runs 8x.
PROPTEST_CASES=2048 cargo test -q --offline --release -p resex-simmem --test lazy_oracle

echo "==> fault-matrix smoke: fig9 --quick under 1% loss, 3 fault seeds"
for seed in 1 2 3; do
    "$REPRO" fig9 --quick --faults "loss=0.01,skip=0.02,capfail=0.02,seed=$seed" \
        >/dev/null 2>&1
    echo "    seed=$seed ok"
done

# Post-checks for the replay table below; each gets the gate's NAME.
# `need NAME EXT PATTERN`: the first run's NAME.EXT must match PATTERN.
need() {
    grep -q -- "$3" "$TMP/$1.$2" || {
        echo "    FAIL: $1: no match for '$3':"; grep -E "recovery:|crashes:" "$TMP/$1.txt"; exit 1; }
}
# The flapping sweep reconnected (the recovery line only appears then)
# and permanently lost nothing.
recovered() { need "$1" txt "recovery: .* lost=0 "; }
attacked() { need "$1" json '"adversary"'; }
# Outages in every failure domain fired, Resos were conserved, and any
# reconnects lost nothing.
crashed() {
    need "$1" txt "crashes: .*journal_divergence=0"
    if grep -q "recovery: " "$TMP/$1.txt"; then recovered "$1"; fi
}

echo "==> replay gates: a fixed fault/adversary/crash seed replays byte-identically"
while read -r name check args; do
    fig9_replay "$name" 1 "$check" $args < /dev/null
    sed -n 's/^  \(recovery\|crashes\):/    \1:/p' "$TMP/$name.txt"
    echo "    $name ok"
done <<'GATES'
faulted   :         --faults loss=0.01,corrupt=0.002,skip=0.02,capfail=0.02,seed=7
flap_soak recovered --faults loss=0.01,flap_ms=50,flap_down_us=2000,seed=7
burst     attacked  --adversary class=burst,seed=5
freeride  attacked  --adversary class=freeride,seed=5
poison    attacked  --adversary class=poison,seed=5
collude   attacked  --adversary class=collude,seed=5
crash     crashed   --faults mgr_crash=0.01,mgr_down_ms=20,host_crash=0.002,host_down_ms=10,vm_crash=0.01,vm_down_ms=5,seed=7
GATES

echo "==> chaos explorer gate: fixed seed/budget must find zero invariant violations"
# The explorer generates random fault-schedule compositions and checks
# the global invariant registry over each run; any violation is shrunk
# to a minimal reproducer and fails the gate (nonzero exit). Raise the
# budget for longer soaks with RESEX_CHAOS_BUDGET=N.
CHAOS_BUDGET="${RESEX_CHAOS_BUDGET:-25}"
"$REPRO" chaos --budget "$CHAOS_BUDGET" --seed 5 > "$TMP/chaos.txt" 2>&1 || {
    echo "    FAIL: chaos explorer found violations:"; cat "$TMP/chaos.txt"; exit 1; }
grep -q "violations=0" "$TMP/chaos.txt" || {
    echo "    FAIL: unexpected chaos report:"; cat "$TMP/chaos.txt"; exit 1; }
sed -n 's/^chaos:/    /p' "$TMP/chaos.txt"

echo "==> sweep wall-clock: repro all --quick, RESEX_THREADS=1 vs $CORES (per-target timings below)"
t0=$(date +%s.%N)
RESEX_THREADS=1 "$REPRO" all --quick >/dev/null
t1=$(date +%s.%N)
RESEX_THREADS="$CORES" "$REPRO" all --quick >/dev/null
t2=$(date +%s.%N)

echo "==> rack scaling: repro rack --quick (128-host sharded rack), RESEX_THREADS=1 vs $CORES, best of 3"
# The sharded calendar's reason to exist: one shard per host hands the
# work-stealing pool genuinely parallel work. The parallel leg runs one
# pool thread per core (the width the pool is built for), and each leg
# keeps its best of three alternated runs: on a shared host, a slow run
# says more about the neighbours than about the pool. Every run also
# re-checks the rack's determinism (JSON must not depend on the width).
RACK_TIMES=""
for _ in 1 2 3; do
    r0=$(date +%s.%N)
    RESEX_THREADS=1 "$REPRO" rack --quick --json "$TMP/rack_seq.json" >/dev/null 2>&1
    r1=$(date +%s.%N)
    RESEX_THREADS="$CORES" "$REPRO" rack --quick --json "$TMP/rack_par.json" >/dev/null 2>&1
    r2=$(date +%s.%N)
    cmp "$TMP/rack_seq.json" "$TMP/rack_par.json"
    RACK_TIMES="$RACK_TIMES $r0 $r1 $r2"
done
RACK_HOSTS=$(grep -o '"hosts": [0-9]*' "$TMP/rack_seq.json" | head -1 | awk '{print $2}')

GIT_REV="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
awk -v t0="$t0" -v t1="$t1" -v t2="$t2" -v times="$RACK_TIMES" \
    -v cores="$CORES" -v rev="$GIT_REV" -v hosts="$RACK_HOSTS" '
BEGIN {
    seq = t1 - t0; parallel = t2 - t1;
    # times holds r0 r1 r2 per run; each leg keeps its fastest run.
    n = split(times, r, " ");
    for (i = 1; i < n; i += 3) {
        if (i == 1 || r[i + 1] - r[i] < rseq) rseq = r[i + 1] - r[i];
        if (i == 1 || r[i + 2] - r[i + 1] < rpar) rpar = r[i + 2] - r[i + 1];
    }
    printf "    sweep sequential (RESEX_THREADS=1):   %6.2f s\n", seq;
    printf "    sweep parallel   (RESEX_THREADS=%d):   %6.2f s\n", cores, parallel;
    printf "    sweep speedup: %.2fx on %d core(s)\n", seq / parallel, cores;
    printf "    rack  sequential (RESEX_THREADS=1):   %6.2f s  (%.1f hosts/s)\n", rseq, hosts / rseq;
    printf "    rack  parallel   (RESEX_THREADS=%d):   %6.2f s  (%.1f hosts/s)\n", cores, rpar, hosts / rpar;
    printf "    rack  speedup: %.2fx on %d core(s)\n", rseq / rpar, cores;
    printf "{\n  \"bench\": \"repro all --quick\",\n  \"git_rev\": \"%s\",\n  \"flags\": \"all --quick\",\n  \"cores\": %d,\n  \"threads_parallel\": %d,\n  \"sequential_s\": %.3f,\n  \"parallel_s\": %.3f,\n  \"speedup\": %.3f,\n  \"rack\": {\n    \"bench\": \"repro rack --quick\",\n    \"hosts\": %d,\n    \"threads_parallel\": %d,\n    \"sequential_s\": %.3f,\n    \"parallel_s\": %.3f,\n    \"hosts_per_s_sequential\": %.1f,\n    \"hosts_per_s_parallel\": %.1f,\n    \"speedup\": %.3f\n  }\n}\n", rev, cores, cores, seq, parallel, seq / parallel, hosts, cores, rseq, rpar, hosts / rseq, hosts / rpar, rseq / rpar > "'"$TMP"'/BENCH_sweep.json";
}'
echo "    staged BENCH_sweep.json (rack leg byte-identical across pool widths)"

echo "==> parallel-speedup gate: pooled sweep must not run slower than sequential"
# On one core the pool resolves to sequential (see vendor/rayon), so the
# two legs time the same binary twice — only noise separates them. On a
# real multi-core host a speedup below 1.0x means the pool actively hurt,
# which is the bug this gate exists to catch.
SPEEDUP=$(grep -o '"speedup": [0-9.]*' "$TMP/BENCH_sweep.json" | head -1 | awk '{print $2}')
if [ "$CORES" -gt 1 ]; then
    awk -v s="$SPEEDUP" 'BEGIN { exit !(s < 1.0) }' && {
        echo "    FAIL: parallel sweep slower than sequential (speedup ${SPEEDUP}x on $CORES cores)"; exit 1; }
    echo "    speedup ${SPEEDUP}x on $CORES cores: ok"
else
    echo "    single core: gate not applicable (speedup ${SPEEDUP}x is noise)"
fi

echo "==> rack scaling gate: the sharded rack must scale with the pool"
# One shard per host means ~128 independent calendars per window: on a
# multi-core host the pool must convert that into wall-clock. ≥4 cores
# must reach 2x. On 2–3 cores the floor is 1.6x. On a shared 2-vCPU host
# this block read a median 1.81x (1.50–1.99x, 18 runs) with width − 1
# workers plus the helping caller and in-place windows, and 1.53x
# (1.32–1.70x, 24 runs) with the earlier pool (a worker per core besides
# the caller, a notify_all per push) and shards moved through a
# map-collect every window. The ranges overlap when neighbours load the
# host, so a run near the floor is worth repeating. The floor is
# measured on 2 cores only; no 3-core host has been timed against it. A
# single core only records the numbers (the two legs time the same
# sequential code).
RACK_SPEEDUP=$(grep -o '"speedup": [0-9.]*' "$TMP/BENCH_sweep.json" | tail -1 | awk '{print $2}')
if [ "$CORES" -ge 4 ]; then
    awk -v s="$RACK_SPEEDUP" 'BEGIN { exit !(s < 2.0) }' && {
        echo "    FAIL: rack speedup ${RACK_SPEEDUP}x < 2.0x on $CORES cores"; exit 1; }
    echo "    rack speedup ${RACK_SPEEDUP}x on $CORES cores: ok (>= 2.0x)"
elif [ "$CORES" -gt 1 ]; then
    awk -v s="$RACK_SPEEDUP" 'BEGIN { exit !(s < 1.6) }' && {
        echo "    FAIL: rack speedup ${RACK_SPEEDUP}x < 1.6x on $CORES cores"; exit 1; }
    echo "    rack speedup ${RACK_SPEEDUP}x on $CORES cores: ok (>= 1.6x)"
else
    echo "    single core: gate not applicable (rack speedup ${RACK_SPEEDUP}x recorded)"
fi

echo "==> perf profile: repro profile all --quick -> BENCH_profile.json"
# The committed perf artifact: merged self-profile of the whole sweep
# (top event types by self-time, allocs/event, events/sec, per-target
# wall-clock) stamped with git revision + thread count. Timed at one pool
# thread per core, like the sweep and rack legs.
RESEX_THREADS="$CORES" "$REPRO" profile all --quick \
    --profile-json "$TMP/BENCH_profile.json" >/dev/null 2>&1
grep -q '"schema": "resex-profile-v1"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json missing schema"; exit 1; }
grep -q '"git_rev"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json missing provenance"; exit 1; }
grep -q '"name": "FabricSync"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json event-type table is empty"; exit 1; }
echo "    staged BENCH_profile.json"

echo "==> perf-regression gate: fresh events/sec vs committed BENCH_profile.json"
# Compares the fresh profile's merged events/sec against the last
# committed artifact. Shared CI boxes are noisy and thread counts may
# legitimately differ between commits, so the tolerance is deliberately
# loose (default: fail below 50% of the committed rate; override with
# RESEX_PERF_TOL=0.xx). It exists to catch order-of-magnitude
# regressions, not single-digit drift.
PERF_TOL="${RESEX_PERF_TOL:-0.5}"
COMMITTED_EPS=$(git show HEAD:BENCH_profile.json 2>/dev/null     | grep -o '"events_per_sec": [0-9.]*' | awk '{print $2}' || true)
FRESH_EPS=$(grep -o '"events_per_sec": [0-9.]*' "$TMP/BENCH_profile.json" | awk '{print $2}')
if [ -n "$COMMITTED_EPS" ] && [ -n "$FRESH_EPS" ]; then
    awk -v f="$FRESH_EPS" -v c="$COMMITTED_EPS" -v tol="$PERF_TOL"         'BEGIN { exit !(f < c * tol) }' && {
        echo "    FAIL: events/sec regressed: $FRESH_EPS < $PERF_TOL * committed $COMMITTED_EPS"; exit 1; }
    echo "    events/sec $FRESH_EPS vs committed $COMMITTED_EPS (tolerance ${PERF_TOL}x): ok"
else
    echo "    no committed BENCH_profile.json at HEAD: gate skipped"
fi

echo "==> bench-artifact stamping: both BENCH files must carry the same revision"
# The two artifacts are only comparable when regenerated together; a
# mixed pair (one stale, one fresh) silently invalidates the speedup and
# events/sec numbers recorded above.
SWEEP_REV=$(grep -o '"git_rev": "[a-z0-9]*"' "$TMP/BENCH_sweep.json" | head -1 | cut -d'"' -f4)
PROF_REV=$(grep -o '"git_rev": "[a-z0-9]*"' "$TMP/BENCH_profile.json" | head -1 | cut -d'"' -f4)
[ "$SWEEP_REV" = "$PROF_REV" ] || {
    echo "    FAIL: BENCH_sweep.json ($SWEEP_REV) and BENCH_profile.json ($PROF_REV) were stamped at different commits"; exit 1; }
echo "    both stamped at $SWEEP_REV"

# Every gate passed: only now do the staged artifacts replace the
# committed ones. A failure anywhere above leaves the repo's BENCH pair
# untouched (and still mutually consistent).
mv "$TMP/BENCH_sweep.json" BENCH_sweep.json
mv "$TMP/BENCH_profile.json" BENCH_profile.json
echo "==> BENCH_sweep.json + BENCH_profile.json updated"

echo "==> OK"
