#!/usr/bin/env bash
# bench_compare.sh — mechanical perf-regression gate.
#
# Runs the MTTKRP stage, fused-kernel, serial-iteration and layout-build
# benchmarks of internal/core and the predict-kernel benchmark of
# internal/serve, and diffs them against the recorded baselines in
# BENCH_mttkrp.json and BENCH_predict.json (the kernels' /ref siblings are run
# and printed, not gated; a row's "before" entry is history, only "after"
# gates). Fails when
#   - min ns/op across runs exceeds the baseline median by more than
#     BENCH_TOL_PCT percent (default 25) — or, for a benchmark recorded with
#     "max_over_ref", that share of its /ref sibling's min in the same run — or
#   - allocs/op exceeds the baseline at all (allocation counts are exact and
#     deterministic; any growth is a real regression — the SteadyState
#     benchmark must stay at exactly 0).
#
# The min-of-N statistic is deliberate: wall-clock noise on a shared host is
# one-sided (interference slows runs, never speeds them), so the fastest of N
# runs is the stable estimate of the code's true cost while the median drifts
# with machine load.
#
# Usage: scripts/bench_compare.sh [-short]
#   -short  CI smoke mode: 3 runs instead of 5, so the gate stays near a
#           minute. The default benchtime is kept even here: the stage and
#           steady-state benchmarks are a few ms/op, and a capped
#           -benchtime=Nx would under-amortize the one-time arena warm-up and
#           inflate allocs/op vs the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

# The baseline was recorded on the in-process backend (nil Transport), and
# the benchmarks construct their own clusters the same way. Scrub any worker
# env a caller's shell might carry: with DISTENC_WORKER_LISTEN set, the test
# binary would turn into a TCP worker via WorkerHook instead of running the
# benchmarks, and the gate must measure the inproc hot path regardless of
# how it was invoked.
unset DISTENC_WORKER_LISTEN

COUNT=5
if [[ "${1:-}" == "-short" ]]; then
  COUNT=3
fi
TOL_PCT="${BENCH_TOL_PCT:-25}"

# Compile the benchmark binary once, then verify it is NOT race-instrumented
# before recording a single number: the race detector multiplies ns/op by
# 5-20x and adds allocations, so a GOFLAGS=-race environment (or a CI job
# that exports it for the test steps) would silently compare garbage against
# the baseline. Refuse rather than measure.
BIN=$(mktemp -t bench_core.XXXXXX)
SERVE_BIN=$(mktemp -t bench_serve.XXXXXX)
trap 'rm -f "$BIN" "$SERVE_BIN"' EXIT
go test -c -o "$BIN" ./internal/core/
go test -c -o "$SERVE_BIN" ./internal/serve/
if go version -m "$BIN" "$SERVE_BIN" | grep -Eq 'build[[:space:]]+-race=true'; then
  echo "bench_compare: refusing to benchmark a race-instrumented binary" >&2
  echo "  (go version -m reports -race=true; unset GOFLAGS/-race and retry)" >&2
  exit 1
fi

OUT=$("$BIN" -test.run '^$' \
  -test.bench 'BenchmarkMTTKRPStage$|BenchmarkMTTKRPStageGrid$|BenchmarkMTTKRPSteadyStateFused$|BenchmarkSerialIteration$|BenchmarkFusedKernel$|BenchmarkNewLayout$' \
  -test.benchmem -test.count "$COUNT"
  "$SERVE_BIN" -test.run '^$' -test.bench 'BenchmarkPredictBatch$' -test.benchmem -test.count "$COUNT")
echo "$OUT"
echo

echo "$OUT" | python3 -c '
import json, re, sys

tol = float(sys.argv[1]) / 100.0
base = {}
for ledger in ("BENCH_mttkrp.json", "BENCH_predict.json"):
    base.update(json.load(open(ledger))["benchmarks"])

runs = {}
for line in sys.stdin:
    # b.ReportMetric columns (ns/nnz, rows/nnz, ms/iter, ns/cell) sit between ns/op and B/op.
    m = re.match(r"^(Benchmark[\w/]+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(?:[\d.]+ \S+\s+)*?([\d.]+) B/op\s+(\d+) allocs/op", line)
    if m:
        name, ns, _, allocs = m.group(1), float(m.group(2)), m.group(3), int(m.group(4))
        runs.setdefault(name, []).append((ns, allocs))

if not runs:
    sys.exit("bench_compare: no benchmark lines parsed")

failed = False
for name in sorted(n for n, row in base.items() if "after" in row and n not in runs):
    # A gated row that did not run (renamed, or a name the line pattern above
    # does not match) would otherwise pass by being absent.
    print(f"  {name}: gated in the ledger, but no run of it was parsed ... FAIL")
    failed = True
for name, samples in sorted(runs.items()):
    if name not in base or "after" not in base[name]:
        print(f"  {name}: min {min(ns for ns, _ in samples):.0f} ns/op, not gated (no \"after\" baseline recorded)")
        continue
    want = base[name]["after"]
    base_ns = want["ns_per_op_median"]
    base_allocs = want["allocs_per_op"]
    min_ns = min(ns for ns, _ in samples)
    max_allocs = max(a for _, a in samples)
    limit, why = base_ns * (1 + tol), f"+{tol*100:.0f}% over baseline median"
    ref = runs.get(name + "/ref")
    if ref and "max_over_ref" in want:
        # The kernel benchmarks run on tensors the size of the end-to-end
        # gate, where a slow phase of the host moves ns/op by more than the
        # tolerance and by more than the kernel whole margin over the plain
        # formulation. The /ref sibling runs that formulation in the same
        # process a moment later, so the ratio of the two mins holds where
        # neither ns/op does: the limit is a share of the sibling min.
        share = want["max_over_ref"]
        limit, why = share * min(ns for ns, _ in ref), f"{share} x the /ref sibling min"
    ns_ok = min_ns <= limit
    # Zero-alloc baselines are an exact contract (the arena steady state);
    # nonzero baselines get +2 of slack because the stage benchmarks amortize
    # a one-time warm-up over b.N, which varies run to run.
    allowed = base_allocs if base_allocs == 0 else base_allocs + 2
    alloc_ok = max_allocs <= allowed
    status = "ok" if ns_ok and alloc_ok else "FAIL"
    print(f"  {name}: min {min_ns:.0f} ns/op (baseline median {base_ns}, limit {limit:.0f}), "
          f"allocs {max_allocs} (baseline {base_allocs}) ... {status}")
    if not ns_ok:
        print(f"    ns/op regression: min-of-{len(samples)} {min_ns:.0f} > {limit:.0f} ({why})")
        failed = True
    if not alloc_ok:
        print(f"    allocs/op regression: {max_allocs} > baseline {base_allocs} (+slack)")
        failed = True

sys.exit(1 if failed else 0)
' "$TOL_PCT"
