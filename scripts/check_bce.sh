#!/usr/bin/env bash
# check_bce.sh — keeps the annotated inner loops free of bounds checks.
#
# The dense-algebra, shuffle-codec, sparse-kernel and predict-kernel hot loops
# (mat.MulInto/MulAddInto via axpyRows, mat.MulATB, rdd.AppendF64Vals,
# rdd.DecodeF64Vals, core.fusedBlockMTTKRP, core.PackedRows.addInto,
# serve.Model.PredictBatch) are written so the compiler can prove every index
# in range. Each such loop is bracketed by
# `//bce:begin` … `//bce:end` comments; this script compiles the packages with
# -d=ssa/check_bce, which reports every bounds check the compiler kept, and
# fails if one falls between a pair of markers (or if the markers are gone).
#
# Usage: scripts/check_bce.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(./internal/mat ./internal/rdd ./internal/core ./internal/serve)
# file:minimum number of annotated loops it must still contain
EXPECT=(internal/mat/dense.go:3 internal/rdd/wire.go:2 internal/core/mttkrp.go:6 internal/serve/registry.go:2)

# The compiler prints its findings on stderr and still exits 0; a non-zero
# exit is a real build failure and must not read as "no bounds checks".
if ! REPORT=$(go build -gcflags=-d=ssa/check_bce "${PKGS[@]}" 2>&1); then
  echo "$REPORT" >&2
  echo "check_bce: go build failed" >&2
  exit 1
fi

python3 - "$REPORT" "${EXPECT[@]}" <<'PY'
import re, sys

report, expect = sys.argv[1], sys.argv[2:]
found = {}
for line in report.splitlines():
    m = re.match(r"^(?:\./)?([^:]+):(\d+):\d+: Found", line)
    if m:
        found.setdefault(m.group(1), set()).add(int(m.group(2)))

failed = False
for spec in expect:
    path, want = spec.rsplit(":", 1)
    regions, begin = [], None
    for no, text in enumerate(open(path), 1):
        tag = text.strip()
        if tag == "//bce:begin":
            begin = no
        elif tag == "//bce:end" and begin is not None:
            regions.append((begin, no))
            begin = None
    bad = begin is not None or len(regions) < int(want)
    if bad:
        print(f"check_bce: {path}: {len(regions)} annotated loop(s), want at least {want} (unbalanced or deleted //bce: markers?)")
    for lo, hi in regions:
        for n in sorted(n for n in found.get(path, ()) if lo < n < hi):
            print(f"check_bce: {path}:{n}: bounds check inside the annotated loop at lines {lo}-{hi}")
            bad = True
    print(f"  {path}: {len(regions)} annotated loops, {'FAIL' if bad else 'no bounds checks inside'}")
    failed = failed or bad
sys.exit(1 if failed else 0)
PY
