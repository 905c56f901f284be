#!/usr/bin/env bash
# check_nofma.sh — keeps fused multiply-adds out of the bit-for-bit loops.
#
# Go contracts x*y + z into one fused multiply-add on arm64 (and other
# targets with the instruction), rounding once where amd64 rounds twice. The
# loops this repository promises bit for bit across bodies and targets — the
# same loops check_bce.sh keeps free of bounds checks, bracketed by
# `//bce:begin` … `//bce:end` — write every product that is added as
# float64(x*y), which forbids the contraction. This script compiles the
# numeric packages for GOARCH=arm64 with -S and fails if a fused
# multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD, or a single-precision
# form) lies inside any such region, or if the listing names no function of
# a package (a build that printed nothing would otherwise pass).
#
# Usage: scripts/check_nofma.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(. ./internal/mat ./internal/rdd ./internal/core ./internal/graph ./internal/sptensor)

# The listing runs to megabytes: it goes through a file, not an argument.
REPORT=$(mktemp -t check_nofma.XXXXXX)
trap 'rm -f "$REPORT"' EXIT
if ! GOARCH=arm64 go build -gcflags=-S "${PKGS[@]}" >"$REPORT" 2>&1; then
  cat "$REPORT" >&2
  echo "check_nofma: GOARCH=arm64 go build failed" >&2
  exit 1
fi

python3 - "$PWD" "$REPORT" "${PKGS[@]}" <<'PY'
import os, re, sys

root, report, pkgs = sys.argv[1], sys.argv[2], sys.argv[3:]
fused = {}
seen_dirs = set()
for line in open(report):
    m = re.search(r"\((?:\./)?([^()\s]+\.go):(\d+)\)\s+(F(?:N)?M(?:ADD|SUB)[DS])\b", line)
    f = re.search(r"\(([^()\s]+\.go):\d+\)", line)
    if f:
        seen_dirs.add(os.path.dirname(os.path.relpath(f.group(1), root)) or ".")
    if m:
        path = os.path.relpath(m.group(1), root)
        fused.setdefault(path, []).append((int(m.group(2)), m.group(3)))

failed = False
for pkg in pkgs:
    d = os.path.normpath(pkg)
    if d not in seen_dirs:
        print(f"check_nofma: the arm64 listing names no function of {pkg}")
        failed = True
    regions_total, bad = 0, False
    for name in sorted(os.listdir(d)):
        if not name.endswith(".go") or name.endswith("_test.go"):
            continue
        path = os.path.normpath(os.path.join(d, name))
        regions, begin = [], None
        for no, text in enumerate(open(path), 1):
            tag = text.strip()
            if tag == "//bce:begin":
                begin = no
            elif tag == "//bce:end" and begin is not None:
                regions.append((begin, no))
                begin = None
        regions_total += len(regions)
        for lo, hi in regions:
            for n, op in sorted(fused.get(path, ())):
                if lo < n < hi:
                    print(f"check_nofma: {path}:{n}: {op} inside the bit-for-bit loop at lines {lo}-{hi}")
                    bad = True
    print(f"  {pkg}: {regions_total} annotated loops, {'FAIL' if bad else 'no fused multiply-add inside'}")
    failed = failed or bad
sys.exit(1 if failed else 0)
PY
