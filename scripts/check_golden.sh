#!/usr/bin/env bash
# Byte-compare three CLI outputs against the committed goldens in
# tests/golden/. The goldens pin a 1200 s chaos campaign, a fault-scale-2
# sweep over the three stable-storage schemes and a star-64 general
# campaign; a change that alters any modelled run (not just its speed)
# shows up as a diff. Wall-clock `timing:` lines are stripped.
#
#   scripts/check_golden.sh [build-dir]            compare (exit 1 on diff)
#   scripts/check_golden.sh --update [build-dir]   rewrite the goldens
set -euo pipefail

UPDATE=0
BUILD="build"
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    *) BUILD="$arg" ;;
  esac
done

SYNERGY="$BUILD/tools/synergy"
GOLDEN="$(dirname "$0")/../tests/golden"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# A run that fails (non-zero exit, even after printing every line) stops
# the script here under errexit/pipefail, before any golden is compared
# or rewritten. grep -v exits 1 only when it prints nothing, which an
# empty capture then reports as a mismatch.
"$SYNERGY" chaos --reps 8 --seed 1 --duration 1200 --verbose \
  > "$OUT/chaos_1200s.raw"
"$SYNERGY" sweep --seed 1 --reps 200 --duration 60 \
  --schemes coordinated,write_through,mdcd_only --fault-scales 2 --quiet \
  > "$OUT/sweep_fs2.json"
"$SYNERGY" general --topology star --size 64 --reps 4 --seed 1 \
  --duration 200 --verbose > "$OUT/general_star64.raw"
for f in chaos_1200s general_star64; do
  grep -v '^timing:' "$OUT/$f.raw" > "$OUT/$f.txt" || true
done

status=0
for f in chaos_1200s.txt sweep_fs2.json general_star64.txt; do
  if [ "$UPDATE" -eq 1 ]; then
    cp "$OUT/$f" "$GOLDEN/$f"
  elif ! diff -u "$GOLDEN/$f" "$OUT/$f"; then
    echo "golden mismatch: $f" >&2
    status=1
  fi
done
exit $status
