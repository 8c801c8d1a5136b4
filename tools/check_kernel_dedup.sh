#!/usr/bin/env bash
# Lint: split-complex multiply-accumulate loops live in
# src/linalg/kernels and nowhere else.
#
# The compose evaluator, the dense ansatz oracle, and the statevector
# simulator used to each carry a hand-rolled copy of the same complex
# MAC inner loop; they now all route through the ComputeBackend kernel
# layer so the scalar and AVX2 implementations stay the single
# source of truth. This script fails CI if a split-complex product
# (`...Re[i] * ...Im[j]` and friends) is reintroduced outside the
# kernel directory.
#
# Usage: tools/check_kernel_dedup.sh   (from anywhere; exits non-zero
# on a violation and prints the offending lines)
set -euo pipefail
cd "$(dirname "$0")/.."

# A split-complex MAC term: an re/im-suffixed indexed load multiplied
# by another re/im-suffixed indexed load, e.g. `aRe[k] * bIm[j]`,
# `mre[r * d + k] * u3Im_[q][1]`.
pattern='[A-Za-z_]*[Rr]e_?\[[^]]+\]\s*\*\s*[A-Za-z_]*([Rr]e|[Ii]m)_?\[|[A-Za-z_]*[Ii]m_?\[[^]]+\]\s*\*\s*[A-Za-z_]*([Rr]e|[Ii]m)_?\['

# Positive control: the kernel layer itself must match, or the pattern
# has rotted and the lint is vacuous.
if ! grep -rEq "$pattern" src/linalg/kernels --include='*.cpp' \
    --include='*.hpp'; then
  echo "check_kernel_dedup: pattern no longer matches the kernel" >&2
  echo "layer itself; the lint regex needs updating" >&2
  exit 2
fi

matches=$(grep -rEn "$pattern" src/compose src/sim src/linalg \
  --include='*.cpp' --include='*.hpp' \
  | grep -v '^src/linalg/kernels/' || true)

if [ -n "$matches" ]; then
  echo "Hand-rolled split-complex MAC outside src/linalg/kernels:" >&2
  echo "$matches" >&2
  echo >&2
  echo "Route the loop through kernels::active() (or" >&2
  echo "kernels::reference() for oracle paths) instead." >&2
  exit 1
fi
echo "OK: no hand-rolled split-complex MAC loops outside" \
  "src/linalg/kernels"
