#!/usr/bin/env bash
# Single entry point for every lint in the tree — what the `lint_all` ctest
# and the CI lint job both run:
#
#   1. check_determinism.py   rule pack over src/tests/bench + self-test
#   2. check_domains.py       VT_PURE/HOST_ONLY call-edge checker + self-test
#   3. run_ast_rules.py       structural AST rules + fixture self-test
#   4. run_clang_tidy.sh      changed-files clang-tidy vs the baseline
#                             (self-gating: skips when clang-tidy or the
#                             compile database is absent)
#
# Usage: tools/lint/run_all.sh [build-dir]
#
# Every checker prints a  LINT-SUMMARY <name> files=<n> findings=<n>  line;
# this script tabulates them (and appends the table to the GitHub Actions
# job summary when $GITHUB_STEP_SUMMARY is set).  Exit: nonzero if any
# gating check failed.
set -uo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$REPO_ROOT"
PY="${PYTHON:-python3}"

overall=0
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

run_gating() {
  local name="$1"; shift
  echo "=== $name"
  if "$@" | tee -a "$log"; then
    echo "--- $name: OK"
  else
    echo "--- $name: FAILED"
    overall=1
  fi
}

run_gating "determinism self-test" \
  "$PY" tools/lint/check_determinism.py --self-test
run_gating "determinism lint" \
  "$PY" tools/lint/check_determinism.py --root "$REPO_ROOT"
run_gating "domains self-test" \
  "$PY" tools/lint/check_domains.py --self-test
run_gating "domain checker" \
  "$PY" tools/lint/check_domains.py --root "$REPO_ROOT"
run_gating "AST rules self-test" \
  "$PY" tools/lint/run_ast_rules.py --self-test
run_gating "AST rules" \
  "$PY" tools/lint/run_ast_rules.py --root "$REPO_ROOT"

# clang-tidy on changed files: self-gating (skips without clang-tidy), but
# only meaningful with a compile database, so don't even try without one.
if [ -f "$BUILD_DIR/compile_commands.json" ]; then
  run_gating "clang-tidy (changed files)" \
    tools/lint/run_clang_tidy.sh "${LINT_BASE_REF:-origin/main}" "$BUILD_DIR"
else
  echo "=== clang-tidy: skipped (no $BUILD_DIR/compile_commands.json)"
fi

# ---------------------------------------------------------------------------
# Summary table from the LINT-SUMMARY lines.

table="$(awk '
  /^LINT-SUMMARY / {
    name=$2
    files=""; findings=""
    for (i=3; i<=NF; ++i) {
      if ($i ~ /^files=/)    { files=substr($i, 7) }
      if ($i ~ /^findings=/) { findings=substr($i, 10) }
    }
    printf "| %s | %s | %s |\n", name, files, findings
  }' "$log")"

echo
echo "| rule | files checked | violations |"
echo "|------|---------------|------------|"
echo "$table"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### Lint results"
    echo
    echo "| rule | files checked | violations |"
    echo "|------|---------------|------------|"
    echo "$table"
    echo
    if [ "$overall" -eq 0 ]; then
      echo "All gating checks passed."
    else
      echo "**Some gating checks FAILED** — see the job log."
    fi
  } >> "$GITHUB_STEP_SUMMARY"
fi

exit "$overall"
