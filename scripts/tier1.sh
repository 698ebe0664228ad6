#!/usr/bin/env bash
# Tier-1 gate: the fast correctness suite plus (when available) a
# coverage floor.
#
# Usage:  scripts/tier1.sh [extra pytest args...]
#         scripts/tier1.sh --smoke
#         scripts/tier1.sh --bench-smoke
#         scripts/tier1.sh --lint
#
# Runs the tier1-marked tests (every test except the long soak runs)
# exactly as the CI gate does.  The coverage floor is enforced only
# when pytest-cov is installed — the base image intentionally ships
# without it, so the gate degrades to a plain test run rather than
# failing on a missing plugin.  Install it with:
#
#     pip install -e ".[coverage]"
#
# --smoke runs the scenario gate (DESIGN.md §14): every file under
# scenarios/smoke (chaos_base, chaos_ha, ha_partition, durability,
# apf_storm, telemetry_core and unschedulable_start: the chaos, HA,
# HA-partition, durability, overload, telemetry and
# scheduler-failure-path mixes, each with load running through its
# fault windows and telemetry floors that fail if a feature did not
# engage) and under
# scenarios/corpus replays to its recorded converged-state digest
# twice in a row — a replay that differs from the previous one is
# bisected to its first divergent store event — and then runs each
# schedule_check file under 3 schedule seeds (same-timestamp ties
# permuted), each of which must meet the file's expect block; then the
# scenario-, durability- and apf-marked suites run.  Exit 0 means zero
# drift and no schedule-dependent failure.
#
# --bench-smoke runs the perf-ledger gate (bench/README.md): every
# benchmark workload once at smoke scale with its determinism and
# golden-digest checks, then bench's own test suite, which lives
# outside testpaths and is the only check that bench/'s imports from
# src/ still resolve.
#
# --lint runs the static analyzer (repro.analysis check: determinism
# rules D001-D006 and concurrency/protocol rules C003-C006 in one pass,
# each rule decided inside one module, so C003 checks every function
# under src/) over src/ in strict mode against the committed
# allowlist, then the lint-marked CLI smoke tests.  Exit 0 means zero
# non-allowlisted findings and no stale suppressions or allowlist
# entries.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    echo "tier1: smoke scenarios verify (2x replay vs golden digests)" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.scenarios verify scenarios/smoke
    echo "tier1: scenario corpus verify (2x replay vs golden digests)" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.scenarios verify scenarios/corpus
    echo "tier1: scenario-, durability- and apf-marked suites" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m "scenario or durability or apf"
    exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
    echo "tier1: bench smoke, five workloads at smoke scale" >&2
    python -m bench run --seed 0 --scale smoke --no-trace
    echo "tier1: bench's own tests" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -q bench/tests
    exit 0
fi

if [[ "${1:-}" == "--lint" ]]; then
    echo "tier1: static analyzer (strict) over src/" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.analysis check src --strict \
        --allowlist analysis-allowlist.txt
    echo "tier1: lint-marked CLI smoke tests" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m lint
    exit 0
fi

COV_ARGS=()
if python -c "import pytest_cov" >/dev/null 2>&1; then
    COV_ARGS=(--cov=repro --cov-fail-under=75)
else
    echo "tier1: pytest-cov not installed; skipping coverage floor" >&2
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest -x -q -m tier1 "${COV_ARGS[@]}" "$@"
