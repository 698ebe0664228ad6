#!/usr/bin/env bash
# Tier-1 gate: the fast correctness suite plus (when available) a
# coverage floor.
#
# Usage:  scripts/tier1.sh [extra pytest args...]
#         scripts/tier1.sh --chaos-smoke [seed]
#         scripts/tier1.sh --telemetry-smoke [seed]
#         scripts/tier1.sh --durability-smoke [seed]
#         scripts/tier1.sh --scenario-smoke [corpus-dir]
#         scripts/tier1.sh --apf-smoke [seed]
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
# --chaos-smoke runs two short seeded chaos convergence runs instead of
# the pytest gate: the base fault mix, then the HA mix (--kill-leader:
# leader crash with standby failover, tenant control-plane crash
# restored from its etcd snapshot, snapshot rollback).  Exit 0 means
# both runs healed.
#
# --telemetry-smoke runs a small seeded stress mix and exports the
# telemetry snapshot as JSON, asserting it parses and that every core
# metric family (apiserver, etcd, workqueue, informer, syncer,
# scheduler, kubelet, spans) is present with recorded activity.
#
# --durability-smoke runs the storage durability gate (DESIGN.md §13):
# a seeded chaos run with the replicated super store under leader
# kill -9 (plain and mid-txn), follower lag, and a torn WAL tail; a
# same-seed determinism double-run with a 2-replica store; and the
# durability-marked benchmark suite (crash storm: zero committed-write
# loss, MTTR within the lease budget, byte-identical convergence).
#
# --scenario-smoke verifies the golden scenario corpus (DESIGN.md §14):
# every scenario under scenarios/corpus replays to its recorded
# converged-state digest twice in a row (determinism), race-checked
# scenarios run under the vector-clock detector, and the
# scenario-marked conformance tests run.  Exit 0 means zero drift.
#
# --apf-smoke runs the overload/tiering gate (DESIGN.md §15): a seeded
# chaos run with APF admission + the scale-to-zero swapper enabled and
# a free-tier TenantStorm at the front door (the run must converge with
# the storm shed, not served); a same-seed determinism double-run with
# both features on; and the apf-marked suite (admission, swap state
# machine, Retry-After plumbing, fairness properties).
#
# --bench-smoke runs the perf-ledger gate (bench/README.md): every
# benchmark workload once at smoke scale with its determinism and
# golden-digest checks, then bench's own test suite, which lives
# outside testpaths and is the only check that bench/'s imports from
# src/ still resolve.
#
# --lint runs the determinism linter (repro.analysis) over src/ in
# strict mode against the committed allowlist, then the whole-program
# concurrency/protocol staticcheck (C001-C005) in strict mode, then
# the lint- and staticcheck-marked CLI smoke tests.  Exit 0 means zero
# non-allowlisted findings and no stale suppressions or allowlist
# entries in either pack.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--chaos-smoke" ]]; then
    seed="${2:-0}"
    echo "tier1: chaos smoke (seed=$seed), base fault mix" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 30
    echo "tier1: chaos smoke (seed=$seed), HA fault mix (--kill-leader)" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 30 --kill-leader
    exit 0
fi

if [[ "${1:-}" == "--durability-smoke" ]]; then
    seed="${2:-0}"
    echo "tier1: durability smoke (seed=$seed), storage fault mix" >&2
    # Replicated super store under leader kill -9 (plain + mid-txn),
    # follower lag, and a torn WAL tail — the run must converge.
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 30 \
        --kill-store --wal-corrupt
    echo "tier1: durability smoke (seed=$seed), determinism with replication" >&2
    # Two same-seed runs with a 2-replica store must stay byte-identical.
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 25 \
        --check-determinism --replicas-store 2
    echo "tier1: durability-marked benchmark suite" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m durability
    exit 0
fi

if [[ "${1:-}" == "--telemetry-smoke" ]]; then
    seed="${2:-0}"
    echo "tier1: telemetry smoke (seed=$seed), JSON export + core families" >&2
    out="$(mktemp)"
    trap 'rm -f "$out"' EXIT
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.telemetry --seed "$seed" --pods 40 --tenants 3 \
        --nodes 6 --format json --output "$out" --check
    python -c "import json,sys; json.load(open(sys.argv[1]))" "$out"
    echo "tier1: telemetry smoke OK (JSON parses, core families active)" >&2
    exit 0
fi

if [[ "${1:-}" == "--scenario-smoke" ]]; then
    corpus="${2:-scenarios/corpus}"
    echo "tier1: scenario corpus verify (2x replay vs golden digests)" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.scenarios verify "$corpus"
    echo "tier1: scenario-marked conformance tests" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m scenario
    exit 0
fi

if [[ "${1:-}" == "--apf-smoke" ]]; then
    seed="${2:-0}"
    echo "tier1: apf smoke (seed=$seed), tenant storm under APF + swapper" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 30 \
        --apf --tenant-storm
    echo "tier1: apf smoke (seed=$seed), determinism with APF + swapper" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.chaos --seed "$seed" --horizon 25 \
        --check-determinism --apf --tenant-storm
    echo "tier1: apf-marked suite" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m apf
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
    echo "tier1: determinism lint (strict) over src/" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.analysis lint src --strict \
        --allowlist analysis-allowlist.txt
    echo "tier1: concurrency/protocol staticcheck (strict) over src/" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.analysis staticcheck src --strict \
        --allowlist analysis-allowlist.txt
    echo "tier1: lint- and staticcheck-marked CLI smoke tests" >&2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m "lint or staticcheck"
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
