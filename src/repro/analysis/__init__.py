"""Determinism & isolation analysis suite (DESIGN.md §12).

Three tools that mechanically check the invariants every reproduction
claim in this repo rests on — byte-identical converged etcd state,
base-seed chaos determinism, exact telemetry aggregates:

- :mod:`repro.analysis.linter` — an AST pass over the source tree with
  determinism rules D001–D006 (wall-clock use, unseeded randomness,
  unordered-set iteration, identity-based ordering, float priority
  accumulation, non-canonical hash inputs);
- :mod:`repro.analysis.racedetect` — an opt-in vector-clock race
  detector for sim processes, flagging shared-state accesses on
  :class:`~repro.storage.etcd.EtcdStore` and
  :class:`~repro.clientgo.cache.ObjectCache` that are not ordered by a
  kernel happens-before edge;
- :mod:`repro.analysis.bisect` — a replay-divergence bisector that runs
  the same seed twice with per-write state digests and binary-searches
  to the first divergent store event, with component attribution;
- :mod:`repro.analysis.staticcheck` — a whole-program concurrency &
  protocol checker with rules C001–C006 (blocking waits under locks,
  lock-order inversion, unowned module-level mutable state, orphaned
  timers/events, unfenced leader writes, shared snapshots edited in
  place),
  built on the project symbol table / call graph of
  :mod:`repro.analysis.callgraph` and the interprocedural lock graph of
  :mod:`repro.analysis.lockgraph`.

CLI: ``python -m repro.analysis {lint,staticcheck,race,bisect,rules}``.
"""

from .bisect import Divergence, ReplayRecorder, first_divergence
from .callgraph import Project
from .linter import LintResult, lint_paths, load_allowlist
from .lockgraph import LockGraph
from .racedetect import RaceConflict, RaceDetector
from .rules import RULES, Finding
from .staticcheck import CheckResult, check_paths

__all__ = [
    "CheckResult",
    "Divergence",
    "Finding",
    "LintResult",
    "LockGraph",
    "Project",
    "RULES",
    "RaceConflict",
    "RaceDetector",
    "ReplayRecorder",
    "check_paths",
    "first_divergence",
    "lint_paths",
    "load_allowlist",
]
