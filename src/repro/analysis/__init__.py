"""Determinism & isolation analysis suite (DESIGN.md §12).

Tools that mechanically check the invariants every reproduction claim
in this repo rests on — byte-identical converged etcd state, base-seed
chaos determinism, exact telemetry aggregates:

- :mod:`repro.analysis.staticcheck` — the static analyzer: one pass over
  one parsed project (:mod:`repro.analysis.callgraph`) running the
  determinism rules D001–D006 (:mod:`repro.analysis.linter`: wall-clock
  use, unseeded randomness, unordered-set iteration, identity-based
  ordering, float priority accumulation, non-canonical hash inputs) and
  the concurrency & protocol rules C001–C006 (blocking waits under
  locks, lock-order inversion via :mod:`repro.analysis.lockgraph`,
  unowned module-level mutable state, orphaned timers/events, unfenced
  leader writes, shared snapshots edited in place);
- :mod:`repro.analysis.racedetect` — an opt-in vector-clock race
  detector for sim processes, flagging shared-state accesses on
  :class:`~repro.storage.etcd.EtcdStore` and
  :class:`~repro.clientgo.cache.ObjectCache` that are not ordered by a
  kernel happens-before edge;
- :mod:`repro.analysis.bisect` — a replay-divergence bisector that runs
  the same seed twice with per-write state digests and binary-searches
  to the first divergent store event, with component attribution.

Only the two runtime tools are imported here — the scenario runner
loads this package on every run, and the static analyzer is never on
that path; import it from its submodules.

CLI: ``python -m repro.analysis {check,race,bisect,rules}``.
"""

from .bisect import Divergence, ReplayRecorder, first_divergence
from .racedetect import RaceConflict, RaceDetector

__all__ = [
    "Divergence",
    "RaceConflict",
    "RaceDetector",
    "ReplayRecorder",
    "first_divergence",
]
