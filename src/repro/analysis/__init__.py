"""Determinism & isolation analysis suite (DESIGN.md §12).

Tools that mechanically check the invariants every reproduction claim
in this repo rests on — byte-identical converged etcd state, base-seed
chaos determinism, exact telemetry aggregates:

- :mod:`repro.analysis.staticcheck` — the static analyzer: one pass over
  the parsed files (:mod:`repro.analysis.project`), each rule decided
  inside one module, running the determinism rules D001–D006
  (:mod:`repro.analysis.linter`: wall-clock use, unseeded randomness,
  unordered-set iteration, identity-based ordering, float priority
  accumulation, non-canonical hash inputs) and
  the concurrency & protocol rules C003–C006 (unowned module-level
  mutable state, orphaned timers/events, unfenced leader writes, shared
  snapshots edited in place);
- :mod:`repro.analysis.bisect` — a replay-divergence bisector that runs
  the same seed twice with per-write state digests and binary-searches
  to the first divergent store event, with component attribution.  It
  localizes both nondeterminism and a schedule-dependent outcome found
  by the scenario runner's schedule check (``Simulation(schedule=S)``).

Only the runtime tool is imported here — the scenario runner loads this
package on every run, and the static analyzer is never on that path;
import it from its submodules.

CLI: ``python -m repro.analysis {check,bisect,rules}``.
"""

from .bisect import Divergence, ReplayRecorder, first_divergence

__all__ = [
    "Divergence",
    "ReplayRecorder",
    "first_divergence",
]
