"""Per-layer attribution of a traced repetition.

Input is the ``pstats`` table of a cProfile run the harness installed
around the timed phase.  Every profiled function is charged to the
layer that owns its file (``spec.layer_of``); frames no layer owns —
builtins, the standard library, the harness itself — are charged to
whoever called them, following caller edges upwards, so ``len()`` inside
``EtcdStore.list_prefix`` is storage time.  What still has no owner
(the profiler's entry frame) is the ``harness`` bucket.

Generator functions are profiled once per resume, so *call counts* of
coroutines over-count; the counts reported here are of plain functions
only (serde, ``Watch.wants``, scheduler filters, label lookups).
"""

import pstats

from .spec import HARNESS, LAYERS, layer_of

# Index names for the pstats tuples.
_NC, _TT, _CALLERS = 1, 2, 4           # per function
_E_NC, _E_TT, _E_CT = 0, 2, 3          # per caller edge


class Attribution:
    def __init__(self, stats):
        """``stats`` is a ``pstats.Stats(...).stats`` table."""
        self.stats = stats
        self.layer = {func: layer_of(func[0]) for func in self.stats}
        self._owners = {}

    def owners(self, func):
        """``{layer: fraction}`` for ``func``: its own layer, or for an
        unowned frame its callers' layers weighted by the inclusive time
        each spent in it."""
        own = self.layer.get(func)
        if own is not None:
            return {own: 1.0}
        cached = self._owners.get(func)
        if cached is not None:
            return cached
        # Provisional answer doubles as the guard for call cycles.
        self._owners[func] = {HARNESS: 1.0}
        callers = self.stats[func][_CALLERS] if func in self.stats else {}
        weights = {caller: edge[_E_CT] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[_E_NC]
                       for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return self._owners[func]
        shares = {}
        for caller, weight in weights.items():
            for layer, fraction in self.owners(caller).items():
                shares[layer] = (shares.get(layer, 0.0)
                                 + fraction * weight / total)
        self._owners[func] = shares
        return shares

    def self_seconds(self):
        """``{layer: seconds}`` including the ``harness`` bucket; sums to
        the profile's total."""
        out = dict.fromkeys((*LAYERS, HARNESS), 0.0)
        for func, row in self.stats.items():
            own = self.layer[func]
            if own is not None:
                out[own] += row[_TT]
            elif not row[_CALLERS]:
                out[HARNESS] += row[_TT]
            else:
                # Exact per caller: the edge's tt is this frame's own
                # time while that caller was its parent.
                for caller, edge in row[_CALLERS].items():
                    for layer, fraction in self.owners(caller).items():
                        out[layer] += edge[_E_TT] * fraction
        return out

    def edges(self):
        """Layer-crossing calls: ``{(from, to): [calls, inclusive_s]}``."""
        out = {}
        for func, row in self.stats.items():
            callee = self.layer[func]
            if callee is None:
                continue
            for caller, edge in row[_CALLERS].items():
                for layer, fraction in self.owners(caller).items():
                    if layer == callee:
                        continue
                    cell = out.setdefault((layer, callee), [0.0, 0.0])
                    cell[0] += edge[_E_NC] * fraction
                    cell[1] += edge[_E_CT] * fraction
        return out

    def calls(self, layer, names, callers=None):
        """Calls of functions called ``names`` owned by ``layer``;
        ``callers`` (a predicate on the calling layer) restricts the
        count to calls arriving from those layers."""
        count = 0.0
        for func, row in self.stats.items():
            if self.layer[func] != layer or func[2] not in names:
                continue
            if callers is None:
                count += row[_NC]
                continue
            for caller, edge in row[_CALLERS].items():
                for owner, fraction in self.owners(caller).items():
                    if callers(owner):
                        count += edge[_E_NC] * fraction
        return round(count)

    def top_functions(self, limit=25):
        rows = sorted(self.stats.items(), key=lambda item: -item[1][_TT])
        return [{"function": f"{func[0]}:{func[1]}:{func[2]}",
                 "layer": self.layer[func] or max(
                     self.owners(func).items(), key=lambda kv: kv[1])[0],
                 "calls": row[_NC], "self_s": row[_TT]}
                for func, row in rows[:limit]]


SERDE_PAYERS = ("apiserver", "storage", "clientgo", "core.syncer",
                "scheduler")


def summarize(profiler, traced_wall_s, pods):
    """Everything the traced repetition contributes: the per-layer
    metrics that come from the profile, and the trace document written
    to ``bench/out/trace_<workload>.json``."""
    attribution = Attribution(pstats.Stats(profiler).stats)
    self_s = attribution.self_seconds()
    edges = attribution.edges()
    total = sum(self_s.values())
    shares = {layer: seconds / total if total else 0.0
              for layer, seconds in self_s.items()}

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = shares[layer]
    metrics["harness.share"] = shares[HARNESS]
    for payer in SERDE_PAYERS:
        metrics[f"objects.incl_s.from_{payer}"] = edges.get(
            (payer, "objects"), (0, 0.0))[1]

    # Arriving from another layer: a nested to_dict of a sub-object is
    # then not a second call.
    def outside(owner):
        return owner != "objects"

    to_dict = attribution.calls("objects", {"to_dict"}, outside)
    from_dict = attribution.calls("objects", {"from_dict"}, outside)
    deep_copy = attribution.calls("objects", {"copy", "fast_deep_copy"},
                                  outside)
    evals = attribution.calls("storage", {"wants"})
    deliveries = attribution.calls("simkernel", {"try_put"},
                                   lambda owner: owner == "storage")
    boundary_calls = {
        "objects.to_dict_calls": to_dict,
        "objects.from_dict_calls": from_dict,
        "objects.deep_copy_calls": deep_copy,
        "storage.watch_evals": evals,
        "storage.watch_deliveries": deliveries,
        "storage.cas_conflicts": _cas_conflicts(attribution),
        "scheduler.filter_calls": attribution.calls("scheduler", {"filter"}),
        "telemetry.label_lookups": attribution.calls("telemetry",
                                                     {"labels"}),
    }
    metrics.update(boundary_calls)
    metrics["objects.serde_calls_per_pod"] = (
        (to_dict + from_dict + deep_copy) / pods if pods else 0.0)
    metrics["storage.watch_useful_ratio"] = (
        deliveries / evals if evals else 0.0)

    document = {
        "traced_wall_s": traced_wall_s,
        "profile_total_s": total,
        "layers": {layer: {"self_s": seconds, "share": shares[layer]}
                   for layer, seconds in self_s.items()},
        "edges": [{"from": source, "to": target, "calls": round(calls),
                   "incl_s": seconds}
                  for (source, target), (calls, seconds)
                  in sorted(edges.items(), key=lambda item: -item[1][1])],
        "boundary_calls": boundary_calls,
        "top_functions": attribution.top_functions(),
    }
    return metrics, document


def _cas_conflicts(attribution):
    """Compare-and-swap failures: constructions of RevisionConflict."""
    from repro.storage.errors import RevisionConflict

    code = RevisionConflict.__init__.__code__
    row = attribution.stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name))
    return row[_NC] if row else 0
