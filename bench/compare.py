"""``python -m bench compare A.json B.json``: B against the base A.

One row per workload × end-to-end metric.  A metric counts as worse
only beyond its bound in BENCHMARK.json; where either side's
interquartile spread is itself wider than the bound the row is
``unresolved`` — the runs cannot tell.  Exact metrics (simulated
statistics, event counts) and every per-layer count are additionally
required to be identical when both reports used the same seed.
"""

from . import spec

UNCHANGED, IMPROVED, REGRESSED, UNRESOLVED = (
    "unchanged", "improved", "regressed", "unresolved")
# Per-layer metrics that are host timings or derived from them.
_TIMED_SUFFIXES = ("_us", ".self_s", ".share", ".us_per_event")


def spread(entry):
    """Interquartile range as a share of the median."""
    return (entry["q3"] - entry["q1"]) / entry["median"]


def judge(base, new, better, bound):
    """Verdict for one metric; ``base``/``new`` are aggregate entries
    (median, q1, q3).  Returns (verdict, worsening as a share of base)."""
    change = (new["median"] - base["median"]) / base["median"]
    worsening = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        return UNRESOLVED, worsening
    if worsening > bound:
        return REGRESSED, worsening
    if worsening < -bound:
        return IMPROVED, worsening
    return UNCHANGED, worsening


def _is_count(name):
    return not (name.endswith(_TIMED_SUFFIXES) or ".incl_s." in name
                or name == "trace.overhead_ratio")


def compare(report_a, report_b, spec_doc=None):
    """Rows and exact-metric differences for two ``bench run`` reports."""
    spec_doc = spec_doc or spec.load_spec()
    same_seed = (report_a["provenance"]["seed"]
                 == report_b["provenance"]["seed"]
                 and report_a["scale"] == report_b["scale"])
    rows, differences = [], []
    for workload, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in spec_doc["end_to_end"]:
            name = metric["name"]
            base, new = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            verdict, worsening = judge(base, new, metric["better"],
                                       metric["bound"])
            if (same_seed and name in spec.EXACT
                    and base["median"] != new["median"]):
                differences.append(f"{workload} {name}: "
                                   f"{base['median']!r} -> {new['median']!r}")
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "base": base["median"],
                         "new": new["median"],
                         "ratio": new["median"] / base["median"],
                         "worsening": worsening, "bound": metric["bound"],
                         "spread_base": spread(base),
                         "spread_new": spread(new), "verdict": verdict})
        if same_seed:
            layers_a = entry_a.get("per_layer", {})
            layers_b = entry_b.get("per_layer", {})
            for name in sorted(set(layers_a) & set(layers_b)):
                if _is_count(name) and layers_a[name] != layers_b[name]:
                    differences.append(f"{workload} {name}: "
                                       f"{layers_a[name]!r} -> "
                                       f"{layers_b[name]!r}")
        for side, entry in (("base", entry_a), ("new", entry_b)):
            if entry["fail_ratio"]:
                differences.append(f"{workload}: fail_ratio "
                                   f"{entry['fail_ratio']:.6f} on {side}")
    return rows, differences


def render(rows, differences):
    lines = [f"{'workload':<16} {'metric':<18} {'base':>12} {'new':>12} "
             f"{'new/base':>9} {'bound':>6} {'iqr base':>9} {'iqr new':>9}  "
             "verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<18} "
            f"{row['base']:>12.5g} {row['new']:>12.5g} "
            f"{row['ratio']:>9.4f} {row['bound']:>6.2f} "
            f"{row['spread_base']:>9.2%} {row['spread_new']:>9.2%}  "
            f"{row['verdict']}")
    if differences:
        lines.append("")
        lines.append("exact metrics that differ, and failures:")
        lines.extend(f"  {difference}" for difference in differences)
    else:
        lines.append("")
        lines.append("exact metrics and counts identical; fail_ratio 0")
    return "\n".join(lines)


def passed(rows, differences):
    return not differences and all(
        row["verdict"] in (UNCHANGED, IMPROVED) for row in rows)
