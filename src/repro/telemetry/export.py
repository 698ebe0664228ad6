"""Render telemetry snapshots as text or JSON.

``render_text`` produces a Prometheus-exposition-flavoured dump plus a
span-aggregate table; ``render_json`` is a stable, sorted-key JSON
encoding — two same-seed runs produce byte-identical output in either
format.  ``check_core_families`` backs the CLI's ``--check``.
"""

import json

from . import CORE_FAMILIES


def render_json(snapshot, indent=2):
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def _labels_suffix(labels):
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def render_text(snapshot):
    lines = [f"# snapshot at sim time {snapshot['time']:.6f}s"]
    for family in snapshot["families"]:
        if family["help"]:
            lines.append(f"# HELP {family['name']} {family['help']}")
        lines.append(f"# TYPE {family['name']} {family['kind']}")
        for series in family["series"]:
            suffix = _labels_suffix(series["labels"])
            if family["kind"] == "histogram":
                for bucket in series["buckets"]:
                    le = bucket["le"]
                    le_txt = le if isinstance(le, str) else f"{le:g}"
                    bucket_labels = dict(series["labels"], le=le_txt)
                    lines.append(
                        f"{family['name']}_bucket"
                        f"{_labels_suffix(bucket_labels)}"
                        f" {bucket['count']}")
                lines.append(
                    f"{family['name']}_sum{suffix} {series['sum']:g}")
                lines.append(
                    f"{family['name']}_count{suffix} {series['count']}")
            else:
                lines.append(f"{family['name']}{suffix} {series['value']:g}")
    spans = snapshot.get("spans")
    if spans:
        lines.append("")
        lines.append("# spans (exact aggregates)")
        width = max(len(name) for name in spans)
        lines.append(f"{'name'.ljust(width)}  {'count':>8}  {'errors':>6}  "
                     f"{'mean (s)':>10}  {'total (s)':>10}")
        for name, agg in spans.items():
            lines.append(
                f"{name.ljust(width)}  {agg['count']:>8}  "
                f"{agg['errors']:>6}  {agg['mean_seconds']:>10.6f}  "
                f"{agg['total_seconds']:>10.3f}")
    return "\n".join(lines) + "\n"


def check_core_families(snapshot, families=CORE_FAMILIES):
    """Verify the snapshot contains every core family with activity.

    Returns a list of problems (empty means healthy) so callers can
    print them all rather than fail on the first.
    """
    present = {family["name"]: family for family in snapshot["families"]}
    problems = []
    for name in families:
        family = present.get(name)
        if family is None:
            problems.append(f"missing metric family: {name}")
            continue
        total = 0.0
        for series in family["series"]:
            total += series.get("value", series.get("count", 0))
        if total <= 0:
            problems.append(f"metric family has no activity: {name}")
    return problems
