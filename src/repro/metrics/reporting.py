"""ASCII reporting helpers used by the benchmark harness.

The benchmarks print the same rows/series the paper reports; these
helpers render them readably in pytest output and EXPERIMENTS.md.
"""


def format_table(headers, rows, title=None):
    """Render a fixed-width ASCII table."""
    columns = [str(h) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(col.ljust(width)
                            for col, width in zip(columns, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_histogram(samples, title=None):
    """Render a horizontal ASCII histogram of creation times (Fig. 7):
    1 s buckets, the fullest one 50 characters wide."""
    bucket_width = 1.0
    if not samples:
        return "(no samples)"
    counts = {}
    for value in samples:
        bucket = int(value // bucket_width)
        counts[bucket] = counts.get(bucket, 0) + 1
    peak = max(counts.values())
    lines = [title] if title else []
    for bucket in range(max(counts) + 1):
        count = counts.get(bucket, 0)
        bar = "#" * max(1 if count else 0,
                        round(count / peak * 50))
        low = bucket * bucket_width
        high = low + bucket_width
        lines.append(f"  [{low:5.1f},{high:5.1f}) {count:6d} {bar}")
    return "\n".join(lines)


def format_phase_breakdown(phase_means, title="Phase breakdown"):
    """Render the Fig. 8 style breakdown with percentages."""
    total = sum(phase_means.values()) or 1.0
    rows = [(phase, seconds, 100.0 * seconds / total)
            for phase, seconds in phase_means.items()]
    return format_table(["phase", "mean (s)", "share (%)"], rows,
                        title=title)


def format_bucket_table(phase_buckets):
    """Render the Table I layout: phases x 2 s time buckets."""
    bucket_count = len(next(iter(phase_buckets.values())))
    headers = ["phase"] + [f"[{2 * i},{2 * (i + 1)}]"
                           for i in range(bucket_count)]
    rows = [[phase] + counts for phase, counts in phase_buckets.items()]
    return format_table(headers, rows, title="Time bucket counts (Table I)")


def summarize(result):
    """One-line summary of a StressResult."""
    return (f"{result.mode}: pods={result.num_pods} "
            f"tenants={result.num_tenants} duration={result.duration:.1f}s "
            f"throughput={result.throughput:.0f}/s mean={result.mean:.2f}s "
            f"p99={result.percentile(99):.2f}s")
