"""Reporting helpers for the benchmark harness."""

from .reporting import (
    format_bucket_table,
    format_histogram,
    format_phase_breakdown,
    format_table,
    format_telemetry,
    summarize,
)

__all__ = [
    "format_bucket_table",
    "format_histogram",
    "format_phase_breakdown",
    "format_table",
    "format_telemetry",
    "summarize",
]
