"""Unit tests for accounting and reporting helpers."""

import pytest

from repro.metrics import (
    format_bucket_table,
    format_histogram,
    format_phase_breakdown,
    format_table,
    summarize,
)
from repro.simkernel import Simulation


class TestAccounting:
    def test_cpu_charges_accumulate_by_activity(self):
        sim = Simulation()
        account = sim.accounting.cpu_account("worker")
        account.charge(0.5, activity="reconcile")
        account.charge(0.25, activity="reconcile")
        account.charge(1.0, activity="scan")
        assert account.seconds == pytest.approx(1.75)
        assert account.by_activity["reconcile"] == pytest.approx(0.75)

    def test_negative_charge_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.accounting.cpu_account("w").charge(-1)

    def test_memory_meters_summed_and_peak_tracked(self):
        sim = Simulation()
        account = sim.accounting.memory_account("proc")
        state = {"a": 100, "b": 50}
        account.register_meter("a", lambda: state["a"])
        account.register_meter("b", lambda: state["b"])
        assert account.snapshot(0.0) == 150
        state["a"] = 400
        assert account.snapshot(1.0) == 450
        state["a"] = 10
        account.snapshot(2.0)
        assert account.peak == 450
        assert account.current == 60

    def test_accounts_are_singletons_per_name(self):
        sim = Simulation()
        assert sim.accounting.cpu_account("x") is \
            sim.accounting.cpu_account("x")


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [("a", 1.5), ("long-name", 20)],
                             title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.50" in table
        assert "long-name" in table

    def test_format_histogram(self):
        text = format_histogram([0.1, 0.2, 1.5, 1.7, 1.8],
                                bucket_width=1.0, title="h")
        assert "h" in text
        assert "[  0.0,  1.0)" in text
        assert "2" in text and "3" in text

    def test_format_histogram_empty(self):
        assert format_histogram([]) == "(no samples)"

    def test_format_phase_breakdown_shares(self):
        text = format_phase_breakdown({"A": 3.0, "B": 1.0})
        assert "75.00" in text
        assert "25.00" in text

    def test_format_bucket_table(self):
        text = format_bucket_table({"Phase": [5, 3, 0, 0, 0]})
        assert "[0,2]" in text and "[8,10]" in text
        assert "Phase" in text

    def test_summarize(self):
        from repro.workloads import StressResult

        result = StressResult(mode="x", num_pods=10, num_tenants=2,
                              creation_times=[1.0, 2.0], duration=5.0,
                              throughput=2.0)
        text = summarize(result)
        assert "pods=10" in text
        assert "mean=1.50s" in text
