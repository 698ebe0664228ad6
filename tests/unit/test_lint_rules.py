"""Unit tests for the determinism rules D001–D006
(repro.analysis.linter), run through the one analyzer driver.

Each rule gets positive cases (must flag) and negative cases (must stay
silent), stated as source text written to a temp ``test.py`` and
checked with ``check_paths`` — source text in, active codes out.
Suppression comments, the committed allowlist format, and --strict
staleness checks are covered against temp files too.
"""

import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.analysis.rules import RULES, Finding
from repro.analysis.staticcheck import (
    check_paths,
    format_report,
    load_allowlist,
    parse_comments,
)


def codes(source):
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "test.py").write_text(textwrap.dedent(source))
        return [f.code for f in check_paths([root]).active]


def parse_suppressions(source, path):
    suppressions, errors = parse_comments(source, path)
    return suppressions, errors


class TestD001WallClock:
    def test_time_time_flagged(self):
        assert codes("import time\nnow = time.time()\n") == ["D001"]

    def test_datetime_now_flagged(self):
        assert "D001" in codes(
            "import datetime\nstamp = datetime.datetime.now()\n")

    def test_perf_counter_flagged(self):
        assert "D001" in codes("import time\nt = time.perf_counter()\n")

    def test_sim_now_clean(self):
        assert codes("def f(sim):\n    return sim.now\n") == []


class TestD002UnseededRandom:
    def test_module_random_flagged(self):
        assert codes("import random\nx = random.random()\n") == ["D002"]

    def test_random_shuffle_flagged(self):
        assert "D002" in codes("import random\nrandom.shuffle([1, 2])\n")

    def test_seeded_instance_clean(self):
        assert codes(
            "import random\nrng = random.Random(7)\nx = rng.random()\n"
        ) == []


class TestD003SetIteration:
    def test_for_over_set_literal_flagged(self):
        assert "D003" in codes(
            "out = []\nfor x in {1, 2, 3}:\n    out.append(x)\n")

    def test_for_over_set_variable_flagged(self):
        assert "D003" in codes(
            "s = set()\nout = []\nfor x in s:\n    out.append(x)\n")

    def test_for_over_set_attribute_flagged(self):
        assert "D003" in codes(textwrap.dedent("""
            class C:
                def __init__(self):
                    self.pending = set()

                def run(self):
                    for x in self.pending:
                        print(x)
        """))

    def test_set_difference_flagged(self):
        assert "D003" in codes(
            "a = set()\nb = set()\nfor x in a - b:\n    print(x)\n")

    def test_sorted_set_clean(self):
        assert codes(
            "s = set()\nfor x in sorted(s):\n    print(x)\n") == []

    def test_order_insensitive_consumers_clean(self):
        assert codes(textwrap.dedent("""
            s = {1, 2, 3}
            total = sum(s)
            count = len(s)
            biggest = max(s)
            flag = any(x > 1 for x in s)
        """)) == []

    def test_list_of_set_flagged(self):
        assert "D003" in codes("s = set()\nitems = list(s)\n")

    def test_join_of_set_flagged(self):
        assert "D003" in codes('s = {"a", "b"}\nout = ",".join(s)\n')

    def test_dict_iteration_clean(self):
        """Dicts are insertion-ordered in CPython: not flagged."""
        assert codes(
            "d = {1: 'a'}\nfor k in d:\n    print(k)\n") == []


class TestD004IdentityOrdering:
    def test_id_call_flagged(self):
        assert "D004" in codes("x = object()\nkey = id(x)\n")

    def test_sort_key_id_flagged(self):
        assert "D004" in codes(
            "items = []\nitems.sort(key=id)\n")

    def test_id_inside_repr_clean(self):
        assert codes(textwrap.dedent("""
            class C:
                def __repr__(self):
                    return f"<C at {id(self):#x}>"
        """)) == []


class TestD005FloatPriorityAccumulation:
    def test_augmented_priority_flagged(self):
        assert "D005" in codes(textwrap.dedent("""
            import heapq
            heap = []
            deadline = 0.0
            def tick(dt):
                global deadline
                deadline += dt
                heapq.heappush(heap, (deadline, "item"))
        """))

    def test_constant_step_clean(self):
        assert codes(textwrap.dedent("""
            import heapq
            heap = []
            base = 5.0
            heapq.heappush(heap, (base, "item"))
        """)) == []


class TestD006NonCanonicalHashInput:
    def test_hash_of_repr_flagged(self):
        assert "D006" in codes(textwrap.dedent("""
            import hashlib
            def digest(obj):
                return hashlib.sha256(repr(obj).encode()).hexdigest()
        """))

    def test_hash_of_str_cast_flagged(self):
        assert "D006" in codes(textwrap.dedent("""
            import zlib
            def shard(tenant):
                return zlib.crc32(str(tenant).encode())
        """))

    def test_hash_of_utf8_str_clean(self):
        assert codes(textwrap.dedent("""
            import zlib
            def shard(tenant):
                return zlib.crc32(tenant.encode("utf-8"))
        """)) == []


class TestSuppressions:
    def test_inline_allow_comment_parsed(self):
        suppressions, errors = parse_suppressions(
            "import time\nnow = time.time()  # repro: allow[D001]\n",
            "test.py")
        assert suppressions == {2: {"D001"}}
        assert errors == []

    def test_multiple_codes_in_one_comment(self):
        suppressions, _errors = parse_suppressions(
            "x = 1  # repro: allow[D001, D003]\n", "test.py")
        assert suppressions == {2: {"D001", "D003"}} or \
            suppressions == {1: {"D001", "D003"}}

    def test_unknown_code_rejected(self):
        _suppressions, errors = parse_suppressions(
            "x = 1  # repro: allow[D999]\n", "test.py")
        assert len(errors) == 1
        assert errors[0].code == "A000"
        assert "D999" in errors[0].message

    def test_allow_in_string_literal_ignored(self):
        """Only real comments carry suppressions, not string contents."""
        suppressions, errors = parse_suppressions(
            "doc = 'use # repro: allow[D001] to suppress'\n", "test.py")
        assert suppressions == {}
        assert errors == []


class TestLintPaths:
    def _write(self, tmp_path, name, source):
        target = tmp_path / name
        target.write_text(textwrap.dedent(source))
        return target

    def test_active_finding_fails(self, tmp_path):
        self._write(tmp_path, "mod.py",
                    "import time\nnow = time.time()\n")
        result = check_paths([tmp_path])
        assert not result.ok
        assert [f.code for f in result.active] == ["D001"]

    def test_suppressed_finding_passes(self, tmp_path):
        self._write(
            tmp_path, "mod.py",
            "import time\nnow = time.time()  # repro: allow[D001]\n")
        result = check_paths([tmp_path])
        assert result.ok
        assert [f.code for f in result.suppressed] == ["D001"]

    def test_stale_suppression_fails_strict_only(self, tmp_path):
        self._write(tmp_path, "mod.py",
                    "x = 1  # repro: allow[D001]\n")
        assert check_paths([tmp_path]).ok
        strict = check_paths([tmp_path], strict=True)
        assert not strict.ok
        assert any(f.code == "A000" for f in strict.stale)

    def test_allowlist_entry_absorbs_finding(self, tmp_path):
        self._write(tmp_path, "mod.py",
                    "import time\nnow = time.time()\n")
        allowlist = (("mod.py", "D001", "test fixture"),)
        result = check_paths([tmp_path], allowlist=allowlist)
        assert result.ok
        assert [f.code for f in result.allowlisted] == ["D001"]

    def test_stale_allowlist_entry_fails_strict(self, tmp_path):
        self._write(tmp_path, "mod.py", "x = 1\n")
        allowlist = (("mod.py", "D001", "obsolete"),)
        assert check_paths([tmp_path], allowlist=allowlist).ok
        strict = check_paths([tmp_path], allowlist=allowlist, strict=True)
        assert not strict.ok

    def test_unknown_suppression_code_always_fails(self, tmp_path):
        self._write(tmp_path, "mod.py",
                    "x = 1  # repro: allow[D999]\n")
        result = check_paths([tmp_path])
        assert not result.ok
        assert any(f.code == "A000" for f in result.stale)

    def test_format_report_lists_findings(self, tmp_path):
        self._write(tmp_path, "mod.py",
                    "import time\nnow = time.time()\n")
        result = check_paths([tmp_path])
        report = format_report(result)
        assert "D001" in report
        assert "mod.py" in report


class TestAllowlistFile:
    def test_load_allowlist_roundtrip(self, tmp_path):
        target = tmp_path / "allow.txt"
        target.write_text(
            "# comment line\n"
            "\n"
            "src/repro/x.py  D004  identity is fine here\n")
        entries = load_allowlist(target)
        assert entries == [("src/repro/x.py", "D004",
                            "identity is fine here")]

    def test_load_allowlist_rejects_unknown_code(self, tmp_path):
        target = tmp_path / "allow.txt"
        target.write_text("src/repro/x.py  D999  nope\n")
        with pytest.raises(ValueError):
            load_allowlist(target)

    def test_load_allowlist_requires_justification(self, tmp_path):
        target = tmp_path / "allow.txt"
        target.write_text("src/repro/x.py  D004\n")
        with pytest.raises(ValueError):
            load_allowlist(target)


class TestRuleCatalog:
    def test_all_rules_have_title_and_rationale(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.title
            assert rule.rationale

    def test_finding_format_is_clickable(self):
        finding = Finding(path="src/x.py", line=3, col=1, code="D001",
                          message="wall clock")
        assert finding.format().startswith("src/x.py:3:1: D001")
