"""Unit tests for the analyzer driver and its per-module C-rules
(repro.analysis.staticcheck).

Each rule gets positive cases (must flag) and negative cases (must stay
silent) stated as inline programs written to a temp ``src/pkg/``
layout.  The committed fixture under ``tests/fixtures/staticcheck/``
is a byte-exact golden findings corpus covering every rule; CLI
coverage (exit codes, --strict) is marked ``lint`` for the tier-1 lint
gate.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.rules import RULES
from repro.analysis.staticcheck import (
    check_paths,
    format_report,
    load_allowlist,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "staticcheck"


def check_source(tmp_path, source, **kwargs):
    root = tmp_path / "src" / "pkg"
    root.mkdir(parents=True, exist_ok=True)
    (root / "mod.py").write_text(textwrap.dedent(source))
    return check_paths([tmp_path / "src"], **kwargs)


def codes(tmp_path, source, **kwargs):
    return [f.code for f in check_source(tmp_path, source, **kwargs).active]


class TestC003ModuleMutableState:
    def test_dict_write_from_sim_code_flagged(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}

            def proc(sim, key):
                yield sim.timeout(1)
                CACHE[key] = sim.now
        """) == ["C003"]

    def test_list_append_from_sim_helper_flagged(self, tmp_path):
        assert codes(tmp_path, """
            EVENTS = []

            def record(what):
                EVENTS.append(what)

            def proc(sim):
                yield sim.timeout(1)
                record("tick")
        """) == ["C003"]

    def test_local_shadow_clean(self, tmp_path):
        assert codes(tmp_path, """
            CACHE = {}

            def proc(sim):
                CACHE = {}
                yield sim.timeout(1)
                CACHE["x"] = 1
        """) == []

    def test_write_from_plain_function_flagged(self, tmp_path):
        # No reachability scoping: a write from any function of a
        # checked file is a finding, whoever calls it.
        assert codes(tmp_path, """
            CACHE = {}

            def setup():
                CACHE["x"] = 1
        """) == ["C003"]

    def test_counter_advanced_by_helper_flagged(self, tmp_path):
        # The per-sim UID bug class: a process-global counter drawn by a
        # plain helper that sim code reaches through a re-export.
        assert codes(tmp_path, """
            import itertools

            _counter = itertools.count(1)

            def generate_uid(sim):
                return f"uid-{next(_counter):08x}"
        """) == ["C003"]

    def test_import_time_write_clean(self, tmp_path):
        assert codes(tmp_path, """
            TABLE = {}
            TABLE["x"] = 1

            class Registry:
                TABLE["y"] = 2
        """) == []

    def test_allow_comment_suppresses(self, tmp_path):
        result = check_source(tmp_path, """
            CACHE = {}

            def proc(sim, key):
                yield sim.timeout(1)
                CACHE[key] = sim.now  # repro: allow[C003] test-only memo
        """, strict=True)
        assert result.active == [] and result.stale == []
        assert [f.code for f in result.suppressed] == ["C003"]


class TestC004OrphanedEvents:
    def test_dropped_timeout_expression_flagged(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)
                yield sim.timeout(0.1)
        """) == ["C004"]

    def test_bound_but_never_used_flagged(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                pending = sim.event()
                yield sim.timeout(0.1)
        """) == ["C004"]

    def test_yielded_timeout_clean(self, tmp_path):
        assert codes(tmp_path, """
            def proc(sim):
                yield sim.timeout(5.0)
        """) == []

    def test_stored_event_clean(self, tmp_path):
        assert codes(tmp_path, """
            class W:
                def __init__(self, sim):
                    self.sim = sim

                def proc(self):
                    self.done = self.sim.event()
                    yield self.sim.timeout(0.1)
        """) == []

    def test_recorder_event_is_not_a_kernel_event(self, tmp_path):
        # Regression: EventRecorder.event records a k8s Event object;
        # only sim-like receivers create kernel events.
        assert codes(tmp_path, """
            class Kubelet:
                def __init__(self, sim, recorder):
                    self.sim = sim
                    self.recorder = recorder

                def proc(self, pod):
                    yield self.sim.timeout(0.1)
                    self.recorder.event(pod, "Started", "ok")
        """) == []


class TestC005UnfencedWrites:
    def test_unfenced_transaction_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class SyncerHA:
                def __init__(self, client):
                    self.client = client

                def takeover(self):
                    yield self.client.transaction([], [])
        """) == ["C005"]

    def test_raw_store_write_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class StoreCoordinator:
                def __init__(self, store):
                    self.store = store

                def apply(self, rec):
                    yield self.store.put(rec.key, rec.value)
        """) == ["C005"]

    def test_fenced_transaction_clean(self, tmp_path):
        assert codes(tmp_path, """
            class SyncerHA:
                def __init__(self, client):
                    self.client = client

                def takeover(self, fence):
                    yield self.client.transaction([], [], fencing=fence)
        """) == []

    def test_non_leader_class_clean(self, tmp_path):
        assert codes(tmp_path, """
            class PlainWriter:
                def __init__(self, client):
                    self.client = client

                def write(self):
                    yield self.client.transaction([], [])
        """) == []


class TestC006SnapshotMutation:
    def test_cache_entry_edited_in_place_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class R:
                def reconcile(self, key):
                    pod = self.informer.cache.get(key)
                    pod.status.phase = "Running"
                    pod.metadata.labels["a"] = "b"
                    del pod.spec.node_name
                    pod.metadata.generation += 1
                    pod.metadata.finalizers.append("x")
        """) == ["C006"] * 5

    def test_copy_or_replace_rebinding_clears(self, tmp_path):
        assert codes(tmp_path, """
            class R:
                def reconcile(self, key):
                    pod = self.tenant_cache(key).get(key)
                    pod = pod.copy()
                    pod.status.phase = "Running"
                    node = self.node_cache.get(key)
                    status = node.status.copy()
                    status.conditions.append(None)
                    node = node.replace(status=status)
                    node.metadata = node.metadata.replace(labels={})
                    labels = dict(node.metadata.labels)
                    labels["a"] = "b"
        """) == []

    def test_client_get_result_and_alias_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class E:
                def renew(self):
                    lease = yield from self.client.get("leases", "x")
                    spec = lease.spec
                    spec.renew_time = 1.0
                    yield from self.client.update(lease)
        """) == ["C006"]

    def test_client_list_items_flagged_and_responses_are_not(self, tmp_path):
        assert codes(tmp_path, """
            class E:
                def sweep(self):
                    pods, _rv = yield from self.client.list("pods")
                    for pod in pods:
                        pod.metadata.labels.update(swept="yes")
                    pods[0].status = None
                    pods.sort(key=str)      # the list is the caller's
                    created = yield from self.client.create(pods[0].copy())
                    created.metadata.labels["mine"] = "yes"  # stored too
        """) == ["C006", "C006", "C006"]

    def test_index_reads_taint_their_elements(self, tmp_path):
        assert codes(tmp_path, """
            class R:
                def reconcile(self, namespace):
                    for rs in self._sets.cache.by_namespace(namespace):
                        rs.spec.replicas = 0
                    owned = self.cache.select_labels({"a": "b"})
                    first = owned[0]
                    first.status.replicas = 1
                    for mapping in self.table.items():
                        mapping.count = 1   # not a cache
        """) == ["C006", "C006"]

    def test_informer_handler_argument_flagged(self, tmp_path):
        assert codes(tmp_path, """
            class C:
                def __init__(self, informer):
                    informer.add_handlers(on_add=self._on_add,
                                          on_update=self._on_update)

                def _on_add(self, pod):
                    pod.status.phase = "Seen"

                def _on_update(self, old, new):
                    self.enqueue(new.key)

                def helper(self, pod):
                    pod.status.phase = "fine: not a handler"
        """) == ["C006"]

    def test_queue_get_and_plain_dict_get_not_sources(self, tmp_path):
        assert codes(tmp_path, """
            class W:
                def run(self):
                    item = yield self.queue.get()
                    item.attempts += 1
                    entry = self.table.get("k")
                    entry.count = 2
        """) == []


class TestSuppressionsAndStrict:
    def test_inline_allow_suppresses(self, tmp_path):
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)  # repro: allow[C004] intentionally dropped
                yield sim.timeout(0.1)
        """)
        assert result.active == []
        assert [f.code for f in result.suppressed] == ["C004"]

    def test_strict_flags_stale_c_suppression(self, tmp_path):
        result = check_source(tmp_path, """
            def quiet():
                return 1  # repro: allow[C004] nothing here anymore
        """, strict=True)
        assert [f.code for f in result.stale] == ["A000"]
        assert not result.ok

    def test_strict_ignores_d_code_suppressions(self, tmp_path):
        # A used D-code suppression is not stale: both packs run in the
        # one pass that decides staleness.
        result = check_source(tmp_path, """
            import time

            def wall():
                return time.time()  # repro: allow[D001] boundary code
        """, strict=True)
        assert result.stale == []
        assert result.ok

    def test_allowlist_entry_matches_and_strict_prunes_stale(
            self, tmp_path):
        allowlist = [("pkg/mod.py", "C004", "awaited-elsewhere"),
                     ("pkg/gone.py", "C003", "obsolete")]
        result = check_source(tmp_path, """
            def proc(sim):
                sim.timeout(5.0)
                yield sim.timeout(0.1)
        """, allowlist=allowlist, strict=True)
        assert [f.code for f in result.allowlisted] == ["C004"]
        assert [f.code for f in result.stale] == ["A000"]
        assert "gone.py" in result.stale[0].message

    def test_strict_flags_unknown_and_stale_d_codes(self, tmp_path):
        result = check_source(tmp_path, """
            import time

            def quiet():
                return 1  # repro: allow[D009] no such rule

            def wall():
                return time.time()
        """, strict=True)
        assert [f.code for f in result.active] == ["D001"]
        assert [f.code for f in result.stale] == ["A000"]
        assert "D009" in result.stale[0].message


class TestUnparseableFile:
    def test_syntax_error_is_one_finding_and_others_still_checked(
            self, tmp_path):
        root = tmp_path / "src" / "pkg"
        root.mkdir(parents=True)
        (root / "broken.py").write_text(
            "def f(:  # repro: allow[A000]\n    pass\n")
        (root / "good.py").write_text("import time\nnow = time.time()\n")
        result = check_paths([tmp_path / "src"])
        assert [f.code for f in result.active] == ["D001"]
        assert [(Path(f.path).name, f.line, f.code)
                for f in result.stale] == [("broken.py", 1, "A000")]
        assert "syntax error" in result.stale[0].message
        assert result.suppressed == []      # A000 is unsuppressible
        assert result.files_checked == 1

    def test_cli_reports_it_and_exits_2(self, tmp_path, capsys):
        from repro.analysis.__main__ import main
        broken = tmp_path / "broken.py"
        broken.write_text("x = (\n")
        assert main(["check", str(broken)]) == 2
        out = capsys.readouterr().out
        assert f"{broken.as_posix()}:" in out
        assert "A000 syntax error" in out


class TestGoldenCorpus:
    def test_findings_match_expected_byte_exact(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = check_paths(
            ["tests/fixtures/staticcheck/findings_corpus.py"])
        got = "\n".join(f.format() for f in result.failures()) + "\n"
        expected = (FIXTURES / "findings_corpus.expected").read_text()
        assert got == expected

    def test_corpus_covers_every_rule(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = check_paths(
            ["tests/fixtures/staticcheck/findings_corpus.py"])
        assert {f.code for f in result.failures()} == set(RULES)


@pytest.mark.lint
class TestTreeClean:
    def test_source_tree_passes_strict(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        allowlist = load_allowlist("analysis-allowlist.txt")
        result = check_paths(["src/repro"], allowlist=allowlist,
                             strict=True)
        assert result.ok, format_report(result)


@pytest.mark.lint
class TestCli:
    def _run(self, argv, capsys):
        from repro.analysis.__main__ import main
        code = main(argv)
        return code, capsys.readouterr().out

    def test_exit_2_on_findings_and_text_report(self, capsys,
                                                monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = self._run(
            ["check",
             "tests/fixtures/staticcheck/findings_corpus.py"], capsys)
        assert code == 2
        assert "C003" in out and "files checked" in out

    def test_exit_0_on_clean_fixture(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def proc(sim):\n    yield sim.timeout(1.0)\n")
        code, _out = self._run(["check", str(clean)], capsys)
        assert code == 0

    def test_rules_subcommand_lists_both_packs(self, capsys):
        code, out = self._run(["rules"], capsys)
        assert code == 0
        assert "D-pack" in out and "C-pack" in out
        for rule in ("D001", "D006", "C003", "C006"):
            assert rule in out

    def test_missing_path_is_usage_error(self, capsys):
        from repro.analysis.__main__ import main
        code = main(["check", "no/such/tree"])
        assert code == 1


def test_runtime_path_does_not_import_the_static_analyzer():
    """The scenario runner loads ``repro.analysis`` for the bisector;
    the static analyzer must not ride along."""
    code = ("import sys, repro.scenarios; print(sorted(m for m in ("
            "'linter', 'staticcheck', 'project', 'rules') "
            "if f'repro.analysis.{m}' in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}).stdout
    assert out.strip() == "[]"
