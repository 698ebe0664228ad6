"""Regression tests for determinism fixes surfaced by the linter and
replay bisector (repro.analysis).

Each test pins one fixed true positive:

* D003 — etcd watch fan-out iterated a ``set`` of watches;
* D003 — informer ``on_replace`` iterated a set difference for deletes;
* D006 — ``hash_certificate`` / ``short_uid_hash`` hashed ``str(obj)``;
* replay — ``generate_uid`` drew from a process-global counter, so two
  same-seed runs in one interpreter minted different UIDs (found by the
  bisector, not the linter).
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apiserver.auth import hash_certificate
from repro.core.crd import short_uid_hash
from repro.objects.meta import generate_uid
from repro.simkernel import Simulation
from repro.storage import EtcdStore


class _RecordingChannel:
    """Stand-in watch channel that logs delivery order by watch tag."""

    def __init__(self, tag, deliveries):
        self.tag = tag
        self.deliveries = deliveries

    def try_put(self, event):
        self.deliveries.append((self.tag, event.key))
        return True

    def close(self):
        pass


class TestEtcdWatchFanoutOrder:
    def test_delivery_follows_registration_order(self):
        store = EtcdStore(Simulation(), name="etcd")
        deliveries = []
        for tag in ("w1", "w2", "w3"):
            store.watch("/registry/",
                        channel_factory=lambda tag=tag: _RecordingChannel(
                            tag, deliveries))
        store.create("/registry/pods/ns/a", {})
        assert [tag for tag, _key in deliveries] == ["w1", "w2", "w3"]

    def test_cancel_preserves_remaining_order(self):
        store = EtcdStore(Simulation(), name="etcd")
        deliveries = []
        watches = [
            store.watch("/registry/",
                        channel_factory=lambda tag=tag: _RecordingChannel(
                            tag, deliveries))
            for tag in ("w1", "w2", "w3")
        ]
        watches[1].cancel()
        store.watch("/registry/",
                    channel_factory=lambda: _RecordingChannel(
                        "w4", deliveries))
        store.create("/registry/pods/ns/a", {})
        assert [tag for tag, _key in deliveries] == ["w1", "w3", "w4"]


class TestInformerReplaceDeleteOrder:
    def _obj(self, key):
        return SimpleNamespace(
            key=key, metadata=SimpleNamespace(namespace="ns", labels={}))

    def test_leftover_deletes_fan_out_sorted(self):
        from repro.clientgo.informer import SharedInformer

        sim = Simulation()
        informer = SharedInformer(sim, client=None, plural="pods")
        informer.on_replace(
            [self._obj(f"ns/p{i}") for i in (3, 1, 4, 1, 5, 9, 2, 6)])
        deleted = []
        informer.add_handlers(on_delete=lambda obj: deleted.append(obj.key))
        informer.on_replace([self._obj("ns/p1")])
        assert deleted == sorted(deleted)
        assert set(deleted) == {"ns/p2", "ns/p3", "ns/p4", "ns/p5",
                                "ns/p6", "ns/p9"}


class TestCanonicalHashInputs:
    def test_hash_certificate_pinned_golden_digest(self):
        # Committed golden digest from a separate interpreter run: the
        # hash is a pure function of the PEM bytes, never of a repr.
        assert hash_certificate("-----BEGIN CERT-----abc") == (
            "c42088758e951eaa684d60f3ad0668bad27e429d217b444cd9eb166caf"
            "5561c5")
        assert hash_certificate("pem-a") != hash_certificate("pem-b")

    def test_hash_certificate_rejects_non_str(self):
        with pytest.raises(TypeError):
            hash_certificate(object())
        with pytest.raises(TypeError):
            hash_certificate(b"pem-bytes")

    def test_short_uid_hash_pinned_golden_digest(self):
        assert short_uid_hash("uid-00000001") == "d7113a"

    def test_short_uid_hash_rejects_non_str(self):
        with pytest.raises(TypeError):
            short_uid_hash(12345)
        with pytest.raises(TypeError):
            short_uid_hash(None)


class TestPerSimulationUids:
    def test_same_seed_sims_mint_identical_uids(self):
        """The bisector's index-0 divergence: UIDs must restart per sim."""
        sims = [Simulation(seed=5), Simulation(seed=5)]
        uids = [[generate_uid(sim) for _ in range(4)] for sim in sims]
        assert uids[0] == uids[1]


class TestPerSimulationContainerSerials:
    """staticcheck C003: runc/kata drew sandbox & container IDs from
    module-level itertools.count, so the second Simulation in one
    interpreter minted different IDs than the first (and than a fresh
    process — exactly what breaks golden digests)."""

    def test_fresh_sims_mint_identical_serials(self):
        from repro.kubelet.cri import next_runtime_serial
        sims = [Simulation(seed=3), Simulation(seed=3)]
        seqs = [[next_runtime_serial(sim, "runc") for _ in range(4)]
                for sim in sims]
        assert seqs[0] == seqs[1] == [1, 2, 3, 4]

    def test_runtime_kinds_count_independently(self):
        from repro.kubelet.cri import next_runtime_serial
        sim = Simulation(seed=3)
        assert next_runtime_serial(sim, "runc") == 1
        assert next_runtime_serial(sim, "kata") == 1
        assert next_runtime_serial(sim, "runc") == 2

    def test_runc_sandbox_ids_restart_per_sim(self):
        from repro.kubelet.runtimes.runc import RuncRuntime
        ids = []
        for _ in range(2):
            sim = Simulation(seed=3)
            runtime = RuncRuntime(sim, config=None, host_stack=None,
                                  pod_ip_allocator=lambda: "10.0.0.1")
            gen = runtime.run_pod_sandbox(
                SimpleNamespace(key="default/p"))
            next(gen)
            try:
                gen.send(None)
            except StopIteration as stop:
                ids.append(stop.value.sandbox_id)
        assert ids[0] == ids[1] == "runc-sb-000001"


class TestNoEnvironmentSwitches:
    """Behaviour is a function of seed and arguments only: nothing under
    ``src/repro/`` may read the process environment, so an import-time
    switch cannot come back unnoticed.  Nor may the paper's benchmarks
    or the examples: a figure is produced at one scale, by one
    command."""

    @staticmethod
    def _readers(root):
        return [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if any(token in path.read_text(encoding="utf-8")
                   for token in ("os.environ", "getenv"))]

    def test_src_reads_no_environment_variable(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert self._readers(root) == []

    @pytest.mark.parametrize("directory", ["benchmarks", "examples"])
    def test_runs_read_no_environment_variable(self, directory):
        root = Path(__file__).resolve().parents[2] / directory
        assert self._readers(root) == []
