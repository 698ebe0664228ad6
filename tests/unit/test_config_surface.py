"""One configuration surface: every deployment setting is a
:class:`~repro.config.LatencyConfig` field, never a constructor switch.

The constructors that assemble a deployment take structure (a sim, a
size, a name, a config) and nothing a config field already says.  This
pins their parameter lists, checks that none of them shadows a config
field, and binds the keywords of every call to them in ``src/``,
``tests/``, ``benchmarks/``, ``bench/``, ``examples/`` and the python
blocks of README.md and DESIGN.md against the live signatures.  Nothing else runs ``benchmarks/`` on every change,
so a stale keyword there would otherwise go unnoticed.  Nor may a run
in ``benchmarks/`` or ``examples/`` reach past the config into an
object's private attributes: that is a switch no signature shows.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.apiserver import APIServer
from repro.config import DEFAULT_CONFIG, LatencyConfig, StorageDurability
from repro.controllers import ControllerManager
from repro.core import IdleSwapper, VirtualClusterEnv
from repro.core.controlplane import (
    ControlPlane,
    SuperCluster,
    TenantControlPlane,
)
from repro.core.syncer.ha import SyncerHA
from repro.core.syncer.syncer import Syncer
from repro.scenarios.model import ControlSpec
from repro.scenarios.runner import scenario_config
from repro.scheduler import Scheduler
from repro.simkernel import Simulation
from repro.storage import StoreGroup

ROOT = Path(__file__).resolve().parents[2]

CONSTRUCTORS = {
    VirtualClusterEnv: ("seed", "config", "num_virtual_nodes",
                        "num_real_nodes", "sim", "name"),
    Syncer: ("sim", "super_cluster", "config", "name"),
    SyncerHA: ("sim", "super_cluster", "config"),
    IdleSwapper: ("sim", "config"),
    StoreGroup: ("sim", "name", "config"),
    # The control-plane assembly: no switch that no deployment flips.
    # ``store`` and ``scorers`` are test seams (a prepared store, a
    # scoring plugin).
    APIServer: ("sim", "name", "config", "store"),
    ControlPlane: ("sim", "name", "config"),
    TenantControlPlane: ("sim", "name", "config", "owner_vc"),
    SuperCluster: ("sim", "config", "name"),
    ControllerManager: ("sim", "client", "informer_factory"),
    Scheduler: ("sim", "client", "informer_factory", "config", "scorers"),
}
CALLABLES = {target.__name__: target for target in CONSTRUCTORS}


def _parameters(target):
    return tuple(inspect.signature(target).parameters)


def _config_names():
    """Every section name and every field name of every section."""
    config = LatencyConfig()
    names = set()
    for section in dataclasses.fields(config):
        names.add(section.name)
        names.update(f.name
                     for f in dataclasses.fields(getattr(config, section.name)))
    return names


@pytest.mark.parametrize("cls", list(CONSTRUCTORS),
                         ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    assert _parameters(cls) == CONSTRUCTORS[cls]


@pytest.mark.parametrize("target", list(CALLABLES.values()),
                         ids=lambda target: target.__name__)
def test_no_parameter_shadows_a_config_field(target):
    shadowed = set(_parameters(target)) & _config_names()
    assert not shadowed, (
        f"{target.__name__} takes {sorted(shadowed)}, which LatencyConfig "
        f"already holds; read it from the config instead")


def _sources():
    """(label, python source) for every file and doc block checked."""
    for top in ("src", "tests", "benchmarks", "bench", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text()
    for doc in ("README.md", "DESIGN.md"):
        text = (ROOT / doc).read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        for index, block in enumerate(blocks, 1):
            yield f"{doc} python block {index}", block


def _calls():
    for label, source in _sources():
        for node in ast.walk(ast.parse(source, filename=label)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if name in CALLABLES:
                yield label, node, CALLABLES[name]


def test_every_call_binds_to_the_live_signature():
    stale = []
    checked = 0
    for label, node, target in _calls():
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue  # forwarded *args/**kwargs are bound at their origin
        checked += 1
        try:
            inspect.signature(target).bind(
                *[None] * len(node.args),
                **{kw.arg: None for kw in node.keywords})
        except TypeError as exc:
            stale.append(f"{label}:{node.lineno}: "
                         f"{target.__name__}(): {exc}")
    assert checked >= 40, f"found only {checked} call sites"
    assert not stale, "\n".join(stale)


def _assignment_targets(tree):
    """Every single target assigned to in ``tree`` (tuples unpacked)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            stack = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            stack = [node.target]
        else:
            continue
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Starred):
                stack.append(target.value)
            else:
                yield target


def _attribute_path(target):
    """``a.b[0].c`` -> ``("a", ["b", "c"])``; the root is None when the
    path does not start at a plain name."""
    names = []
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        target = target.value
    root = target.id if isinstance(target, ast.Name) else None
    return root, names[::-1]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_runs_set_no_private_state():
    """A benchmark or example shapes its deployment through
    ``LatencyConfig``; assigning through another object's ``_private``
    attribute is a hidden switch.  An object's own ``self``/``cls``
    state is its business."""
    pokes = []
    for label, source in _sources():
        if not label.startswith(("benchmarks/", "examples/")):
            continue
        for target in _assignment_targets(ast.parse(source, filename=label)):
            root, names = _attribute_path(target)
            if root not in ("self", "cls") and any(map(_is_private, names)):
                pokes.append(f"{label}:{target.lineno}: "
                             f"{ast.unparse(target)}")
    assert not pokes, "\n".join(pokes)


def test_with_overrides_takes_a_mapping_per_section():
    config = DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 5.0},
                                           apf={"enabled": True})
    assert config.syncer.scan_interval == 5.0
    assert config.syncer.dws_workers == DEFAULT_CONFIG.syncer.dws_workers
    assert config.apf.enabled
    assert DEFAULT_CONFIG.syncer.scan_interval == 60.0
    assert not DEFAULT_CONFIG.apf.enabled


@pytest.mark.parametrize("overrides", [{"syncer": {"bogus": 1}},
                                       {"bogus": {"scan_interval": 1.0}}],
                         ids=["field", "section"])
def test_with_overrides_names_what_is_unknown(overrides):
    with pytest.raises(TypeError, match="bogus"):
        DEFAULT_CONFIG.with_overrides(**overrides)


def test_zero_workers_is_a_value_not_a_fallback():
    sim = Simulation(seed=0)
    super_cluster = SuperCluster(sim, DEFAULT_CONFIG)
    super_cluster.start()
    config = DEFAULT_CONFIG.with_overrides(
        syncer={"dws_workers": 0, "uws_workers": 1})
    syncer = Syncer(sim, super_cluster, config)
    syncer.start()
    sim.run(until=sim.now + 1.0)
    assert sorted(syncer.worker_processes) == ["syncer-uws-0"]


def test_scenario_control_maps_onto_config():
    control = ControlSpec.from_dict(
        {"scan_interval": 2.0, "dws_workers": 3, "uws_workers": 5,
         "fair_queuing": False, "optimized": False, "apf": True,
         "scale_to_zero": True, "idle_threshold": 10.0,
         "syncer_replicas": 2, "store_replicas": 3, "store_wal": True},
        where="control")
    config = scenario_config(control)
    assert (config.syncer.scan_interval, config.syncer.dws_workers,
            config.syncer.uws_workers) == (2.0, 3, 5)
    assert not config.syncer.fair_queuing
    assert config.syncer.replicas == 2
    assert config.syncer.dispatch_shards == 1
    assert config.apf.enabled and config.swapper.enabled
    assert (config.swapper.idle_threshold,
            config.swapper.check_interval) == (10.0, 2.0)
    assert (config.storage.replicas, config.storage.wal_enabled) == (3, True)
    # ``direct`` decides what the run loads (the super cluster, with no
    # tenant control plane), not how the deployment is configured.
    direct = ControlSpec.from_dict(
        {"dws_workers": 3, "optimized": False, "apf": True, "direct": True},
        where="control")
    assert direct.direct
    assert scenario_config(direct) == scenario_config(
        ControlSpec(dws_workers=3, optimized=False, apf=True))


def test_storage_section_has_no_log_shaping_field():
    """The WAL's segment size and fsync cadence are not deployment
    knobs: the log is flat and anchors itself, and every deployment
    fsyncs each append."""
    assert tuple(f.name for f in dataclasses.fields(StorageDurability)) == (
        "wal_enabled", "replicas", "replication_delay", "lease_duration",
        "lease_renew_interval", "lease_retry_interval", "lease_jitter")


def test_default_control_keeps_default_storage_and_overload():
    config = scenario_config(ControlSpec())
    assert config.storage == DEFAULT_CONFIG.storage
    assert config.apf == DEFAULT_CONFIG.apf
    assert config.swapper == DEFAULT_CONFIG.swapper
    assert config.syncer.dispatch_shards == 2   # optimized by default
