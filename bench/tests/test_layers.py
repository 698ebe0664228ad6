"""File -> layer bucketing, and attribution of unowned frames."""

from bench import spec
from bench.layers import Attribution


def test_every_source_file_has_exactly_one_layer():
    files = sorted(spec.PACKAGE.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        layer = spec.layer_of(str(path))
        assert layer in spec.LAYERS, f"{path} maps to {layer!r}"


def test_every_layer_owns_some_file():
    owned = {spec.layer_of(str(path))
             for path in spec.PACKAGE.rglob("*.py")}
    assert owned == set(spec.LAYERS)


def test_rules_are_reachable():
    # First match wins, so a rule shadowed by an earlier, shorter
    # prefix would silently never apply.
    files = [str(path.relative_to(spec.PACKAGE))
             for path in spec.PACKAGE.rglob("*.py")]
    for index, (prefix, _layer) in enumerate(spec._LAYER_RULES):
        earlier = [p for p, _ in spec._LAYER_RULES[:index]]
        assert any(name.startswith(prefix)
                   and not any(name.startswith(p) for p in earlier)
                   for name in files), prefix


def test_special_frames():
    assert spec.layer_of("<serde Pod.to_dict>") == "objects"
    assert spec.layer_of("~") is None
    assert spec.layer_of("/usr/lib/python3.11/heapq.py") is None
    assert spec.layer_of(str(spec.ROOT / "bench" / "child.py")) is None


def test_builtin_time_goes_to_the_calling_layer():
    src = str(spec.PACKAGE)
    root = ("/x/bench/child.py", 1, "run")
    put = (f"{src}/storage/etcd.py", 10, "create")
    dump = (f"{src}/objects/base.py", 20, "to_dict")
    builtin_len = ("~", 0, "<built-in method builtins.len>")
    # (cc, nc, tt, ct, callers); caller edges are (nc, cc, tt, ct).
    stats = {
        root: (1, 1, 0.1, 10.0, {}),
        put: (5, 5, 2.0, 9.9, {root: (5, 5, 2.0, 9.9)}),
        dump: (50, 50, 4.0, 6.9, {put: (50, 50, 4.0, 6.9)}),
        builtin_len: (900, 900, 3.9, 3.9, {put: (300, 300, 1.0, 1.0),
                                           dump: (600, 600, 2.9, 2.9)}),
    }
    attribution = Attribution(stats)
    seconds = attribution.self_seconds()
    assert seconds["storage"] == 2.0 + 1.0
    assert seconds["objects"] == 4.0 + 2.9
    assert seconds[spec.HARNESS] == 0.1
    assert abs(sum(seconds.values()) - 10.0) < 1e-9
    assert attribution.edges()[("storage", "objects")] == [50, 6.9]
    assert attribution.calls(
        "objects", {"to_dict"}, lambda owner: owner != "objects") == 50


def test_unowned_wrapper_is_transparent_for_edges():
    src = str(spec.PACKAGE)
    api = (f"{src}/apiserver/server.py", 1, "create")
    deepcopy = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
    copy = (f"{src}/objects/base.py", 170, "copy")
    stats = {
        api: (1, 1, 1.0, 4.0, {}),
        deepcopy: (10, 10, 1.0, 3.0, {api: (10, 10, 1.0, 3.0)}),
        copy: (10, 10, 2.0, 2.0, {deepcopy: (10, 10, 2.0, 2.0)}),
    }
    attribution = Attribution(stats)
    assert attribution.edges() == {("apiserver", "objects"): [10, 2.0]}
    assert attribution.self_seconds()["apiserver"] == 2.0
    assert attribution.calls(
        "objects", {"copy"}, lambda owner: owner == "apiserver") == 10
