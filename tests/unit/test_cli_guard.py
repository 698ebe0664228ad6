"""Every ``python -m repro.<pkg> …`` command the gate script and the
docs show must still exist and parse.

Deleting or reshaping a CLI (this suite's reason to exist: the chaos
CLI and 33 run flags went away in one PR) must not leave a stale
``scripts/tier1.sh`` branch or a README block that no longer runs.  The
test extracts each command line, checks the module still has a
``__main__`` with a ``build_parser()``, and lets that parser judge the
subcommand and flags exactly as written.
"""

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCES = ("scripts/tier1.sh", "README.md", ".claude/skills/verify/SKILL.md")
COMMAND = re.compile(r"python3? -m (repro\.\w+)([^\n`|;&]*)")


def extract_commands(text):
    """``(module, argv)`` for every ``python -m repro.*`` invocation."""
    text = text.replace("\\\n", " ")  # shell line continuations
    for match in COMMAND.finditer(text):
        tail = match.group(2).split(" #")[0]  # trailing shell comment
        yield match.group(1), shlex.split(tail)


def _commands():
    params = []
    for source in SOURCES:
        path = REPO_ROOT / source
        if not path.exists():  # the skill file is optional in a checkout
            continue
        for module, argv in extract_commands(path.read_text()):
            params.append(pytest.param(
                module, argv, id=f"{source}: {module} {' '.join(argv)}"))
    return params


def test_the_guard_finds_the_gate_and_doc_commands():
    found = {(module, tuple(argv[:1])) for module, argv in (
        p.values for p in _commands())}
    assert ("repro.scenarios", ("verify",)) in found
    assert ("repro.analysis", ("check",)) in found
    assert len(found) >= 6


def test_extraction_handles_continuations_comments_and_prose():
    text = ('PYTHONPATH=src \\\n    python -m repro.scenarios verify '
            'scenarios/smoke\n'
            'python -m repro.analysis bisect f.yaml   # byte-identical\n'
            'see `python -m repro.telemetry` for the export\n')
    assert list(extract_commands(text)) == [
        ("repro.scenarios", ["verify", "scenarios/smoke"]),
        ("repro.analysis", ["bisect", "f.yaml"]),
        ("repro.telemetry", []),
    ]


@pytest.mark.parametrize("module,argv", _commands())
def test_documented_command_still_parses(module, argv):
    assert importlib.util.find_spec(f"{module}.__main__") is not None, (
        f"`python -m {module}` is documented but {module} has no __main__")
    if not argv:
        return  # a bare mention in prose, not an invocation
    parser = importlib.import_module(f"{module}.__main__").build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit as exc:  # argparse's way of rejecting argv
        pytest.fail(f"`python -m {module} {' '.join(argv)}` no longer "
                    f"parses (exit {exc.code})")
