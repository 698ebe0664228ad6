"""YAML ⇄ :class:`~repro.scenarios.model.Scenario`.

Thin by design: the YAML layer is pure serialization — every semantic
check lives in the model so the typed Python builder and the YAML path
share one validator.  ``loads(dumps(s))`` reproduces ``s`` exactly (the
round-trip property test pins this).
"""

import os

import yaml

from .errors import ScenarioError
from .model import Scenario


def loads(text, where="scenario"):
    """Parse one scenario from YAML text."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{where}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(
            f"{where}: expected a YAML mapping at top level, got "
            f"{type(data).__name__}")
    return Scenario.from_dict(data, where=where)


def dumps(scenario):
    """Serialize a scenario to canonical YAML (keys in model order)."""
    return yaml.safe_dump(scenario.to_dict(), sort_keys=False,
                          default_flow_style=False)


def load_scenario(path):
    """Load one ``*.yaml`` scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads(text, where=os.path.basename(path))


def corpus_paths(directory):
    """Sorted scenario file paths under ``directory``."""
    if not os.path.isdir(directory):
        raise ScenarioError(
            f"{directory!r} is not a directory (expected a scenario "
            f"corpus like scenarios/corpus)")
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith((".yaml", ".yml")))
