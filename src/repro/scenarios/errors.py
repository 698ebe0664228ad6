"""Scenario DSL errors."""

# Defined beside the field tables, which raise it for fault parameters too.
from repro.chaos.spec import ScenarioError  # noqa: F401


class GoldenMismatch(AssertionError):
    """A scenario replayed to a digest different from its recorded golden."""

    def __init__(self, scenario, expected, actual, expected_events=None,
                 actual_events=None, divergence=None):
        self.scenario = scenario
        self.expected = expected
        self.actual = actual
        self.expected_events = expected_events
        self.actual_events = actual_events
        #: Set when an earlier replay in the same verify call *did*
        #: match: the run is nondeterministic, and this
        #: :class:`~repro.analysis.bisect.Divergence` names the first
        #: store event (and component) where the replays part ways.
        self.divergence = divergence
        detail = ""
        if expected_events is not None and expected_events != actual_events:
            detail = (f" (store events: recorded {expected_events}, "
                      f"replayed {actual_events})")
        message = (
            f"scenario {scenario!r} diverged from its golden digest: "
            f"recorded {expected[:16]}…, replayed {actual[:16]}…{detail}. ")
        if divergence is not None:
            message += ("An earlier same-seed replay matched, so the run "
                        "is nondeterministic:\n" + divergence.format())
        else:
            message += ("If the behavior change is intentional, re-record "
                        "with 'python -m repro.scenarios record' and "
                        "explain the drift in the PR.")
        super().__init__(message)
