"""Test oracles for the conformance pipeline.

:func:`dpor_extraction_runner` is the second, independent execution source
the pipeline used to run for extraction: a fresh DPOR walk of the bare
protocol factories.  The pipeline now folds its model checker's outcomes
instead; the differential suite compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping

from repro.mc.explorer import CrashBudget, ExploreOptions, explore
from repro.mc.scenario import ScenarioInstance
from repro.runtime.scheduler import Scheduler


@dataclass
class _FactoriesScenario:
    """Bare factories as a scenario (no properties): extraction's quantifier."""

    factories: Mapping
    n_processes: int
    name: str = "conform-extract"

    def build(self) -> ScenarioInstance:
        return ScenarioInstance(
            Scheduler(
                dict(self.factories),
                self.n_processes,
                record_events=True,
                track_history=True,
            )
        )

    def properties(self) -> tuple:
        return ()


class _OutcomeRun:
    """Quacks like a RunResult for extraction: just the decisions."""

    __slots__ = ("decisions",)

    def __init__(self, decisions: dict[int, Hashable]):
        self.decisions = decisions


def dpor_extraction_runner(*, max_crashes: int = 0, max_depth: int = 600):
    """An ``extract_decision_map`` runner that quantifies schedules via DPOR.

    Sound because the reduced walk preserves the terminal outcome set (the
    mc differential suite pins this against naive enumeration).
    """

    def runner(factories, n_processes) -> Iterator[_OutcomeRun]:
        report = explore(
            _FactoriesScenario(factories, n_processes),
            ExploreOptions(
                crash_budget=CrashBudget(max_crashes=max_crashes),
                max_depth=max_depth,
                check_online=False,
            ),
            properties=(),
        )
        for decisions_tuple, _crashed in report.outcomes:
            yield _OutcomeRun(dict(decisions_tuple))

    return runner
