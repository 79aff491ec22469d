"""Compiling decision maps into runnable protocols (and back to registers).

A SAT answer from :mod:`repro.core.solvability` is a simplicial map
``µ_b : SDS^b(I) → O``.  Lemma 3.3 says round-``b`` IIS views *are* the
vertices of ``SDS^b(I)``, so the protocol is exactly Proposition 3.1 read
operationally: run ``b`` full-information IIS rounds, then decide
``µ_b(own view)``.

Two backends are provided, closing the simulation circle of experiment E10:

* :func:`synthesize_iis_protocol` — runs on the iterated immediate snapshot
  model directly (scheduler ``WriteReadIS`` blocks);
* :func:`synthesize_snapshot_protocol` — replaces every one-shot memory by
  the Borowsky–Gafni levels algorithm over plain SWMR registers (the
  Section 3.4 simulation), so the same decision map runs wait-free in the
  atomic-snapshot model.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.core.protocol_complex import runtime_view_to_vertex
from repro.core.solvability import SolvabilityResult, SolvabilityStatus
from repro.core.task import Task
from repro.runtime.immediate_snapshot import levels_immediate_snapshot
from repro.runtime.ops import Decide, WriteReadIS
from repro.runtime.process import ProtocolFactory
from repro.runtime.scheduler import RoundRobinSchedule, Schedule, Scheduler


class _UnmappedView:
    """Sentinel decision for views outside the decision map's domain.

    Under a non-identity model the witnessing map is total only on the
    *restricted* subcomplex; full exploration still realizes views outside
    it.  In ``on_missing_view="sentinel"`` mode the protocol decides this
    marker instead of raising, so a model checker can judge the run — flag
    the sentinel when the run was model-admitted, ignore it otherwise.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNMAPPED_VIEW"


UNMAPPED_VIEW = _UnmappedView()


def _require_solvable(result: SolvabilityResult) -> None:
    if result.status is not SolvabilityStatus.SOLVABLE or result.decision_map is None:
        raise ValueError(f"{result!r} does not carry a decision map")


def synthesize_iis_protocol(
    result: SolvabilityResult, **kwargs
) -> "SynthesizedProtocol":
    """A protocol family deciding via ``b`` IIS rounds + the decision map."""
    _require_solvable(result)
    return SynthesizedProtocol(result, backend="iis", **kwargs)


def synthesize_snapshot_protocol(
    result: SolvabilityResult, n_processes: int, **kwargs
) -> "SynthesizedProtocol":
    """The same decisions over SWMR registers via the levels algorithm."""
    _require_solvable(result)
    return SynthesizedProtocol(result, backend="levels", n_processes=n_processes, **kwargs)


class SynthesizedProtocol:
    """Runnable realization of a decision map in either model.

    ``decisions`` overrides the map read off the witness (the conformance
    pipeline's mutation mode injects a corrupted copy here); ``expose_views``
    makes processes decide the ``(final_view, value)`` pair — the
    :mod:`repro.core.extraction` convention — instead of the bare value;
    ``on_missing_view`` selects what happens when a realized view is outside
    the decision map's domain: ``"error"`` (the default — an out-of-domain
    view under the *identity* model is a Lemma 3.3 violation, i.e. a library
    bug) raises, ``"sentinel"`` decides :data:`UNMAPPED_VIEW` so a property
    oracle can judge the run instead.
    """

    def __init__(
        self,
        result: SolvabilityResult,
        backend: str,
        n_processes: int | None = None,
        *,
        decisions: Mapping | None = None,
        expose_views: bool = False,
        on_missing_view: str = "error",
    ):
        _require_solvable(result)
        if backend not in ("iis", "levels"):
            raise ValueError(f"unknown backend {backend!r}")
        if on_missing_view not in ("error", "sentinel"):
            raise ValueError(f"unknown on_missing_view {on_missing_view!r}")
        self.result = result
        self.rounds = result.rounds or 0
        self.backend = backend
        self.n_processes = n_processes
        self.expose_views = expose_views
        self.on_missing_view = on_missing_view
        if decisions is not None:
            self._decisions = dict(decisions)
        else:
            self._decisions = {
                vertex: image.payload
                for vertex, image in result.decision_map.as_dict().items()
            }

    # -- protocol construction -----------------------------------------------------

    def factory(self, pid: int, input_value: Hashable) -> ProtocolFactory:
        decisions = self._decisions
        rounds = self.rounds
        backend = self.backend
        expose_views = self.expose_views
        sentinel_mode = self.on_missing_view == "sentinel"
        owner = self  # n_processes may be filled in by run(); read it late

        def make(p: int):
            def protocol():
                state: Hashable = input_value
                for round_index in range(rounds):
                    if backend == "iis":
                        state = yield WriteReadIS(round_index, state)
                    else:
                        view = yield from levels_immediate_snapshot(
                            p, state, f"is-round-{round_index}", owner.n_processes
                        )
                        state = view
                if sentinel_mode:
                    try:
                        vertex = runtime_view_to_vertex(p, state, rounds)
                    except ValueError:
                        vertex = None
                    value = decisions.get(vertex, UNMAPPED_VIEW)
                else:
                    vertex = runtime_view_to_vertex(p, state, rounds)
                    if vertex not in decisions:
                        raise AssertionError(
                            f"view {vertex!r} is not a vertex of SDS^{rounds}(I): "
                            f"Lemma 3.3 violated (library bug)"
                        )
                    value = decisions[vertex]
                yield Decide((state, value) if expose_views else value)

            return protocol()

        return make

    def factories(
        self, inputs: Mapping[int, Hashable]
    ) -> dict[int, ProtocolFactory]:
        return {pid: self.factory(pid, value) for pid, value in inputs.items()}

    # -- execution ----------------------------------------------------------------------

    def run(
        self,
        inputs: Mapping[int, Hashable],
        schedule: Schedule | None = None,
        max_steps: int = 100_000,
    ) -> dict[int, Hashable]:
        """Run once; return the decisions of all processes."""
        n = max(inputs) + 1
        if self.backend == "levels" and self.n_processes is None:
            self.n_processes = n
        scheduler = Scheduler(self.factories(inputs), n)
        result = scheduler.run(schedule or RoundRobinSchedule(), max_steps)
        return dict(result.decisions)

    def run_and_validate(
        self,
        task: Task,
        inputs: Mapping[int, Hashable],
        schedule: Schedule | None = None,
    ) -> dict[int, Hashable]:
        """Run once and assert the output tuple is allowed by Δ."""
        decisions = self.run(inputs, schedule)
        if not task.validate_outputs(inputs, decisions):
            raise AssertionError(
                f"synthesized protocol for {task.name!r} produced a forbidden "
                f"output {decisions!r} on inputs {inputs!r}"
            )
        return decisions
