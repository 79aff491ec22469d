"""Extracting decision maps from protocols: the converse of synthesis.

Proposition 3.1 reads both ways.  Synthesis (``protocol_synthesis``) turns
a simplicial map into a protocol; this module turns a *protocol* into its
simplicial map: run a fixed-round full-information IIS protocol over every
enumerable execution, collect the (view → decision) pairs, check they are
well defined (decisions depend only on the view — the full-information
principle), and package them as a machine-checkable
:class:`~repro.topology.maps.SimplicialMap` from ``SDS^b(I)``.

Uses: verify a hand-written protocol against a task without trusting its
author's reasoning; demonstrate that *any* round-bounded protocol is a
simplicial map (the paper's reading of decision functions).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from repro.core.protocol_complex import runtime_view_to_vertex
from repro.core.solvability import validate_decision_map
from repro.core.task import Task
from repro.runtime.process import ProtocolFactory
from repro.runtime.scheduler import enumerate_executions
from repro.topology.maps import SimplicialMap
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision
from repro.topology.subdivision import Subdivision
from repro.topology.vertex import Vertex


class ExtractionError(ValueError):
    """The protocol is not a (well-defined, total) round-``b`` decision map."""


def extract_decision_map(
    factories_for_inputs,
    task: Task,
    rounds: int,
    *,
    max_depth: int = 300,
    max_crashes: int = 0,
    model=None,
    runner=None,
    runs: Iterable[tuple[Mapping[int, Hashable], Iterable[Mapping]]] | None = None,
) -> tuple[SimplicialMap, Subdivision]:
    """Recover the decision map of a round-``rounds`` IIS protocol.

    ``factories_for_inputs(inputs: dict[pid, value]) -> factories`` builds
    the protocol family for one input assignment.  Every maximal input
    simplex of the task is enumerated over all schedules; decisions are
    collected per final view and checked for:

    * **well-definedness** — equal views never decide differently (if they
      do, the protocol is using information outside its view: not a
      full-information protocol);
    * **totality** — every vertex of ``SDS^rounds(I)`` is realized by some
      execution and hence mapped;
    * **the Proposition 3.1 conditions** — the assembled map is validated
      as simplicial, color-preserving, and Δ-respecting.

    ``max_crashes`` additionally enumerates fail-stop patterns; crashed
    executions contribute their survivors' (view, decision) pairs to the
    well-definedness check without poisoning it — a crashed process simply
    decided nothing.  ``model`` (a :class:`repro.models.Model`) restricts
    the contract to the model's admitted subcomplex: pairs whose view falls
    outside it are ignored (the protocol owes no answer there) and totality
    plus the Proposition 3.1 validation run against the restricted
    subdivision.  ``runner(factories, n_processes)`` overrides the execution
    source — it must yield objects with a ``decisions`` mapping; the default
    is the exhaustive :func:`~repro.runtime.scheduler.enumerate_executions`.

    ``runs`` skips the run loop and folds executions driven elsewhere: one
    ``(inputs, decision mappings)`` pair per input assignment, each mapping
    ``pid -> (final_view, value)`` (the conformance pipeline passes its
    model checker's outcomes here).  ``factories_for_inputs`` is then
    unused and may be ``None``.

    Returns the validated map and the subdivision it lives on (the
    restricted one when ``model`` is given).
    """
    subdivision = iterated_standard_chromatic_subdivision(
        task.input_complex, rounds
    )
    domain = subdivision
    if model is not None and not model.is_identity:
        from repro.models.reference import restrict_subdivision

        domain = restrict_subdivision(subdivision, rounds, model)
    domain_vertices = domain.complex.vertices
    if runs is None:
        if runner is None:
            def runner(factories, n_processes):
                return enumerate_executions(
                    factories, n_processes, max_depth=max_depth, max_crashes=max_crashes
                )
        runs = _protocol_runs(factories_for_inputs, task, runner)
    decisions: dict[Vertex, Vertex] = {}
    for inputs, decision_maps in runs:
        for decided_by in decision_maps:
            for pid, decided in decided_by.items():
                view_vertex = _view_vertex_of(pid, decided, rounds)
                if view_vertex is None:
                    raise ExtractionError(
                        f"process {pid} decided without exposing a round-"
                        f"{rounds} view; wrap the protocol to return "
                        "(view, decision)"
                    )
                if view_vertex not in domain_vertices:
                    continue  # outside the model's contract: no obligation
                _view, value = decided
                image = Vertex(pid, value)
                existing = decisions.get(view_vertex)
                if existing is not None and existing != image:
                    raise ExtractionError(
                        f"protocol is not a function of its view: "
                        f"{view_vertex!r} decided both {existing.payload!r} "
                        f"and {value!r} (inputs {dict(inputs)!r})"
                    )
                decisions[view_vertex] = image
    missing = domain_vertices - decisions.keys()
    if missing:
        example = min(missing, key=Vertex.sort_key)
        raise ExtractionError(
            f"{len(missing)} views of SDS^{rounds}(I) were never realized, "
            f"e.g. {example!r}; enumeration incomplete or the "
            "protocol skips rounds"
        )
    mapping = SimplicialMap(domain.complex, task.output_complex, decisions)
    validate_decision_map(domain, task, mapping)
    return mapping, domain


def _protocol_runs(factories_for_inputs, task: Task, runner) -> Iterator:
    """The run loop: every maximal input simplex, every execution of it."""
    for top in task.input_complex.maximal_simplices:
        inputs: Mapping[int, Hashable] = {v.color: v.payload for v in top}
        factories: Mapping[int, ProtocolFactory] = factories_for_inputs(inputs)
        yield inputs, (
            result.decisions for result in runner(factories, max(inputs) + 1)
        )


def _view_vertex_of(pid: int, decided, rounds: int) -> Vertex | None:
    """The decision protocol convention: Decide((view, value)).

    To keep extraction protocol-agnostic, protocols under extraction decide
    the *pair* ``(final_view, decision_value)``; this helper splits it.
    """
    if not (isinstance(decided, tuple) and len(decided) == 2):
        return None
    view, _value = decided
    try:
        return runtime_view_to_vertex(pid, view, rounds)
    except ValueError:
        return None
