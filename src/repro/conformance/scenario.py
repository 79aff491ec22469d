"""Conformance scenarios: synthesized protocols as model-checking targets.

A :class:`ConformanceScenario` names a ``(task, model, rounds, backend,
input assignment)`` cell by registry spec — never by pickled object — so it
is rebuildable from a JSON spec exactly like the mc subsystem's other
scenarios, and a conformance counterexample replay file is self-contained:
``repro mc --replay`` re-solves the task (deterministic first map), re-
synthesizes the protocol, and re-drives the schedule.

Solving is memoized per ``(task, args, max_rounds, model)`` in
:func:`solved_bundle`: ddmin and replay call :meth:`ConformanceScenario.build`
hundreds of times, and the witness is a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.core.protocol_complex import runtime_view_to_vertex
from repro.core.protocol_synthesis import UNMAPPED_VIEW, SynthesizedProtocol
from repro.core.solvability import SolvabilityResult, solve_task
from repro.core.task import Task
from repro.mc.properties import ISInvariantsProperty, Property
from repro.mc.scenario import ScenarioInstance
from repro.models import Model, parse_model
from repro.models.reference import restrict_subdivision
from repro.runtime.scheduler import Scheduler
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision
from repro.topology.vertex import Vertex


@dataclass(frozen=True)
class SolvedBundle:
    """Everything the pipeline derives once per ``(task, model)`` cell."""

    task: Task
    model: Model
    result: SolvabilityResult
    rounds: int
    n_processes: int
    input_tops: tuple[Simplex, ...]
    sds_vertices: frozenset[Vertex]
    restricted_complex: SimplicialComplex | None  # None = identity model

    def inputs_for(self, input_index: int) -> dict[int, Hashable]:
        top = self.input_tops[input_index]
        return {vertex.color: vertex.payload for vertex in top}


_BUNDLES: dict[tuple, SolvedBundle] = {}


def _resolve_task(task_name: str, task_args: tuple[int, ...]) -> Task:
    from repro.service.registry import resolve_task

    try:
        return resolve_task(task_name, tuple(task_args))
    except Exception as exc:  # ProtocolError is a ValueError subclass
        raise ValueError(f"conformance: cannot resolve task: {exc}") from None


def solved_bundle(
    task_name: str,
    task_args: tuple[int, ...],
    max_rounds: int,
    model_text: str = "iis",
) -> SolvedBundle:
    """Solve (memoized) and package the derived structures.

    Raises :class:`repro.models.ModelRestrictionEmpty` when the model admits
    no run (the pipeline reports SKIP); an unsolvable verdict is *returned*,
    not raised — check ``bundle.result.status``.
    """
    model = parse_model(model_text)
    key = (task_name, tuple(int(a) for a in task_args), int(max_rounds), model.fingerprint)
    bundle = _BUNDLES.get(key)
    if bundle is not None:
        return bundle
    task = _resolve_task(task_name, task_args)
    result = solve_task(
        task, max_rounds, model=None if model.is_identity else model
    )
    n_processes = len({vertex.color for vertex in task.input_complex.vertices})
    rounds = result.rounds if result.rounds is not None else max_rounds
    input_tops = tuple(
        sorted(
            task.input_complex.maximal_simplices,
            key=lambda top: tuple(v.sort_key() for v in top.sorted_vertices()),
        )
    )
    subdivision = iterated_standard_chromatic_subdivision(task.input_complex, rounds)
    restricted = None
    if not model.is_identity:
        restricted = restrict_subdivision(subdivision, rounds, model).complex
    bundle = SolvedBundle(
        task=task,
        model=model,
        result=result,
        rounds=rounds,
        n_processes=n_processes,
        input_tops=input_tops,
        sds_vertices=subdivision.complex.vertices,
        restricted_complex=restricted,
    )
    _BUNDLES[key] = bundle
    return bundle


def clear_bundle_cache() -> None:
    """Drop memoized solves (tests that count solver work use this)."""
    _BUNDLES.clear()


# -- deterministic decision-map mutation ---------------------------------------


def mutation_domain(result: SolvabilityResult) -> list[Vertex]:
    """The decision map's vertices in canonical (sort-key) order."""
    return sorted(result.decision_map.as_dict(), key=Vertex.sort_key)


def mutated_decisions(
    result: SolvabilityResult, task: Task, mutation: tuple[int, int]
) -> dict[Vertex, Hashable]:
    """Corrupt one entry of the witnessing map, deterministically.

    ``mutation = (vertex_index, image_index)`` picks the ``vertex_index``-th
    domain vertex in canonical order and rebinds it to the
    ``image_index``-th same-colored output vertex (canonical order, current
    image excluded).  Raises ``ValueError`` on out-of-range indices — the
    caller enumerates, it should not wrap around silently.
    """
    vertex_index, image_index = mutation
    domain = mutation_domain(result)
    if not 0 <= vertex_index < len(domain):
        raise ValueError(
            f"mutation vertex index {vertex_index} out of range 0..{len(domain) - 1}"
        )
    vertex = domain[vertex_index]
    current = result.decision_map.as_dict()[vertex]
    alternatives = sorted(
        (
            candidate
            for candidate in task.output_complex.vertices
            if candidate.color == vertex.color and candidate != current
        ),
        key=Vertex.sort_key,
    )
    if not alternatives:
        raise ValueError(
            f"no alternative image for {vertex!r}: output complex has a "
            f"single vertex of color {vertex.color}"
        )
    if not 0 <= image_index < len(alternatives):
        raise ValueError(
            f"mutation image index {image_index} out of range "
            f"0..{len(alternatives) - 1}"
        )
    decisions = {
        v: image.payload for v, image in result.decision_map.as_dict().items()
    }
    decisions[vertex] = alternatives[image_index].payload
    return decisions


# -- the scenario and its property ---------------------------------------------


class ConformanceProperty:
    """Δ-compliance of a synthesized protocol, restricted to admitted runs.

    Processes decide ``(final_view, value)`` pairs (the
    :mod:`repro.core.extraction` convention) and the instance context is the
    run's input assignment.  For the identity model every run is in
    contract.  For a non-identity model, the decided processes' final views
    are converted to SDS vertices and the run is judged **in contract**
    exactly when their simplex lies in the model's restricted subcomplex —
    that is precisely where the witness map claims coverage, so it is also
    where a violation is meaningful.  The
    check is sound on partial decision sets: an admitted view simplex is
    realized by *some* fully-admitted run, so ``µ`` restricted to it must be
    Δ-compliant no matter how the current run continues.

    In-contract violations, in order of detection:

    * a decided view that is not a round-``b`` SDS vertex (the Lemma 3.3 /
      simulation contract);
    * a sentinel decision (:data:`~repro.core.protocol_synthesis.UNMAPPED_VIEW`)
      on an admitted view — the map failed totality where it owed an answer;
    * a decided tuple that ``Δ`` forbids
      (:meth:`repro.core.task.Task.validate_outputs`).
    """

    def __init__(
        self,
        task: Task,
        model: Model,
        rounds: int,
        sds_vertices: frozenset[Vertex],
        restricted_complex: SimplicialComplex | None,
    ):
        self.task = task
        self.model = model
        self.rounds = rounds
        self.sds_vertices = sds_vertices
        self.restricted_complex = restricted_complex
        suffix = "" if model.is_identity else f"({model.fingerprint})"
        self.name = f"conformance-delta{suffix}"

    def _judge(self, instance: "ScenarioInstance") -> str | None:
        scheduler = instance.scheduler
        pairs = {
            process.pid: process.decision
            for process in scheduler.processes.values()
            if process.has_decided
        }
        if not pairs:
            return None
        inputs: Mapping[int, Hashable] = instance.context
        vertices: dict[int, Vertex] = {}
        decided: dict[int, Hashable] = {}
        for pid, pair in pairs.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return (
                    f"process {pid} decided without reporting a final view "
                    "(synthesis contract broken)"
                )
            view, decided[pid] = pair
            try:
                vertices[pid] = runtime_view_to_vertex(pid, view, self.rounds)
            except ValueError as exc:
                return f"process {pid}: final view is not round-structured ({exc})"
        for pid, vertex in vertices.items():
            if vertex not in self.sds_vertices:
                return (
                    f"process {pid}: view {vertex!r} is not a vertex of "
                    f"SDS^{self.rounds}(I) — Lemma 3.3 violated"
                )
        if self.restricted_complex is not None:
            simplex = Simplex(vertices.values())
            if simplex not in self.restricted_complex:
                return None  # model rejects this run: out of contract
        unmapped = sorted(
            pid for pid, value in decided.items() if value is UNMAPPED_VIEW
        )
        if unmapped:
            return (
                f"decision map undefined on admitted views of processes "
                f"{unmapped} (model {self.model.fingerprint})"
            )
        if not self.task.validate_outputs(dict(inputs), decided):
            return (
                f"decisions {decided!r} are not Δ-compliant for "
                f"{self.task.name} on inputs {dict(inputs)!r}"
            )
        return None

    def check_running(self, instance: "ScenarioInstance") -> str | None:
        return self._judge(instance)

    def check_terminal(self, instance: "ScenarioInstance") -> str | None:
        return self._judge(instance)


@dataclass
class ConformanceScenario:
    """One pipeline cell as a rebuildable, JSON-serializable mc scenario.

    The bundle, the input assignment and the synthesized protocol are built
    on the first :meth:`build` and reused: the explorer's prefix replays and
    ddmin rebuild the instance thousands of times, and each rebuild only
    needs a fresh :class:`Scheduler` over the same protocol.
    """

    task_name: str
    task_args: tuple[int, ...] = ()
    max_rounds: int = 1
    backend: str = "iis"
    input_index: int = 0
    model: str = "iis"
    mutation: tuple[int, int] | None = None
    name: str = field(init=False)
    _protocol: SynthesizedProtocol | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _inputs: dict[int, Hashable] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.task_args = tuple(int(a) for a in self.task_args)
        if self.backend not in ("iis", "levels"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.mutation is not None:
            self.mutation = (int(self.mutation[0]), int(self.mutation[1]))
        args = ",".join(str(a) for a in self.task_args)
        suffix = "" if self.mutation is None else f"+mut{self.mutation}"
        self.name = (
            f"conform({self.task_name}({args})@{self.model},"
            f"b<={self.max_rounds},{self.backend},top{self.input_index}){suffix}"
        )

    def bundle(self) -> SolvedBundle:
        return solved_bundle(
            self.task_name, self.task_args, self.max_rounds, self.model
        )

    def build(self) -> ScenarioInstance:
        protocol = self._protocol
        if protocol is None:
            bundle = self.bundle()
            if bundle.result.decision_map is None:
                raise ValueError(
                    f"{self.name}: {bundle.result!r} carries no decision map "
                    "(conformance scenarios exist only for solvable cells)"
                )
            decisions = None
            if self.mutation is not None:
                decisions = mutated_decisions(
                    bundle.result, bundle.task, self.mutation
                )
            protocol = self._protocol = SynthesizedProtocol(
                bundle.result,
                self.backend,
                n_processes=bundle.n_processes,
                decisions=decisions,
                expose_views=True,
                on_missing_view="sentinel",
            )
            self._inputs = bundle.inputs_for(self.input_index)
        scheduler = Scheduler(
            protocol.factories(self._inputs),
            protocol.n_processes,
            record_events=True,
            track_history=True,
        )
        return ScenarioInstance(scheduler, self._inputs)

    def properties(self) -> tuple[Property, ...]:
        bundle = self.bundle()
        return (
            ConformanceProperty(
                bundle.task,
                bundle.model,
                bundle.rounds,
                bundle.sds_vertices,
                bundle.restricted_complex,
            ),
            ISInvariantsProperty(),
        )

    def to_spec(self) -> dict:
        spec = {
            "kind": "conformance",
            "task": {"name": self.task_name, "args": list(self.task_args)},
            "max_rounds": self.max_rounds,
            "backend": self.backend,
            "input_index": self.input_index,
            "model": self.model,
        }
        if self.mutation is not None:
            spec["mutation"] = list(self.mutation)
        return spec


def conformance_scenario_from_spec(spec: Mapping) -> ConformanceScenario:
    """Inverse of :meth:`ConformanceScenario.to_spec`."""
    task = spec["task"]
    mutation = spec.get("mutation")
    return ConformanceScenario(
        task_name=str(task["name"]),
        task_args=tuple(int(a) for a in task.get("args", ())),
        max_rounds=int(spec.get("max_rounds", 1)),
        backend=str(spec.get("backend", "iis")),
        input_index=int(spec.get("input_index", 0)),
        model=str(spec.get("model", "iis")),
        mutation=None if mutation is None else (int(mutation[0]), int(mutation[1])),
    )
