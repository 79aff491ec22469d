"""The conformance pipeline: solve → synthesize → model-check → re-extract.

One :func:`run_entry` call verifies one zoo × model cell end to end:

* **SKIP** — the cell is unsolvable up to its round bound, or the model
  admits no run at all (``ModelRestrictionEmpty``).  Skips are first-class:
  the sweep asserts the *reason*, not just the absence of a PASS.
* **PASS** — both synthesized backends (IIS blocks; SWMR registers via the
  levels simulation) survive DPOR exploration with crash injection on every
  input simplex, and the decision map extracted back from the executions
  that exploration drove is byte-identical to the solver's witness.
* **FAIL** — some property violation was found; the schedule is
  ddmin-minimized, serialized as a ``repro-mc-replay-v1`` document, and
  re-driven in memory to confirm the file reproduces the violation.

Cost policy (DESIGN.md §3.9): the IIS backend is explored exhaustively
everywhere; the levels backend is explored exhaustively up to 3 processes
and spot-checked under seeded random schedules past that, where its
interleaving space outgrows exhaustive search.  Extraction runs no protocol
of its own: it folds the terminal outcomes of the exhaustive explorations
(each process decides its ``(final_view, value)`` pair), so it covers
exactly the backends explored exhaustively.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.conformance.entries import SELF_TEST_ENTRY, ConformanceEntry
from repro.conformance.scenario import (
    ConformanceScenario,
    mutated_decisions,
    mutation_domain,
    solved_bundle,
)
from repro.core.extraction import ExtractionError, extract_decision_map
from repro.core.solvability import SolvabilityStatus, validate_decision_map
from repro.mc.explorer import (
    CrashBudget,
    ExploreOptions,
    Outcome,
    Violation,
    _check,
    explore,
)
from repro.mc.minimize import minimize_schedule
from repro.mc.replay import load_replay, replay_schedule, replay_to_json
from repro.models import ModelRestrictionEmpty
from repro.models.reference import restrict_subdivision
from repro.obs import OBS as _OBS
from repro.runtime.scheduler import RandomSchedule, RoundRobinSchedule
from repro.topology.maps import SimplicialMap
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision
from repro.topology.vertex import Vertex

#: Exhaustive DPOR of the levels (register) backend is feasible up to here
#: (~3 s per input simplex at 3 processes with one injected crash); past it
#: the pipeline falls back to seeded random spot checks.
LEVELS_EXHAUSTIVE_MAX_PROCESSES = 3

#: Seeds for the levels spot-check at 3+ processes (plus one round-robin run).
SAMPLE_SEEDS = tuple(range(12))


def canonical_map_bytes(mapping: SimplicialMap) -> bytes:
    """Canonical byte serialization of a decision map.

    Sorted by domain-vertex sort key, one ``color:view -> color:value`` line
    per entry — the byte string two maps must share for the pipeline to call
    them identical.  Stable across processes and intern-table states.
    """
    items = sorted(mapping.as_dict().items(), key=lambda kv: kv[0].sort_key())
    lines = [
        f"{vertex.color}:{vertex.payload!r} -> {image.color}:{image.payload!r}"
        for vertex, image in items
    ]
    return "\n".join(lines).encode("utf-8")


@dataclass
class EntryResult:
    """Everything one pipeline cell produced, JSON-friendly.

    ``schedules`` counts the terminal executions stage 3 drove.
    ``extraction_runs`` counts the distinct stage-3 outcomes stage 4 folded
    back into a decision map; extraction drives no executions of its own.
    """

    task: str
    model: str
    status: str  # PASS | FAIL | SKIP
    max_rounds: int
    rounds: int | None = None
    reason: str = ""
    schedules: int = 0  # terminal executions driven across all mc cells
    extraction_runs: int = 0  # stage-3 outcomes folded by stage 4
    backends: dict = field(default_factory=dict)  # backend -> mode string
    violation: str | None = None
    replay_json: str | None = None
    replay_path: str | None = None
    replay_verified: bool | None = None
    minimized_from: int | None = None
    minimized_to: int | None = None

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "model": self.model,
            "status": self.status,
            "max_rounds": self.max_rounds,
            "rounds": self.rounds,
            "reason": self.reason,
            "schedules": self.schedules,
            "extraction_runs": self.extraction_runs,
            "backends": dict(self.backends),
            "violation": self.violation,
            "replay_path": self.replay_path,
            "replay_verified": self.replay_verified,
            "minimized_from": self.minimized_from,
            "minimized_to": self.minimized_to,
        }


# -- the per-entry pipeline ----------------------------------------------------


def _obs_span(name: str, **attrs):
    if _OBS.enabled:
        return _OBS.tracer.span(name, **attrs)
    return contextlib.nullcontext()


def _count(name: str, value: int = 1) -> None:
    if _OBS.enabled:
        _OBS.metrics.counter(name).inc(value)


def _sampled_levels_check(
    scenario: ConformanceScenario, seeds=SAMPLE_SEEDS
) -> tuple[Violation | None, int]:
    """Seeded spot check of the levels backend where DPOR is infeasible."""
    properties = scenario.properties()
    runs = 0
    schedules = [RoundRobinSchedule()] + [RandomSchedule(seed=seed) for seed in seeds]
    for schedule in schedules:
        instance = scenario.build()
        instance.scheduler.run(schedule, max_steps=100_000)
        runs += 1
        violation = _check(properties, instance, (), terminal=True)
        if violation is not None:
            return violation, runs
    return None, runs


def _fail(
    result: EntryResult,
    scenario: ConformanceScenario,
    violation: Violation,
    replay_dir: str | None,
    minimizable: bool,
) -> EntryResult:
    """Record a FAIL: minimize, serialize the replay, re-drive it."""
    result.status = "FAIL"
    result.violation = str(violation)
    if minimizable:
        minimized = minimize_schedule(scenario, violation.schedule)
        result.minimized_from = minimized.original_length
        result.minimized_to = len(minimized.schedule)
        replay_json = replay_to_json(scenario, minimized.schedule, minimized.violation)
        result.replay_json = replay_json
        loaded = load_replay(replay_json)
        outcome = replay_schedule(loaded.scenario, loaded.schedule)
        result.replay_verified = (
            outcome.reproduced
            and outcome.violation.property_name == minimized.violation.property_name
        )
        if replay_dir is not None:
            import os

            os.makedirs(replay_dir, exist_ok=True)
            filename = (
                f"conform-{scenario.task_name}-{scenario.backend}-"
                f"top{scenario.input_index}.json"
            )
            path = os.path.join(replay_dir, filename)
            with open(path, "w") as handle:
                handle.write(replay_json)
            result.replay_path = path
    _count("conform.fail")
    return result


def run_entry(
    entry: ConformanceEntry,
    *,
    crashes: int = 1,
    replay_dir: str | None = None,
    mutation: tuple[int, int] | None = None,
    backends: tuple[str, ...] = ("iis", "levels"),
) -> EntryResult:
    """Run the full conformance pipeline on one zoo × model cell."""
    with _obs_span(
        "conform.entry", task=entry.task_label, model=entry.model
    ) as span:
        result = _run_entry_impl(entry, crashes, replay_dir, mutation, backends)
        if span is not None and _OBS.enabled:
            span.set(
                status=result.status,
                schedules=result.schedules,
                extraction_runs=result.extraction_runs,
            )
        return result


def _run_entry_impl(
    entry: ConformanceEntry,
    crashes: int,
    replay_dir: str | None,
    mutation: tuple[int, int] | None,
    backends: tuple[str, ...],
) -> EntryResult:
    result = EntryResult(
        task=entry.task_label,
        model=entry.model,
        status="PASS",
        max_rounds=entry.max_rounds,
    )
    try:
        bundle = solved_bundle(
            entry.task_name, entry.task_args, entry.max_rounds, entry.model
        )
    except ModelRestrictionEmpty as exc:
        result.status = "SKIP"
        result.reason = f"model admits no run ({exc})"
        _count("conform.skip")
        return result
    if bundle.result.status is not SolvabilityStatus.SOLVABLE:
        result.status = "SKIP"
        result.reason = (
            f"{bundle.result.status.value} up to b={entry.max_rounds}"
        )
        _count("conform.skip")
        return result
    result.rounds = bundle.rounds

    # -- stage 3: model-check both synthesized backends --------------------
    # backend -> the outcome set of each input top, for exhaustive walks
    outcomes: dict[str, list[set[Outcome]]] = {}
    for backend in backends:
        exhaustive = (
            backend == "iis"
            or bundle.n_processes <= LEVELS_EXHAUSTIVE_MAX_PROCESSES
        )
        result.backends[backend] = "dpor+crashes" if exhaustive else "sampled"
        for input_index in range(len(bundle.input_tops)):
            scenario = ConformanceScenario(
                task_name=entry.task_name,
                task_args=entry.task_args,
                max_rounds=entry.max_rounds,
                backend=backend,
                input_index=input_index,
                model=entry.model,
                mutation=mutation,
            )
            if exhaustive:
                report = explore(
                    scenario,
                    ExploreOptions(
                        crash_budget=CrashBudget(max_crashes=crashes),
                        max_depth=600,
                    ),
                    properties=scenario.properties(),
                )
                result.schedules += report.stats.executions
                _count("conform.schedules", report.stats.executions)
                if report.violation is not None:
                    return _fail(
                        result, scenario, report.violation, replay_dir,
                        minimizable=True,
                    )
                outcomes.setdefault(backend, []).append(report.outcomes)
            else:
                violation, runs = _sampled_levels_check(scenario)
                result.schedules += runs
                _count("conform.schedules", runs)
                if violation is not None:
                    return _fail(
                        result, scenario, violation, replay_dir,
                        minimizable=False,
                    )

    # -- stage 4: fold stage 3's outcomes back into a map, byte-compare -----
    # The IIS backend folds every outcome (<= ``crashes`` crashes); the
    # levels backend folds its crash-free outcomes only.
    witness = canonical_map_bytes(bundle.result.decision_map)
    model_arg = None if bundle.model.is_identity else bundle.model
    for backend, per_top in outcomes.items():
        max_crashed = crashes if backend == "iis" else 0
        runs = [
            (
                bundle.inputs_for(input_index),
                [
                    dict(decisions)
                    for decisions, crashed in top_outcomes
                    if len(crashed) <= max_crashed
                ],
            )
            for input_index, top_outcomes in enumerate(per_top)
        ]
        result.extraction_runs += sum(len(folded) for _inputs, folded in runs)
        try:
            extracted, _domain = extract_decision_map(
                None, bundle.task, bundle.rounds, model=model_arg, runs=runs
            )
        except (ExtractionError, ValueError) as exc:
            result.status = "FAIL"
            result.violation = f"extraction ({backend}): {exc}"
            _count("conform.fail")
            return result
        if canonical_map_bytes(extracted) != witness:
            result.status = "FAIL"
            result.violation = (
                f"extraction ({backend}): round-tripped map is not "
                "byte-identical to the solver witness"
            )
            _count("conform.fail")
            return result

    _count("conform.pass")
    return result


def run_sweep(
    entries,
    *,
    crashes: int = 1,
    replay_dir: str | None = None,
) -> list[EntryResult]:
    """Run the pipeline over a sweep; returns one result per entry."""
    with _obs_span("conform.sweep", entries=len(tuple(entries))):
        return [
            run_entry(entry, crashes=crashes, replay_dir=replay_dir)
            for entry in entries
        ]


# -- the mutation self-test ----------------------------------------------------


def find_catchable_mutation(
    entry: ConformanceEntry = SELF_TEST_ENTRY,
    *,
    max_vertices: int = 16,
    max_images: int = 4,
) -> tuple[int, int]:
    """First (vertex, image) mutation that provably breaks the witness map.

    Deterministic: walks the canonical domain order, re-validates each
    corrupted map against Proposition 3.1, and returns the first mutation
    the validator rejects — the candidate the mc stage must then catch.
    """
    bundle = solved_bundle(
        entry.task_name, entry.task_args, entry.max_rounds, entry.model
    )
    if bundle.result.status is not SolvabilityStatus.SOLVABLE:
        raise ValueError(f"{entry.label} is not solvable; nothing to mutate")
    subdivision = iterated_standard_chromatic_subdivision(
        bundle.task.input_complex, bundle.rounds
    )
    if not bundle.model.is_identity:
        subdivision = restrict_subdivision(
            subdivision, bundle.rounds, bundle.model
        )
    domain = mutation_domain(bundle.result)
    for vertex_index in range(min(len(domain), max_vertices)):
        for image_index in range(max_images):
            try:
                decisions = mutated_decisions(
                    bundle.result, bundle.task, (vertex_index, image_index)
                )
            except ValueError:
                break  # no more alternative images for this vertex
            mapping = SimplicialMap(
                subdivision.complex,
                bundle.task.output_complex,
                {
                    vertex: Vertex(vertex.color, payload)
                    for vertex, payload in decisions.items()
                },
            )
            try:
                validate_decision_map(subdivision, bundle.task, mapping)
            except ValueError:
                return vertex_index, image_index
    raise ValueError(
        f"no Δ-breaking mutation found for {entry.label} within "
        f"{max_vertices}x{max_images} candidates"
    )


@dataclass
class SelfTestResult:
    """Outcome of the pipeline's prove-the-oracles-work self-test."""

    entry: ConformanceEntry
    mutation: tuple[int, int]
    result: EntryResult

    @property
    def ok(self) -> bool:
        return (
            self.result.status == "FAIL"
            and self.result.violation is not None
            and "Δ-compliant" in self.result.violation
            and self.result.minimized_to is not None
            and self.result.minimized_to <= self.result.minimized_from
            and self.result.replay_verified is True
        )


def run_mutation_self_test(
    entry: ConformanceEntry = SELF_TEST_ENTRY,
    *,
    crashes: int = 1,
    replay_dir: str | None = None,
) -> SelfTestResult:
    """Corrupt one map entry; the pipeline must catch, minimize, and replay.

    This is the load-bearing-oracle proof: a conformance sweep that cannot
    flag a corrupted decision map would be vacuous.  ``ok`` requires the
    run to FAIL on Δ-compliance, ddmin to produce a no-longer schedule, and
    the serialized replay to re-trigger the violation deterministically.
    """
    mutation = find_catchable_mutation(entry)
    result = run_entry(
        entry,
        crashes=crashes,
        replay_dir=replay_dir,
        mutation=mutation,
        backends=("iis",),
    )
    return SelfTestResult(entry=entry, mutation=mutation, result=result)
