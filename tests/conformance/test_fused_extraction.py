"""Stage 4 folds stage 3: one DPOR walk per (backend, input top), no other.

``run_entry`` extracts the decision map from the outcomes its model checker
already drove instead of walking the protocol a second time.  These tests
pin the three things that fusion must preserve: the extracted bytes (equal
to an independent DPOR extraction walk at the same crash budgets), the
per-cell schedule counts, and the number of explorations.
"""

import pytest

import repro.conformance.pipeline as pipeline
import repro.core.extraction as extraction
import repro.mc.explorer as explorer
from repro.conformance import canonical_map_bytes, run_entry, solved_bundle, sweep_entries
from repro.conformance.pipeline import LEVELS_EXHAUSTIVE_MAX_PROCESSES
from repro.conformance.scenario import ConformanceScenario
from repro.core.extraction import extract_decision_map
from repro.core.protocol_synthesis import SynthesizedProtocol

from .oracles import dpor_extraction_runner

#: Terminal executions stage 3 drives per PASS cell at ``crashes=1``.
EXPECTED_SCHEDULES = {
    "identity(2)@iis": 8,
    "constant(2)@iis": 8,
    "approximate_agreement(2,3)@iis": 104,
    "approximate_agreement(2,9)@iis": 712,
    "identity(2)@t_resilient(0)": 8,
    "consensus(2)@t_resilient(0)": 104,
    "consensus(2)@k_concurrent(1)": 104,
    "consensus(2)@k_set_consensus(1)": 104,
    "consensus(2)@t_resilient(0)&k_set_consensus(1)": 104,
    "constant(3)@iis": 16,
    "set_consensus(3,3)@iis": 2,
    "set_consensus(3,2)@k_set_consensus(2)": 4763,
    "participating_set(3)@iis": 4763,
}

PASS_ENTRIES = [e for e in sweep_entries() if e.label in EXPECTED_SCHEDULES]


def _oracle_bytes(bundle, backend: str) -> bytes:
    """Extraction by a second, independent DPOR walk (the pre-fusion path)."""

    def factories_for_inputs(inputs):
        return SynthesizedProtocol(
            bundle.result,
            backend,
            n_processes=bundle.n_processes,
            expose_views=True,
            on_missing_view="sentinel",
        ).factories(inputs)

    mapping, _domain = extract_decision_map(
        factories_for_inputs,
        bundle.task,
        bundle.rounds,
        model=None if bundle.model.is_identity else bundle.model,
        runner=dpor_extraction_runner(max_crashes=1 if backend == "iis" else 0),
    )
    return canonical_map_bytes(mapping)


@pytest.fixture
def spied(monkeypatch):
    """Record every exploration and extraction ``run_entry`` performs."""
    explored: list[tuple[str, int]] = []
    extracted: list[tuple[bytes, bool]] = []
    real_explore = explorer.explore
    real_extract = extraction.extract_decision_map

    def counting_explore(scenario, *args, **kwargs):
        assert isinstance(scenario, ConformanceScenario), scenario
        explored.append((scenario.backend, scenario.input_index))
        return real_explore(scenario, *args, **kwargs)

    def recording_extract(*args, **kwargs):
        mapping, domain = real_extract(*args, **kwargs)
        extracted.append((canonical_map_bytes(mapping), kwargs.get("runs") is not None))
        return mapping, domain

    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("extraction ran the protocol again")

    monkeypatch.setattr(explorer, "explore", counting_explore)
    monkeypatch.setattr(pipeline, "explore", counting_explore)
    monkeypatch.setattr(pipeline, "extract_decision_map", recording_extract)
    monkeypatch.setattr(extraction, "enumerate_executions", no_enumeration)
    return explored, extracted


@pytest.mark.parametrize("entry", PASS_ENTRIES, ids=lambda e: e.label)
def test_fused_extraction_matches_dpor_walk(entry, spied):
    explored, extracted = spied
    result = run_entry(entry)
    assert result.status == "PASS", result.violation
    assert result.schedules == EXPECTED_SCHEDULES[entry.label]

    bundle = solved_bundle(entry.task_name, entry.task_args, entry.max_rounds, entry.model)
    exhaustive = ["iis"]
    if bundle.n_processes <= LEVELS_EXHAUSTIVE_MAX_PROCESSES:
        exhaustive.append("levels")
    tops = range(len(bundle.input_tops))
    # One exploration per (exhaustive backend, input top), and no other.
    assert explored == [(backend, index) for backend in exhaustive for index in tops]
    # One fold per exhaustive backend, each over stage 3's outcomes.
    assert [folded for _bytes, folded in extracted] == [True] * len(exhaustive)
    assert result.extraction_runs > 0

    for (fused, _folded), backend in zip(extracted, exhaustive):
        assert fused == _oracle_bytes(bundle, backend), backend
