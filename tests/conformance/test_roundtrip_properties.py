"""Property suite: every solvable random task round-trips its witness.

Built on :func:`tests.strategies.tasks`: whenever the solver says SOLVABLE,
synthesizing the witness (both backends) and extracting the decision map
back from the executed protocol must reproduce the witness exactly — the
Proposition 3.1 loop topology → code → execution → topology, quantified
over random tasks instead of the curated zoo.  UNSOLVABLE draws are a SKIP
(the property holds vacuously), never a failure.
"""

from hypothesis import event, given, settings

from repro.conformance.pipeline import canonical_map_bytes
from repro.core.extraction import extract_decision_map
from repro.core.protocol_synthesis import SynthesizedProtocol
from repro.core.solvability import SolvabilityStatus, solve_task

from ..strategies import tasks
from .oracles import dpor_extraction_runner


def _extract_with(result, task, backend, n_processes):
    def factories_for_inputs(inputs):
        protocol = SynthesizedProtocol(
            result,
            backend,
            n_processes=n_processes,
            expose_views=True,
            on_missing_view="sentinel",
        )
        return protocol.factories(inputs)

    mapping, _domain = extract_decision_map(
        factories_for_inputs,
        task,
        result.rounds,
        runner=dpor_extraction_runner(),
    )
    return mapping


@given(task=tasks(max_processes=3))
@settings(deadline=None)
def test_solvable_witness_round_trips_both_backends(task):
    result = solve_task(task, max_rounds=1)
    if result.status is not SolvabilityStatus.SOLVABLE:
        event("unsolvable: SKIP")
        return
    event(f"solvable at b={result.rounds}")
    n = len({vertex.color for vertex in task.input_complex.vertices})
    witness = canonical_map_bytes(result.decision_map)

    # The IIS backend extracts at every size; the levels (SWMR registers)
    # backend only at n <= 2 inside the property body — its 3-process DPOR
    # walk is ~0.6 s, too slow for a per-example cost (the pipeline's sweep
    # covers levels at 3 processes exhaustively on the curated cells).
    backends = ["iis"] + (["levels"] if n <= 2 else [])
    for backend in backends:
        extracted = _extract_with(result, task, backend, n)
        assert extracted.as_dict() == result.decision_map.as_dict(), backend
        assert canonical_map_bytes(extracted) == witness, backend


@given(task=tasks(max_processes=2))
@settings(deadline=None, max_examples=15)
def test_extraction_is_total_under_crash_schedules(task):
    """Crash injection only adds executions: the extracted map under a
    one-crash budget equals the crash-free one (survivor views are the same
    SDS vertices, and totality is witnessed by the crash-free schedules)."""
    result = solve_task(task, max_rounds=1)
    if result.status is not SolvabilityStatus.SOLVABLE:
        event("unsolvable: SKIP")
        return
    n = len({vertex.color for vertex in task.input_complex.vertices})

    def factories_for_inputs(inputs):
        protocol = SynthesizedProtocol(
            result, "iis", n_processes=n, expose_views=True
        )
        return protocol.factories(inputs)

    crash_free, _ = extract_decision_map(
        factories_for_inputs, task, result.rounds, runner=dpor_extraction_runner()
    )
    crashy, _ = extract_decision_map(
        factories_for_inputs,
        task,
        result.rounds,
        runner=dpor_extraction_runner(max_crashes=1),
    )
    assert crashy.as_dict() == crash_free.as_dict()
