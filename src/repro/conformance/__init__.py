"""Conformance pipeline: solvable verdicts become model-checked protocols.

Proposition 3.1 reads both ways — a decision map *is* a protocol — and this
package closes the loop topology → code → execution → topology for every
solvable ``(task, model, rounds)`` triple (DESIGN.md §3.9):

1. take the solver's witnessing decision map,
2. synthesize the IIS protocol and the SWMR-registers protocol (the
   Section 3.4 levels simulation),
3. run each under the mc subsystem with DPOR + systematic crash injection,
   checking Δ-compliance, the IS/snapshot invariants, and — for non-iis
   models — compliance restricted to model-admitted runs,
4. fold the executions step 3 drove back into a decision map and assert
   byte-identity with the solver's witness,
5. on any failure, ddmin-minimize the schedule and emit a deterministic
   ``repro-mc-replay-v1`` file.

The ``repro conform`` CLI drives a single triple or the full zoo × model
sweep; the built-in mutation mode corrupts one map entry and proves the
pipeline catches it.
"""

from repro.conformance.entries import ConformanceEntry, smoke_entries, sweep_entries
from repro.conformance.pipeline import (
    EntryResult,
    canonical_map_bytes,
    find_catchable_mutation,
    run_entry,
    run_mutation_self_test,
    run_sweep,
)
from repro.conformance.scenario import (
    ConformanceProperty,
    ConformanceScenario,
    SolvedBundle,
    conformance_scenario_from_spec,
    mutated_decisions,
    solved_bundle,
)

__all__ = [
    "ConformanceEntry",
    "ConformanceProperty",
    "ConformanceScenario",
    "EntryResult",
    "SolvedBundle",
    "canonical_map_bytes",
    "conformance_scenario_from_spec",
    "find_catchable_mutation",
    "mutated_decisions",
    "run_entry",
    "run_mutation_self_test",
    "run_sweep",
    "smoke_entries",
    "solved_bundle",
    "sweep_entries",
]
