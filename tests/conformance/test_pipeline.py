"""The conformance pipeline: statuses, specs, byte-canonical round-trips."""

import pytest

from repro.conformance import (
    ConformanceEntry,
    canonical_map_bytes,
    conformance_scenario_from_spec,
    run_entry,
    run_sweep,
    smoke_entries,
    solved_bundle,
    sweep_entries,
)
from repro.conformance.scenario import (
    ConformanceProperty,
    ConformanceScenario,
    mutated_decisions,
)
from repro.mc.scenario import scenario_from_spec


class TestEntryStatuses:
    def test_unsolvable_cell_skips(self):
        """FLP: consensus at b<=2 under iis is unsolvable — SKIP, not FAIL."""
        result = run_entry(ConformanceEntry("consensus", (2,), "iis", 2))
        assert result.status == "SKIP"
        assert "unsolvable" in result.reason
        assert result.ok

    def test_restriction_empty_cell_skips(self):
        """t_resilient(0) (one all-member block) and k_concurrent(1) (all
        singleton blocks) contradict each other on full-participation runs:
        the cell must SKIP as restriction-empty, not crash or FAIL."""
        result = run_entry(
            ConformanceEntry(
                "consensus", (2,), "t_resilient(0)&k_concurrent(1)", 1
            )
        )
        assert result.status == "SKIP"
        assert "admits no run" in result.reason

    def test_rescued_cell_passes_with_crashes(self):
        """The PR8 headline flip, now executed: consensus under 0-resilience
        survives exhaustive DPOR with crash injection on both backends and
        round-trips its witness byte-for-byte."""
        result = run_entry(
            ConformanceEntry("consensus", (2,), "t_resilient(0)", 1), crashes=1
        )
        assert result.status == "PASS"
        assert result.backends == {
            "iis": "dpor+crashes",
            "levels": "dpor+crashes",
        }
        assert result.schedules > 0
        assert result.extraction_runs > 0

    def test_composed_model_cell_passes(self):
        """A satisfiable composition end to end: t_resilient(0) &
        k_set_consensus(1) admits exactly the one-block synchronous runs."""
        result = run_entry(
            ConformanceEntry(
                "consensus", (2,), "t_resilient(0)&k_set_consensus(1)", 1
            )
        )
        assert result.status == "PASS"

    def test_smoke_sweep_statuses(self):
        results = run_sweep(smoke_entries())
        assert [r.status for r in results] == ["SKIP", "PASS", "PASS"]
        assert all(r.ok for r in results)

    def test_full_sweep_has_three_process_passes(self):
        """The acceptance shape of the full matrix, without running it:
        every cell is well-formed and at least three 3-process cells exist."""
        entries = sweep_entries()
        assert len(entries) >= 14
        three_process = [e for e in entries if 3 in e.task_args or e.task_args == (3,)]
        assert len(three_process) >= 3
        assert len({e.label for e in entries}) == len(entries)

    def test_result_json_is_serializable(self):
        import json

        result = run_entry(ConformanceEntry("consensus", (2,), "iis", 2))
        encoded = json.dumps(result.to_json())
        assert "SKIP" in encoded


class TestCanonicalBytes:
    def test_deterministic_and_mutation_sensitive(self):
        bundle = solved_bundle("consensus", (2,), 1, "t_resilient(0)")
        witness = canonical_map_bytes(bundle.result.decision_map)
        assert witness == canonical_map_bytes(bundle.result.decision_map)
        assert b"->" in witness
        # A corrupted map must change the canonical bytes.
        mutated = mutated_decisions(bundle.result, bundle.task, (0, 0))
        original = {
            v: img.payload for v, img in bundle.result.decision_map.as_dict().items()
        }
        assert mutated != original


class TestScenarioSpec:
    def test_spec_round_trips(self):
        scenario = ConformanceScenario(
            task_name="consensus",
            task_args=(2,),
            max_rounds=1,
            backend="levels",
            input_index=2,
            model="t_resilient(0)",
            mutation=(0, 0),
        )
        rebuilt = conformance_scenario_from_spec(scenario.to_spec())
        assert rebuilt == scenario
        assert rebuilt.name == scenario.name

    def test_mc_scenario_dispatch(self):
        """repro mc --replay reaches conformance scenarios via the shared
        scenario_from_spec dispatcher."""
        scenario = ConformanceScenario(
            task_name="consensus", task_args=(2,), model="t_resilient(0)"
        )
        rebuilt = scenario_from_spec(scenario.to_spec())
        assert isinstance(rebuilt, ConformanceScenario)
        assert rebuilt.model == "t_resilient(0)"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ConformanceScenario(task_name="consensus", task_args=(2,), backend="smoke")


class TestConformanceProperty:
    def test_sentinel_decision_on_admitted_view_is_flagged(self):
        """A witness with one admitted view deleted must trip the property:
        the map owes an answer wherever the model admits the run."""
        from dataclasses import dataclass

        from repro.core.protocol_synthesis import SynthesizedProtocol
        from repro.mc.explorer import ExploreOptions, explore
        from repro.mc.scenario import ScenarioInstance
        from repro.runtime.scheduler import Scheduler

        bundle = solved_bundle("consensus", (2,), 1, "t_resilient(0)")
        full = {
            v: img.payload for v, img in bundle.result.decision_map.as_dict().items()
        }
        victim = sorted(full, key=lambda v: v.sort_key())[0]
        partial = {v: payload for v, payload in full.items() if v != victim}

        @dataclass
        class PartialScenario:
            inputs: dict
            name: str = "partial-witness"

            def build(self):
                # Decision-pair contract: each process decides
                # (final_view, value); the context is the input assignment.
                protocol = SynthesizedProtocol(
                    bundle.result,
                    "iis",
                    n_processes=bundle.n_processes,
                    decisions=partial,
                    expose_views=True,
                    on_missing_view="sentinel",
                )
                scheduler = Scheduler(
                    protocol.factories(self.inputs),
                    bundle.n_processes,
                    record_events=True,
                    track_history=True,
                )
                return ScenarioInstance(scheduler, self.inputs)

            def properties(self):
                return (
                    ConformanceProperty(
                        bundle.task,
                        bundle.model,
                        bundle.rounds,
                        bundle.sds_vertices,
                        bundle.restricted_complex,
                    ),
                )

        # The deleted view is realized on exactly one input top's admitted
        # runs; sweeping every top must surface it there and nowhere else
        # crash — the property stays silent off-contract.
        violations = []
        for index in range(len(bundle.input_tops)):
            scenario = PartialScenario(inputs=bundle.inputs_for(index))
            report = explore(scenario, ExploreOptions(max_depth=100))
            violations.extend(report.violations)
        assert violations, "deleting an admitted-view entry went unnoticed"
        assert any("undefined" in v.message for v in violations)

    def test_out_of_contract_runs_are_not_judged(self):
        """Under t_resilient(0) with crash injection, crashed runs fall
        outside the model's contract — the property must stay silent there
        (the PASS above already implies it; this pins the mechanism)."""
        from repro.mc.explorer import CrashBudget, ExploreOptions, explore

        scenario = ConformanceScenario(
            task_name="consensus", task_args=(2,), model="t_resilient(0)"
        )
        report = explore(
            scenario,
            ExploreOptions(crash_budget=CrashBudget(max_crashes=1), max_depth=200),
            properties=scenario.properties(),
        )
        assert report.ok
        # Crashed outcomes were genuinely explored, not skipped.
        assert any(crashed for _decisions, crashed in report.outcomes)
