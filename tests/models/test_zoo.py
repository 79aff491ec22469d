"""Model zoo unit semantics + known-answer solvability facts.

The known answers are the load-bearing part: models must *change verdicts*
in the documented direction (consensus becomes solvable under synchrony or
sequential scheduling; k-set consensus becomes solvable given k-set
consensus power), and degenerate parameters must restrict nothing.
"""

import pickle

import pytest

from repro.core.solvability import SolvabilityStatus, solve_task
from repro.models import (
    IIS_MODEL,
    Adversary,
    KConcurrent,
    KSetConsensus,
    Model,
    ModelRestrictionEmpty,
    TResilient,
    admits_run,
    model_registry,
    parse_model,
    resolve_model,
)
from repro.runtime.adversary import AdversarySpec
from repro.tasks import binary_consensus_task, set_consensus_task


class TestModelIdentity:
    def test_fingerprints_and_slugs(self):
        assert IIS_MODEL.fingerprint == "iis"
        assert TResilient(1).fingerprint == "t_resilient(1)"
        assert TResilient(1).slug == "t_resilient-1"
        assert Adversary(3, 5).fingerprint == "adversary(3,5)"
        assert Adversary(3, 5).slug == "adversary-3-5"

    def test_equality_and_hash_are_value_based(self):
        assert TResilient(1) == TResilient(1)
        assert hash(TResilient(1)) == hash(TResilient(1))
        assert TResilient(1) != TResilient(2)
        assert TResilient(1) != KConcurrent(1)

    def test_models_pickle_roundtrip(self):
        for model in (IIS_MODEL, TResilient(2), KConcurrent(1), Adversary(3, 5)):
            clone = pickle.loads(pickle.dumps(model))
            assert clone == model
            assert clone.fingerprint == model.fingerprint

    def test_adversary_canonicalizes_through_spec(self):
        assert Adversary(5, 3, 3).args == (3, 5)
        assert Adversary.from_spec(AdversarySpec.wait_free(3)).args == (1, 2, 4)

    def test_base_keep_round_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Model().keep_round(((0,),))


class TestResolveAndParse:
    def test_registry_lists_all_five_families(self):
        assert sorted(model_registry()) == [
            "adversary",
            "iis",
            "k_concurrent",
            "k_set_consensus",
            "t_resilient",
        ]

    def test_resolve_checks_names_arity_and_bounds(self):
        assert resolve_model("iis") == IIS_MODEL
        assert resolve_model("t_resilient", (1,)) == TResilient(1)
        with pytest.raises(ValueError, match="unknown model"):
            resolve_model("byzantine")
        with pytest.raises(ValueError, match="argument"):
            resolve_model("t_resilient", ())
        with pytest.raises(ValueError, match="at least one"):
            resolve_model("adversary", ())
        with pytest.raises(ValueError):
            resolve_model("k_concurrent", (0,))
        with pytest.raises(ValueError):
            resolve_model("t_resilient", (65,))

    def test_parse_accepts_both_spellings(self):
        assert parse_model("iis") == IIS_MODEL
        assert parse_model("t_resilient:1") == TResilient(1)
        assert parse_model("t_resilient(1)") == TResilient(1)
        assert parse_model("adversary(3, 5)") == Adversary(3, 5)
        with pytest.raises(ValueError, match="integers"):
            parse_model("t_resilient:x")


class TestAdmitsRun:
    """The block-structure predicates on hand-written executions."""

    SEQUENTIAL = [[(0,), (1,), (2,)]]  # one round, fully sequential
    SIMULTANEOUS = [[(0, 1, 2)]]  # one round, all together

    def test_iis_admits_everything(self):
        assert admits_run(IIS_MODEL, self.SEQUENTIAL)
        assert admits_run(IIS_MODEL, self.SIMULTANEOUS)

    def test_t_resilient_counts_the_laggards(self):
        assert admits_run(TResilient(0), self.SIMULTANEOUS)
        assert not admits_run(TResilient(0), self.SEQUENTIAL)
        assert admits_run(TResilient(2), self.SEQUENTIAL)
        # participation: with t=0 everyone must show up
        assert not admits_run(
            TResilient(0), self.SIMULTANEOUS, participants=(0, 1, 2), n_colors=4
        )

    def test_k_concurrent_bounds_block_size(self):
        assert admits_run(KConcurrent(1), self.SEQUENTIAL)
        assert not admits_run(KConcurrent(1), self.SIMULTANEOUS)
        assert admits_run(KConcurrent(3), self.SIMULTANEOUS)

    def test_k_set_consensus_bounds_block_count(self):
        assert admits_run(KSetConsensus(1), self.SIMULTANEOUS)
        assert not admits_run(KSetConsensus(2), self.SEQUENTIAL)
        assert admits_run(KSetConsensus(3), self.SEQUENTIAL)

    def test_adversary_needs_a_live_set_in_the_first_block(self):
        fault_free = Adversary(0b111)
        assert admits_run(fault_free, self.SIMULTANEOUS)
        assert not admits_run(fault_free, self.SEQUENTIAL)
        wait_free = Adversary(1, 2, 4)
        assert admits_run(wait_free, self.SEQUENTIAL)
        assert admits_run(wait_free, self.SIMULTANEOUS)


class TestKnownAnswers:
    """Documented verdict flips, through the real solver."""

    def test_consensus_unsolvable_in_full_iis(self):
        result = solve_task(binary_consensus_task(2), 2)
        assert result.status is SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND

    def test_consensus_solvable_when_synchronous(self):
        result = solve_task(
            binary_consensus_task(2), 2, model=resolve_model("t_resilient", (0,))
        )
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 1

    def test_consensus_solvable_when_sequential(self):
        result = solve_task(
            binary_consensus_task(2), 2, model=resolve_model("k_concurrent", (1,))
        )
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 1

    def test_consensus_solvable_under_fault_free_adversary(self):
        result = solve_task(binary_consensus_task(2), 2, model=Adversary(0b11))
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 1

    def test_set_consensus_solvable_given_k_set_consensus_power(self):
        task = set_consensus_task(3, 2)
        assert (
            solve_task(task, 1).status is SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND
        )
        result = solve_task(task, 1, model=KSetConsensus(2))
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 1

    def test_solvable_verdicts_carry_validated_maps(self):
        result = solve_task(
            binary_consensus_task(2), 1, model=resolve_model("t_resilient", (0,))
        )
        assert result.decision_map is not None  # validate_decision_map ran

    def test_t_resilient_is_a_per_round_filter_not_classical_resilience(self):
        """Three-process consensus is impossible 1-resiliently (FLP), yet
        t_resilient(1) admits a validated 2-round map: the filter forces a
        synchronous core of two processes into every round."""
        from repro.core.solvability import validate_decision_map
        from repro.models.reference import restrict_subdivision
        from repro.topology.standard_chromatic import (
            iterated_standard_chromatic_subdivision,
        )

        task = set_consensus_task(3, 1)
        model = resolve_model("t_resilient", (1,))
        result = solve_task(task, 2, model=model)
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 2
        subdivision = restrict_subdivision(
            iterated_standard_chromatic_subdivision(task.input_complex, 2), 2, model
        )
        validate_decision_map(subdivision, task, result.decision_map)

    def test_empty_restriction_raises_not_vacuously_solves(self):
        # Live set {2} names a color the 2-process base never has.
        with pytest.raises(ModelRestrictionEmpty):
            solve_task(binary_consensus_task(2), 1, model=Adversary(0b100))


class TestIdentityNoOp:
    """model="iis" must be bit-identical to not passing a model."""

    @pytest.mark.parametrize(
        "task,max_rounds",
        [
            (binary_consensus_task(2), 2),
            (set_consensus_task(3, 2), 1),
        ],
    )
    def test_verdicts_maps_and_stats_match(self, task, max_rounds):
        plain = solve_task(task, max_rounds)
        tagged = solve_task(task, max_rounds, model=IIS_MODEL)
        assert tagged.status == plain.status
        assert tagged.rounds == plain.rounds
        assert [
            (l.rounds, l.satisfiable, l.nodes_explored, l.vertices, l.conflicts,
             l.backjumps, l.exhausted)
            for l in tagged.levels
        ] == [
            (l.rounds, l.satisfiable, l.nodes_explored, l.vertices, l.conflicts,
             l.backjumps, l.exhausted)
            for l in plain.levels
        ]
        if plain.decision_map is not None:
            assert tagged.decision_map.as_dict() == plain.decision_map.as_dict()
