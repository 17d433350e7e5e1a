"""SchedulerSpec validation, exchangeability, and the degradation ladder."""

import pytest

from repro.errors import ExperimentError
from repro.orchestration.spec import TrialSpec, trial_specs
from repro.schedulers.spec import (
    FAMILIES,
    GRAPH_FAMILIES,
    SchedulerSpec,
    resolve_schedule_engine,
)


class TestCreateValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scheduler family"):
            SchedulerSpec.create("star")

    def test_foreign_parameter_rejected_per_family(self):
        with pytest.raises(ExperimentError, match="takes no 'degree'"):
            SchedulerSpec.create("ring", degree=4)
        with pytest.raises(ExperimentError, match="takes no 'weights'"):
            SchedulerSpec.create("torus", weights={"L": 2.0})

    def test_weighted_needs_positive_finite_weights(self):
        with pytest.raises(ExperimentError, match="non-empty weights"):
            SchedulerSpec.create("weighted")
        with pytest.raises(ExperimentError, match="positive and finite"):
            SchedulerSpec.create("weighted", weights={"L": 0.0})
        with pytest.raises(ExperimentError, match="positive and finite"):
            SchedulerSpec.create("weighted", weights={"L": float("inf")})

    def test_regular_degree_must_be_even(self):
        with pytest.raises(ExperimentError, match="even"):
            SchedulerSpec.create("regular", degree=3)

    def test_single_clique_takes_no_bridges(self):
        with pytest.raises(ExperimentError, match="complete graph"):
            SchedulerSpec.create("cliques", cliques=1, bridges=2)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ExperimentError, match="unknown scheduler spec"):
            SchedulerSpec.from_mapping({"family": "ring", "radius": 2})

    def test_coerce_passes_none_and_specs_through(self):
        spec = SchedulerSpec.create("ring")
        assert SchedulerSpec.coerce(None) is None
        assert SchedulerSpec.coerce(spec) is spec
        assert SchedulerSpec.coerce({"family": "ring"}) == spec


class TestValidateAgainst:
    def test_square_torus_needs_a_perfect_square(self):
        torus = SchedulerSpec.create("torus")
        torus.validate_against(64)
        with pytest.raises(ExperimentError, match="perfect-square"):
            torus.validate_against(60)

    def test_explicit_rows_must_divide_n(self):
        torus = SchedulerSpec.create("torus", rows=4)
        torus.validate_against(32)
        with pytest.raises(ExperimentError, match="torus"):
            torus.validate_against(30)

    def test_regular_degree_needs_enough_agents(self):
        with pytest.raises(ExperimentError, match="degree 8"):
            SchedulerSpec.create("regular", degree=8).validate_against(8)

    def test_cliques_must_split_evenly(self):
        spec = SchedulerSpec.create("cliques", cliques=4, bridges=4)
        spec.validate_against(64)
        with pytest.raises(ExperimentError, match="does not split"):
            spec.validate_against(30)


class TestExchangeability:
    def test_every_family_is_classified(self):
        for family in ("uniform", "weighted"):
            assert SchedulerSpec(family=family).exchangeable
        for family in GRAPH_FAMILIES:
            assert not SchedulerSpec(family=family).exchangeable
        assert set(GRAPH_FAMILIES) < set(FAMILIES)

    def test_canonical_omits_default_fields(self):
        # regular with graph_seed=0 and with the field absent are the
        # same spec, so they must canonicalize (and hash) identically.
        explicit = SchedulerSpec.create("regular", degree=4, graph_seed=0)
        implicit = SchedulerSpec.create("regular", degree=4)
        assert explicit == implicit
        assert explicit.canonical() == {"family": "regular", "degree": 4}

    def test_describe_labels(self):
        assert SchedulerSpec.create("ring").describe() == "ring"
        assert (
            SchedulerSpec.create("weighted", weights={"L": 4.0}).describe()
            == "weighted(L=4)"
        )
        assert (
            SchedulerSpec.create("cliques", cliques=4, bridges=4).describe()
            == "cliques(4,b=4)"
        )


class TestDegradationLadder:
    def test_exchangeable_specs_keep_the_resolved_engine(self):
        weighted = SchedulerSpec.create("weighted", weights={"L": 2.0})
        for engine in ("multiset", "superbatch"):
            assert resolve_schedule_engine(weighted, engine) == engine
        assert resolve_schedule_engine(None, "superbatch") == "superbatch"

    def test_graph_specs_degrade_to_agent(self):
        ring = SchedulerSpec.create("ring")
        for engine in ("multiset", "superbatch", "ensemble"):
            assert resolve_schedule_engine(ring, engine) == "agent"

    def test_auto_trial_specs_ride_the_ladder(self):
        (spec,) = trial_specs(
            "fast-nonce",
            64,
            1,
            engine="auto",
            params={"bits": 48},
            scheduler={"family": "ring"},
        )
        assert spec.engine == "agent"
        (weighted,) = trial_specs(
            "pll",
            64,
            1,
            engine="auto",
            scheduler={"family": "weighted", "weights": {"L": 2.0}},
        )
        assert weighted.engine != "agent"

    def test_count_level_engine_with_graph_spec_rejected(self):
        # Asking for a count-level engine by name with an
        # identity-dependent schedule is a contradiction, not a silent
        # degradation.
        with pytest.raises(ExperimentError, match="agent"):
            TrialSpec.create(
                "pll", 64, 0, engine="multiset", scheduler={"family": "ring"}
            )

    def test_partition_fault_with_scheduler_rejected(self):
        with pytest.raises(ExperimentError, match="partition"):
            TrialSpec.create(
                "pll",
                64,
                0,
                engine="multiset",
                scheduler={"family": "weighted", "weights": {"L": 2.0}},
                fault_plan=[
                    {
                        "kind": "partition",
                        "at_step": 32,
                        "count": 4,
                        "duration": 50,
                    }
                ],
            )
