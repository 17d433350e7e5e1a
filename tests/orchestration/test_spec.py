"""Tests for repro.orchestration.spec (TrialSpec / CampaignSpec hashing)."""

import pytest

from repro.errors import ExperimentError
from repro.orchestration.registry import register_protocol
from repro.orchestration.spec import (
    AUTO_ENGINE,
    MAX_POPULATION,
    SUPERBATCH_ENGINE_MIN_N,
    ENGINES,
    CampaignSpec,
    TrialSpec,
    default_engine,
    trial_specs,
)
from repro.protocols.angluin import AngluinProtocol


@register_protocol("_test-two-params")
def _two_params(n, alpha=1, beta=2):
    return AngluinProtocol()


def spec(**overrides):
    base = dict(protocol="angluin", n=8, seed=0)
    base.update(overrides)
    return TrialSpec.create(**base)


class TestTrialSpec:
    def test_params_order_is_canonicalized(self):
        a = TrialSpec.create(
            "_test-two-params", 8, 0, params={"alpha": 5, "beta": 7}
        )
        b = TrialSpec.create(
            "_test-two-params", 8, 0, params={"beta": 7, "alpha": 5}
        )
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_default_params_normalize_away(self):
        # ("pll", {"variant": "full"}) builds the same protocol as
        # ("pll", {}), so they must share one store row.
        explicit = TrialSpec.create("pll", 64, 0, params={"variant": "full"})
        implicit = TrialSpec.create("pll", 64, 0)
        assert explicit == implicit
        assert explicit.content_hash() == implicit.content_hash()

    def test_non_default_params_feed_the_hash(self):
        full = TrialSpec.create("pll", 64, 0)
        ablated = TrialSpec.create(
            "pll", 64, 0, params={"variant": "backup-only"}
        )
        assert full.content_hash() != ablated.content_hash()

    def test_unknown_param_rejected_at_creation(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            TrialSpec.create("pll", 64, 0, params={"varaint": "full"})

    @pytest.mark.parametrize(
        "change",
        [
            {"protocol": "pll"},
            {"n": 16},
            {"seed": 1},
            {"engine": "multiset"},
            {"max_steps": 100},
        ],
    )
    def test_every_identity_field_feeds_the_hash(self, change):
        assert spec().content_hash() != spec(**change).content_hash()

    def test_hash_is_stable_across_releases(self):
        # Golden value: the store keys persisted trials by this digest, so
        # changing the canonical form silently orphans every existing
        # store.  Bump SPEC_VERSION (and this value) instead.
        assert spec().content_hash() == (
            "baccafe10c963880c113d5ccfded1205e2a39a939cf20ecb0b15a25b4c80b918"
        )

    def test_json_roundtrip(self):
        original = TrialSpec.create(
            "pll", 128, 7, engine="multiset",
            params={"variant": "no-tournament"}, max_steps=5000,
        )
        restored = TrialSpec.from_json(original.to_json())
        assert restored == original
        assert restored.content_hash() == original.content_hash()

    def test_build_protocol_uses_registry(self):
        protocol = spec().build_protocol()
        assert protocol.initial_state() is not None

    def test_rejects_tiny_population(self):
        with pytest.raises(ExperimentError):
            spec(n=1)

    def test_rejects_populations_numpy_cannot_sample(self):
        # numpy's hypergeometric samplers reject populations >= 10^9.
        assert MAX_POPULATION == 10**9
        for engine in ENGINES:
            with pytest.raises(ExperimentError, match="hypergeometric"):
                spec(n=2 * 10**9, engine=engine)
        with pytest.raises(ExperimentError, match="hypergeometric"):
            spec(n=MAX_POPULATION)

    def test_accepts_the_largest_sampleable_population(self):
        assert spec(n=10**9 - 1, engine="superbatch").n == 10**9 - 1

    def test_rejects_unknown_engine(self):
        with pytest.raises(ExperimentError):
            spec(engine="quantum")

    def test_rejects_unknown_detector(self):
        with pytest.raises(ExperimentError):
            spec(detector="oracle")

    def test_rejects_bad_max_steps(self):
        with pytest.raises(ExperimentError):
            spec(max_steps=0)

    def test_rejects_unserializable_params(self):
        with pytest.raises(ExperimentError, match="JSON"):
            spec(protocol="_test-two-params", params={"alpha": object()})


class TestTrialSpecs:
    def test_sequential_seed_derivation(self):
        specs = trial_specs("angluin", 8, trials=3, base_seed=7)
        assert [s.seed for s in specs] == [7, 8, 9]

    def test_rejects_zero_trials(self):
        with pytest.raises(ExperimentError):
            trial_specs("angluin", 8, trials=0)

    @pytest.mark.parametrize("make", [
        lambda: spec(engine="batch"),
        lambda: trial_specs("angluin", 8, trials=1, engine="batch"),
        lambda: CampaignSpec.from_grid("c", "angluin", [8], 1, engine="batch"),
    ])
    def test_retired_batch_engine_is_refused_at_creation(self, make):
        assert "batch" not in ENGINES
        with pytest.raises(ExperimentError, match="retired") as info:
            make()
        assert "'multiset'" in str(info.value)
        assert "'superbatch'" in str(info.value)


class TestAutoEngine:
    def test_default_engine_crossover(self):
        assert default_engine(SUPERBATCH_ENGINE_MIN_N - 1) == "multiset"
        assert default_engine(SUPERBATCH_ENGINE_MIN_N) == "superbatch"

    def test_crossover_is_the_measured_constant(self):
        assert SUPERBATCH_ENGINE_MIN_N == 1 << 18
        resolved = [
            default_engine(n)
            for n in (2, (1 << 18) - 1, 1 << 18, 10**6, 10**8)
        ]
        assert resolved == [
            "multiset", "multiset", "superbatch", "superbatch", "superbatch"
        ]

    def test_default_engine_resolves_two_regimes(self):
        # The resolution outside [2^16, 10^6) is what it was with the
        # retired middle regime, so those specs keep their hashes.
        for n in (2, 64, 2048, (1 << 16) - 1):
            assert default_engine(n) == "multiset"
        for n in (10**6, 1 << 20, 10**8):
            assert default_engine(n) == "superbatch"
        assert {
            default_engine(n) for n in range(1 << 16, 10**6, 997)
        } == {"multiset", "superbatch"}

    #: ``auto`` PLL specs (seed 0) and their content hashes while the
    #: batch engine held the middle regime [2^16, 10^6).
    THREE_REGIME_HASHES = {
        (1 << 16) - 1: "ab8b3272d896b640a2a8ab5855027f69fbd45af1af3a9f64bf689d4e75a3fa7b",
        1 << 16: "be6b3b50487aa5e9d81a88a26a5c14f87822fc6a48d4eff5dadbc078984d2f88",
        1 << 18: "00f46f3a5209314fa72409d351d0f24f397a7c3e6768207e61966ff5838039bf",
        10**6 - 1: "9e303e1e195ed2cf34c9c8d6900e9961137580407e3e031d0b44d382311b3b17",
        10**6: "de168ad1a1d9dd51aa3370fd7a9597a13d37124350fdaa4971702bf6b90370cf",
    }

    @pytest.mark.parametrize("n", [(1 << 16) - 1, 10**6])
    def test_auto_hashes_outside_the_retired_regime_are_unchanged(self, n):
        (auto,) = trial_specs("pll", n, trials=1, engine=AUTO_ENGINE)
        assert auto.content_hash() == self.THREE_REGIME_HASHES[n]

    @pytest.mark.parametrize("n", [1 << 16, 1 << 18, 10**6 - 1])
    def test_auto_specs_in_the_retired_regime_rehash_once(self, n):
        # These cells recompute once, under the engine auto now picks;
        # their old rows keep the batch hash they were stored under.
        (auto,) = trial_specs("pll", n, trials=1, engine=AUTO_ENGINE)
        assert auto.content_hash() != self.THREE_REGIME_HASHES[n]
        assert auto.content_hash() == spec(
            protocol="pll", n=n, engine=default_engine(n)
        ).content_hash()
        assert TrialSpec("pll", n, 0, engine="batch").content_hash() == (
            self.THREE_REGIME_HASHES[n]
        )

    def test_auto_resolves_superbatch_specs_per_n(self):
        specs = trial_specs(
            "angluin", SUPERBATCH_ENGINE_MIN_N, trials=1, engine=AUTO_ENGINE
        )
        assert [s.engine for s in specs] == ["superbatch"]
        explicit = trial_specs(
            "angluin", SUPERBATCH_ENGINE_MIN_N, trials=1, engine="superbatch"
        )
        assert specs[0].content_hash() == explicit[0].content_hash()

    def test_auto_resolves_per_population_size(self):
        small = trial_specs("angluin", 64, trials=1, engine=AUTO_ENGINE)
        large = trial_specs(
            "angluin", SUPERBATCH_ENGINE_MIN_N, trials=1, engine=AUTO_ENGINE
        )
        assert [s.engine for s in small] == ["multiset"]
        assert [s.engine for s in large] == ["superbatch"]

    def test_auto_hashes_match_the_resolved_engine(self):
        # 'auto' is sugar, not identity: specs resolved from it must share
        # store rows with explicitly named engines.
        auto = trial_specs("angluin", 64, trials=1, engine=AUTO_ENGINE)[0]
        explicit = trial_specs("angluin", 64, trials=1, engine="multiset")[0]
        assert auto.content_hash() == explicit.content_hash()

    def test_auto_never_depends_on_the_trial_count(self):
        # Cross-campaign row sharing: the same (protocol, n, seed) data
        # point must hash identically whether it came from a 2-trial or a
        # 200-trial campaign.
        shallow = trial_specs("angluin", 64, trials=2, engine=AUTO_ENGINE)
        deep = trial_specs("angluin", 64, trials=200, engine=AUTO_ENGINE)
        assert shallow[0].content_hash() == deep[0].content_hash()

    def test_auto_is_not_a_valid_spec_engine(self):
        # Content hashes must always name a concrete engine.
        with pytest.raises(ExperimentError):
            spec(engine=AUTO_ENGINE)

    def test_from_grid_resolves_auto_per_n(self):
        campaign = CampaignSpec.from_grid(
            "c", "angluin", [64, SUPERBATCH_ENGINE_MIN_N], trials=1,
            engine=AUTO_ENGINE,
        )
        engines = {s.n: s.engine for s in campaign.trials}
        assert engines == {64: "multiset", SUPERBATCH_ENGINE_MIN_N: "superbatch"}

    def test_ensemble_resolves_to_multiset_specs(self):
        # 'ensemble' is an execution strategy: lanes are bit-identical to
        # solo multiset runs, so specs (and store rows) are multiset's.
        packed = trial_specs("angluin", 64, trials=2, engine="ensemble")
        solo = trial_specs("angluin", 64, trials=2, engine="multiset")
        assert [s.content_hash() for s in packed] == [
            s.content_hash() for s in solo
        ]

    def test_ensemble_is_not_a_valid_spec_engine(self):
        with pytest.raises(ExperimentError):
            spec(engine="ensemble")


class TestCampaignSpec:
    def test_from_grid_covers_the_full_grid(self):
        campaign = CampaignSpec.from_grid("c", "angluin", [8, 16], trials=3)
        assert len(campaign) == 6
        assert {s.n for s in campaign.trials} == {8, 16}

    def test_content_hash_is_order_insensitive(self):
        forward = CampaignSpec.from_grid("c", "angluin", [8, 16], trials=2)
        backward = CampaignSpec(
            name="c", trials=tuple(reversed(forward.trials))
        )
        assert forward.content_hash() == backward.content_hash()

    def test_rejects_duplicate_trials(self):
        single = trial_specs("angluin", 8, trials=1)
        with pytest.raises(ExperimentError):
            CampaignSpec(name="dup", trials=tuple(single * 2))

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(name="empty", trials=())

    def test_groups_by_protocol_params_n(self):
        campaign = CampaignSpec.from_grid("c", "angluin", [8, 16], trials=2)
        groups = campaign.groups()
        assert [key[2] for key, _specs in groups] == [8, 16]
        assert all(len(specs) == 2 for _key, specs in groups)
