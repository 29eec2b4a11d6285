"""Generated instances: construction guarantees and seed determinism."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import generators_reference as reference
from adpbound import (
    STRING_KINDS,
    GeneratedInstanceSpec,
    check_diminishing_return,
    check_prefix_monotone,
    forward_curvature_sigma,
    generate_mdp_instances,
    generate_string_instances,
    greedy_guarantee_report,
    greedy_string,
)

TABLE_KINDS = ("random_monotone_marginals", "random_string_fn")


def spec(kind, **kwargs):
    defaults = dict(count=5, seed=314, ground_size=3, horizon=3)
    defaults.update(kwargs)
    return GeneratedInstanceSpec(kind=kind, **defaults)


class TestCoverageInstances:
    def test_diminishing_return_and_flat_forward_curvature(self):
        for f in generate_string_instances(spec("coverage_submodular")):
            assert check_prefix_monotone(f, f.horizon)[0]
            assert check_diminishing_return(f, f.horizon)[0]
            trace = greedy_string(f, f.horizon)
            sigma, _ = forward_curvature_sigma(f, trace, f.horizon)
            assert abs(sigma) <= 1e-12

    def test_order_free(self):
        f = generate_string_instances(spec("coverage_submodular", count=1))[0]
        for string in itertools.product(range(3), repeat=3):
            assert f.evaluate(string) == f.evaluate(tuple(reversed(string)))


class TestMonotoneMarginalInstances:
    def test_prefix_monotone(self):
        for f in generate_string_instances(spec("random_monotone_marginals")):
            assert check_prefix_monotone(f, f.horizon)[0]

    def test_rejects_overlong_queries(self):
        f = generate_string_instances(spec("random_monotone_marginals", count=1))[0]
        with pytest.raises(ValueError):
            f.evaluate((0,) * (f.horizon + 1))


class TestTableLookup:
    def test_rejects_overlong_queries(self):
        f = generate_string_instances(spec("random_string_fn", count=1))[0]
        with pytest.raises(ValueError):
            f.evaluate((0,) * (f.horizon + 1))

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @pytest.mark.parametrize("string", [(-1,), (0, -3), (3,), (1, 2, 7)])
    def test_rejects_actions_outside_the_ground_set(self, kind, string):
        # NumPy would wrap -1 to the last action; the lookup must refuse it.
        f = generate_string_instances(spec(kind, count=1))[0]
        with pytest.raises(ValueError):
            f.evaluate(string)

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_report_beyond_the_horizon_is_refused(self, kind):
        f = generate_string_instances(spec(kind, count=1))[0]
        with pytest.raises(ValueError):
            greedy_guarantee_report(f, f.horizon + 1)


class TestUnconstrainedInstances:
    def test_nonnegative_values(self):
        for f in generate_string_instances(spec("random_string_fn", count=3)):
            for string in itertools.product(range(3), repeat=2):
                assert f.evaluate(string) >= 0.0

    def test_eventually_nonmonotone(self):
        instances = generate_string_instances(spec("random_string_fn", count=10))
        assert any(not check_prefix_monotone(f, f.horizon)[0] for f in instances)


def _values(f, ground, horizon):
    # f on every string of length 0..horizon, shortest first, lexicographic within a length.
    return [
        f.evaluate(string)
        for length in range(horizon + 1)
        for string in itertools.product(range(ground), repeat=length)
    ]


class TestAgainstDictReference:
    @pytest.mark.parametrize("kind", STRING_KINDS)
    def test_every_value_matches(self, kind):
        for ground, horizon, seed in itertools.product(range(1, 8), range(1, 6), (0, 9, 2024)):
            s = spec(kind, count=1, seed=seed, ground_size=ground, horizon=horizon)
            (f,) = generate_string_instances(s)
            (ref,) = reference.string_instances(s)
            values = _values(f, ground, horizon)
            assert values == _values(ref, ground, horizon), (ground, horizon, seed)
            if kind in TABLE_KINDS:
                levels = [value for level in f.tables for value in level.ravel().tolist()]
                assert levels == values

    def test_hash_of_every_value_is_unchanged(self):
        # 984 objectives: per kind, 20 at every ground 1-4 and K 1-4, and 8 at
        # the benchmark's ground 7 and K=5.  The digest was taken from the
        # dict-table generators.
        digest = hashlib.sha256()
        objectives = 0
        for k, kind in enumerate(STRING_KINDS):
            shapes = [(g, K, 20) for g in range(1, 5) for K in range(1, 5)] + [(7, 5, 8)]
            for ground, horizon, count in shapes:
                s = spec(kind, count=count, seed=1000 * k + 10 * ground + horizon,
                         ground_size=ground, horizon=horizon)
                for f in generate_string_instances(s):
                    objectives += 1
                    values = _values(f, ground, horizon)
                    digest.update(np.array(values, dtype="<f8").tobytes())
        assert objectives == 984
        assert digest.hexdigest() == (
            "453982db91c54759d7b452c5c59abdac419db2c13f3cc1bc98e4ab153000f9cf"
        )


class TestDeterminism:
    def test_same_seed_same_string_values(self):
        a = generate_string_instances(spec("random_monotone_marginals"))
        b = generate_string_instances(spec("random_monotone_marginals"))
        for fa, fb in zip(a, b):
            for string in itertools.product(range(3), repeat=3):
                assert fa.evaluate(string) == fb.evaluate(string)

    def test_different_indices_differ(self):
        a, b = generate_string_instances(spec("coverage_submodular", count=2))
        values_a = [a.evaluate(s) for s in itertools.product(range(3), repeat=2)]
        values_b = [b.evaluate(s) for s in itertools.product(range(3), repeat=2)]
        assert values_a != values_b

    def test_same_seed_same_models(self):
        mspec = GeneratedInstanceSpec(kind="random_mdp", count=3, seed=99)
        first = generate_mdp_instances(mspec)
        second = generate_mdp_instances(mspec)
        for a, b in zip(first, second):
            assert np.array_equal(a.transition, b.transition)
            assert np.array_equal(a.reward, b.reward)
            assert np.array_equal(a.noise_probs, b.noise_probs)
            assert a.initial_state == b.initial_state


class TestGeneratedModels:
    def test_models_pass_validation_and_carry_features(self):
        mspec = GeneratedInstanceSpec(
            kind="random_mdp", count=8, seed=4, num_states=3, num_actions=2, noise_size=2
        )
        for model in generate_mdp_instances(mspec):
            assert model.features is not None
            assert abs(float(np.sum(model.noise_probs)) - 1.0) <= 1e-12
            assert float(np.min(model.reward)) >= 0.0

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_mdp_instances(spec("coverage_submodular"))
        with pytest.raises(ValueError):
            generate_string_instances(GeneratedInstanceSpec(kind="random_mdp", count=1, seed=0))
