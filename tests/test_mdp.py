"""Model validation, exact evaluation, backward induction, and file round trips.

Backward induction, policy values and rollout continuations all come from
one backward recursion; each is checked against the path-enumeration oracle
in ``mdp_reference``, over an inline exhaustive enumeration of policy strings
written independently of the library's own ground-set helpers.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpbound import (
    BudgetExceededError,
    GeneratedInstanceSpec,
    MdpModel,
    ModelFormatError,
    backward_values,
    bellman_solve,
    enumerate_noise_paths,
    evaluate_policy_exact,
    exact_evtg_w,
    generate_mdp_instances,
    load_model,
    model_from_dict,
    model_to_dict,
    rollout_w,
    save_model,
    scheme_policy,
    simulate_policy_mc,
)
from adpbound.common import values_agree
from conftest import chain_model, noisy_chain_model, zero_reward_model
from mdp_reference import path_exact_evtg, path_policy_value

STAY_EVERYWHERE = ((0, 0), (0, 0))
GO_EVERYWHERE = ((1, 1), (1, 1))


def brute_force_optimum(model) -> float:
    """Independent oracle: enumerate every policy string of full length, path by path."""
    stage_policies = list(itertools.product(range(model.num_actions), repeat=model.num_states))
    best = -float("inf")
    for string in itertools.product(stage_policies, repeat=model.horizon):
        best = max(best, path_policy_value(model, string))
    return best


class TestModelValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MdpModel(2, 2, 2, 0, [0.5, 0.6], [[[0, 0], [1, 1]], [[1, 1], [1, 1]]],
                     [[1.0, 0.0], [5.0, 5.0]])

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            MdpModel(2, 2, 2, 0, [1.0, 0.0], [[[0, 0], [1, 1]], [[1, 1], [1, 1]]],
                     [[1.0, 0.0], [5.0, 5.0]])

    def test_transition_targets_in_range(self):
        with pytest.raises(ValueError):
            MdpModel(2, 2, 2, 0, [1.0], [[[0], [5]], [[1], [1]]], [[1.0, 0.0], [5.0, 5.0]])

    def test_rewards_nonnegative(self):
        with pytest.raises(ValueError):
            MdpModel(2, 2, 2, 0, [1.0], [[[0], [1]], [[1], [1]]], [[1.0, -0.1], [5.0, 5.0]])

    def test_tables_are_frozen(self, m_chain):
        with pytest.raises(ValueError):
            m_chain.reward[0, 0] = 9.0


class TestNoisePaths:
    def test_uniform_two_symbol_paths(self, m_noise):
        paths = enumerate_noise_paths(m_noise, 2)
        assert len(paths) == 4
        assert all(p.probability == 0.25 for p in paths)
        assert [p.symbols for p in paths] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_deterministic_model_single_path(self, m_chain):
        paths = enumerate_noise_paths(m_chain, 3)
        assert len(paths) == 1
        assert paths[0].probability == 1.0

    def test_base_case(self):
        model = MdpModel(1, 1, 2, 0, [0.3, 0.7], [[[0, 0]]], [[1.0]])
        paths = enumerate_noise_paths(model, 1)
        assert [p.probability for p in paths] == [0.3, 0.7]

    def test_budget(self, m_noise):
        with pytest.raises(BudgetExceededError):
            enumerate_noise_paths(m_noise, 10, budget=100)


class TestPolicyEvaluation:
    def test_go_reaches_absorbing_reward(self, m_chain):
        assert evaluate_policy_exact(m_chain, GO_EVERYWHERE) == 5.0

    def test_stay_collects_small_reward(self, m_chain):
        assert evaluate_policy_exact(m_chain, STAY_EVERYWHERE) == 2.0

    def test_empty_policy(self, m_chain):
        assert evaluate_policy_exact(m_chain, ()) == 0.0

    def test_deterministic_special_case_matches_trajectory(self, m_chain):
        policy = ((1, 0), (0, 1))
        x, total = m_chain.initial_state, 0.0
        for i, stage in enumerate(policy):
            a = stage[x]
            total += float(m_chain.reward[x, a])
            if i < len(policy) - 1:
                x = int(m_chain.transition[x, a, 0])
        assert evaluate_policy_exact(m_chain, policy) == total

    def test_reward_scaling_linearity(self, m_noise):
        policy = ((1, 0), (0, 1))
        base = evaluate_policy_exact(m_noise, policy)
        import dataclasses

        doubled = dataclasses.replace(m_noise, reward=2.0 * np.asarray(m_noise.reward))
        assert evaluate_policy_exact(doubled, policy) == 2.0 * base
        scaled = dataclasses.replace(m_noise, reward=0.3 * np.asarray(m_noise.reward))
        assert evaluate_policy_exact(scaled, policy) == pytest.approx(0.3 * base, abs=1e-12)


class TestBellman:
    def test_chain_fixture(self, m_chain):
        policy, tables = bellman_solve(m_chain)
        assert tables.V[0, 0] == 5.0
        assert policy[0][0] == 1

    def test_zero_rewards_pick_first_action(self):
        policy, tables = bellman_solve(zero_reward_model())
        assert np.all(tables.V == 0.0)
        assert policy == ((0, 0), (0, 0))

    def test_single_stage_is_reward_argmax(self, m_chain):
        import dataclasses

        model = dataclasses.replace(m_chain, horizon=1)
        policy, tables = bellman_solve(model)
        assert policy == ((0, 0),)
        assert np.array_equal(tables.V[0], np.max(model.reward, axis=1))

    def test_terminal_stage_value_is_reward_max(self, m_noise):
        _, tables = bellman_solve(m_noise)
        assert np.array_equal(tables.V[-1], np.max(m_noise.reward, axis=1))

    def test_consistency_equations(self, m_noise):
        _, tables = bellman_solve(m_noise)
        K = m_noise.horizon
        for k in range(K):
            v_next = tables.V[k + 1] if k + 1 < K else np.zeros(m_noise.num_states)
            expected = m_noise.reward + v_next[m_noise.transition] @ m_noise.noise_probs
            assert np.allclose(tables.Q[k], expected, atol=1e-12)
            assert np.allclose(tables.V[k], expected.max(axis=1), atol=1e-12)

    def test_matches_exhaustive_policy_enumeration(self, m_chain, m_noise):
        for model in (m_chain, m_noise):
            _, tables = bellman_solve(model)
            assert abs(tables.V[0, model.initial_state] - brute_force_optimum(model)) <= 1e-12


class TestBackwardValues:
    def test_shapes_and_terminal_row(self, m_noise):
        V, C = backward_values(m_noise)
        assert V.shape == (3, 2) and C.shape == (2, 2, 2)
        assert np.all(V[-1] == 0.0) and np.all(C[-1] == 0.0)
        V, C = backward_values(m_noise, ((1, 1),))
        assert V.shape == (2, 2) and C.shape == (1, 2, 2)

    def test_bellman_q_is_reward_plus_continuation(self, m_noise):
        _, tables = bellman_solve(m_noise)
        V, C = backward_values(m_noise)
        assert np.array_equal(tables.Q, m_noise.reward + C)
        assert np.array_equal(tables.V, V[:-1])

    def test_rejects_invalid_policy(self, m_chain):
        with pytest.raises(ValueError):
            backward_values(m_chain, ((0, 2),))
        with pytest.raises(ValueError):
            backward_values(m_chain, ((0, 0),) * 3)


class TestExactEvtg:
    def test_go_then_anything(self, m_chain):
        assert path_exact_evtg(m_chain, (STAY_EVERYWHERE[0],), 1, 0, 1) == 5.0

    def test_stay_then_stay(self, m_chain):
        assert path_exact_evtg(m_chain, ((0, 0),), 1, 0, 0) == 1.0

    def test_terminal_stage_is_zero(self, m_chain):
        assert path_exact_evtg(m_chain, (), 2, 0, 1) == 0.0

    def test_rejects_wrong_tail_length(self, m_chain):
        with pytest.raises(ValueError):
            path_exact_evtg(m_chain, ((0, 0), (0, 0)), 2, 0, 0)

    def test_rollout_matches_reference_on_noisy_chain(self, m_noise):
        base = ((1, 0), (0, 1))
        w = rollout_w(m_noise, base)
        for stage, x, a in itertools.product((1, 2), range(2), range(2)):
            assert w.evaluate(stage, x, a) == path_exact_evtg(m_noise, base[stage:], stage, x, a)


@st.composite
def small_models(draw):
    S = draw(st.integers(1, 3))
    A = draw(st.integers(1, 3))
    N = draw(st.integers(1, 3))
    K = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=N, max_size=N)), dtype=float)
    transition = draw(st.lists(st.integers(0, S - 1), min_size=S * A * N, max_size=S * A * N))
    reward = draw(st.lists(st.floats(0.0, 10.0), min_size=S * A, max_size=S * A))
    model = MdpModel(
        num_states=S,
        num_actions=A,
        horizon=K,
        initial_state=draw(st.integers(0, S - 1)),
        noise_probs=weights / weights.sum(),
        transition=np.reshape(transition, (S, A, N)),
        reward=np.reshape(reward, (S, A)),
    )
    policy = tuple(
        tuple(draw(st.lists(st.integers(0, A - 1), min_size=S, max_size=S))) for _ in range(K)
    )
    return model, policy


@given(case=small_models())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_backward_values_match_path_oracle(case):
    model, policy = case
    for length in range(model.horizon + 1):
        prefix = policy[:length]
        assert values_agree(evaluate_policy_exact(model, prefix), path_policy_value(model, prefix))
    w = rollout_w(model, policy)
    for stage, x, a in itertools.product(
        range(1, model.horizon + 1), range(model.num_states), range(model.num_actions)
    ):
        oracle = path_exact_evtg(model, policy[stage:], stage, x, a)
        assert values_agree(w.evaluate(stage, x, a), oracle)
    assert scheme_policy(model, exact_evtg_w(model)) == bellman_solve(model)[0]


class TestMonteCarlo:
    def test_deterministic_model_is_exact(self, m_chain):
        for seed in (0, 1, 12345):
            mean, stderr = simulate_policy_mc(m_chain, STAY_EVERYWHERE, 64, seed)
            assert mean == 2.0
            assert stderr == 0.0

    def test_noisy_model_within_three_stderr(self, m_noise):
        # Policy "go then stay": exact value 0 + 0.5*5 + 0.5*1 = 3.
        policy = ((1, 1), (0, 0))
        exact = evaluate_policy_exact(m_noise, policy)
        assert exact == 3.0
        mean, stderr = simulate_policy_mc(m_noise, policy, 100_000, seed=7)
        assert stderr > 0.0
        assert abs(mean - exact) <= 3.0 * stderr

    def test_single_sample(self, m_noise):
        mean, stderr = simulate_policy_mc(m_noise, ((1, 1), (0, 0)), 1, seed=3)
        assert stderr == 0.0
        assert mean in (5.0, 1.0)

    def test_seed_reproducibility(self, m_noise):
        policy = ((1, 0), (0, 1))
        first = simulate_policy_mc(m_noise, policy, 1000, seed=42)
        second = simulate_policy_mc(m_noise, policy, 1000, seed=42)
        assert first == second


class TestModelFiles:
    def test_round_trip(self, tmp_path, m_chain):
        path = tmp_path / "chain.json"
        save_model(m_chain, path)
        loaded = load_model(path)
        assert loaded.num_states == m_chain.num_states
        assert np.array_equal(loaded.transition, m_chain.transition)
        assert np.array_equal(loaded.reward, m_chain.reward)
        assert np.array_equal(loaded.features, m_chain.features)
        assert loaded.noise_support == m_chain.noise_support

    def test_save_bytes_deterministic(self, tmp_path):
        spec = GeneratedInstanceSpec(kind="random_mdp", count=1, seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(generate_mdp_instances(spec)[0], a)
        save_model(generate_mdp_instances(spec)[0], b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_probability_sum_beyond_tolerance(self, m_chain):
        data = model_to_dict(m_chain)
        data["noise"] = {"support": [0, 1], "probs": [0.5, 0.5 + 2e-9]}
        data["transition"] = [[[0, 0], [1, 1]], [[1, 1], [1, 1]]]
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_normalizes_probability_sum_within_tolerance(self, m_chain):
        data = model_to_dict(noisy_chain_model())
        data["noise"]["probs"] = [0.5, 0.5 + 5e-10]
        model = model_from_dict(data)
        assert abs(float(np.sum(model.noise_probs)) - 1.0) <= 1e-12

    def test_rejects_shape_mismatch(self, m_chain):
        data = model_to_dict(m_chain)
        data["reward"] = [[1.0, 0.0]]
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_rejects_missing_field(self, m_chain):
        data = model_to_dict(m_chain)
        del data["transition"]
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_labels_round_trip(self, tmp_path):
        model = MdpModel(
            2, 2, 2, 0, [1.0], [[[0], [1]], [[1], [1]]], [[1.0, 0.0], [5.0, 5.0]],
            state_labels=("idle", "busy"), action_labels=("stay", "go"),
        )
        path = tmp_path / "labelled.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.state_labels == ("idle", "busy")
        assert loaded.action_labels == ("stay", "go")
        assert json.loads(path.read_text())["labels"]["actions"] == ["stay", "go"]
