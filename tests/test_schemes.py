"""Approximators, the forward scheme, and their structural conventions."""

from __future__ import annotations

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpbound import (
    EvtgApproximator,
    GeneratedInstanceSpec,
    MdpModel,
    adp_bound_report,
    adp_forward,
    bellman_solve,
    check_path_greedy,
    check_surrogate_monotonicity,
    enumerate_noise_paths,
    evaluate_policy_exact,
    exact_evtg_w,
    generate_mdp_instances,
    instance_rng,
    linear_q_w,
    make_scheme,
    myopic_w,
    random_base_policy,
    rollout_w,
    scheme_policy,
)
from adpbound.common import VALUE_TOL, values_agree
from adpbound.schemes import walk_noise_tree
from conftest import GO, chain_model, schemes_for
from mdp_reference import trajectory_reward

STAY_BASE = ((0, 0), (0, 0))


def check_path_greedy_on_the_myopic_run(model, approximator):
    return check_path_greedy(model, approximator, adp_forward(model, myopic_w(model)))


class TestMyopic:
    def test_zero_everywhere(self, m_chain):
        w = myopic_w(m_chain)
        for stage in (1, 2):
            for x in range(2):
                for a in range(2):
                    assert w.evaluate(stage, x, a) == 0.0

    def test_forward_run_is_reward_chasing(self, m_chain):
        run = adp_forward(m_chain, myopic_w(m_chain))
        assert run.paths[0].actions == (0, 0)
        assert run.expected_value == 2.0


class TestRollout:
    def test_values_against_exact_evtg(self, m_chain):
        w = rollout_w(m_chain, STAY_BASE)
        assert w.evaluate(1, 0, 1) == 5.0
        assert w.evaluate(1, 0, 0) == 1.0
        assert w.evaluate(2, 0, 1) == 0.0

    def test_forward_run_escapes_the_trap(self, m_chain):
        run = adp_forward(m_chain, rollout_w(m_chain, STAY_BASE))
        assert run.paths[0].actions[0] == 1
        assert run.expected_value == 5.0

    def test_requires_full_length_base(self, m_chain):
        with pytest.raises(ValueError):
            rollout_w(m_chain, (STAY_BASE[0],))

    def test_stage_one_beats_base_on_chain_family(self):
        # Deterministic chain variants: the improved scheme never loses to its base.
        for stay_reward in (0.5, 1.0, 3.0):
            model = dataclasses.replace(
                chain_model(), reward=np.array([[stay_reward, 0.0], [5.0, 5.0]])
            )
            base_value = evaluate_policy_exact(model, STAY_BASE)
            run = adp_forward(model, rollout_w(model, STAY_BASE))
            assert run.expected_value >= base_value - 1e-12


class TestLinearQ:
    def test_zero_weights_degenerate(self, m_chain):
        w = linear_q_w(m_chain, np.zeros((2, 1)))
        run = adp_forward(m_chain, w)
        assert run.paths[0].actions == (0, 0)

    def test_weights_steer_the_choice(self, m_chain):
        w = linear_q_w(m_chain, np.array([[2.0], [5.0]]))
        # Parametric scores at state 0 are 2 (stay) vs 5 (go).
        assert m_chain.reward[0, 0] + w.evaluate(1, 0, 0) == 2.0
        assert m_chain.reward[0, 1] + w.evaluate(1, 0, 1) == 5.0
        run = adp_forward(m_chain, w)
        assert run.paths[0].actions[0] == 1

    def test_dimension_mismatch(self, m_chain):
        with pytest.raises(ValueError, match="does not match feature dimension"):
            linear_q_w(m_chain, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="one weight vector per action"):
            linear_q_w(m_chain, np.zeros((5, 1)))
        with pytest.raises(ValueError, match="one weight vector per action"):
            linear_q_w(m_chain, np.zeros(2))

    def test_needs_model_features(self, m_chain):
        with pytest.raises(ValueError, match="features"):
            linear_q_w(dataclasses.replace(m_chain, features=None), np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, m_chain, bad):
        with pytest.raises(ValueError, match="finite"):
            linear_q_w(m_chain, np.array([[1.0], [bad]]))

    def test_terminal_stage_ignores_weights(self, m_chain):
        w = linear_q_w(m_chain, np.full((2, 1), 9.0))
        assert w.evaluate(2, 0, 1) == 0.0


class TestExactEvtgScheme:
    def test_reproduces_the_optimum(self, m_chain):
        run = adp_forward(m_chain, exact_evtg_w(m_chain))
        _, tables = bellman_solve(m_chain)
        assert abs(run.expected_value - tables.V[0, m_chain.initial_state]) <= 1e-12

    def test_terminal_convention(self, m_noise):
        w = exact_evtg_w(m_noise)
        for x in range(2):
            for a in range(2):
                assert w.evaluate(m_noise.horizon, x, a) == 0.0


class TestForwardScheme:
    def test_terminal_convention_for_every_kind(self, m_noise):
        for name, scheme in schemes_for(m_noise, 0).items():
            for x in range(m_noise.num_states):
                for a in range(m_noise.num_actions):
                    assert scheme.evaluate(m_noise.horizon, x, a) == 0.0, name

    def test_table_must_vanish_at_the_final_stage(self):
        table = np.zeros((2, 2, 2))
        table[1, 0, 1] = 3.0
        with pytest.raises(ValueError, match="final stage"):
            EvtgApproximator(table)
        with pytest.raises(ValueError, match="final stage"):
            EvtgApproximator(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("state", [0, 1])
    def test_table_must_be_finite(self, bad, state):
        # On the chain model state 1 is unreached at stage 1; the table is
        # rejected whether or not a forward run would read the entry.
        table = np.zeros((2, 2, 2))
        table[0, state, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            EvtgApproximator(table)

    def test_state_recursion_on_every_path(self, m_noise):
        run = adp_forward(m_noise, myopic_w(m_noise))
        for record in run.paths:
            for k in range(len(record.states) - 1):
                expected = m_noise.transition[record.states[k], record.actions[k], record.noise[k]]
                assert record.states[k + 1] == int(expected)

    def test_never_beats_the_optimum(self, mdp_sweep):
        for index, model in enumerate(mdp_sweep[:10]):
            _, tables = bellman_solve(model)
            best = float(tables.V[0, model.initial_state])
            for scheme in schemes_for(model, index).values():
                run = adp_forward(model, scheme)
                assert run.expected_value <= best + 1e-12

    def test_state_constant_shift_leaves_actions_unchanged(self, m_noise):
        base = rollout_w(m_noise, STAY_BASE)
        shifted = base.table.copy()
        # Add a per-state constant at every stage but the last.
        shifted[:-1] += np.array([0.7, 1.9])[:, None]
        shifted_w = EvtgApproximator(shifted)
        original = adp_forward(m_noise, base)
        moved = adp_forward(m_noise, shifted_w)
        for a, b in zip(original.paths, moved.paths):
            assert a.actions == b.actions

    @pytest.mark.parametrize(
        "shape",
        [(4, 2, 2), (3, 3, 2), (3, 2, 3), (2, 2, 2)],
        ids=["extra_stage", "extra_state", "extra_action", "missing_stage"],
    )
    @pytest.mark.parametrize(
        "entry",
        [adp_bound_report, adp_forward, check_surrogate_monotonicity,
         check_path_greedy_on_the_myopic_run],
        ids=lambda fn: fn.__name__,
    )
    def test_table_must_match_the_model(self, shape, entry):
        spec = GeneratedInstanceSpec(kind="random_mdp", count=1, seed=5, horizon=3)
        model = generate_mdp_instances(spec)[0]
        message = f"W table has shape {shape}, but the model needs (3, 2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(model, EvtgApproximator(np.zeros(shape)))

    def test_make_scheme_validation(self, m_chain):
        with pytest.raises(ValueError):
            make_scheme(m_chain, "rollout")
        with pytest.raises(ValueError):
            make_scheme(m_chain, "linearq")
        with pytest.raises(ValueError):
            make_scheme(m_chain, "nonsense")


class TestSchemePolicy:
    def test_forward_run_follows_the_table(self, m_noise):
        for name, scheme in schemes_for(m_noise, 0).items():
            policy = scheme_policy(m_noise, scheme)
            for record in adp_forward(m_noise, scheme).paths:
                for k, (x, a) in enumerate(zip(record.states, record.actions)):
                    assert policy[k][x] == a, name


def test_forward_run_value_matches_backward_evaluation(m_chain, mdp_sweep):
    # The path sum, which bound-adp reports as adp_value, against backward
    # evaluation of the scheme's policy table: bit for bit on the one-path
    # chain, within the certified tolerance on the sweep.
    def both_routes(model, scheme):
        exact = evaluate_policy_exact(model, scheme_policy(model, scheme))
        return adp_forward(model, scheme).expected_value, exact

    for name, scheme in schemes_for(m_chain, 0).items():
        path_sum, exact = both_routes(m_chain, scheme)
        assert path_sum == exact, name
    for index, model in enumerate(mdp_sweep):
        for name, scheme in schemes_for(model, index).items():
            assert values_agree(*both_routes(model, scheme)), (index, name)


ROLLOUT_BASE_SEED = 4242


def test_rollout_improves_its_base_and_exact_evtg_is_optimal(mdp_sweep):
    # Policy improvement: acting greedily on the base policy's exact value-to-go
    # never does worse than the base; on the exact value-to-go it is optimal.
    for index, model in enumerate(mdp_sweep):
        rng = instance_rng(ROLLOUT_BASE_SEED, index)
        for _ in range(3):
            base = random_base_policy(rng, model)
            improved = adp_forward(model, rollout_w(model, base)).expected_value
            value = evaluate_policy_exact(model, base)
            assert improved >= value - VALUE_TOL * max(1.0, abs(improved), abs(value)), index
        _, tables = bellman_solve(model)
        optimum = float(tables.V[0, model.initial_state])
        assert values_agree(adp_forward(model, exact_evtg_w(model)).expected_value, optimum), index


@pytest.mark.parametrize("policy", [((0, 0),) * 3, ((0, 0),)], ids=["three_stages", "one_stage"])
def test_walk_needs_one_stage_policy_per_stage(m_chain, policy):
    with pytest.raises(ValueError, match="stages, but the horizon is 2"):
        walk_noise_tree(m_chain, policy)


@pytest.mark.parametrize("action", [2, -1])
def test_walk_rejects_an_out_of_range_action(m_chain, action):
    # Leaving state 0 at stage 1 reaches state 1, whose stage-2 action is out of range.
    with pytest.raises(ValueError, match="out of range"):
        walk_noise_tree(m_chain, ((GO, 0), (0, action)))


@st.composite
def models_with_policy_strings(draw):
    """Random models with S, A, N in 1..3 and K in 1..4, and any policy string on them."""
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
    stage = st.lists(st.integers(0, A - 1), min_size=S, max_size=S).map(tuple)
    return model, tuple(draw(stage) for _ in range(K))


@given(case=models_with_policy_strings())
@settings(max_examples=200)
def test_walk_follows_the_policy_along_every_noise_path(case):
    model, policy = case
    K = model.horizon
    records = walk_noise_tree(model, policy)
    noises = itertools.product(range(model.noise_size), repeat=K - 1)
    assert [record.noise for record in records] == list(noises)
    for record, path in zip(records, enumerate_noise_paths(model, K - 1)):
        assert record.probability == path.probability
        assert len(record.states) == K and record.states[0] == model.initial_state
        assert record.actions == tuple(policy[k][x] for k, x in enumerate(record.states))
        for k in range(K - 1):
            step = model.transition[record.states[k], record.actions[k], record.noise[k]]
            assert record.states[k + 1] == step
        assert record.reward == trajectory_reward(model, policy, model.initial_state, record.noise)
