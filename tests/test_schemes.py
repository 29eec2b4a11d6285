"""Approximators, the forward scheme, and their structural conventions."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from adpbound import (
    EvtgApproximator,
    adp_forward,
    bellman_solve,
    exact_evtg_w,
    linear_q_w,
    make_scheme,
    myopic_w,
    rollout_w,
    scheme_policy,
    simulate_policy_mc,
)
from conftest import chain_model, schemes_for

STAY_BASE = ((0, 0), (0, 0))


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
            from adpbound import evaluate_policy_exact

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


def simulate_scheme(model, scheme, samples, seed):
    return simulate_policy_mc(model, scheme_policy(model, scheme), samples, seed)


class TestForwardMonteCarlo:
    def test_deterministic_model_matches_exact(self, m_chain):
        for name, scheme in schemes_for(m_chain, 0).items():
            exact = adp_forward(m_chain, scheme).expected_value
            mean, stderr = simulate_scheme(m_chain, scheme, samples=32, seed=11)
            assert mean == exact, name
            assert stderr == 0.0

    def test_noisy_model_within_three_stderr(self, m_noise):
        scheme = rollout_w(m_noise, STAY_BASE)
        exact = adp_forward(m_noise, scheme).expected_value
        mean, stderr = simulate_scheme(m_noise, scheme, samples=50_000, seed=5)
        assert abs(mean - exact) <= 3.0 * stderr

    def test_seeded_reproducibility(self, m_noise):
        scheme = myopic_w(m_noise)
        assert simulate_scheme(m_noise, scheme, 500, seed=9) == simulate_scheme(
            m_noise, scheme, 500, seed=9
        )
