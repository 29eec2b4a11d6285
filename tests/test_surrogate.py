"""Surrogate objective, scheme equivalences, and the certification pipeline.

The chain-fixture constants (surrogate curvatures 5 and 1, bound 0, ratio
0.4, eight skipped curvature terms, monotonicity witness) were derived by
enumerating all sixteen policy strings by hand; the enumeration is small
enough that the tests re-derive several of them inline.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adpbound.schemes
import surrogate_reference as reference
from adpbound import (
    EvtgApproximator,
    GeneratedInstanceSpec,
    MdpModel,
    SurrogateObjective,
    adp_bound_report,
    adp_forward,
    bellman_solve,
    bound_report_to_dict,
    check_adp_pdao_identity,
    check_path_greedy,
    check_pdao_gps_equivalence,
    check_stagewise_selection,
    check_surrogate_monotonicity,
    evaluate_policy_exact,
    exact_evtg_w,
    g_avg_eval,
    generate_mdp_instances,
    greedy_string,
    induced_stage_policies,
    instance_rng,
    make_scheme,
    myopic_w,
    policy_ground_set,
    policy_string_objective,
    random_base_policy,
    rollout_w,
    scheme_policy,
)
from adpbound.cli import main
from adpbound.common import VALUE_TOL, values_agree
from conftest import schemes_for, zero_reward_model

STAY_BASE = ((0, 0), (0, 0))
P0, P1, P2, P3 = (0, 0), (0, 1), (1, 0), (1, 1)


def stay_rollout(model):
    return rollout_w(model, STAY_BASE)


class TestSurrogateEval:
    def test_myopic_single_stage(self, m_chain):
        s = SurrogateObjective(model=m_chain, approximator=myopic_w(m_chain))
        assert s.evaluate_path((0,), (0,)) == 1.0

    def test_rollout_single_stage(self, m_chain):
        s = SurrogateObjective(model=m_chain, approximator=stay_rollout(m_chain))
        assert s.evaluate_path((0,), (1,)) == 5.0

    def test_full_length_drops_continuation(self, m_chain):
        class Exploding:
            kind = "probe"

            @staticmethod
            def evaluate(stage, state, action):
                raise AssertionError("continuation must not be consulted at full length")

        s = SurrogateObjective(model=m_chain, approximator=Exploding())
        assert s.evaluate_path((0, 1), (1, 0)) == 5.0

    def test_length_mismatch(self, m_chain):
        s = SurrogateObjective(model=m_chain, approximator=myopic_w(m_chain))
        with pytest.raises(ValueError):
            s.evaluate_path((0, 1), (1,))


class TestPolicyGroundSet:
    def test_lexicographic_enumeration(self, m_chain):
        ground = policy_ground_set(m_chain)
        assert ground == (P0, P1, P2, P3)

    def test_bijection(self, m_noise):
        ground = policy_ground_set(m_noise)
        assert len(set(ground)) == len(ground) == 4


class TestAveragedSurrogate:
    def test_empty_string(self, m_chain):
        obj = policy_string_objective(m_chain, myopic_w(m_chain))
        assert g_avg_eval(obj, ()) == 0.0

    def test_terminal_identity_on_fixture(self, m_chain):
        obj = policy_string_objective(m_chain, myopic_w(m_chain))
        assert g_avg_eval(obj, (P0, P0)) == evaluate_policy_exact(m_chain, (P0, P0))

    def test_rollout_single_policy(self, m_chain):
        obj = policy_string_objective(m_chain, stay_rollout(m_chain))
        assert g_avg_eval(obj, (P2,)) == 5.0

    def test_terminal_identity_sweep(self, mdp_sweep):
        for index, model in enumerate(mdp_sweep[:6]):
            stage_policies = policy_ground_set(model)
            for name, scheme in schemes_for(model, index).items():
                obj = policy_string_objective(model, scheme)
                for string in itertools.product(stage_policies, repeat=model.horizon):
                    direct = evaluate_policy_exact(model, string)
                    assert abs(g_avg_eval(obj, string) - direct) <= 1e-12, name


class TestPdao:
    """The reference path-dependent tree, and the forward run that matches it."""

    def test_chain_myopic_tree(self, m_chain):
        s = SurrogateObjective(model=m_chain, approximator=myopic_w(m_chain))
        pdao = reference.pdao_construct(s)
        assert pdao.paths[0].actions == (0, 0)
        assert pdao.expected_value == 2.0
        assert adp_forward(m_chain, myopic_w(m_chain)).paths == pdao.paths

    def test_chain_rollout_breaks_tie_low(self, m_chain):
        s = SurrogateObjective(model=m_chain, approximator=stay_rollout(m_chain))
        pdao = reference.pdao_construct(s)
        # Stage 1 compares 2 against 5; stage 2 ties at 5 and picks action 0.
        assert pdao.paths[0].actions == (1, 0)
        assert pdao.expected_value == 5.0
        assert adp_forward(m_chain, stay_rollout(m_chain)).paths == pdao.paths

    def test_noisy_tree_has_one_branch_per_symbol(self, m_noise):
        s = SurrogateObjective(model=m_noise, approximator=myopic_w(m_noise))
        pdao = reference.pdao_construct(s)
        assert set(pdao.actions_by_history) == {(), (0,), (1,)}
        for record in pdao.paths:
            assert record.actions == (0, 0)

    def test_noisy_rollout_acts_per_realized_state(self, m_noise):
        s = SurrogateObjective(model=m_noise, approximator=stay_rollout(m_noise))
        pdao = reference.pdao_construct(s)
        by_noise = {record.noise: record for record in pdao.paths}
        assert by_noise[(0,)].states == (0, 1) and by_noise[(0,)].reward == 5.0
        assert by_noise[(1,)].states == (0, 0) and by_noise[(1,)].reward == 1.0
        assert pdao.expected_value == 3.0
        run = adp_forward(m_noise, stay_rollout(m_noise))
        assert run.paths == pdao.paths
        assert induced_stage_policies(run, m_noise) == (P2, P0)


def greedy_policies(obj):
    """The smallest-index greedy string of the averaged surrogate, as stage policies."""
    return obj.policies_for(greedy_string(obj.objective, obj.surrogate.model.horizon).string)


class TestGps:
    def test_chain_myopic_first_stage(self, m_chain):
        obj = policy_string_objective(m_chain, myopic_w(m_chain))
        assert greedy_policies(obj)[0][0] == 0

    def test_exact_scheme_recovers_optimum(self, m_chain):
        obj = policy_string_objective(m_chain, exact_evtg_w(m_chain))
        assert g_avg_eval(obj, greedy_policies(obj)) == 5.0

    def test_definitional_identity_with_greedy(self, m_noise):
        # Without a tie at a reached state, the forward run's stage policies
        # are the smallest-index greedy string: unreached states get action 0.
        for scheme in (myopic_w(m_noise), stay_rollout(m_noise)):
            obj = policy_string_objective(m_noise, scheme)
            run = adp_forward(m_noise, scheme)
            assert induced_stage_policies(run, m_noise) == greedy_policies(obj)


class TestSchemeEquivalences:
    def test_stagewise_maximum_attained(self, m_chain, m_noise):
        for model, scheme in [
            (m_chain, myopic_w(m_chain)),
            (m_noise, stay_rollout(m_noise)),
        ]:
            obj = policy_string_objective(model, scheme)
            verified, evidence = check_pdao_gps_equivalence(obj)
            assert verified
            assert all(item.gap == 0.0 for item in evidence)

    def test_forward_equals_path_dependent(self, m_chain, m_noise):
        for model, scheme in [
            (m_chain, myopic_w(m_chain)),
            (m_noise, stay_rollout(m_noise)),
        ]:
            ok, mismatches = check_adp_pdao_identity(model, scheme)
            assert ok and mismatches == ()

    def test_stagewise_check_rejects_a_non_greedy_string(self, m_chain):
        # Stage 1 of the myopic surrogate is worth 1 for staying, 0 for leaving.
        obj = policy_string_objective(m_chain, myopic_w(m_chain))
        verified, evidence = check_stagewise_selection(obj, (P2, P0))
        assert not verified
        assert evidence[0].gap == 1.0

    def test_path_check_flags_what_the_reference_tree_rejects(self, mdp_sweep):
        # Check the myopic run against each scheme's surrogate: a path must be
        # flagged exactly where the reference tree of that surrogate acts
        # otherwise (the models are real-valued, so ties at reached states
        # have probability zero).
        flagged = 0
        for index, model in enumerate(mdp_sweep[:10]):
            run = adp_forward(model, myopic_w(model))
            for name, scheme in schemes_for(model, index).items():
                surrogate = SurrogateObjective(model=model, approximator=scheme)
                tree = {r.noise: r.actions for r in reference.pdao_construct(surrogate).paths}
                expected = tuple(r.noise for r in run.paths if r.actions != tree[r.noise])
                ok, mismatches = check_path_greedy(surrogate, run)
                assert mismatches == expected and ok == (not expected), (index, name)
                flagged += len(mismatches)
        assert flagged > 0


class TestMonotonicityCertificate:
    def test_myopic_always_holds(self, m_chain, m_noise):
        for model in (m_chain, m_noise):
            cert = check_surrogate_monotonicity(model, myopic_w(model))
            assert cert.holds
            assert cert.worst_slack >= 0.0

    def test_chain_myopic_worst_slack_is_zero(self, m_chain):
        cert = check_surrogate_monotonicity(m_chain, myopic_w(m_chain))
        assert cert.worst_slack == 0.0
        assert cert.witness is None

    def test_chain_rollout_violates(self, m_chain):
        # Extending (stay-policy) with a leave-policy sacrifices the rollout
        # continuation worth 1 for a stage reward of 0.
        cert = check_surrogate_monotonicity(m_chain, stay_rollout(m_chain))
        assert not cert.holds
        assert cert.worst_slack == -1.0
        assert cert.witness == ((P0,), (P0, P2))

    def test_constructed_violation(self, m_chain):
        inflated = EvtgApproximator([[[10.0, 10.0], [10.0, 10.0]], [[0.0, 0.0], [0.0, 0.0]]])
        cert = check_surrogate_monotonicity(m_chain, inflated)
        assert not cert.holds
        assert cert.witness is not None


class TestBoundReport:
    def test_chain_myopic_frozen_values(self, m_chain):
        report = adp_bound_report(m_chain, myopic_w(m_chain))
        assert report.optimal_value == 5.0
        assert report.adp_value == 2.0
        assert report.ratio == 0.4
        assert report.monotone_certificate
        assert report.worst_slack == 0.0
        assert report.pdao_matches_gps and report.adp_matches_pdao
        c = report.curvature
        assert c.eta == 5.0
        assert c.sigma == 1.0
        assert c.skipped_terms == 8
        assert c.bound_finite_K == 0.0
        assert c.bound_asymptotic == 0.0
        assert c.prefix_monotone and not c.diminishing_return

    def test_chain_rollout_not_certified(self, m_chain):
        report = adp_bound_report(m_chain, stay_rollout(m_chain))
        assert report.adp_value == 5.0
        assert report.ratio == 1.0
        assert not report.monotone_certificate
        assert not report.curvature.prefix_monotone

    def test_chain_exact_scheme(self, m_chain):
        report = adp_bound_report(m_chain, exact_evtg_w(m_chain))
        assert report.adp_value == 5.0
        assert report.ratio == 1.0

    def test_zero_reward_degenerate(self):
        model = zero_reward_model()
        report = adp_bound_report(model, myopic_w(model))
        assert report.ratio == 1.0
        assert "degenerate_zero_optimum" in report.flags
        assert report.monotone_certificate  # zero rewards, zero continuation

    def test_bound_skipped_when_strings_exceed_budget(self, m_chain):
        report = adp_bound_report(m_chain, myopic_w(m_chain), budget=10)
        assert "bound_not_computed" in report.flags
        assert report.curvature is None
        assert report.optimal_value == 5.0
        assert report.ratio == 0.4
        assert not report.monotone_certificate

    def test_json_field_set_is_stable(self, m_chain):
        data = bound_report_to_dict(adp_bound_report(m_chain, myopic_w(m_chain)))
        assert list(data) == [
            "eta",
            "sigma",
            "skipped_terms",
            "bound_finite_K",
            "bound_asymptotic",
            "optimal_value",
            "adp_value",
            "ratio",
            "monotone_certificate",
            "worst_slack",
            "theorem2_verified",
            "prop1_verified",
            "flags",
        ]

    def test_single_stage_horizon(self, m_chain):
        import dataclasses

        model = dataclasses.replace(m_chain, horizon=1)
        report = adp_bound_report(model, myopic_w(model))
        assert report.adp_value == 1.0
        assert report.optimal_value == 1.0
        assert report.ratio == 1.0
        assert report.monotone_certificate
        assert "eta_undefined" in report.flags
        assert report.curvature.bound_finite_K == 1.0

    def test_optimum_coincidence_small_sweep(self, mdp_sweep):
        for index, model in enumerate(mdp_sweep[:4]):
            _, tables = bellman_solve(model)
            best = float(tables.V[0, model.initial_state])
            for name, scheme in schemes_for(model, index).items():
                report = adp_bound_report(model, scheme)
                assert abs(report.optimal_value - best) <= 1e-12, name
                if report.monotone_certificate:
                    assert report.ratio >= report.curvature.bound_finite_K - 1e-12

    def test_forward_run_and_tree_built_once(self, m_noise, monkeypatch, tmp_path):
        # One walk of the noise tree per bound report and per model of a
        # check-equivalence sweep: both identities are checked on that run.
        walks = []
        original = adpbound.schemes.walk_noise_tree

        def counted(*args, **kwargs):
            walks.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(adpbound.schemes, "walk_noise_tree", counted)
        report = adp_bound_report(m_noise, stay_rollout(m_noise))
        assert len(walks) == 1
        assert report.pdao_matches_gps and report.adp_matches_pdao

        walks.clear()
        assert main(["check-equivalence", "--generate", "random_mdp", "--count", "3",
                     "--seed", "2", "--scheme", "rollout", "--out", str(tmp_path)]) == 0
        assert len(walks) == 3

    @pytest.mark.parametrize("scale", [1e4, 1e6, 2.0**20])
    @pytest.mark.parametrize("scheme", ["myopic", "rollout", "exact_evtg"])
    def test_value_cross_checks_scale_with_rewards(self, scale, scheme):
        # The policy-string optimum and backward induction (and the greedy
        # value and the forward run) add the same rewards in different orders.
        # With rewards near 1e4..1e6 they can differ in the last bit, which an
        # absolute 1e-12 tolerance reported as a certified failure.
        for seed in range(8):
            spec = GeneratedInstanceSpec(
                kind="random_mdp", count=1, seed=seed,
                num_states=3, num_actions=2, noise_size=3, horizon=3,
            )
            (model,) = generate_mdp_instances(spec)
            model = dataclasses.replace(model, reward=model.reward * scale)
            base = random_base_policy(instance_rng(seed, 1), model)
            # Raises GuaranteeViolationError when a cross-check disagrees.
            adp_bound_report(model, make_scheme(model, scheme, base_policy=base))


def test_values_agree_is_absolute_up_to_one_and_relative_above():
    assert values_agree(110110.08326521276, 110110.08326521277)
    assert not values_agree(110110.0, 110110.0 * (1.0 + 1e-11))
    assert values_agree(0.5, 0.5 + 0.9e-12)
    assert not values_agree(0.5, 0.5 + 1.1e-12)
    assert not values_agree(0.0, 2e-12)


@st.composite
def models_with_w_tables(draw, max_strings=4096, denominator=1):
    """Random models and W tables of small integers, so exact ties are common.

    Negative W entries make certificates fail.  K is capped so that there are
    at most ``max_strings`` full-length policy strings.  Rewards and W are
    divided by ``denominator``; with 3, values tied in exact arithmetic can
    round apart when added in another order.
    """
    S = draw(st.integers(1, 3))
    A = draw(st.integers(1, 3))
    N = draw(st.integers(1, 3))
    P = A**S
    K = draw(st.integers(1, max(k for k in range(1, 5) if P**k <= max_strings)))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=N, max_size=N)), dtype=float)
    transition = draw(st.lists(st.integers(0, S - 1), min_size=S * A * N, max_size=S * A * N))
    reward = draw(st.lists(st.integers(0, 3), min_size=S * A, max_size=S * A))
    model = MdpModel(
        num_states=S,
        num_actions=A,
        horizon=K,
        initial_state=draw(st.integers(0, S - 1)),
        noise_probs=weights / weights.sum(),
        transition=np.reshape(transition, (S, A, N)),
        reward=np.reshape(reward, (S, A)) / denominator,
    )
    cells = (K - 1) * S * A
    table = np.zeros((K, S, A))
    table[:-1] = np.reshape(
        draw(st.lists(st.integers(-3, 3), min_size=cells, max_size=cells)), (K - 1, S, A)
    ) / denominator
    return model, EvtgApproximator(table)


@given(case=models_with_w_tables())
@settings(max_examples=200)
def test_tables_match_loop_reference(case):
    model, w = case
    assert scheme_policy(model, w) == reference.scheme_policy(model, w)


@given(case=models_with_w_tables())
@settings(max_examples=200)
def test_certificate_matches_node_walk_reference(case):
    # The report reads the certificate off the prefix-monotone check on the
    # averaged surrogate's tables; the reference propagates one state
    # distribution per node of the policy-string tree.  The two sum in other
    # orders, so the worst slack agrees within values_agree; the verdict
    # must not change.
    model, w = case
    report = adp_bound_report(model, w)
    holds, worst_slack = reference.monotonicity_certificate(model, w)
    assert report.monotone_certificate == holds
    assert values_agree(report.worst_slack, worst_slack)

    cert = check_surrogate_monotonicity(model, w)
    assert (cert.holds, cert.worst_slack) == (holds, report.worst_slack)
    if cert.witness is not None:
        prefix, string = cert.witness
        obj = policy_string_objective(model, w)
        assert g_avg_eval(obj, string) - g_avg_eval(obj, prefix) < -VALUE_TOL
    assert (cert.witness is None) == holds


def relabel_states(model, w, perm):
    """The same model and W table with every state ``x`` renamed ``perm[x]``."""
    perm = np.asarray(perm)
    old = np.argsort(perm)  # old[y] is the state renamed y
    relabelled = dataclasses.replace(
        model,
        initial_state=int(perm[model.initial_state]),
        transition=perm[model.transition][old],
        reward=model.reward[old],
    )
    return relabelled, EvtgApproximator(w.table[:, old])


def with_relabelling(case):
    model, w = case
    return st.permutations(range(model.num_states)).map(lambda perm: (model, w, perm))


# One state, stage 2: both actions score 1/3 + 1 = 1 + 1/3 under r + W, so the
# scheme takes action 0; after the stage-1 reward 1 the path scores round to
# 2.333...33 for action 0 and 2.333...35 for action 1, so the averaged
# surrogate's greedy string takes action 1 and is worth 3, the scheme 7/3.
ROUNDED_TIE = (
    MdpModel(num_states=1, num_actions=2, horizon=3, initial_state=0,
             noise_probs=[0.5, 0.5], transition=[[[0, 0], [0, 0]]], reward=[[1 / 3, 1.0]]),
    EvtgApproximator([[[0.0, 0.0]], [[1.0, 1 / 3]], [[0.0, 0.0]]]),
    [0],
)


@given(case=models_with_w_tables(max_strings=256, denominator=3).flatmap(with_relabelling))
@example(case=ROUNDED_TIE)
@settings(max_examples=100)
def test_relabelling_states_leaves_the_report_unchanged(case):
    # Relabelling reorders the policy ground set, so smallest-index
    # tie-breaking over policies meets reached ties in another order; the
    # report follows the scheme's own run and must not notice.
    model, w, perm = case
    before = adp_bound_report(model, w)
    after = adp_bound_report(*relabel_states(model, w, perm))
    assert values_agree(after.optimal_value, before.optimal_value)
    assert values_agree(after.adp_value, before.adp_value)
    assert values_agree(after.ratio, before.ratio)
    for report in (before, after):
        assert report.pdao_matches_gps and report.adp_matches_pdao
