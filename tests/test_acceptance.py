"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failing criterion
fails its test.  The sweeps reuse the session corpora from conftest: 200
prefix-monotone string objectives (coverage and monotone-marginal kinds,
ground sets up to 3, horizons up to 4) and 50 random desk-scale models
(up to 3 states, 2 actions, 2 noise symbols, horizon 3) crossed with the
four scheme variants.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from adpbound import (
    adp_bound_report,
    adp_forward,
    asymptotic_curvature_bound,
    bellman_solve,
    check_adp_pdao_identity,
    check_pdao_gps_equivalence,
    curvature_bound,
    exact_evtg_w,
    greedy_guarantee_report,
    myopic_w,
    policy_string_objective,
    rollout_w,
    save_model,
)
from adpbound.cli import main
from conftest import chain_model, schemes_for
from mdp_reference import path_policy_value
from stringopt_reference import recursion_checks

TOL = 1e-12


def _announce(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def string_reports(string_sweep):
    return [
        (kind, horizon, objective, greedy_guarantee_report(objective, horizon))
        for kind, horizon, objective in string_sweep
    ]


def test_greedy_guarantee_sweep(string_reports):
    """Greedy value stays above the curvature bound on 200 monotone objectives."""
    assert len(string_reports) >= 200
    for kind, horizon, _, report in string_reports:
        assert report.prefix_monotone, (kind, horizon)
        assert not math.isnan(report.bound_finite_K)
        assert report.ratio >= report.bound_finite_K - TOL, (kind, horizon)
    _announce("greedy guarantee sweep (ratio >= bound on 200 instances)")


def test_forward_curvature_range(string_reports):
    """Forward curvature sits in [0, 1]; flat for diminishing-return instances."""
    for kind, horizon, _, report in string_reports:
        assert not math.isnan(report.sigma)
        assert -TOL <= report.sigma <= 1.0 + TOL, (kind, horizon)
        if kind == "coverage_submodular":
            assert report.diminishing_return
            assert report.sigma <= TOL, horizon
    _announce("forward curvature in range (flat for coverage instances)")


def test_classic_uniform_bound():
    """Unit curvature reproduces the classic 1 - (1 - 1/K)^K guarantee exactly."""
    for K in range(1, 11):
        assert curvature_bound(1.0, 0.0, K) == 1.0 - (1.0 - 1.0 / K) ** K
    assert abs(asymptotic_curvature_bound(1.0, 0.0) - (1.0 - math.exp(-1.0))) <= 1e-15
    _announce("classic uniform-curvature bound reproduced exactly")


def test_recursion_inequalities_sweep(string_reports):
    """The stage inequalities behind the guarantee hold on every sweep instance."""
    for kind, horizon, objective, report in string_reports:
        if math.isnan(report.eta) or math.isnan(report.sigma):
            continue
        for check in recursion_checks(objective, horizon, report):
            assert check.slack >= -TOL, (kind, horizon, check.label)
    _announce("greedy recursion inequalities nonnegative on the sweep")


def test_backward_induction_oracle(mdp_sweep):
    """Backward induction matches exhaustive policy-string enumeration on 50 models."""
    assert len(mdp_sweep) >= 50
    for model in mdp_sweep:
        _, tables = bellman_solve(model)
        stage_policies = list(
            itertools.product(range(model.num_actions), repeat=model.num_states)
        )
        best = max(
            path_policy_value(model, string)
            for string in itertools.product(stage_policies, repeat=model.horizon)
        )
        assert abs(float(tables.V[0, model.initial_state]) - best) <= TOL
    _announce("backward induction equals exhaustive policy enumeration (50 models)")


def test_scheme_equivalence_sweep(mdp_sweep):
    """Forward == path-dependent pathwise; stage-wise maxima attained (50 x 4)."""
    for index, model in enumerate(mdp_sweep):
        for name, scheme in schemes_for(model, index).items():
            ok, mismatches = check_adp_pdao_identity(model, scheme)
            assert ok, (index, name, mismatches)
            obj = policy_string_objective(model, scheme)
            verified, evidence = check_pdao_gps_equivalence(obj)
            assert verified, (index, name)
            assert all(item.gap <= TOL for item in evidence)
    _announce("scheme equivalences verified on 50 models x 4 schemes")


def test_terminal_identity_and_optimum(mdp_sweep):
    """Full-length averaged surrogate equals the exact policy value; optima coincide."""
    for index, model in enumerate(mdp_sweep):
        stage_policies = tuple(
            itertools.product(range(model.num_actions), repeat=model.num_states)
        )
        _, tables = bellman_solve(model)
        bellman_value = float(tables.V[0, model.initial_state])
        exact_values = {
            indices: path_policy_value(model, tuple(stage_policies[i] for i in indices))
            for indices in itertools.product(range(len(stage_policies)), repeat=model.horizon)
        }
        for name, scheme in schemes_for(model, index).items():
            obj = policy_string_objective(model, scheme)
            assert obj.ground == stage_policies
            best = -math.inf
            for indices, direct in exact_values.items():
                averaged = obj.objective.evaluate(indices)
                assert abs(averaged - direct) <= TOL, (index, name)
                best = max(best, averaged)
            assert abs(best - bellman_value) <= TOL, (index, name)
    _announce("terminal identity and optimum coincidence (50 models x 4 schemes)")


def test_certified_bound_sweep(mdp_sweep):
    """Certified pairs respect the finite bound; myopic is always certified."""
    certified = 0
    for index, model in enumerate(mdp_sweep):
        for name, scheme in schemes_for(model, index).items():
            report = adp_bound_report(model, scheme)
            if name == "myopic":
                assert report.monotone_certificate, index
            if not report.monotone_certificate:
                continue
            certified += 1
            c = report.curvature
            assert report.ratio >= c.bound_finite_K - TOL, (index, name)
            if not math.isnan(c.eta) and c.eta > 0.0:
                assert c.bound_finite_K > asymptotic_curvature_bound(c.eta, c.sigma) - TOL
    assert certified >= len(mdp_sweep)  # at least every myopic pair
    _announce(f"certified bound sweep ({certified} certified pairs)")


def test_chain_fixture_regression():
    """Frozen chain-model constants, each previously confirmed by the oracles."""
    model = chain_model()
    _, tables = bellman_solve(model)
    assert float(tables.V[0, 0]) == 5.0

    myopic_report = adp_bound_report(model, myopic_w(model))
    assert myopic_report.adp_value == 2.0
    assert myopic_report.ratio == 0.4
    assert myopic_report.monotone_certificate
    assert myopic_report.curvature.bound_finite_K <= 0.4

    rollout = rollout_w(model, ((0, 0), (0, 0)))
    assert adp_forward(model, rollout).expected_value == 5.0
    assert adp_forward(model, exact_evtg_w(model)).expected_value == 5.0
    _announce("chain fixture regression (5.0 / 2.0 / 0.4 / 5.0 / 5.0)")


def test_report_determinism(tmp_path):
    """Every command, rerun with the same seed, produces byte-identical files."""
    chain_path = tmp_path / "chain.json"
    save_model(chain_model(), chain_path)
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps([[0, 0], [0, 0]]))

    commands = {
        "solve": ["solve-dp", "--model", str(chain_path)],
        "run_exact": ["run-adp", "--model", str(chain_path), "--scheme", "rollout",
                      "--base-policy", str(base_path)],
        "run_over_budget": ["run-adp", "--model", str(chain_path), "--scheme", "myopic",
                            "--budget", "0"],
        "bound": ["bound-adp", "--model", str(chain_path), "--scheme", "myopic"],
        "bound_unfitted": ["bound-adp", "--model", str(chain_path), "--scheme", "myopic",
                           "--budget", "10"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}_a.json"
        second = tmp_path / f"{name}_b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name

    sweep_args = ["verify-theorem1", "--generate", "coverage_submodular", "--count", "8",
                  "--K", "4", "--seed", "23"]
    first_dir = tmp_path / "sweep_a"
    second_dir = tmp_path / "sweep_b"
    assert main(sweep_args + ["--out", str(first_dir)]) == 0
    assert main(sweep_args + ["--out", str(second_dir)]) == 0
    for path in sorted(first_dir.iterdir()):
        assert path.read_bytes() == (second_dir / path.name).read_bytes(), path.name
    _announce("byte-identical reports on rerun for every command")
