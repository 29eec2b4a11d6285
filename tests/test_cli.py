"""Command-line behavior: reports, formats, exit codes, reproducibility."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from adpbound import GeneratedInstanceSpec, generate_mdp_instances, save_model
from adpbound.cli import main
from conftest import chain_model, zero_reward_model


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    save_model(chain_model(), path)
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text())


class TestSolveDp:
    def test_initial_value(self, chain_file, tmp_path):
        out = tmp_path / "solve.json"
        assert main(["solve-dp", "--model", chain_file, "--out", str(out)]) == 0
        report = read_json(out)
        assert report["initial_value"] == 5.0
        assert report["policy"][0][0] == 1

    def test_horizon_override(self, chain_file, tmp_path):
        out = tmp_path / "solve.json"
        assert main(["solve-dp", "--model", chain_file, "--K", "1", "--out", str(out)]) == 0
        assert read_json(out)["initial_value"] == 1.0


class TestRunAdp:
    def test_exact_myopic(self, chain_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(["run-adp", "--model", chain_file, "--scheme", "myopic", "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["expected_value"] == 2.0
        assert report["paths"][0]["actions"] == [0, 0]

    def test_rollout_with_base_file(self, chain_file, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps([[0, 0], [0, 0]]))
        out = tmp_path / "run.json"
        code = main([
            "run-adp", "--model", chain_file, "--scheme", "rollout",
            "--base-policy", str(base), "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["expected_value"] == 5.0

    def test_linearq_with_theta_file(self, chain_file, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps([[2.0], [5.0]]))
        out = tmp_path / "run.json"
        code = main([
            "run-adp", "--model", chain_file, "--scheme", "linearq",
            "--theta", str(theta), "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["expected_value"] == 5.0

    def test_mc_mode_is_seeded(self, chain_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run-adp", "--model", chain_file, "--scheme", "myopic", "--mc", "200",
                "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert read_json(out1)["mc_mean"] == 2.0

    def test_mc_rollout_fits_a_budget_below_the_noise_tree(self, tmp_path):
        # 3^4 = 81 noise paths exceed the budget of 10, which only --mc avoids;
        # the rollout continuation comes from backward evaluation, not paths.
        spec = GeneratedInstanceSpec(kind="random_mdp", count=1, seed=3, num_states=2,
                                     num_actions=2, noise_size=3, horizon=5)
        model = tmp_path / "deep.json"
        save_model(generate_mdp_instances(spec)[0], model)
        base = tmp_path / "base.json"
        base.write_text(json.dumps([[0, 0]] * 5))
        args = ["run-adp", "--model", str(model), "--scheme", "rollout",
                "--base-policy", str(base), "--budget", "10"]
        assert main(args + ["--mc", "1000", "--out", str(tmp_path / "mc.json")]) == 0
        assert read_json(tmp_path / "mc.json")["mc_samples"] == 1000
        assert main(args + ["--exact", "--out", str(tmp_path / "exact.json")]) == 3


class TestBoundAdp:
    def test_chain_myopic_report(self, chain_file, tmp_path):
        out = tmp_path / "bound.json"
        code = main(["bound-adp", "--model", chain_file, "--scheme", "myopic",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["ratio"] == 0.4
        assert report["monotone_certificate"] is True
        assert report["theorem2_verified"] is True
        assert report["prop1_verified"] is True
        assert report["bound_finite_K"] <= 0.4

    def test_csv_and_json_carry_identical_values(self, chain_file, tmp_path):
        json_out = tmp_path / "bound.json"
        csv_out = tmp_path / "bound.csv"
        base = ["bound-adp", "--model", chain_file, "--scheme", "myopic"]
        assert main(base + ["--out", str(json_out), "--format", "json"]) == 0
        assert main(base + ["--out", str(csv_out), "--format", "csv"]) == 0
        report = read_json(json_out)
        with open(csv_out, newline="") as handle:
            rows = list(csv.reader(handle))
        header, values = rows
        parsed = {key: json.loads(value) for key, value in zip(header, values)}
        assert parsed == report

    def test_generated_sweep_with_index(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(["bound-adp", "--generate", "random_mdp", "--count", "3",
                     "--seed", "11", "--scheme", "myopic", "--out", str(outdir)])
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["index.csv", "instance_0000.json", "instance_0001.json",
                         "instance_0002.json"]


class TestVerifyTheorem1:
    def test_coverage_sweep_all_flat(self, tmp_path):
        outdir = tmp_path / "reports"
        code = main(["verify-theorem1", "--generate", "coverage_submodular",
                     "--count", "5", "--K", "3", "--seed", "7", "--out", str(outdir)])
        assert code == 0
        for index in range(5):
            report = read_json(outdir / f"instance_{index:04d}.json")
            assert report["prefix_monotone"] is True
            assert abs(report["sigma"]) <= 1e-12
            assert report["ratio"] >= report["bound_finite_K"] - 1e-12
        assert (outdir / "index.csv").exists()

    def test_stdout_aggregate(self, capsys):
        code = main(["verify-theorem1", "--generate", "random_monotone_marginals",
                     "--count", "2", "--K", "2", "--seed", "3"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2

    def test_csv_sweep_emits_parseable_instances(self, tmp_path):
        outdir = tmp_path / "csvsweep"
        code = main(["verify-theorem1", "--generate", "random_monotone_marginals",
                     "--count", "3", "--K", "3", "--seed", "2", "--format", "csv",
                     "--out", str(outdir)])
        assert code == 0
        with open(outdir / "instance_0000.csv", newline="") as handle:
            header, values = list(csv.reader(handle))
        parsed = dict(zip(header, (json.loads(v) for v in values)))
        assert parsed["prefix_monotone"] is True
        assert parsed["ratio"] >= parsed["bound_finite_K"] - 1e-12
        assert (outdir / "index.csv").exists()

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["verify-theorem1", "--generate", "coverage_submodular", "--count", "4",
                "--K", "3", "--seed", "5"]
        one = tmp_path / "one"
        four = tmp_path / "four"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(four), "--jobs", "4"]) == 0
        for name in ("instance_0000.json", "index.csv"):
            assert (one / name).read_bytes() == (four / name).read_bytes()


class TestCheckEquivalence:
    def test_single_model(self, chain_file, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["check-equivalence", "--model", chain_file, "--scheme", "myopic",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["theorem2_verified"] is True
        assert report["prop1_verified"] is True
        assert report["max_stage_gap"] == 0.0

    def test_generated_sweep_all_schemes(self, tmp_path):
        for scheme in ("myopic", "rollout", "linearq", "exact_evtg"):
            code = main(["check-equivalence", "--generate", "random_mdp", "--count", "2",
                         "--seed", "21", "--scheme", scheme, "--out",
                         str(tmp_path / scheme)])
            assert code == 0, scheme


class TestExitCodes:
    def test_parse_error_for_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve-dp", "--model", str(bad)]) == 2

    def test_parse_error_for_missing_file(self, tmp_path):
        assert main(["solve-dp", "--model", str(tmp_path / "nope.json")]) == 2

    def test_parse_error_for_bad_flags(self):
        assert main(["run-adp", "--scheme", "nonsense"]) == 2

    def test_budget_exceeded(self, chain_file):
        assert main(["bound-adp", "--model", chain_file, "--scheme", "myopic",
                     "--budget", "0"]) == 3

    def test_assertion_failure_exits_four(self, chain_file, monkeypatch):
        import adpbound.cli as cli
        from adpbound import GuaranteeViolationError

        def boom(*args, **kwargs):
            raise GuaranteeViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "adp_bound_report", boom)
        assert main(["bound-adp", "--model", chain_file, "--scheme", "myopic"]) == 4

    def test_strict_escalates_degenerate(self, tmp_path):
        zero = tmp_path / "zero.json"
        save_model(zero_reward_model(), zero)
        relaxed = main(["bound-adp", "--model", str(zero), "--scheme", "myopic",
                        "--out", str(tmp_path / "r.json")])
        strict = main(["bound-adp", "--model", str(zero), "--scheme", "myopic",
                       "--strict", "--out", str(tmp_path / "s.json")])
        assert relaxed == 0
        assert strict == 5

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestDeterminism:
    def test_bound_adp_rerun_identical(self, chain_file, tmp_path):
        args = ["bound-adp", "--model", chain_file, "--scheme", "rollout",
                "--base-policy"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps([[0, 0], [0, 0]]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + [str(base), "--out", str(a)]) == 0
        assert main(args + [str(base), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rerun_identical(self, tmp_path):
        args = ["verify-theorem1", "--generate", "random_monotone_marginals",
                "--count", "6", "--K", "3", "--seed", "13"]
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()
