"""Command-line behavior: reports, formats, exit codes, reproducibility."""

from __future__ import annotations

import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import adpbound.surrogate
from adpbound import (
    GeneratedInstanceSpec,
    MdpModel,
    adp_bound_report,
    adp_forward,
    bellman_solve,
    bound_report_to_dict,
    evaluate_policy_exact,
    generate_mdp_instances,
    load_model,
    make_scheme,
    myopic_w,
    random_base_policy,
    save_model,
    scheme_policy,
)
from adpbound.cli import build_parser, main
from adpbound.common import values_agree
from adpbound.reporting import json_text
from adpbound.schemes import AdpRun, walk_noise_tree
from conftest import chain_model, zero_reward_model


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    save_model(chain_model(), path)
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text())


def edited_model_file(model_file, tmp_path, where, value):
    """A copy of ``model_file`` whose entry at the key path ``where`` is ``value``."""
    data = json.loads(Path(model_file).read_text())
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    return bad


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

    def test_long_horizon_is_walked_without_recursion(self, chain_file, tmp_path):
        # One noise path of 1500 stages: deeper than Python's recursion limit.
        out = tmp_path / "run.json"
        code = main(["run-adp", "--model", chain_file, "--scheme", "myopic", "--K", "1500",
                     "--out", str(out)])
        assert code == 0
        model = chain_model(horizon=1500)
        exact = evaluate_policy_exact(model, scheme_policy(model, myopic_w(model)))
        assert values_agree(read_json(out)["expected_value"], exact)

    def test_noise_tree_over_the_budget_gets_backward_evaluation(self, tmp_path):
        # 3^4 = 81 noise paths: at a budget of 80 no path is listed and the
        # value is the backward evaluation of the scheme's policy table.
        spec = GeneratedInstanceSpec(kind="random_mdp", count=1, seed=3, num_states=2,
                                     num_actions=2, noise_size=3, horizon=5)
        model_file = tmp_path / "deep.json"
        save_model(generate_mdp_instances(spec)[0], model_file)
        # The model as the command reads it back from the file.
        model = load_model(model_file)
        base = tmp_path / "base.json"
        base.write_text(json.dumps([[0, 0]] * 5))
        args = ["run-adp", "--model", str(model_file), "--scheme", "rollout",
                "--base-policy", str(base)]
        assert main(args + ["--budget", "80", "--out", str(tmp_path / "over.json")]) == 0
        over = read_json(tmp_path / "over.json")
        assert list(over) == ["command", "scheme", "mode", "expected_value", "paths"]
        assert over["mode"] == "exact"
        assert over["paths"] is None
        scheme = make_scheme(model, "rollout", base_policy=((0, 0),) * 5)
        assert over["expected_value"] == evaluate_policy_exact(model, scheme_policy(model, scheme))
        assert main(args + ["--budget", "81", "--out", str(tmp_path / "fit.json")]) == 0
        fit = read_json(tmp_path / "fit.json")
        assert len(fit["paths"]) == 81
        assert fit["expected_value"] == adp_forward(model, scheme).expected_value
        assert values_agree(fit["expected_value"], over["expected_value"])


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

    def test_base_policy_file_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        # Every instance gets the base policy parsed from the one read of
        # the file, and its report is the library's report for that policy.
        base = tmp_path / "base.json"
        base.write_text(json.dumps([[1, 0], [0, 1]]))
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == base:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        outdir = tmp_path / "sweep"
        code = main(["bound-adp", "--generate", "random_mdp", "--count", "3",
                     "--seed", "11", "--scheme", "rollout", "--base-policy", str(base),
                     "--out", str(outdir)])
        monkeypatch.undo()
        assert code == 0
        assert len(opened) == 1
        spec = GeneratedInstanceSpec(kind="random_mdp", count=3, seed=11, horizon=2)
        for index, model in enumerate(generate_mdp_instances(spec)):
            scheme = make_scheme(model, "rollout", base_policy=((1, 0), (0, 1)))
            expected = json_text(bound_report_to_dict(adp_bound_report(model, scheme)))
            assert (outdir / f"instance_{index:04d}.json").read_text() == expected


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
    """bound-adp checks that the forward run is the surrogate's greedy string."""

    def test_single_model(self, chain_file, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["bound-adp", "--model", chain_file, "--scheme", "myopic",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["theorem2_verified"] is True
        assert report["prop1_verified"] is True
        assert report["stage_gaps"] == [0.0, 0.0]
        assert report["max_stage_gap"] == 0.0
        assert report["mismatched_paths"] == 0

    def test_generated_sweep_all_schemes(self, tmp_path):
        for scheme in ("myopic", "rollout", "linearq", "exact_evtg"):
            code = main(["bound-adp", "--generate", "random_mdp", "--count", "2",
                         "--seed", "21", "--scheme", scheme, "--out",
                         str(tmp_path / scheme)])
            assert code == 0, scheme

    def test_forward_run_that_is_not_greedy_exits_four(self, chain_file, tmp_path,
                                                       monkeypatch):
        # A forward run that follows the argmin of r + W is not greedy for
        # the surrogate; the report is still written, with its evidence.
        def argmin_forward(model, approximator, budget):
            choice = (model.reward + approximator.table).argmin(axis=2)
            records = walk_noise_tree(model, tuple(map(tuple, choice.tolist())))
            return AdpRun(paths=records,
                          expected_value=sum(r.probability * r.reward for r in records))

        monkeypatch.setattr(adpbound.surrogate, "adp_forward", argmin_forward)
        out = tmp_path / "bound.json"
        assert main(["bound-adp", "--model", chain_file, "--scheme", "myopic",
                     "--out", str(out)]) == 4
        report = read_json(out)
        assert report["theorem2_verified"] is False
        assert report["prop1_verified"] is False
        assert report["max_stage_gap"] > 0.0
        assert report["mismatched_paths"] > 0


class TestRoundedStageTie:
    # The exact_evtg scheme is optimal, so it attains every stage maximum; at
    # stage 3 the attained value and the maximum are exact ties near 3e6 that
    # the surrogate's sums round one ulp apart (a gap of 2^-31).
    MODEL = MdpModel(
        num_states=3, num_actions=2, horizon=4, initial_state=0, noise_probs=[1.0],
        transition=[[[0], [2]], [[2], [1]], [[2], [0]]],
        reward=[[2e6 / 3, 1e6], [1e6, 1e6], [2e6 / 3, 1e6 / 3]],
    )

    def test_tie_is_verified(self, tmp_path):
        save_model(self.MODEL, tmp_path / "model.json")
        out = tmp_path / "report.json"
        assert main(["bound-adp", "--model", str(tmp_path / "model.json"), "--scheme",
                     "exact_evtg", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["theorem2_verified"] is True
        assert report["prop1_verified"] is True


class TestReachedTies:
    # Generated models on which the forward scheme meets an exact tie at a
    # stage and state it reaches: (command, sweep seed, instance index,
    # states, actions, scheme), all with N=2 and K=4.  The stage-wise greedy
    # string of smallest indices can break such a tie otherwise than the
    # scheme, so the checks must follow the scheme's own run.
    CASES = [
        ("bound-adp", 0, 257, 2, 2, "rollout"),
        ("bound-adp", 1, 57, 2, 3, "rollout"),
        ("bound-adp", 4, 112, 2, 2, "exact_evtg"),
    ]

    @pytest.mark.parametrize("command, seed, index, states, actions, scheme", CASES)
    def test_tie_is_verified(self, tmp_path, command, seed, index, states, actions, scheme):
        spec = GeneratedInstanceSpec(kind="random_mdp", count=index + 1, seed=seed,
                                     num_states=states, num_actions=actions, noise_size=2,
                                     horizon=4)
        model = generate_mdp_instances(spec)[index]
        save_model(model, tmp_path / "model.json")
        out = tmp_path / "report.json"
        args = [command, "--model", str(tmp_path / "model.json"), "--scheme", scheme,
                "--out", str(out)]
        if scheme == "rollout":
            # The base policy that the generated sweep draws for this instance.
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index, 1)))
            )
            base = tmp_path / "base.json"
            base.write_text(json.dumps(random_base_policy(rng, model)))
            args += ["--base-policy", str(base)]
        assert main(args) == 0
        report = read_json(out)
        assert report["theorem2_verified"] is True
        assert report["prop1_verified"] is True
        if report.get("monotone_certificate"):
            assert report["ratio"] >= report["bound_finite_K"] - 1e-12


def declared_options() -> dict[str, list[str]]:
    """Each command's option strings, as its subparser declares them, without ``--help``."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {
        name: [option for action in sub._actions for option in action.option_strings
               if option not in ("-h", "--help")]
        for name, sub in commands.items()
    }


class TestOptions:
    """Each command declares only the options it reads."""

    OPTIONS = {
        "solve-dp": {"--model", "--K", "--out", "--format"},
        "run-adp": {"--model", "--scheme", "--base-policy", "--theta", "--K", "--budget",
                    "--out", "--format"},
        "bound-adp": {"--model", "--scheme", "--base-policy", "--theta", "--K", "--generate",
                      "--count", "--states", "--actions", "--noise", "--budget", "--seed",
                      "--out", "--format", "--strict", "--jobs"},
        "verify-theorem1": {"--generate", "--count", "--K", "--ground-size", "--budget",
                            "--seed", "--out", "--format", "--strict", "--jobs"},
    }

    def test_each_command_declares_its_option_set(self):
        declared = declared_options()
        assert {name: set(options) for name, options in declared.items()} == self.OPTIONS
        assert sum(len(options) for options in declared.values()) == 38

    def test_readme_option_table_matches_the_parser(self):
        # The `| `command` | options |` rows under "Command-line interface",
        # before its first subsection.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Command-line interface\n", 1)[1].split("\n#", 1)[0]
        table = {
            match.group(1): re.findall(r"`(--[A-Za-z-]+)`", match.group(2))
            for match in re.finditer(r"^\| `([a-z0-9-]+)` \| (.*) \|$", section, re.MULTILINE)
        }
        declared = declared_options()
        assert sorted(table) == sorted(declared)
        for name, options in table.items():
            assert len(options) == len(set(options)), name
            assert set(options) == set(declared[name]), name

    REQUIRED = {
        "solve-dp": ["--model", "unused.json"],
        "run-adp": ["--model", "unused.json", "--scheme", "myopic"],
        "check-equivalence": ["--generate", "random_mdp"],
    }

    @pytest.mark.parametrize(
        "command, option",
        [
            ("solve-dp", "--budget 0"),
            ("solve-dp", "--seed 9"),
            ("solve-dp", "--strict"),
            ("solve-dp", "--jobs 7"),
            ("run-adp", "--exact"),
            ("run-adp", "--strict"),
            ("run-adp", "--jobs 3"),
            # Only the Monte Carlo sampler read these; run-adp is exact.
            ("run-adp", "--mc 10"),
            ("run-adp", "--seed 1"),
            ("check-equivalence", "--strict"),
            # The command is gone: bound-adp certifies the same identities.
            ("check-equivalence", "--scheme myopic"),
        ],
    )
    def test_removed_option_is_a_parse_error(self, command, option, capsys):
        assert main([command, *self.REQUIRED[command], *option.split()]) == 2
        assert "usage:" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error_for_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve-dp", "--model", str(bad)]) == 2

    def test_parse_error_for_missing_file(self, tmp_path):
        assert main(["solve-dp", "--model", str(tmp_path / "nope.json")]) == 2

    def test_parse_error_for_bad_flags(self):
        assert main(["run-adp", "--scheme", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--count", "0"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--states", "0"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--actions", "0"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--noise", "0"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--K", "0"],
            ["verify-theorem1", "--generate", "coverage_submodular", "--ground-size", "0"],
            ["verify-theorem1", "--generate", "coverage_submodular", "--count", "-2"],
            ["run-adp", "--model", "unused.json", "--scheme", "myopic", "--K", "0"],
            ["solve-dp", "--model", "unused.json", "--K", "zero"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--seed", "-1"],
            ["verify-theorem1", "--generate", "coverage_submodular", "--seed", "-1"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--budget", "-1"],
            ["bound-adp", "--generate", "random_mdp", "--scheme", "myopic", "--jobs", "0"],
            # Options that the command would ignore.
            ["bound-adp", "--model", "unused.json", "--scheme", "myopic", "--count", "5",
             "--states", "9"],
            ["bound-adp", "--model", "/nonexistent.json", "--generate", "random_mdp",
             "--scheme", "myopic"],
        ],
    )
    def test_parse_error_for_sizes_below_one(self, args, capsys):
        assert main(args) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("solve-dp", "reward", float("nan")),
            ("bound-adp", "reward", float("nan")),
            ("bound-adp", "noise", float("nan")),
            ("bound-adp", "reward", float("inf")),
            ("bound-adp", "features", float("nan")),
        ],
    )
    def test_parse_error_for_non_finite_numbers(self, chain_file, tmp_path, command, field,
                                                value):
        data = json.loads(Path(chain_file).read_text())
        if field == "noise":
            data["noise"] = {"support": [0, 1], "probs": [value, 0.5]}
            data["transition"] = [[[0, 0], [1, 1]], [[1, 1], [1, 1]]]
        elif field == "features":
            data["features"][0][0] = value
        else:
            data["reward"][0][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        args = [command, "--model", str(bad)]
        if command == "bound-adp":
            args += ["--scheme", "myopic"]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "where, value",
        [
            (("transition", 0, 1, 0), 1.9),
            (("transition", 0, 1, 0), True),
            (("transition", 0, 1, 0), 10**30),
            (("noise", "support", 0), 0.5),
            (("states",), 2.7),
            (("actions",), 2.0),
            (("horizon",), "2"),
            (("initial_state",), True),
            (("labels",), {"states": ["a", "b", "c", "d"]}),
            (("labels",), {"actions": ["stay"]}),
        ],
        ids=["float_target", "bool_target", "huge_target", "float_symbol", "float_states",
             "integral_float_actions", "string_horizon", "bool_initial_state",
             "four_state_labels", "one_action_label"],
    )
    def test_parse_error_for_a_model_field_that_is_not_an_integer(self, chain_file, tmp_path,
                                                                  where, value, capsys):
        # Model files are never rounded or converted: each of these loaded
        # as some other model before.
        bad = edited_model_file(chain_file, tmp_path, where, value)
        assert main(["solve-dp", "--model", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "table",
        [[[0.9, 1], [1, 1]], [[0, 1], ["1", 1]], [[0, 1], [1, True]], [[0, 1], [1.0, 1]]],
        ids=["fraction", "string", "bool", "integral_float"],
    )
    def test_parse_error_for_a_base_policy_entry_that_is_not_an_integer(self, chain_file,
                                                                        tmp_path, table, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(table))
        assert main(["run-adp", "--model", chain_file, "--scheme", "rollout", "--base-policy",
                     str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid base policy table")

    @pytest.mark.parametrize(
        "where, value",
        [
            (("reward", 0, 0), "1"),
            (("reward", 1, 1), True),
            (("noise", "probs", 0), True),
            (("features", 0, 0), "1.0"),
        ],
        ids=["string_reward", "bool_reward", "bool_prob", "string_feature"],
    )
    @pytest.mark.parametrize("command", ["solve-dp", "run-adp"])
    def test_parse_error_for_a_model_number_that_is_not_a_json_number(
        self, chain_file, tmp_path, command, where, value, capsys
    ):
        bad = edited_model_file(chain_file, tmp_path, where, value)
        args = [command, "--model", str(bad)]
        if command == "run-adp":
            theta = tmp_path / "theta.json"
            theta.write_text(json.dumps([[2.0], [5.0]]))
            args += ["--scheme", "linearq", "--theta", str(theta)]
        assert main(args) == 2
        assert f"error: '{where[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table", [[["2.0"], [5.0]], [[2.0], [True]]], ids=["string", "bool"]
    )
    def test_parse_error_for_a_theta_entry_that_is_not_a_json_number(self, chain_file,
                                                                    tmp_path, table, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(table))
        assert main(["run-adp", "--model", chain_file, "--scheme", "linearq",
                     "--theta", str(theta)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid theta table")

    @pytest.mark.parametrize(
        "option, scheme", [("--model", "myopic"), ("--base-policy", "rollout"),
                           ("--theta", "linearq")],
    )
    def test_parse_error_for_a_file_that_is_not_utf8(self, chain_file, tmp_path, option,
                                                    scheme, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        args = {"--model": chain_file, "--scheme": scheme, option: str(bad)}
        assert main(["run-adp", *(item for pair in args.items() for item in pair)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}")

    @pytest.mark.parametrize(
        "table",
        [[[2.0], [float("nan")]], [["a", 1]], [[2.0], [5.0, 1.0]], [[2.0], [10**400]]],
        ids=["non_finite", "non_numeric", "ragged", "overflow"],
    )
    def test_parse_error_for_bad_theta(self, chain_file, tmp_path, table):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(table))
        assert main(["run-adp", "--model", chain_file, "--scheme", "linearq",
                     "--theta", str(theta)]) == 2

    @pytest.mark.parametrize(
        "scheme, option, key, table",
        [
            ("linearq", "--theta", "theta", [[2.0], [5.0]]),
            ("rollout", "--base-policy", "base_policy", [[1, 0], [0, 1]]),
        ],
        ids=["theta", "base_policy"],
    )
    def test_parse_error_for_a_wrapped_scheme_table(self, chain_file, tmp_path, scheme, option,
                                                    key, table, capsys):
        # Scheme tables are bare JSON arrays; one wrapped in an object is malformed.
        path = tmp_path / "table.json"
        path.write_text(json.dumps({key: table}))
        assert main(["run-adp", "--model", chain_file, "--scheme", scheme, option,
                     str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid ")

    @pytest.mark.parametrize(
        "command, scheme, option, reader, table",
        [
            ("run-adp", "myopic", "--theta", "linearq", [[2.0], [5.0]]),
            ("run-adp", "myopic", "--base-policy", "rollout", [[0, 0], [0, 0]]),
            ("bound-adp", "rollout", "--theta", "linearq", [[2.0], [5.0]]),
            ("bound-adp", "linearq", "--base-policy", "rollout", [[0, 0], [0, 0]]),
        ],
    )
    def test_scheme_input_for_another_scheme(self, chain_file, tmp_path, command, scheme,
                                             option, reader, table, capsys):
        # The file is valid, but the chosen scheme would not read it.
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert main([command, "--model", chain_file, "--scheme", scheme, option, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: {option} is read only by --scheme {reader}" in err

    def test_output_file_in_place_of_a_sweep_directory(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["bound-adp", "--generate", "random_mdp", "--count", "2", "--scheme",
                     "myopic", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_directory_under_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["verify-theorem1", "--generate", "coverage_submodular", "--count", "1",
                     "--out", str(taken / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_write_leaves_no_temp_file(self, chain_file, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["solve-dp", "--model", chain_file, "--out", str(taken)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "taken"]

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


class TestBudget:
    """The budget counts the strings and noise paths an operation evaluates."""

    def test_bound_adp_outcome_is_monotone_in_the_budget(self, tmp_path):
        # 4 stage policies, K = 3: the forward run walks 2^2 = 4 noise paths,
        # the Theorem 2 check evaluates 3 * 4 = 12 strings and the bound
        # tabulates 1 + 4 + 16 + 64 = 85.
        spec = GeneratedInstanceSpec(kind="random_mdp", count=1, seed=0, num_states=2,
                                     num_actions=2, noise_size=2, horizon=3)
        model = generate_mdp_instances(spec)[0]
        _, tables = bellman_solve(model)
        optimum = float(tables.V[0, model.initial_state])
        for budget in [*range(90), 311, 312]:
            out = tmp_path / str(budget)
            code = main(["bound-adp", "--generate", "random_mdp", "--states", "2",
                         "--actions", "2", "--noise", "2", "--K", "3", "--scheme", "myopic",
                         "--budget", str(budget), "--out", str(out)])
            if budget < 12:
                assert code == 3, budget
                continue
            assert code == 0, budget
            report = read_json(out / "instance_0000.json")
            assert report["optimal_value"] == pytest.approx(optimum, rel=1e-12, abs=1e-12)
            not_computed = budget < 85
            assert ("bound_not_computed" in report["flags"]) == not_computed, budget
            assert (report["skipped_terms"] is None) == not_computed, budget

    def test_refused_before_the_ground_set_is_built(self, monkeypatch, tmp_path, capsys):
        # 27 stage policies, K = 3: the Theorem 2 check needs 81 strings, the
        # bound 1 + 27 + 27^2 + 27^3.
        built = []
        original = adpbound.surrogate.policy_ground_set

        def counted(model):
            built.append(1)
            return original(model)

        monkeypatch.setattr(adpbound.surrogate, "policy_ground_set", counted)
        args = ["bound-adp", "--generate", "random_mdp", "--states", "3", "--actions", "3",
                "--K", "3", "--scheme", "myopic", "--out", str(tmp_path)]
        assert main(args + ["--budget", "80"]) == 3
        assert "stage-wise selection check needs 81 evaluations" in capsys.readouterr().err
        assert built == []
        assert main(args + ["--budget", "81"]) == 0
        assert built
        assert read_json(tmp_path / "instance_0000.json")["flags"] == ["bound_not_computed"]

    def test_table_objective_is_refused_like_a_callable(self, tmp_path, capsys):
        # A generated objective carries its tables, but the report still
        # counts 7^0 + ... + 7^5 = 19,608 strings against the budget.
        assert main(["verify-theorem1", "--generate", "random_monotone_marginals", "--K", "5",
                     "--ground-size", "7", "--budget", "100", "--out", str(tmp_path)]) == 3
        assert "string tabulation needs 19608 evaluations" in capsys.readouterr().err
        assert not list(tmp_path.glob("instance_*.json"))

    def test_large_string_sweep_fits_the_default_budget(self, tmp_path):
        # 12^0 + ... + 12^5 = 271,453 strings.
        assert main(["verify-theorem1", "--generate", "coverage_submodular", "--K", "5",
                     "--ground-size", "12", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("instance_*.json"))) == 1


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
