"""The benchmark's own tests: smoke runs, input determinism and the oracles' teeth.

Run from the repository root (a few seconds per smoke run):

    python3 -m pytest certbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
from workloads import SMOKE_WORKLOADS, make_round  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "certbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_depend_only_on_the_seed(tmp_path):
    shape = SMOKE_WORKLOADS["policy-wide"]
    make_round(shape, 7, tmp_path / "a")
    make_round(shape, 7, tmp_path / "b")
    make_round(shape, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    read = lambda d, n: (tmp_path / d / n).read_bytes()  # noqa: E731
    assert all(read("a", n) == read("b", n) for n in names)
    assert any(read("a", n) != read("c", n) for n in names)


def test_oracles_reject_a_wrong_scheme_value(tmp_path):
    (op, *_), _ = make_round(SMOKE_WORKLOADS["policy-wide"], 7, tmp_path)
    from adpbound.cli import main

    out = tmp_path / "report.json"
    assert main(op.argv(out)) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    model = oracles.ModelTables.load(op.model_path)
    oracles.check_bound_report(report, model, op.scheme_or_kind, None)
    for field, scale in (("adp_value", 1 + 1e-7), ("optimal_value", 1 + 1e-7),
                         ("bound_finite_K", 1.01)):
        wrong = dict(report, **{field: report[field] * scale})
        with pytest.raises(oracles.OracleError):
            oracles.check_bound_report(wrong, model, op.scheme_or_kind, None)


def test_oracles_follow_near_ties_instead_of_guessing():
    values = {(): 0.0, (0,): 1.0, (1,): 1.0 + 1e-15, (0, 0): 1.0, (0, 1): 3.0,
              (1, 0): 2.0, (1, 1): 1.0 + 1e-15}
    assert sorted(oracles.greedy_values(values.__getitem__, 2, 2)) == [2.0, 3.0]

    def model(rewards):
        return oracles.ModelTables({
            "states": 2, "actions": 2, "horizon": 2, "initial_state": 0,
            "noise": {"support": [0], "probs": [1.0]},
            "transition": [[[1], [1]], [[1], [1]]], "reward": rewards,
        })

    tied = model([[1.0, 1.0 + 1e-14], [0.0, 5.0]])
    assert len(oracles.scheme_values(tied, None)) == 2
    assert oracles.scheme_has_reached_tie(tied, None)
    assert not oracles.scheme_has_reached_tie(model([[1.0, 2.0], [0.0, 5.0]]), None)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "certbench",
                    ignore=shutil.ignore_patterns("out", "trace", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
