"""Byte-identical reports: small CLI runs compared with committed outputs.

Each case reruns one command in process into ``tmp_path`` and compares every
file it writes, byte for byte, with the file of the same name under
``tests/golden/<case>``.  A change that moves one report value by one bit, or
adds, drops or reorders a field, fails here.  The sweeps write one directory
each; ``solve-dp`` and ``run-adp`` write a single ``report.json``.  Their
inputs (two seed-5 generated models and one base-policy table) are under
``tests/golden/inputs``.

When a change is meant to alter the reports, regenerate the files from the
repository root and say in the change why they moved::

    find tests/golden -mindepth 1 -maxdepth 1 ! -name inputs -exec rm -rf {} +
    for scheme in myopic rollout linearq exact_evtg; do
      for noise in 2 3; do
        PYTHONPATH=src python -m adpbound.cli bound-adp --generate random_mdp \\
          --count 2 --seed 5 --states 2 --actions 2 --noise $noise --K 3 \\
          --scheme $scheme --out tests/golden/bound-adp-$scheme-S2A2N${noise}K3
      done
    done
    for kind in coverage_submodular random_monotone_marginals random_string_fn; do
      PYTHONPATH=src python -m adpbound.cli verify-theorem1 --generate $kind \\
        --count 2 --seed 5 --K 3 --ground-size 3 --out tests/golden/verify-theorem1-$kind
    done
    for noise in 2 3; do
      model=tests/golden/inputs/model-S2A2N${noise}K3.json
      PYTHONPATH=src python -m adpbound.cli solve-dp --model $model \\
        --out tests/golden/solve-dp-S2A2N${noise}K3/report.json
      for scheme in myopic rollout exact_evtg; do
        base=; [ $scheme = rollout ] && base="--base-policy tests/golden/inputs/base-policy-S2K3.json"
        PYTHONPATH=src python -m adpbound.cli run-adp --model $model --scheme $scheme $base \\
          --out tests/golden/run-adp-$scheme-S2A2N${noise}K3/report.json
      done
      PYTHONPATH=src python -m adpbound.cli run-adp --model $model --scheme myopic \\
        --mc 200 --seed 5 --out tests/golden/run-adp-mc-myopic-S2A2N${noise}K3/report.json
    done

The model files were written once with ``save_model`` from
``generate_mdp_instances(GeneratedInstanceSpec(kind="random_mdp", count=1,
seed=5, horizon=3, num_states=2, num_actions=2, noise_size=N))``; they are
inputs, not outputs, and stay as committed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from adpbound.cli import SCHEME_NAMES, main
from adpbound.generators import STRING_KINDS

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
BASE_POLICY = ["--base-policy", str(INPUTS / "base-policy-S2K3.json")]


def _model(noise: int) -> list[str]:
    return ["--model", str(INPUTS / f"model-S2A2N{noise}K3.json")]


SWEEPS = {
    **{
        f"bound-adp-{scheme}-S2A2N{noise}K3": [
            "bound-adp", "--generate", "random_mdp", "--count", "2", "--seed", "5",
            "--states", "2", "--actions", "2", "--noise", str(noise), "--K", "3",
            "--scheme", scheme,
        ]
        for scheme in SCHEME_NAMES
        for noise in (2, 3)
    },
    **{
        f"verify-theorem1-{kind}": [
            "verify-theorem1", "--generate", kind, "--count", "2", "--seed", "5",
            "--K", "3", "--ground-size", "3",
        ]
        for kind in STRING_KINDS
    },
}

SINGLES = {
    **{f"solve-dp-S2A2N{noise}K3": ["solve-dp", *_model(noise)] for noise in (2, 3)},
    **{
        f"run-adp-{scheme}-S2A2N{noise}K3": [
            "run-adp", *_model(noise), "--scheme", scheme,
            *(BASE_POLICY if scheme == "rollout" else []),
        ]
        for scheme in ("myopic", "rollout", "exact_evtg")
        for noise in (2, 3)
    },
    **{
        f"run-adp-mc-myopic-S2A2N{noise}K3": [
            "run-adp", *_model(noise), "--scheme", "myopic", "--mc", "200", "--seed", "5",
        ]
        for noise in (2, 3)
    },
}

CASES = {**SWEEPS, **SINGLES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_the_committed_bytes(case, tmp_path):
    out = tmp_path / case
    target = out / "report.json" if case in SINGLES else out
    assert main(CASES[case] + ["--out", str(target)]) == 0
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, f"{case}/{name} differs from the committed report"
