"""Byte-identical reports: small CLI runs compared with committed outputs.

Each case reruns one command in process into ``tmp_path`` and compares every
file it writes, byte for byte, with the file of the same name under
``tests/golden/<case>``.  A change that moves one report value by one bit, or
adds, drops or reorders a field, fails here.

When a change is meant to alter the reports, regenerate the files from the
repository root and say in the change why they moved::

    rm -rf tests/golden
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
"""

from __future__ import annotations

from pathlib import Path

import pytest

from adpbound.cli import SCHEME_NAMES, main
from adpbound.generators import STRING_KINDS

GOLDEN = Path(__file__).parent / "golden"

CASES = {
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_the_committed_bytes(case, tmp_path):
    out = tmp_path / case
    assert main(CASES[case] + ["--out", str(out)]) == 0
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, f"{case}/{name} differs from the committed report"
