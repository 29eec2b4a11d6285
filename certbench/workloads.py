"""Workload definitions: the inputs each workload generates and the CLI calls it makes.

A workload is a fixed *round* of operations.  Every run repeats whole rounds,
so the mix of operations (and therefore the median) is the same in every run
whatever its length.  All inputs derive from the benchmark seed; the program
sees only the files written here (models and base policies) or, for
``string-sweep``, the instance seed passed on its command line.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from adpbound.generators import (
    GeneratedInstanceSpec,
    generate_mdp_instances,
    random_base_policy,
)
from adpbound.mdp import save_model

import oracles


@dataclass(frozen=True)
class Shape:
    """One input shape per workload, so each median describes one population."""

    command: str  # "bound-adp" or "verify-theorem1"
    schemes_or_kinds: tuple[str, ...]  # one entry per operation of the round
    counts: tuple[int, ...] = ()  # verify-theorem1 --count per operation; 1 if empty
    states: int = 0
    actions: int = 0
    noise: int = 0
    horizon: int = 0
    ground: int = 0


# policy-wide: 27 stage policies, 19,683 full strings, two noise symbols.
# Myopic and rollout alternate; their run times overlap, so the round is one
# population.
# noise-deep: 4 policies but 3^4 = 81 noise paths per full evaluation.
# Rollout is 6 of 8 operations so the median falls inside the rollout cluster.
# string-sweep: stringopt alone on generated callables.  A coverage objective
# costs about twice a monotone-marginals one (it runs the diminishing-return
# check to its end), so a coverage call reports 2 objectives and a
# monotone-marginals call 4: both kinds of call then take about the same time.
# Coverage is 6 of 8 calls, so the median falls inside its cluster rather than
# between the two.  Several objectives per call also average the machine's
# sub-second slow-downs within each operation.
WORKLOADS: dict[str, Shape] = {
    "policy-wide": Shape(
        command="bound-adp",
        schemes_or_kinds=("myopic", "rollout") * 4,
        states=3, actions=3, noise=2, horizon=3,
    ),
    "noise-deep": Shape(
        command="bound-adp",
        schemes_or_kinds=("rollout", "rollout", "rollout", "myopic") * 2,
        states=2, actions=2, noise=3, horizon=5,
    ),
    "string-sweep": Shape(
        command="verify-theorem1",
        schemes_or_kinds=("random_monotone_marginals", "coverage_submodular",
                          "coverage_submodular", "coverage_submodular") * 2,
        counts=(4, 2, 2, 2) * 2,
        ground=7, horizon=5,
    ),
}

# Tiny shapes for the smoke mode: same code paths, a fraction of a second each.
SMOKE_WORKLOADS: dict[str, Shape] = {
    "policy-wide": Shape(command="bound-adp", schemes_or_kinds=("myopic", "rollout"),
                         states=2, actions=2, noise=2, horizon=3),
    "noise-deep": Shape(command="bound-adp", schemes_or_kinds=("rollout", "myopic"),
                        states=2, actions=2, noise=3, horizon=3),
    "string-sweep": Shape(command="verify-theorem1",
                          schemes_or_kinds=("random_monotone_marginals", "coverage_submodular"),
                          counts=(2, 1), ground=3, horizon=3),
}


@dataclass(frozen=True)
class Operation:
    """One CLI call of a round, with everything the oracles need to check it."""

    index: int
    command: str
    scheme_or_kind: str
    model_path: Optional[Path] = None
    base_policy_path: Optional[Path] = None
    instance_seed: Optional[int] = None
    count: int = 1
    ground: int = 0
    horizon: int = 0

    def argv(self, out: Path) -> list[str]:
        if self.command == "bound-adp":
            args = ["bound-adp", "--model", str(self.model_path),
                    "--scheme", self.scheme_or_kind, "--jobs", "1", "--out", str(out)]
            if self.base_policy_path is not None:
                args += ["--base-policy", str(self.base_policy_path)]
            return args
        return ["verify-theorem1", "--generate", self.scheme_or_kind, "--count", str(self.count),
                "--K", str(self.horizon), "--ground-size", str(self.ground),
                "--seed", str(self.instance_seed), "--jobs", "1", "--out", str(out)]

    def report_paths(self, out: Path) -> list[Path]:
        """Where the operation's reports land for a given ``--out``, one per instance."""
        if self.command == "verify-theorem1":
            return [out / f"instance_{i:04d}.json" for i in range(self.count)]
        return [out]


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed % 2**64, spawn_key=key)


def make_round(shape: Shape, seed: int, input_dir: Path) -> tuple[list[Operation], list[float]]:
    """Generate and write one round's inputs.

    Returns the operations and, per operation's model, the seconds spent in the
    program's ``generators`` layer producing it (model workloads only;
    ``string-sweep`` objectives are generated inside the operation).

    A model (with its base policy) on which the forward scheme faces a tie at
    a reachable (stage, state) is replaced by the next draw: on such ties the
    forward and path-dependent schemes may break the tie differently, so
    ``prop1_verified`` reads false on some seeds only (see CHANGES.md).
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Operation] = []
    gen_seconds: list[float] = []
    if shape.command == "verify-theorem1":
        rng = np.random.Generator(np.random.PCG64(seed_sequence(seed, 0)))
        counts = shape.counts or (1,) * len(shape.schemes_or_kinds)
        for i, (kind, count) in enumerate(zip(shape.schemes_or_kinds, counts)):
            ops.append(Operation(index=i, command=shape.command, scheme_or_kind=kind,
                                 instance_seed=int(rng.integers(0, 2**31)), count=count,
                                 ground=shape.ground, horizon=shape.horizon))
        return ops, gen_seconds
    for i, scheme in enumerate(shape.schemes_or_kinds):
        for attempt in itertools.count():
            spec = GeneratedInstanceSpec(
                kind="random_mdp", count=1,
                seed=int(seed_sequence(seed, i, attempt).generate_state(1)[0]),
                horizon=shape.horizon, num_states=shape.states,
                num_actions=shape.actions, noise_size=shape.noise,
            )
            t0 = time.perf_counter()
            (model,) = generate_mdp_instances(spec)
            generate_s = time.perf_counter() - t0
            model_path = input_dir / f"model-{i}.json"
            save_model(model, model_path)
            base = None
            if scheme == "rollout":
                rng = np.random.Generator(np.random.PCG64(seed_sequence(seed, i, attempt, 1)))
                base = random_base_policy(rng, model)
            if not oracles.scheme_has_reached_tie(oracles.ModelTables.load(model_path), base):
                break
        gen_seconds.append(generate_s)
        base_path = None
        if base is not None:
            base_path = input_dir / f"base-{i}.json"
            base_path.write_text(json.dumps([list(stage) for stage in base]) + "\n",
                                 encoding="utf-8")
        ops.append(Operation(index=i, command=shape.command, scheme_or_kind=scheme,
                             model_path=model_path, base_policy_path=base_path,
                             horizon=shape.horizon))
    return ops, gen_seconds
