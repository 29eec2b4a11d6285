"""Command-line front end for exact solving, forward schemes, and certified bounds.

Commands
--------
solve-dp          backward induction: value tables and the optimal policy
run-adp           roll a scheme forward (exact expectation or seeded Monte Carlo)
bound-adp         certify one scheme: exact values, the curvature bound, the
                  monotonicity certificate and the scheme identities
                  (the forward run is path- and stage-wise greedy)
verify-theorem1   guarantee sweep over generated string objectives

Each command declares only the options it reads: --jobs and --strict belong to
the two sweep commands (bound-adp, verify-theorem1), and solve-dp takes
neither --budget nor --seed.  An option the command would ignore is a parse
error: --theta without --scheme linearq, --base-policy without --scheme
rollout, and --count, --states, --actions or --noise without --generate.

Exit codes: 0 ok, 2 parse error, 3 budget exceeded, 4 failed certified
assertion (bound-adp also exits 4 when its forward run fails the Theorem 2 or
Proposition 1 check), 5 degenerate instance under --strict.  Reports carry no
timestamps, so a rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .common import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GuaranteeViolationError,
    ModelFormatError,
    UndefinedCurvatureError,
)
from .generators import (
    STRING_KINDS,
    GeneratedInstanceSpec,
    generate_mdp_instances,
    generate_string_instances,
    random_base_policy,
    random_theta,
)
from .mdp import MdpModel, PolicyString, _is_integer, bellman_solve, load_model, simulate_policy_mc
from .reporting import csv_text, json_text, write_text_atomic
from .schemes import adp_forward, make_scheme, scheme_policy
from .stringopt import StringObjective, greedy_guarantee_report
from .surrogate import adp_bound_report, bound_report_to_dict, curvature_report_to_dict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_ASSERTION = 4
EXIT_DEGENERATE = 5

SCHEME_NAMES = ("myopic", "rollout", "linearq", "exact_evtg")

# The sizes of generated models and their defaults; each needs --generate.
GENERATE_SIZES = {"count": 1, "states": 2, "actions": 2, "noise": 2}

# Flags that mark an instance as degenerate for --strict escalation.
DEGENERATE_FLAGS = {
    "degenerate_zero_optimum",
    "eta_undefined",
    "sigma_undefined",
    "bound_not_computed",
}


def positive_int(text: str) -> int:
    """Argparse type for sizes and counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type for seeds (numpy's ``SeedSequence`` needs them nonnegative) and budgets."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# Options shared between commands; each command names the ones it reads.
SHARED_OPTIONS = {
    "--budget": dict(type=nonnegative_int, default=DEFAULT_BUDGET,
                     help="most strings or noise paths one exhaustive enumeration may "
                          "evaluate; counts, not time"),
    "--seed": dict(type=nonnegative_int, default=0, help="root seed for all randomness"),
    "--out": dict(type=str, default=None,
                  help="report file (or directory for sweeps); stdout if omitted"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--strict": dict(action="store_true",
                     help="exit 5 when any report carries a degenerate-instance flag"),
    "--jobs": dict(type=positive_int, default=1, help="parallel workers for sweep instances"),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **SHARED_OPTIONS[name])


def _add_scheme(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", choices=SCHEME_NAMES, required=True)
    parser.add_argument("--base-policy", dest="base_policy", type=str, default=None,
                        help="JSON [stage][state] action table for the rollout base")
    parser.add_argument("--theta", type=str, default=None,
                        help="JSON [action][dim] weight table for linearq")
    parser.add_argument("--K", dest="horizon", type=positive_int, default=None,
                        help="override the model horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adpbound",
        description="Exact finite-horizon control, forward ADP schemes, and certified greedy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve-dp", help="backward induction on a model file")
    solve.add_argument("--model", type=str, required=True)
    solve.add_argument("--K", dest="horizon", type=positive_int, default=None)
    _add_shared(solve, "--out", "--format")
    solve.set_defaults(func=cmd_solve_dp)

    run = sub.add_parser("run-adp", help="roll a scheme forward on a model file")
    run.add_argument("--model", type=str, required=True, help="model file (JSON)")
    _add_scheme(run)
    run.add_argument("--mc", type=positive_int, default=None, metavar="SAMPLES",
                     help="seeded Monte Carlo estimate instead of the exact expectation")
    _add_shared(run, "--budget", "--seed", "--out", "--format")
    run.set_defaults(func=cmd_run_adp)

    bound = sub.add_parser("bound-adp", help="certified performance bound for a scheme")
    source = bound.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", type=str, default=None, help="model file (JSON)")
    source.add_argument("--generate", choices=("random_mdp",), default=None,
                        help="generate models instead of reading --model")
    _add_scheme(bound)
    for name, default in GENERATE_SIZES.items():
        bound.add_argument(f"--{name}", type=positive_int, default=None,
                           help=f"with --generate (default {default})")
    _add_shared(bound, *SHARED_OPTIONS)
    bound.set_defaults(func=cmd_bound_adp)

    verify = sub.add_parser("verify-theorem1",
                            help="guarantee sweep over generated string objectives")
    verify.add_argument("--generate", choices=STRING_KINDS, required=True)
    verify.add_argument("--count", type=positive_int, default=1)
    verify.add_argument("--K", dest="horizon", type=positive_int, default=4)
    verify.add_argument("--ground-size", dest="ground_size", type=positive_int, default=3)
    _add_shared(verify, *SHARED_OPTIONS)
    verify.set_defaults(func=cmd_verify_theorem1)

    return parser


def _ignored_option(args: argparse.Namespace) -> Optional[str]:
    """Say why a given option would go unread by the command, or None if none would."""
    options = vars(args)
    if options.get("theta") is not None and args.scheme != "linearq":
        return "--theta is read only by --scheme linearq"
    if options.get("base_policy") is not None and args.scheme != "rollout":
        return "--base-policy is read only by --scheme rollout"
    if options.get("model") is not None:
        for name in GENERATE_SIZES:
            if options.get(name) is not None:
                return f"--{name} is read only with --generate"
    return None


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from None


def _load_model_with_horizon(path: str, horizon: Optional[int]) -> MdpModel:
    model = load_model(path)
    if horizon is not None:
        try:
            model = dataclasses.replace(model, horizon=horizon)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
    return model


def _scheme_inputs(
    args: argparse.Namespace,
) -> tuple[Optional[PolicyString], Optional[np.ndarray]]:
    """The parsed ``--base-policy`` and ``--theta`` files, or None where not given.

    Each file is read and parsed once per command, so every instance of a
    sweep gets the same inputs.
    """
    base_policy = None
    theta = None
    if args.base_policy is not None:
        raw = _load_json_file(args.base_policy)
        if not isinstance(raw, list) or not all(
            isinstance(stage, list) and all(map(_is_integer, stage)) for stage in raw
        ):
            raise ModelFormatError(
                "invalid base policy table: need one array of integer actions per stage"
            )
        base_policy = tuple(map(tuple, raw))
    if args.theta is not None:
        raw = _load_json_file(args.theta)
        try:
            theta = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"invalid theta table: {exc}") from None
    return base_policy, theta


def _scheme_for(model: MdpModel, args: argparse.Namespace,
                base_policy: Optional[PolicyString], theta: Optional[np.ndarray],
                index: int = 0):
    if getattr(args, "generate", None) is not None:
        # Generated sweeps derive missing scheme inputs from the seed.
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=args.seed, spawn_key=(index, 1)))
        )
        if args.scheme == "rollout" and base_policy is None:
            base_policy = random_base_policy(rng, model)
        if args.scheme == "linearq" and theta is None:
            theta = random_theta(rng, model)
    try:
        return make_scheme(model, args.scheme, base_policy=base_policy, theta=theta)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def _models_for(args: argparse.Namespace) -> list[MdpModel]:
    if args.generate is None:
        return [_load_model_with_horizon(args.model, args.horizon)]
    # Sizes are at least 1, so ``or`` fills in only the ones not given.
    sizes = {name: getattr(args, name) or default for name, default in GENERATE_SIZES.items()}
    spec = GeneratedInstanceSpec(
        kind="random_mdp",
        count=sizes["count"],
        seed=args.seed,
        horizon=args.horizon if args.horizon is not None else 2,
        num_states=sizes["states"],
        num_actions=sizes["actions"],
        noise_size=sizes["noise"],
    )
    return list(generate_mdp_instances(spec))


def _render(data, fmt: str) -> str:
    return json_text(data) if fmt == "json" else csv_text(data)


def _emit_single(data: dict, args: argparse.Namespace) -> None:
    text = _render(data, args.format)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_sweep(reports: list[dict], args: argparse.Namespace) -> None:
    if not args.out:
        sys.stdout.write(_render(reports, args.format))
        return
    outdir = Path(args.out)
    names = []
    for index, report in enumerate(reports):
        name = f"instance_{index:04d}.{args.format}"
        write_text_atomic(outdir / name, _render(report, args.format))
        names.append(name)
    index_rows = [
        {"instance": i, "file": names[i], **reports[i]} for i in range(len(reports))
    ]
    # The index is always written last so a finished index implies finished files.
    write_text_atomic(outdir / "index.csv", csv_text(index_rows))


def _sweep(args: argparse.Namespace, instances: Sequence, worker: Callable[[int, Any], dict],
           strict: bool = False, checked: tuple[str, ...] = ()) -> int:
    """Map ``worker(index, instance)`` over the instances, emit the reports, return the exit code.

    The exit code is 4 when a report is false under a ``checked`` key, else 5
    when ``strict`` and a report carries a degenerate flag, else 0.
    """
    if args.jobs == 1:
        reports = [worker(i, instance) for i, instance in enumerate(instances)]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(worker, range(len(instances)), instances))
    if args.generate is None:
        _emit_single(reports[0], args)
    else:
        _emit_sweep(reports, args)
    if not all(report[key] for report in reports for key in checked):
        return EXIT_ASSERTION
    if strict and any(set(report["flags"]) & DEGENERATE_FLAGS for report in reports):
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_solve_dp(args: argparse.Namespace) -> int:
    model = _load_model_with_horizon(args.model, args.horizon)
    policy, tables = bellman_solve(model)
    report = {
        "command": "solve-dp",
        "initial_value": float(tables.V[0, model.initial_state]),
        "initial_state": model.initial_state,
        "policy": [list(stage) for stage in policy],
        "values": tables.V.tolist(),
        "q_values": tables.Q.tolist(),
    }
    _emit_single(report, args)
    return EXIT_OK


def cmd_run_adp(args: argparse.Namespace) -> int:
    model = _load_model_with_horizon(args.model, args.horizon)
    scheme = _scheme_for(model, args, *_scheme_inputs(args))
    report: dict = {"command": "run-adp", "scheme": args.scheme}
    if args.mc is not None:
        mean, stderr = simulate_policy_mc(
            model, scheme_policy(model, scheme), samples=args.mc, seed=args.seed
        )
        report.update({"mode": "mc", "mc_samples": args.mc, "seed": args.seed,
                       "mc_mean": mean, "mc_stderr": stderr})
    else:
        run = adp_forward(model, scheme, budget=args.budget)
        report.update({
            "mode": "exact",
            "expected_value": run.expected_value,
            "paths": [dataclasses.asdict(record) for record in run.paths],
        })
    _emit_single(report, args)
    return EXIT_OK


def cmd_bound_adp(args: argparse.Namespace) -> int:
    models = _models_for(args)
    inputs = _scheme_inputs(args)

    def worker(index: int, model: MdpModel) -> dict:
        scheme = _scheme_for(model, args, *inputs, index=index)
        return bound_report_to_dict(adp_bound_report(model, scheme, budget=args.budget))

    return _sweep(args, models, worker, strict=args.strict,
                  checked=("theorem2_verified", "prop1_verified"))


def cmd_verify_theorem1(args: argparse.Namespace) -> int:
    spec = GeneratedInstanceSpec(
        kind=args.generate,
        count=args.count,
        seed=args.seed,
        ground_size=args.ground_size,
        horizon=args.horizon,
    )

    def worker(index: int, objective: StringObjective) -> dict:
        report = greedy_guarantee_report(objective, args.horizon, budget=args.budget)
        return {
            "instance": index,
            "kind": args.generate,
            "ground_size": args.ground_size,
            "horizon": args.horizon,
            "seed": args.seed,
            **curvature_report_to_dict(report),
        }

    return _sweep(args, generate_string_instances(spec), worker, strict=args.strict)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        ignored = _ignored_option(args)
        if ignored is not None:
            parser.error(ignored)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelFormatError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GuaranteeViolationError, UndefinedCurvatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
