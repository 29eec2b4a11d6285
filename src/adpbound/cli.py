"""Command-line front end for exact solving, forward schemes, and certified bounds.

Commands
--------
solve-dp          backward induction: value tables and the optimal policy
run-adp           roll a scheme forward (exact expectation or seeded Monte Carlo)
bound-adp         full certification pipeline for one scheme on one model
verify-theorem1   guarantee sweep over generated string objectives
check-equivalence scheme-identity checks (the forward run is path- and stage-wise greedy)

Exit codes: 0 ok, 2 parse error, 3 budget exceeded, 4 failed certified
assertion, 5 degenerate instance under --strict.  Reports carry no
timestamps, so a rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional

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
from .mdp import MdpModel, bellman_solve, load_model, simulate_policy_mc
from .reporting import csv_text, json_text, write_text_atomic
from .schemes import adp_forward, make_scheme, scheme_policy
from .stringopt import greedy_guarantee_report
from .surrogate import (
    adp_bound_report,
    bound_report_to_dict,
    check_path_greedy,
    check_stagewise_selection,
    curvature_report_to_dict,
    induced_stage_policies,
    policy_string_objective,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_ASSERTION = 4
EXIT_DEGENERATE = 5

SCHEME_NAMES = ("myopic", "rollout", "linearq", "exact_evtg")

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
    """Argparse type for seeds, which numpy's ``SeedSequence`` needs nonnegative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="maximum leaf evaluations per exhaustive enumeration")
    parser.add_argument("--seed", type=nonnegative_int, default=0,
                        help="root seed for all randomness")
    parser.add_argument("--out", type=str, default=None,
                        help="report file (or directory for sweeps); stdout if omitted")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--strict", action="store_true",
                        help="exit 5 when any report carries a degenerate-instance flag")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for sweep instances")


def _add_model_scheme(parser: argparse.ArgumentParser, scheme_required: bool) -> None:
    parser.add_argument("--model", type=str, default=None, help="model file (JSON)")
    parser.add_argument("--scheme", choices=SCHEME_NAMES, required=scheme_required,
                        default=None if scheme_required else "myopic")
    parser.add_argument("--base-policy", dest="base_policy", type=str, default=None,
                        help="JSON [stage][state] action table for the rollout base")
    parser.add_argument("--theta", type=str, default=None,
                        help="JSON [action][dim] weight table for linearq")
    parser.add_argument("--K", dest="horizon", type=positive_int, default=None,
                        help="override the model horizon")


def _add_mdp_generate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generate", choices=("random_mdp",), default=None,
                        help="generate models instead of reading --model")
    parser.add_argument("--count", type=positive_int, default=1)
    parser.add_argument("--states", type=positive_int, default=2)
    parser.add_argument("--actions", type=positive_int, default=2)
    parser.add_argument("--noise", type=positive_int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adpbound",
        description="Exact finite-horizon control, forward ADP schemes, and certified greedy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve-dp", help="backward induction on a model file")
    solve.add_argument("--model", type=str, required=True)
    solve.add_argument("--K", dest="horizon", type=positive_int, default=None)
    _add_common(solve)
    solve.set_defaults(func=cmd_solve_dp)

    run = sub.add_parser("run-adp", help="roll a scheme forward on a model file")
    _add_model_scheme(run, scheme_required=True)
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact expectation (default)")
    mode.add_argument("--mc", type=positive_int, default=None, metavar="SAMPLES",
                      help="seeded Monte Carlo estimate instead of enumeration")
    _add_common(run)
    run.set_defaults(func=cmd_run_adp)

    bound = sub.add_parser("bound-adp", help="certified performance bound for a scheme")
    _add_model_scheme(bound, scheme_required=True)
    _add_mdp_generate(bound)
    _add_common(bound)
    bound.set_defaults(func=cmd_bound_adp)

    verify = sub.add_parser("verify-theorem1",
                            help="guarantee sweep over generated string objectives")
    verify.add_argument("--generate", choices=STRING_KINDS, required=True)
    verify.add_argument("--count", type=positive_int, default=1)
    verify.add_argument("--K", dest="horizon", type=positive_int, default=4)
    verify.add_argument("--ground-size", dest="ground_size", type=positive_int, default=3)
    _add_common(verify)
    verify.set_defaults(func=cmd_verify_theorem1)

    check = sub.add_parser("check-equivalence",
                           help="check the forward run against the surrogate")
    _add_model_scheme(check, scheme_required=False)
    _add_mdp_generate(check)
    _add_common(check)
    check.set_defaults(func=cmd_check_equivalence)

    return parser


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


def _scheme_for(model: MdpModel, args: argparse.Namespace, index: int = 0):
    base_policy = None
    theta = None
    if args.base_policy is not None:
        raw = _load_json_file(args.base_policy)
        if isinstance(raw, dict):
            raw = raw.get("base_policy")
        try:
            base_policy = tuple(tuple(int(a) for a in stage) for stage in raw)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"invalid base policy table: {exc}") from None
    if args.theta is not None:
        raw = _load_json_file(args.theta)
        if isinstance(raw, dict):
            raw = raw.get("theta")
        try:
            theta = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"invalid theta table: {exc}") from None
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
    if args.generate is not None:
        spec = GeneratedInstanceSpec(
            kind="random_mdp",
            count=args.count,
            seed=args.seed,
            horizon=args.horizon if args.horizon is not None else 2,
            num_states=args.states,
            num_actions=args.actions,
            noise_size=args.noise,
        )
        return list(generate_mdp_instances(spec))
    if args.model is None:
        raise ModelFormatError("either --model or --generate is required")
    return [_load_model_with_horizon(args.model, args.horizon)]


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


def _map_jobs(worker: Callable[[int], dict], count: int, jobs: int) -> list[dict]:
    if jobs <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, range(count)))


def _strict_exit(reports: list[dict], strict: bool) -> int:
    if strict:
        for report in reports:
            if set(report.get("flags", ())) & DEGENERATE_FLAGS:
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
    if args.model is None:
        raise ModelFormatError("run-adp requires --model")
    model = _load_model_with_horizon(args.model, args.horizon)
    scheme = _scheme_for(model, args)
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
            "paths": [
                {
                    "noise": list(p.noise),
                    "probability": p.probability,
                    "states": list(p.states),
                    "actions": list(p.actions),
                    "reward": p.reward,
                }
                for p in run.paths
            ],
        })
    _emit_single(report, args)
    return EXIT_OK


def cmd_bound_adp(args: argparse.Namespace) -> int:
    models = _models_for(args)

    def worker(index: int) -> dict:
        model = models[index]
        scheme = _scheme_for(model, args, index=index)
        return bound_report_to_dict(adp_bound_report(model, scheme, budget=args.budget))

    reports = _map_jobs(worker, len(models), args.jobs)
    if len(models) == 1 and args.generate is None:
        _emit_single(reports[0], args)
    else:
        _emit_sweep(reports, args)
    return _strict_exit(reports, args.strict)


def cmd_verify_theorem1(args: argparse.Namespace) -> int:
    spec = GeneratedInstanceSpec(
        kind=args.generate,
        count=args.count,
        seed=args.seed,
        ground_size=args.ground_size,
        horizon=args.horizon,
    )
    instances = generate_string_instances(spec)

    def worker(index: int) -> dict:
        report = greedy_guarantee_report(instances[index], args.horizon, budget=args.budget)
        return {
            "instance": index,
            "kind": args.generate,
            "ground_size": args.ground_size,
            "horizon": args.horizon,
            "seed": args.seed,
            **curvature_report_to_dict(report),
        }

    reports = _map_jobs(worker, len(instances), args.jobs)
    _emit_sweep(reports, args)
    return _strict_exit(reports, args.strict)


def cmd_check_equivalence(args: argparse.Namespace) -> int:
    models = _models_for(args)

    def worker(index: int) -> dict:
        model = models[index]
        scheme = _scheme_for(model, args, index=index)
        obj = policy_string_objective(model, scheme, budget=args.budget)
        run = adp_forward(model, scheme, budget=args.budget)
        gps_ok, evidence = check_stagewise_selection(obj, induced_stage_policies(run, model))
        identity_ok, mismatches = check_path_greedy(obj.surrogate, run)
        return {
            "instance": index,
            "scheme": args.scheme,
            "theorem2_verified": gps_ok,
            "prop1_verified": identity_ok,
            "stage_gaps": [item.gap for item in evidence],
            "max_stage_gap": max(item.gap for item in evidence),
            "mismatched_paths": len(mismatches),
            "flags": [],
        }

    reports = _map_jobs(worker, len(models), args.jobs)
    if len(models) == 1 and args.generate is None:
        _emit_single(reports[0], args)
    else:
        _emit_sweep(reports, args)
    if not all(r["theorem2_verified"] and r["prop1_verified"] for r in reports):
        return EXIT_ASSERTION
    return _strict_exit(reports, args.strict)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelFormatError, FileNotFoundError, IsADirectoryError) as exc:
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
