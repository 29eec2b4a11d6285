"""Certification benchmark for adpbound: three closed-loop workloads through the CLI.

Usage, from the repository root:

    python3 certbench/run.py --workload policy-wide --seed 1 --seconds 30 --trace 0
    python3 certbench/run.py --workload string-sweep --smoke

One operation is one in-process ``adpbound.cli.main([...])`` call; one client
issues them one at a time.  With ``--trace 0`` the run times whole rounds of
operations for ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it makes the same calls, then times each layer's public calls on
the same inputs and reports the per-layer metrics.  Every report is checked
against the independent oracles in ``oracles.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRACE_DIR = BENCH_DIR / "trace"

WORKLOAD_NAMES = ("policy-wide", "noise-deep", "string-sweep")
# Set-up is dominated by interpreter start and the numpy import, whose cost
# swings by tens of percent from one start to the next, as does this machine's
# speed from one ten-second stretch to the next.  Set-up is therefore measured
# in fresh processes before the first round and after every round, and the
# median reported, so its samples span the whole run as the operations do.
SETUP_PROBES_PER_ROUND = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_p50_s": "s",
    "certify_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase; whole rounds run until it is over")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round, two set-up probes: a few seconds in all")
    parser.add_argument("--setup-probe", dest="setup_probe", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args: argparse.Namespace, input_dir: Path):
    """Input generation and input files; ``main`` has imported the program by then."""
    from workloads import SMOKE_WORKLOADS, WORKLOADS, make_round

    shape = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    return make_round(shape, args.seed, input_dir)


def measure_set_up(args: argparse.Namespace, probe: int) -> float:
    """Seconds from spawning a fresh runner until its first operation could begin.

    The probe is this script in a new interpreter doing only the set-up; it
    prints the monotonic clock (system-wide on Linux) once set-up is done.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed),
               "--setup-probe", str(OUT_DIR / args.workload / f"probe-{probe}")]
    if args.smoke:
        command.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def run_operation(argv: list[str]) -> int | None:
    """One CLI call; an unexpected exception counts as a failed operation."""
    from adpbound.cli import main as cli_main

    try:
        return cli_main(argv)
    except Exception:  # the loop must go on; the traceback says what broke
        traceback.print_exc()
        return None


def out_path(op, n: int, out_dir: Path) -> Path:
    return out_dir / (f"op-{n:05d}.json" if op.command == "bound-adp" else f"op-{n:05d}")


def check_reports(records: list) -> tuple[int, list[str]]:
    """Check every successful operation's report.

    Returns the number of failed operations and the checks that did not hold.

    The first reports of each input are checked against the oracles; later
    reports of the same input must be byte-identical to them, since the program
    promises reruns that reproduce byte for byte.
    """
    import oracles
    from adpbound.generators import GeneratedInstanceSpec, generate_string_instances

    first: dict[int, list[str]] = {}
    failed = 0
    errors: list[str] = []
    for op, out, rc in records:
        if rc != 0:
            failed += 1
            print(f"operation on input {op.index} ({op.scheme_or_kind}) exited {rc}",
                  file=sys.stderr)
            continue
        try:
            texts = [path.read_text(encoding="utf-8") for path in op.report_paths(out)]
            if op.index in first:
                if texts != first[op.index]:
                    errors.append(f"input {op.index}: rerun report differs from the first")
                continue
            first[op.index] = texts
            reports = [json.loads(text) for text in texts]
            if op.command == "bound-adp":
                base = None
                if op.base_policy_path is not None:
                    base = json.loads(op.base_policy_path.read_text(encoding="utf-8"))
                oracles.check_bound_report(reports[0], oracles.ModelTables.load(op.model_path),
                                           op.scheme_or_kind, base)
            else:
                spec = GeneratedInstanceSpec(kind=op.scheme_or_kind, count=op.count,
                                             seed=op.instance_seed, ground_size=op.ground,
                                             horizon=op.horizon)
                for report, f in zip(reports, generate_string_instances(spec), strict=True):
                    oracles.check_string_report(report, f.evaluate, op.scheme_or_kind,
                                                op.ground, op.horizon)
        except (oracles.OracleError, OSError, ValueError, KeyError, TypeError) as exc:
            # A missing, unreadable or malformed report is a wrong output too.
            errors.append(f"input {op.index} ({op.scheme_or_kind}): {exc}")
    return failed, errors


def run_rounds(ops, args, out_dir: Path, call, between=None) -> tuple[list, float]:
    """Repeat whole rounds until ``--seconds`` have been spent in them.

    One round in smoke mode.  ``between`` runs after every round, outside the
    timed phase.  Returns the records and the seconds spent in rounds.
    """
    records = []
    in_rounds = 0.0
    while True:
        start = time.perf_counter()
        for op in ops:
            out = out_path(op, len(records), out_dir)
            records.append((op, out, call(op, len(records), op.argv(out))))
        in_rounds += time.perf_counter() - start
        if between is not None:
            between()
        if args.smoke or in_rounds >= args.seconds:
            return records, in_rounds


def end_to_end(args: argparse.Namespace, ops, out_dir: Path) -> tuple[list, dict]:
    setup_samples: list[float] = []

    def probe_set_up() -> None:
        for _ in range(1 if args.smoke else SETUP_PROBES_PER_ROUND):
            setup_samples.append(measure_set_up(args, len(setup_samples)))

    durations: list[float] = []

    def call(op, n, argv):
        t0 = time.perf_counter()
        rc = run_operation(argv)
        if rc == 0:
            durations.append(time.perf_counter() - t0)
        return rc

    probe_set_up()
    records, phase_s = run_rounds(ops, args, out_dir, call, between=probe_set_up)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not durations:
        raise RuntimeError("no operation succeeded, so there is nothing to report")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "certify_p50_s": statistics.median(durations),
        "certify_per_s": len(durations) / phase_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return records, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                     for name, value in metrics.items()}


def traced(args: argparse.Namespace, ops, gen_seconds: list[float], out_dir: Path
           ) -> tuple[list, dict]:
    from tracing import (
        COUNT_METRICS,
        RATIO_METRICS,
        Tracer,
        trace_model_operation,
        trace_string_operation,
        traced_operation,
    )

    tracer = Tracer()
    ok: list[int] = []

    def call(op, n, argv):
        rc = traced_operation(tracer, n, lambda: run_operation(argv))
        if rc == 0:
            ok.append(n)
            if op.command == "bound-adp":
                trace_model_operation(tracer, n, op, gen_seconds[op.index])
            else:
                trace_string_operation(tracer, n, op)
        return rc

    records, _ = run_rounds(ops, args, out_dir, call)
    tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    if not ok:
        raise RuntimeError("no operation succeeded, so there is nothing to report")
    units = {name: "count" for name in COUNT_METRICS}
    units.update({name: "ratio" for name in RATIO_METRICS})
    return records, {name: {"value": value, "unit": units.get(name, "s")}
                     for name, value in tracer.metrics(ok).items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "adpbound" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'adpbound'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adpbound.cli  # noqa: F401  set-up includes importing the operation's entry point

    if args.setup_probe is not None:
        set_up(args, args.setup_probe)
        print(time.monotonic())
        return 0

    out_dir = OUT_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    ops, gen_seconds = set_up(args, out_dir / "inputs")
    try:
        if args.trace:
            records, metrics = traced(args, ops, gen_seconds, out_dir)
        else:
            records, metrics = end_to_end(args, ops, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed, errors = check_reports(records)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
