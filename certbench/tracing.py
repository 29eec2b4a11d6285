"""Per-layer spans for the traced run.

The traced run makes the same CLI call as the end-to-end run, with the library
functions the CLI calls wrapped in place so their time inside the operation is
known (``traced_operation``).  It then calls each layer's public functions on
the same inputs, one span per call.  Spans are recorded from the benchmark's
side of each layer boundary and kept in memory; ``Tracer.dump`` writes them
out once the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

from adpbound import cli
from adpbound.generators import GeneratedInstanceSpec, generate_string_instances
from adpbound.mdp import bellman_solve, load_model
from adpbound.schemes import adp_forward, make_scheme
from adpbound.stringopt import (
    StringObjective,
    check_diminishing_return,
    check_prefix_monotone,
    forward_curvature_sigma,
    greedy_guarantee_report,
    greedy_string,
    optimal_string_bruteforce,
    total_curvature_eta,
)
from adpbound.surrogate import (
    check_adp_pdao_identity,
    check_pdao_gps_equivalence,
    check_surrogate_monotonicity,
    policy_string_objective,
)

from workloads import Operation

# The per-layer metrics BENCHMARK.json declares.  Each is the median over the
# traced operations of the operation's value: seconds in the named spans, or a
# count or ratio recorded for it.
SPAN_METRICS = (
    "generators.generate_s",
    "mdp.bellman_solve_s",
    "schemes.w_table_s",
    "schemes.adp_forward_s",
    "surrogate.values_s",
    "surrogate.pdao_gps_s",
    "surrogate.adp_pdao_s",
    "surrogate.monotonicity_s",
    "surrogate.bound_report_s",
    "stringopt.greedy_s",
    "stringopt.bruteforce_s",
    "stringopt.prefix_monotone_s",
    "stringopt.diminishing_return_s",
    "stringopt.eta_s",
    "stringopt.sigma_s",
    "stringopt.guarantee_report_s",
    "reporting.emit_s",
    "cli.op_s",
    "cli.self_s",
)
COUNT_METRICS = (
    "schemes.w_calls",
    "surrogate.values",
    "surrogate.path_steps",
    "surrogate.monotonicity_nodes",
    "stringopt.evaluate_calls",
    "stringopt.distinct_strings",
)
RATIO_METRICS = ("stringopt.memo_hit_ratio",)


class CountingObjective:
    """Wrap a string objective's ``evaluate`` to count calls and distinct strings."""

    def __init__(self, inner: StringObjective) -> None:
        self._inner = inner.evaluate
        self.reset()
        self.objective = StringObjective(evaluate=self._evaluate, ground_size=inner.ground_size,
                                         horizon=inner.horizon)

    def _evaluate(self, string: tuple[int, ...]) -> float:
        self.calls += 1
        self.seen.add(tuple(string))
        return self._inner(string)

    def reset(self) -> None:
        self.calls = 0
        self.seen: set[tuple[int, ...]] = set()


class Tracer:
    """In-memory span store; one trace id per traced operation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []

    def span(self, trace: int, name: str, fn: Callable[[], Any], parent: str = "input") -> Any:
        """Time ``fn``; ``parent`` is the operation span for calls made inside it,
        else the traced input whose id the span carries."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.spans.append({"trace": trace, "name": name, "parent": parent,
                               "start": start, "end": time.perf_counter()})

    def record(self, trace: int, name: str, value: float) -> None:
        self.counts.append({"trace": trace, "name": name, "value": value})

    def duration(self, trace: int, name: str = "", parent: str = "") -> float:
        """Total seconds of the trace's spans with that name, or with that parent."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["trace"] == trace
                   and (span["name"] == name or span["parent"] == parent))

    def metrics(self, traces: list[int]) -> dict[str, float]:
        """Median per operation of every per-layer metric; 0 where a layer never ran.

        Spans and counts sharing a metric name within one operation are summed
        first; the memo hit ratio is taken from the summed counts.
        """
        per_trace: dict[str, list[float]] = {}
        for trace in traces:
            values = {name: 0.0 for name in SPAN_METRICS + COUNT_METRICS + RATIO_METRICS}
            for span in self.spans:
                if span["trace"] == trace and span["name"] in values:
                    values[span["name"]] += span["end"] - span["start"]
            for count in self.counts:
                if count["trace"] == trace:
                    values[count["name"]] += count["value"]
            calls = values["stringopt.evaluate_calls"]
            if calls:
                values["stringopt.memo_hit_ratio"] = (
                    1.0 - values["stringopt.distinct_strings"] / calls)
            for name, value in values.items():
                per_trace.setdefault(name, []).append(value)
        return {name: statistics.median(values) for name, values in per_trace.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n",
                        encoding="utf-8")


# Library functions the CLI calls for bound-adp and verify-theorem1, each timed
# inside the operation under the metric of the layer that owns it (or under
# its own name when no per-layer metric needs it).  Whatever the operation
# spends outside them is the CLI's self time.
CLI_CALLEES = {
    "load_model": "cli>load_model",
    "make_scheme": "cli>make_scheme",
    "adp_bound_report": "surrogate.bound_report_s",
    "bound_report_to_dict": "cli>bound_report_to_dict",
    "generate_string_instances": "cli>generate_string_instances",
    "greedy_guarantee_report": "cli>greedy_guarantee_report",
    "curvature_report_to_dict": "cli>curvature_report_to_dict",
    "json_text": "reporting.emit_s",
    "csv_text": "reporting.emit_s",
    "write_text_atomic": "reporting.emit_s",
}


def traced_operation(tracer: Tracer, trace: int, run: Callable[[], Any]) -> Any:
    """Run one CLI operation with its callees timed; records ``cli.self_s``.

    The callees are rebound on the ``adpbound.cli`` module for the duration of
    the call only and restored afterwards, so no program file changes.
    """
    originals = {name: getattr(cli, name) for name in CLI_CALLEES}

    def timed(name: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            return tracer.span(trace, CLI_CALLEES[name], lambda: fn(*args, **kwargs),
                               parent="cli.op_s")
        return call

    for name, fn in originals.items():
        setattr(cli, name, timed(name, fn))
    try:
        result = tracer.span(trace, "cli.op_s", run)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    tracer.record(trace, "cli.self_s", tracer.duration(trace, name="cli.op_s")
                  - tracer.duration(trace, parent="cli.op_s"))
    return result


def _load_base(path: Optional[Path]):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return tuple(tuple(int(a) for a in stage) for stage in json.load(handle))


def _stringopt_spans(tracer: Tracer, trace: int, f: StringObjective, horizon: int) -> None:
    counted = CountingObjective(f)
    g = counted.objective
    greedy = tracer.span(trace, "stringopt.greedy_s", lambda: greedy_string(g, horizon))
    tracer.span(trace, "stringopt.bruteforce_s", lambda: optimal_string_bruteforce(g, horizon))
    tracer.span(trace, "stringopt.prefix_monotone_s", lambda: check_prefix_monotone(g, horizon))
    tracer.span(trace, "stringopt.diminishing_return_s",
                lambda: check_diminishing_return(g, horizon))
    tracer.span(trace, "stringopt.eta_s", lambda: total_curvature_eta(g, greedy, horizon))
    tracer.span(trace, "stringopt.sigma_s", lambda: forward_curvature_sigma(g, greedy, horizon))
    counted.reset()
    tracer.span(trace, "stringopt.guarantee_report_s", lambda: greedy_guarantee_report(g, horizon))
    tracer.record(trace, "stringopt.evaluate_calls", counted.calls)
    tracer.record(trace, "stringopt.distinct_strings", len(counted.seen))


def trace_model_operation(tracer: Tracer, trace: int, op: Operation,
                          generate_seconds: float) -> None:
    """Layer spans of one ``bound-adp`` operation, after the operation itself."""
    tracer.record(trace, "generators.generate_s", generate_seconds)
    model = load_model(op.model_path)
    base = _load_base(op.base_policy_path)
    K, S, A, N = model.horizon, model.num_states, model.num_actions, model.noise_size
    tracer.span(trace, "mdp.bellman_solve_s", lambda: bellman_solve(model))

    scheme = make_scheme(model, op.scheme_or_kind, base_policy=base)

    def w_table() -> None:
        for stage, x, a in itertools.product(range(1, K + 1), range(S), range(A)):
            scheme.evaluate(stage, x, a)

    tracer.span(trace, "schemes.w_table_s", w_table)
    tracer.record(trace, "schemes.w_calls", K * S * A)
    tracer.span(trace, "schemes.adp_forward_s", lambda: adp_forward(model, scheme))

    obj = policy_string_objective(model, scheme)
    P = len(obj.ground)

    def values() -> None:
        for k in range(1, K + 1):
            for string in itertools.product(range(P), repeat=k):
                obj.objective.evaluate(string)

    tracer.span(trace, "surrogate.values_s", values)
    tracer.record(trace, "surrogate.values", sum(P**k for k in range(1, K + 1)))
    tracer.record(trace, "surrogate.path_steps",
                  sum(P**k * N ** (k - 1) * k for k in range(1, K + 1)))
    tracer.span(trace, "surrogate.pdao_gps_s", lambda: check_pdao_gps_equivalence(obj))
    tracer.span(trace, "surrogate.adp_pdao_s", lambda: check_adp_pdao_identity(model, scheme))
    tracer.span(trace, "surrogate.monotonicity_s",
                lambda: check_surrogate_monotonicity(model, scheme))
    tracer.record(trace, "surrogate.monotonicity_nodes", sum(P**n for n in range(1, K + 1)))
    # Every surrogate value is memoized by now, so these spans time stringopt alone.
    _stringopt_spans(tracer, trace, obj.objective, K)


def trace_string_operation(tracer: Tracer, trace: int, op: Operation) -> None:
    """Layer spans of one ``verify-theorem1`` operation, after the operation itself."""
    spec = GeneratedInstanceSpec(kind=op.scheme_or_kind, count=op.count, seed=op.instance_seed,
                                 ground_size=op.ground, horizon=op.horizon)
    for f in tracer.span(trace, "generators.generate_s", lambda: generate_string_instances(spec)):
        _stringopt_spans(tracer, trace, f, op.horizon)
