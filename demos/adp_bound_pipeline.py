#!/usr/bin/env python3
"""End-to-end certification of forward ADP schemes on one model.

For each continuation approximator the pipeline recasts the forward scheme as
the greedy strategy of an averaged surrogate over policy strings, measures the
surrogate's curvatures by exhaustive enumeration, and certifies the achieved
fraction of the optimum whenever the monotonicity condition holds.
"""

import numpy as np

from adpbound import (
    MdpModel,
    adp_bound_report,
    bellman_solve,
    exact_evtg_w,
    linear_q_w,
    myopic_w,
    rollout_w,
)


def chain() -> MdpModel:
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=2,
        initial_state=0,
        noise_probs=[1.0],
        transition=[[[0], [1]], [[1], [1]]],
        reward=[[1.0, 0.0], [5.0, 5.0]],
        features=[[1.0], [1.0]],
    )


def main() -> None:
    model = chain()
    _, tables = bellman_solve(model)
    print(f"Chain model optimum: {tables.V[0, model.initial_state]:.1f}\n")

    schemes = {
        "myopic": myopic_w(model),
        "rollout(stay base)": rollout_w(model, ((0, 0), (0, 0))),
        "linearq(theta=2,5)": linear_q_w(model, np.array([[2.0], [5.0]])),
        "exact value-to-go": exact_evtg_w(model),
    }

    header = f"{'scheme':<20} {'value':>6} {'ratio':>6} {'eta':>7} {'sigma':>6} {'bound':>6} {'certified':>9}"
    print(header)
    print("-" * len(header))
    for name, scheme in schemes.items():
        report = adp_bound_report(model, scheme)
        c = report.curvature
        print(
            f"{name:<20} {report.adp_value:>6.2f} {report.ratio:>6.2f} "
            f"{c.eta:>7.2f} {c.sigma:>6.2f} {c.bound_finite_K:>6.2f} "
            f"{str(report.monotone_certificate):>9}"
        )

    print(
        "\nThe myopic scheme is always certified (zero continuation, nonnegative"
        "\nrewards), and its achieved ratio 0.40 respects the certified bound."
        "\nThe rollout surrogate is not prefix-monotone here, so its (perfect)"
        "\nratio is reported without a certificate."
    )


if __name__ == "__main__":
    main()
