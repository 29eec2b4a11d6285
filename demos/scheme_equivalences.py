#!/usr/bin/env python3
"""The two identities that make forward schemes boundable.

The forward scheme is run once and checked against the surrogate.  First
identity: on every noise path, each action it takes is a path-dependent
greedy choice, a maximizer of the surrogate's path score (the shared-prefix
reward terms cancel inside the argmax).  Second identity: the stage policies
the run induces attain the stage-wise selection maximum over the whole
policy ground set, so they form a greedy string of the averaged surrogate.
Both are checked exhaustively on a noisy model.
"""

from adpbound import (
    MdpModel,
    adp_forward,
    check_path_greedy,
    check_stagewise_selection,
    check_surrogate_monotonicity,
    induced_stage_policies,
    myopic_w,
    policy_string_objective,
    rollout_w,
)


def noisy_chain() -> MdpModel:
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=2,
        initial_state=0,
        noise_probs=[0.5, 0.5],
        transition=[[[0, 0], [1, 0]], [[1, 1], [1, 1]]],
        reward=[[1.0, 0.0], [5.0, 5.0]],
    )


def main() -> None:
    model = noisy_chain()
    schemes = {
        "myopic": myopic_w(model),
        "rollout(stay base)": rollout_w(model, ((0, 0), (0, 0))),
    }

    for name, scheme in schemes.items():
        print(f"=== {name} ===")
        run = adp_forward(model, scheme)
        for record in run.paths:
            print(
                f"  noise {record.noise}: states {record.states} actions {record.actions} "
                f"reward {record.reward:.1f} (prob {record.probability:.2f})"
            )
        print(f"  expected value {run.expected_value:.2f}")

        obj = policy_string_objective(model, scheme)
        ok, mismatches = check_path_greedy(obj.surrogate, run)
        print(f"  path-dependent greedy on every path: {ok} (mismatches: {len(mismatches)})")

        verified, evidence = check_stagewise_selection(obj, induced_stage_policies(run, model))
        gaps = [item.gap for item in evidence]
        print(f"  stage-wise selection maximum attained: {verified} (gaps {gaps})")

        cert = check_surrogate_monotonicity(model, scheme)
        print(f"  monotonicity certificate: {cert.holds} (worst slack {cert.worst_slack:.2f})")
        if not cert.holds and cert.witness is not None:
            shorter, longer = cert.witness
            print(f"    violated by extending {shorter} to {longer}")
        print()


if __name__ == "__main__":
    main()
