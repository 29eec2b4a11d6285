#!/usr/bin/env python3
"""The two identities that make forward schemes boundable.

First identity: the forward scheme equals path-dependent greedy action
selection against the surrogate, path by path (the shared-prefix reward terms
cancel inside the argmax).  Second identity: the path-dependent choices induce
stage policies attaining the stage-wise selection maximum over the whole
policy ground set.  Both are checked exhaustively on a noisy model.
"""

from adpbound import (
    MdpModel,
    SurrogateObjective,
    check_adp_pdao_identity,
    check_pdao_gps_equivalence,
    check_surrogate_monotonicity,
    myopic_w,
    pdao_construct,
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
        pdao = pdao_construct(SurrogateObjective(model=model, approximator=scheme))
        for record in pdao.paths:
            print(
                f"  noise {record.noise}: states {record.states} actions {record.actions} "
                f"reward {record.reward:.1f} (prob {record.probability:.2f})"
            )
        print(f"  expected value {pdao.expected_value:.2f}")

        ok, mismatches = check_adp_pdao_identity(model, scheme)
        print(f"  forward scheme identical on every path: {ok} (mismatches: {len(mismatches)})")

        obj = policy_string_objective(model, scheme)
        verified, evidence = check_pdao_gps_equivalence(obj)
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
