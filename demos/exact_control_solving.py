#!/usr/bin/env python3
"""Exact solving of a small finite-horizon control problem.

Walks through the two-state chain model: backward induction, exact policy
evaluation by the same backward recursion, the exact value-to-go of a fixed
base policy as the rollout scheme sees it, and the exact expected reward of
a policy on a noisy variant of the chain.
"""

from adpbound import (
    MdpModel,
    bellman_solve,
    evaluate_policy_exact,
    rollout_w,
)

STAY, GO = 0, 1


def chain() -> MdpModel:
    # State 0 pays 1 for staying, 0 for leaving; state 1 absorbs and pays 5.
    return MdpModel(
        num_states=2,
        num_actions=2,
        horizon=2,
        initial_state=0,
        noise_probs=[1.0],
        transition=[[[0], [1]], [[1], [1]]],
        reward=[[1.0, 0.0], [5.0, 5.0]],
    )


def noisy_chain() -> MdpModel:
    # Leaving state 0 now succeeds only with probability one half.
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
    model = chain()
    policy, tables = bellman_solve(model)
    print("Deterministic chain model")
    print(f"  optimal value from state 0: {tables.V[0, 0]:.1f}")
    print(f"  optimal first-stage action at state 0: {'go' if policy[0][0] == GO else 'stay'}")

    stay = ((STAY, STAY), (STAY, STAY))
    go = ((GO, GO), (GO, GO))
    print(f"  value of always staying: {evaluate_policy_exact(model, stay):.1f}")
    print(f"  value of always leaving: {evaluate_policy_exact(model, go):.1f}")
    staying_tail = rollout_w(model, stay)
    print(f"  value-to-go of (state 0, go) under a staying tail: "
          f"{staying_tail.evaluate(1, 0, GO):.1f}")

    noisy = noisy_chain()
    leave_then_stay = ((GO, GO), (STAY, STAY))
    print("\nNoisy chain model, policy 'leave then stay'")
    print(f"  exact expected reward: {evaluate_policy_exact(noisy, leave_then_stay):.4f}")


if __name__ == "__main__":
    main()
