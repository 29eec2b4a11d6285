#!/usr/bin/env python3
"""Exact solving of a small finite-horizon control problem.

Walks through the two-state chain model: backward induction, exact policy
evaluation by the same backward recursion, the exact value-to-go of a fixed
base policy as the rollout scheme sees it, and the seeded Monte Carlo
estimator agreeing with the exact numbers.
"""

from adpbound import (
    MdpModel,
    RolloutConfig,
    bellman_solve,
    evaluate_policy_exact,
    rollout_w,
    simulate_policy_mc,
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
    staying_tail = rollout_w(model, RolloutConfig(base_policy=stay))
    print(f"  value-to-go of (state 0, go) under a staying tail: "
          f"{staying_tail.evaluate(1, 0, GO):.1f}")

    noisy = noisy_chain()
    leave_then_stay = ((GO, GO), (STAY, STAY))
    exact = evaluate_policy_exact(noisy, leave_then_stay)
    mean, stderr = simulate_policy_mc(noisy, leave_then_stay, samples=100_000, seed=7)
    print("\nNoisy chain model, policy 'leave then stay'")
    print(f"  exact expected reward: {exact:.4f}")
    print(f"  Monte Carlo (100k samples, seed 7): {mean:.4f} +/- {stderr:.4f}")
    print(f"  |mc - exact| = {abs(mean - exact):.4f} (within 3 standard errors: "
          f"{abs(mean - exact) <= 3 * stderr})")


if __name__ == "__main__":
    main()
