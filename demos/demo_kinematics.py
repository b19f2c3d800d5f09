"""Quaternion kinematics: rates, the E/G matrices, and propagation.

Propagates a tumbling body under a constant body rate with both the
fourth-order ``rk4`` method (the commutator-free step CF4) and the exact
exponential-map stepper, then recovers the body rates from finite-difference
quaternion derivatives.
"""

import numpy as np

from attikit import (
    RateProfile,
    body_rates_from_qdot,
    eg_matrices,
    from_axis_angle,
    propagate_quaternion,
    qdot_from_body_rates,
)


def main():
    np.set_printoptions(precision=6, suppress=True)

    q0 = from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.3)
    w = np.array([0.2, -0.5, 1.1])
    profile = RateProfile.constant(w)

    rk4 = propagate_quaternion(q0, profile, dt=1e-3, t1=2.0, method="rk4")
    exp = propagate_quaternion(q0, profile, dt=1e-3, t1=2.0, method="expmap")
    print("final attitude (rk4):   ", rk4[-1].q)
    print("final attitude (expmap):", exp[-1].q)
    print("method disagreement:", np.max(np.abs(rk4[-1].q - exp[-1].q)))

    # The E and G matrices satisfy E E^T = G G^T = I and R = E G^T.
    e, g = eg_matrices(rk4[-1].q)
    print("\n||E E^T - I|| =", np.linalg.norm(e @ e.T - np.eye(3)))
    print("||G G^T - I|| =", np.linalg.norm(g @ g.T - np.eye(3)))

    # Recover the body rate from a finite-difference quaternion derivative.
    a, b = rk4[1000], rk4[1002]
    qdot = (b.q - a.q) / (b.t - a.t)
    print("\ncommanded body rate: ", w)
    print("recovered body rate: ", body_rates_from_qdot(rk4[1001].q, qdot))

    # And the forward map closes the loop.
    print("qdot from rates:     ", qdot_from_body_rates(rk4[1001].q, w))
    print("finite-diff qdot:    ", qdot)


if __name__ == "__main__":
    main()
