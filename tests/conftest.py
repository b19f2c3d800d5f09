import os
from pathlib import Path

import numpy as np
import pytest

# CLI tests run ``python -m attikit`` in subprocesses; point them at this checkout too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_unit_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class NormalizedCubicTrajectory:
    """Smooth unit-quaternion trajectory q(t) = u(t)/|u(t)| with u cubic.

    Provides analytic first and second derivatives, derived by hand from the
    quotient rule, for use as a finite-difference oracle.
    """

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)  # (4, 4): c[k] multiplies t^k
        assert self.c.shape == (4, 4)

    def _u(self, t):
        c = self.c
        u = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
        ud = c[1] + 2 * c[2] * t + 3 * c[3] * t**2
        udd = 2 * c[2] + 6 * c[3] * t
        return u, ud, udd

    def q(self, t):
        u, _, _ = self._u(t)
        return u / np.linalg.norm(u)

    def qdot(self, t):
        u, ud, _ = self._u(t)
        n = np.linalg.norm(u)
        ndot = (u @ ud) / n
        return ud / n - u * ndot / n**2

    def qddot(self, t):
        u, ud, udd = self._u(t)
        n = np.linalg.norm(u)
        ndot = (u @ ud) / n
        nddot = (ud @ ud + u @ udd - ndot**2) / n
        return udd / n - 2 * ud * ndot / n**2 - u * nddot / n**2 + 2 * u * ndot**2 / n**3


def sample_trajectory(rng):
    coeffs = rng.normal(size=(4, 4))
    coeffs[0] = coeffs[0] / np.linalg.norm(coeffs[0]) * 4.0  # keep |u| away from 0
    return NormalizedCubicTrajectory(coeffs)
