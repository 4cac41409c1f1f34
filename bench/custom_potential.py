"""Seeded value-only potential for the custom-fd-ladder workload.

U(x, tau) = |x|^2 / 2 + sum over k = 1, 2 of
            cos(2 pi k tau) (a_k . x + x^T P_k x) + sin(2 pi k tau) (b_k . x + x^T Q_k x)

with a_k, b_k, P_k, Q_k drawn from the workload seed.  The mean part confines
the orbit; the oscillating part is a trigonometric polynomial of bandwidth 2,
so the default n_tau of 48 resolves it with room to spare.  Only value() is
given: every gradient and Hessian the library needs goes through its
finite-difference fallbacks, which is the path any user potential without
derivatives takes.
"""
from __future__ import annotations

import math

import numpy as np

COEFF_SCALE = 0.5
R_MAX = 5.0          # trusted region |x| < R_MAX; a run that leaves it has blown up
EPS_LADDER = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
X0 = (0.8, 0.1)
V0 = (0.0, 0.5)
H_AVG = 0.005


def make_potential(seed: int):
    """Return a CallablePotential whose coefficients come from seed."""
    from oscavg.fields import CallablePotential

    rng = np.random.default_rng(seed)
    # rows: cos k=1, sin k=1, cos k=2, sin k=2
    lin = COEFF_SCALE * rng.standard_normal((4, 2))
    quad = COEFF_SCALE * rng.standard_normal((4, 2, 2))
    quad = 0.5 * (quad + np.swapaxes(quad, 1, 2))
    freqs = 2.0 * math.pi * np.array([1.0, 1.0, 2.0, 2.0])
    phase = np.array([0.0, -0.5 * math.pi, 0.0, -0.5 * math.pi])  # sin = cos(. - pi/2)

    def value(x, tau):
        x = np.asarray(x, dtype=float)
        amp = lin @ x + np.einsum("mij,i,j->m", quad, x, x)
        waves = np.cos(np.multiply.outer(np.asarray(tau, dtype=float), freqs) + phase)
        return 0.5 * float(x @ x) + waves @ amp

    def in_region(x):
        return float(np.dot(x, x)) < R_MAX * R_MAX

    return CallablePotential(value, 2, in_region=in_region)


def make_scenario(seed: int, t_end: float):
    """Wrap the seeded potential with the library's custom_scenario defaults
    (n_tau 48, steps_per_period 96) and this workload's ladder and start state."""
    from oscavg import scenarios

    return scenarios.custom_scenario(make_potential(seed), default_eps=EPS_LADDER,
                                     x0=X0, v0=V0, t_end=t_end, h_avg=H_AVG,
                                     name=f"custom_seed{seed}")
