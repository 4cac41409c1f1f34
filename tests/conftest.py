"""Shared pytest plumbing for the oscavg test suite."""
import math

import numpy as np
import pytest

from oscavg import CallablePotential
from oscavg.scenarios import custom_scenario

# One line per acceptance criterion, printed after the run so the verdicts are
# visible even when pytest captures per-test stdout.
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def exit_probe():
    """A 1-d scenario whose runs leave their trusted region |x| < 1.

    U = cos(2 pi tau) x has no mean force, so the particle drifts from
    x0 = 0.5 at unit speed and crosses x = 1 near t = 0.5, well before t_end.
    """
    def value(x, tau):
        return np.cos(2.0 * math.pi * np.asarray(tau, dtype=float)) * x[0]

    def grad(x, tau):
        return np.cos(2.0 * math.pi * np.asarray(tau, dtype=float))[..., None]

    def hess(x, tau):
        return np.zeros(np.shape(tau) + (1, 1))

    pot = CallablePotential(value, 1, grad=grad, hess=hess,
                            in_region=lambda x: abs(x[0]) < 1.0)
    return custom_scenario(pot, default_eps=[1 / 16, 1 / 32], x0=[0.5], v0=[1.0],
                           t_end=1.0, h_avg=0.01, out_dt=0.01, n_tau=16,
                           name="exit_probe")
