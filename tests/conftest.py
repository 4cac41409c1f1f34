"""Shared pytest plumbing for the oscavg test suite."""
import math

import numpy as np
import pytest

from oscavg import CallablePotential, integrate_second_order
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


def list_form_nystrom_interval(t, x, v, n_sub, h, hh, h6, args):
    """n_sub substeps of the classical 4th-order Runge-Kutta-Nystrom method
    (c = 0, 1/2, 1) as list comprehensions, with the generated interval's
    arguments: the oracle for the interval of a stage that ignores v."""
    stage, = args
    hq = 0.5 * hh
    for s in range(n_sub):
        tt = t + s * h
        a1 = stage(tt, x, v)
        x2 = [p + hh * (q + hq * a) for p, q, a in zip(x, v, a1)]
        a2 = stage(tt + hh, x2, v)
        x3 = [p + h * (q + hh * a) for p, q, a in zip(x, v, a2)]
        a3 = stage(tt + h, x3, v)
        x, v = ([p + h * (q + h6 * (k1 + 2.0 * k2)) for p, q, k1, k2 in zip(x, v, a1, a2)],
                [q + h6 * (k1 + 4.0 * k2 + k3) for q, k1, k2, k3 in zip(v, a1, a2, a3)])
    return x, v


@pytest.fixture
def nystrom_run(monkeypatch):
    """integrate_second_order(acc, ...) stepped by list_form_nystrom_interval:
    the run a stage form that ignores v must equal bit for bit."""
    def run(acc, x0, v0, t_end, **kwargs):
        with monkeypatch.context() as m:
            m.setattr("oscavg.dynamics._interval", lambda n, form: list_form_nystrom_interval)
            return integrate_second_order(acc, x0, v0, t_end, **kwargs)
    return run
