"""Property tests (Hypothesis): numerics checked against independent oracles
at points Hypothesis draws, rather than at a few fixed ones."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oscavg import CallablePotential, TimePeriodicPotential, assemble  # noqa: E402
from oscavg.averaging import FieldSpectra, _parseval_weights  # noqa: E402
from oscavg.fields import FactoredPotential, source_of  # noqa: E402
from oscavg.scenarios import SatelliteOscillating, SeparableDrivePotential, get_scenario  # noqa: E402

TWO_PI = 2.0 * math.pi


# ---- phase_force: minus the full flow's gradient at one float phase ----

def _drive(tau):
    tau = np.asarray(tau, dtype=float)
    return np.cos(TWO_PI * tau) + 0.5 * np.sin(2.0 * TWO_PI * tau)


def _value(x, tau):
    return _drive(tau) * (x[0] ** 2 * x[1] + math.sin(x[1]))


def _list_grad(x, tau):
    """A list of floats at a float phase, nested lists over an array of phases."""
    return np.multiply.outer(_drive(tau), [2.0 * x[0] * x[1], x[0] ** 2 + math.cos(x[1])]).tolist()


_PHASE_POTENTIALS = {
    **{name: (lambda name=name: get_scenario(name).potential)
       for name in ("rotating_saddle", "quartic_drive", "kapitza_pendulum", "rotating_wave")},
    "spinning_satellite-": lambda: get_scenario("spinning_satellite", sigma=-1.0).potential,
    "spinning_satellite+": lambda: get_scenario("spinning_satellite", sigma=1.0).potential,
    "value_only": lambda: CallablePotential(_value, 2),
    "list_grad": lambda: CallablePotential(_value, 2, grad=_list_grad),
    "sincos_drive": lambda: _sincos_profile_drive(),  # defined below
}


def _bits(floats):
    """The IEEE bit patterns of a sequence of floats: equal bits, not just
    equal values, so a zero's sign counts too."""
    return np.asarray(floats, dtype=float).view(np.uint64).tolist()


def _point(pot, r, phi):
    return np.array([r * math.cos(phi), r * math.sin(phi)])[:pot.dim]


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_PHASE_POTENTIALS)), r=st.floats(0.5, 2.0),
       phi=st.floats(0.0, TWO_PI), t=st.floats(0.0, 10.0), eps=st.floats(1e-4, 0.2))
def test_full_stage_is_minus_the_scalar_phase_grad(name, r, phi, t, eps):
    """The full flow's gradient, minus its RK stage at time t (minus
    phase_force for a standard potential), at the phase tau = t / eps mod 1,
    is a list of floats equal to the scalar-phase grad, and within 1e-14 of
    the largest entry to the array path grad(x, [tau])[0]; for the
    satellite's split potential, to static.grad + eps * (that oscillating
    gradient).  A factored potential's array path sums pieces that can
    cancel, so its bound is 1e-14 of the larger of that entry and the
    largest piece gradient at x (times eps for the satellite).  Given x as
    the stepper's list of floats it is the same bit for bit."""
    pot = _PHASE_POTENTIALS[name]()
    x = _point(pot, r, phi)
    system = assemble(pot, eps)
    tau = (t / system.epsilon) % 1.0
    got = [-a for a in system.full_stage()(t, x, None)]
    assert [-a for a in system.full_stage()(t, x.tolist(), None)] == got, \
        f"{name} at x={x}, tau={tau}: list input differs from array input"
    osc, scale = pot.oscillating, eps ** pot.shift
    want = np.multiply(scale, np.asarray(osc.grad(x, tau), dtype=float))
    array_path = np.multiply(scale, np.asarray(osc.grad(x, np.array([tau])), dtype=float)[0])
    if pot.static is not None:
        want = np.add(pot.static.grad(x), want)
        array_path = np.add(pot.static.grad(x), array_path)
    assert [type(g) for g in got] == [float] * pot.dim
    assert got == want.tolist(), f"{name} at x={x}, tau={tau}: {got} != {want.tolist()}"
    err = float(np.max(np.abs(np.subtract(got, array_path))))
    scale = float(np.max(np.abs(array_path)))
    if isinstance(osc, FactoredPotential):
        scale = max(scale, eps ** pot.shift * float(np.max(np.abs(osc._block(x, 1)))))
    assert err <= 1e-14 * scale, f"{name} at x={x}, tau={tau}: off the array path by {err:.2e}"


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_PHASE_POTENTIALS)), r=st.floats(0.5, 2.0),
       phi=st.floats(0.0, TWO_PI), tau=st.floats(0.0, 1.0, exclude_max=True))
def test_phase_force_is_minus_grad_bit_for_bit(name, r, phi, tau):
    """phase_force on the stepper's list of floats is a list of floats, each
    minus the scalar-phase grad's entry, bit for bit wherever the stage
    calls the potential (IEEE negation is exact) or sums one piece (the
    cosine drives: (-f) g against grad's -0.0 + f g, negated, which have the
    same bits for every g, signed zeros included).  Where it sums several
    pieces (the saddle, the wave, the satellite), grad's sum also takes the
    zero-gradient pieces the stage leaves out, so there the two are equal
    in value and only a zero's sign may differ."""
    osc = _PHASE_POTENTIALS[name]().oscillating
    x = _point(osc, r, phi)
    want = [-g for g in np.asarray(osc.grad(x, tau), dtype=float).tolist()]
    got = osc.phase_force(x.tolist(), tau)
    assert [type(g) for g in got] == [float] * osc.dim
    assert got == want, f"{name} at x={x}, tau={tau}: {got} is not {want}"
    if source_of(osc) is None or len(osc.factor_source) == 1:
        assert _bits(got) == _bits(want), f"{name} at x={x}, tau={tau}: {got} is not {want} bit for bit"


# ---- spectrum: closed-form tau coefficients against the rfft of the samples ----

class _Sampled(TimePeriodicPotential):
    """A potential's value/grad/hess behind the default spectrum."""

    def __init__(self, pot):
        self.pot, self.dim = pot, pot.dim

    def value(self, x, tau):
        return self.pot.value(x, tau)

    def grad(self, x, tau):
        return self.pot.grad(x, tau)

    def hess(self, x, tau):
        return self.pot.hess(x, tau)


def _sincos_profile_drive():
    """A non-cosine drive cos(2 pi tau) + sin(4 pi tau) / 2 times
    u = x^2 y + sin y."""
    return SeparableDrivePotential(
        _drive, lambda x: x[0] ** 2 * x[1] + math.sin(x[1]),
        lambda x: np.array([2.0 * x[0] * x[1], x[0] ** 2 + math.cos(x[1])]),
        lambda x: np.array([[2.0 * x[1], 2.0 * x[0]], [2.0 * x[0], -math.sin(x[1])]]), 2)


_SPECTRUM_POTENTIALS = {
    "spinning_satellite-": lambda: SatelliteOscillating(-1.0),
    "spinning_satellite+": lambda: SatelliteOscillating(1.0),
    **{name: (lambda name=name: get_scenario(name).potential)
       for name in ("rotating_saddle", "rotating_wave", "quartic_drive", "kapitza_pendulum")},
    "sincos_drive": _sincos_profile_drive,
}


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_SPECTRUM_POTENTIALS)),
       polar=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.0, TWO_PI)),
                      min_size=1, max_size=7),
       n_tau=st.integers(5, 48))
def test_spectrum_overrides_are_the_rfft_of_the_samples(name, polar, n_tau):
    """Each spectrum override equals the default spectrum (the rfft of the
    per-point samples) within 1e-14 of the largest coefficient, and the
    fields FieldSpectra reads from it, g_mean, grad W and b, equal the
    default's within 1e-14 of that coefficient (of its square times the
    largest Parseval weight for the products)."""
    pot = _SPECTRUM_POTENTIALS[name]()
    points = [np.array([r * math.cos(phi), r * math.sin(phi)])[:pot.dim] for r, phi in polar]
    got = pot.spectrum(points, n_tau)
    want = TimePeriodicPotential.spectrum(pot, points, n_tau)
    scale = float(np.max(np.abs(want)))
    assert got.shape == want.shape
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-14 * scale, f"{name}, n_tau={n_tau}: coefficients off by {err:.2e} of {scale:.2e}"
    fast, sampled = FieldSpectra(pot, points, n_tau), FieldSpectra(_Sampled(pot), points, n_tau)
    w2, w3 = _parseval_weights(n_tau)
    for field, bound in (("g_mean", scale), ("w_grad", scale ** 2 * w2[0]),
                         ("b_vector", scale ** 2 * w3[0])):
        g, w = getattr(fast, field), getattr(sampled, field)
        g, w = (g(), w()) if callable(g) else (g, w)
        err = float(np.max(np.abs(g - w)))
        assert err <= 1e-14 * bound, f"{name}, n_tau={n_tau}: {field} off by {err:.2e} of {bound:.2e}"
