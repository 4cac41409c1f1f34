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
from oscavg.scenarios import (RotatingSaddlePotential, RotatingWavePotential,  # noqa: E402
                              SatelliteOscillating, SeparableDrivePotential, get_scenario)

TWO_PI = 2.0 * math.pi

# the satellite's three pieces as quadratic forms z.A z / 2 (times sigma / (2 pi))
_FORMS = np.array([[[1.0, 0.0], [0.0, 1.0]],      # p
                   [[3.0, 0.0], [0.0, -3.0]],     # C
                   [[0.0, 3.0], [3.0, 0.0]]])     # B


def _array_pieces(sigma, points):
    """p, C, B and their derivatives at P points, shape (P, 3, 7), by the
    array product rule the satellite used before its float-math pieces.

    Axis 1 is the piece; axis 2 the channel: value, the two gradient
    components and the four Hessian entries (row major).  With f = z.A z / 2
    and g = r^-5: grad = A z g + f grad g, and
    hess = A g + f hess g + (A z) (grad g)^T + (grad g) (A z)^T.
    """
    z = np.asarray(points, dtype=float).reshape(-1, 2)
    forms = (sigma / TWO_PI) * _FORMS
    r2 = (z * z).sum(axis=1)
    g = r2 ** -2.5
    dg = -5.0 * g / r2
    grad_g = dg[:, None] * z
    hess_g = (dg[:, None, None] * np.eye(2)
              + (35.0 * g / (r2 * r2))[:, None, None] * (z[:, :, None] * z[:, None, :]))
    az = np.swapaxes(z @ forms, 0, 1)                    # grad f, (P, 3, 2)
    f = 0.5 * (az * z[:, None, :]).sum(axis=2)
    out = np.empty((z.shape[0], 3, 7))
    out[:, :, 0] = f * g[:, None]
    out[:, :, 1:3] = az * g[:, None, None] + f[:, :, None] * grad_g[:, None, :]
    cross = az[:, :, :, None] * grad_g[:, None, None, :]
    hess = (forms * g[:, None, None, None] + f[:, :, None, None] * hess_g[:, None]
            + cross + np.swapaxes(cross, 2, 3))
    out[:, :, 3:] = hess.reshape(-1, 3, 4)
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(r=st.floats(0.1, 3.0), phi=st.floats(0.0, TWO_PI), sigma=st.sampled_from([-1.0, 1.0]))
def test_satellite_float_pieces_match_the_array_product_rule(r, phi, sigma):
    """The float-math pieces equal the array product rule to 1e-14 of the
    largest entry of each block (values, gradients, Hessians), for r from
    the satellite's r_min to 3."""
    x = np.array([r * math.cos(phi), r * math.sin(phi)])
    got = np.array(SatelliteOscillating(sigma)._pieces(x)).reshape(3, 7)
    want = _array_pieces(sigma, [x])[0]
    for block, cols in (("value", slice(0, 1)), ("grad", slice(1, 3)), ("hess", slice(3, 7))):
        err = float(np.max(np.abs(got[:, cols] - want[:, cols])))
        scale = float(np.max(np.abs(want[:, cols])))
        assert err <= 1e-14 * scale, f"{block} at r={r}, phi={phi}: off by {err:.2e} of {scale:.2e}"


# ---- phase_force: minus the full flow's gradient at one float phase ----

# the plane potentials: grad sums their pieces, phase_force is float math
_PLANE = (RotatingSaddlePotential, RotatingWavePotential, SatelliteOscillating)


def _old_scalar_grad(pot, x, tau):
    """grad at one float phase as grad's scalar-phase branches gave it before
    the full flow had a float-math hook, and before the plane potentials'
    grad summed their pieces (the callables had no hook: their grad is the
    oracle as it stands)."""
    if isinstance(pot, RotatingSaddlePotential):
        ang = -TWO_PI * tau
        c, s = math.cos(ang), math.sin(ang)
        return np.array([c * x[0] + s * x[1], s * x[0] - c * x[1]])
    if isinstance(pot, RotatingWavePotential):  # numpy's cos, sin at the float phase
        ang = TWO_PI * np.asarray(tau, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        r2 = x[0] ** 2 + x[1] ** 2
        r = math.sqrt(r2)
        dot = (x[0] * c + x[1] * s) / (r2 * r)
        return np.stack([c / r - dot * x[0], s / r - dot * x[1]], axis=-1)
    if isinstance(pot, SeparableDrivePotential):
        return float(pot._a(np.float64(tau))) * np.asarray(pot._ug(x), dtype=float)
    if isinstance(pot, SatelliteOscillating):
        xx, yy = float(x[0]), float(x[1])
        r2 = xx * xx + yy * yy
        r5 = r2 * r2 * math.sqrt(r2)
        u = 1.0 / r5
        w = 5.0 / (r5 * r2)
        q = xx * xx - yy * yy
        xy = xx * yy
        ang = 2.0 * TWO_PI * tau
        c = math.cos(ang)
        s = math.sin(ang)
        k = pot.sigma / TWO_PI
        gx = k * (-1.5 * xx * u + 1.5 * c * (2.0 * xx * u - q * xx * w)
                  + 3.0 * s * (yy * u - xy * xx * w))
        gy = k * (-1.5 * yy * u + 1.5 * c * (-2.0 * yy * u - q * yy * w)
                  + 3.0 * s * (xx * u - xy * yy * w))
        return np.array([gx, gy])
    return np.asarray(pot.grad(x, tau), dtype=float)


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
       phi=st.floats(0.0, TWO_PI), tau=st.floats(0.0, 1.0, exclude_max=True),
       eps=st.floats(1e-4, 0.2))
def test_phase_force_is_minus_the_old_scalar_grad(name, r, phi, tau, eps):
    """The full flow's gradient, minus full_acceleration(x, tau) (minus
    phase_force for a standard potential), is a list of floats equal bit for
    bit to the scalar-phase grad it replaces, and within 1e-14 of the
    largest entry to the array path grad(x, [tau])[0]; for the satellite's
    split potential, to static.grad + eps * (that oscillating gradient).  A
    plane potential's array path sums pieces that can cancel, so its bound
    is 1e-14 of the larger of that entry and the largest piece gradient at
    x (times eps for the satellite).  Given x as the stepper's list of
    floats it is the same bit for bit.  The wave's phase_force (math.cos,
    math.sin) also equals minus its old scalar grad (numpy's cos, sin) bit
    for bit at 256 phases spread over the period."""
    pot = _PHASE_POTENTIALS[name]()
    x = _point(pot, r, phi)
    system = assemble(pot, eps)
    got = [-a for a in system.full_acceleration(x, tau)]
    assert [-a for a in system.full_acceleration(x.tolist(), tau)] == got, \
        f"{name} at x={x}, tau={tau}: list input differs from array input"
    osc, scale = pot.oscillating, eps ** pot.shift
    want = np.multiply(scale, _old_scalar_grad(osc, x, tau))
    array_path = np.multiply(scale, np.asarray(osc.grad(x, np.array([tau])), dtype=float)[0])
    if pot.static is not None:
        want = np.add(pot.static.grad(x), want)
        array_path = np.add(pot.static.grad(x), array_path)
    assert [type(g) for g in got] == [float] * pot.dim
    assert got == want.tolist(), f"{name} at x={x}, tau={tau}: {got} != {want.tolist()}"
    if name == "rotating_wave":  # math.cos/math.sin against the old grad's numpy cos/sin
        for t in ((tau + np.arange(256) / 256) % 1.0).tolist():
            assert osc.phase_force(x.tolist(), t) == \
                [-g for g in _old_scalar_grad(osc, x, t).tolist()], \
                f"wave at x={x}, tau={t}: phase_force is not minus the old grad"
    err = float(np.max(np.abs(np.subtract(got, array_path))))
    scale = float(np.max(np.abs(array_path)))
    if isinstance(osc, _PLANE):
        pieces = np.array(osc._pieces(x)).reshape(3, 7)[:, 1:3]
        scale = max(scale, eps ** pot.shift * float(np.max(np.abs(pieces))))
    assert err <= 1e-14 * scale, f"{name} at x={x}, tau={tau}: off the array path by {err:.2e}"


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_PHASE_POTENTIALS)), r=st.floats(0.5, 2.0),
       phi=st.floats(0.0, TWO_PI), tau=st.floats(0.0, 1.0, exclude_max=True))
def test_phase_force_is_minus_grad_bit_for_bit(name, r, phi, tau):
    """phase_force on the stepper's list of floats is a list of floats, each
    minus the scalar-phase grad's entry, bit for bit (IEEE negation is
    exact).  The plane potentials' grad sums their pieces, which round
    differently, so their oracle is the scalar gradient their phase_force
    replaced; the test above holds that within 1e-14 of the array path."""
    osc = _PHASE_POTENTIALS[name]().oscillating
    x = _point(osc, r, phi)
    want = _old_scalar_grad(osc, x, tau) if isinstance(osc, _PLANE) else osc.grad(x, tau)
    got = osc.phase_force(x.tolist(), tau)
    assert [type(g) for g in got] == [float] * osc.dim
    assert _bits(got) == _bits([-g for g in np.asarray(want, dtype=float).tolist()]), \
        f"{name} at x={x}, tau={tau}: {got} is not minus {want}"


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(["quartic_drive", "kapitza_pendulum"]),
       x=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       a=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)))
def test_profile_gradient_takes_the_drive_factor(name, x, a):
    """A cosine drive's u_grad(x, a) is a * g for each entry g of u_grad(x),
    bit for bit, for x as a list of floats and as a float array."""
    pot = get_scenario(name).potential
    u_grad, x = pot._ug, np.array(x[:pot.dim])
    want = _bits([a * g for g in u_grad(x)])
    for arg in (x, x.tolist()):
        got = u_grad(arg, a)
        assert [type(g) for g in got] == [float] * len(x)
        assert _bits(got) == want, f"{name} at x={x}, a={a}: {got}"


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_PHASE_POTENTIALS)), r=st.floats(0.5, 2.0),
       phi=st.floats(0.0, TWO_PI), t=st.floats(0.0, 10.0), eps=st.floats(1e-4, 0.2))
def test_full_stage_is_full_acceleration_at_the_phase(name, r, phi, t, eps):
    """The full flow's stage at time t on the stepper's list of floats is
    full_acceleration at the phase t / eps mod 1, bit for bit, for the
    standard potentials (shift 0) and the satellite's split one (shift 1)."""
    pot = _PHASE_POTENTIALS[name]()
    x = _point(pot, r, phi)
    system = assemble(pot, eps)
    got = system.full_stage()(t, x.tolist(), None)
    assert _bits(got) == _bits(system.full_acceleration(x, (t / system.epsilon) % 1.0))


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
