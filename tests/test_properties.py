"""Property tests (Hypothesis): numerics checked against independent oracles
at points Hypothesis draws, rather than at a few fixed ones."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oscavg import CallablePotential, assemble  # noqa: E402
from oscavg.scenarios import (RotatingSaddlePotential, SatelliteOscillating,  # noqa: E402
                              SeparableDrivePotential, get_scenario)

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


# ---- phase_grad: the full flow's gradient at one float phase ----

def _old_scalar_grad(pot, x, tau):
    """grad at one float phase as grad's scalar-phase branches gave it before
    phase_grad existed (the wave and the callables had none: their grad is
    the oracle as it stands)."""
    if isinstance(pot, RotatingSaddlePotential):
        ang = -TWO_PI * tau
        c, s = math.cos(ang), math.sin(ang)
        return np.array([c * x[0] + s * x[1], s * x[0] - c * x[1]])
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
}


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_PHASE_POTENTIALS)), r=st.floats(0.5, 2.0),
       phi=st.floats(0.0, TWO_PI), tau=st.floats(0.0, 1.0, exclude_max=True),
       eps=st.floats(1e-4, 0.2))
def test_phase_grad_is_the_old_scalar_grad(name, r, phi, tau, eps):
    """The full flow's gradient, minus full_acceleration(x, tau) (phase_grad
    for a standard potential), is a list of floats equal bit for bit to the
    scalar-phase grad it replaces, and within 1e-14 of the largest entry to
    the array path grad(x, [tau])[0]; for the satellite's split potential,
    to static.grad + eps * (that oscillating gradient)."""
    pot = _PHASE_POTENTIALS[name]()
    x = np.array([r * math.cos(phi), r * math.sin(phi)])[:pot.dim]
    got = [-a for a in assemble(pot, eps).full_acceleration(x, tau)]
    osc, scale = pot.oscillating, eps ** pot.shift
    want = np.multiply(scale, _old_scalar_grad(osc, x, tau))
    array_path = np.multiply(scale, np.asarray(osc.grad(x, np.array([tau])), dtype=float)[0])
    if pot.static is not None:
        want = np.add(pot.static.grad(x), want)
        array_path = np.add(pot.static.grad(x), array_path)
    assert [type(g) for g in got] == [float] * pot.dim
    assert got == want.tolist(), f"{name} at x={x}, tau={tau}: {got} != {want.tolist()}"
    err = float(np.max(np.abs(np.subtract(got, array_path))))
    scale = float(np.max(np.abs(array_path)))
    assert err <= 1e-14 * scale, f"{name} at x={x}, tau={tau}: off the array path by {err:.2e}"
