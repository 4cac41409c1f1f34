"""Property tests (Hypothesis): numerics checked against independent oracles
at points Hypothesis draws, rather than at a few fixed ones."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oscavg.scenarios import SatelliteOscillating  # noqa: E402

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
