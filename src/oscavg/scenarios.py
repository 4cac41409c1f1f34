"""Bundled scenario potentials, their closed-form fields, and run defaults.

Each scenario packages a potential with analytic derivatives, sensible run
defaults, and (where available) closed-form expressions for the averaged
fields.  The closed forms are stated in internal units (fast phase of period 1,
eps measured so the phase is t / eps).  Scenarios whose natural phase is an
angle that advances by 2 pi per cycle carry eps_scale = 2 pi: the eps a user
passes is the angular one, and internal eps = eps_scale * eps_user.  With that
bookkeeping every assembled field times its internal eps power equals the
angular-convention field times the same power of the user eps.  The command
line's flags and config files (oscavg.cli) override the run defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .averaging import assemble
from .fields import (STAGE, Order1Potential, StaticPotential, TimePeriodicPotential, checked_grid,
                     generated)

TWO_PI = 2.0 * math.pi
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


class ScenarioUsageError(ValueError):
    """Raised when a scenario cannot be built from the given arguments."""


@dataclass
class Scenario:
    name: str
    description: str
    potential: object
    eps_scale: float
    default_eps: list
    x0: np.ndarray
    v0: np.ndarray
    t_end: float
    steps_per_period: int
    h_avg: float
    out_dt: float
    n_tau: int
    closed_forms: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.potential.dim

    def internal_eps(self, eps_user: float) -> float:
        return self.eps_scale * float(eps_user)

    def build_system(self, eps_user: float, n_tau=None):
        n_tau = self.n_tau if n_tau is None else n_tau
        return assemble(self.potential, self.internal_eps(eps_user), n_tau=n_tau)


# ---- factored potentials: tau factors times spatial pieces ----

class FactoredPotential(TimePeriodicPotential):
    """U(x, tau) = sum_j f_j(tau) P_j(x) in any dim.  A subclass gives
    _factors(tau), the J factors at each phase (shape shape(tau) + (J,)),
    and _pieces(x), the pieces at one point in float math, flat: J rows of
    the value, the gradient and the Hessian (row major).  value, grad, hess
    and spectrum follow here.  The spectrum is the factors' bins (_bins: by
    default their rfft on the grid, read-only and kept per grid size) times
    the pieces of every point, gathered in one np.fromiter: one matrix
    product, no samples of U and no transform.  Factors or pieces that are
    not that many floats take the default per-point path, for its checks
    and messages.  Non-finite pieces are refused by naming the point, or,
    if they are a user's callables (_checked_per_point; their _block keeps
    the callables' shapes), sent down that path too.  The averaged force
    needs no spectrum: it is generated code over _bins and _pieces
    (averaging.ladder_kernel), with the same checks.  The full flow's force
    is each bundled subclass's own float source (phase_force_source), not
    the pieces: from the pieces it costs 2-3 times as much.  An instance
    holds data, no compiled code.
    """

    _checked_per_point = False

    def _block(self, x, k):
        """Block k of the pieces at x: values (J,), gradients (J, d) or Hessians (J, d, d)."""
        d = self.dim
        rows = np.asarray(self._pieces(x), dtype=float).reshape(-1, 1 + d + d * d)
        return (rows[:, 0], rows[:, 1:1 + d], rows[:, 1 + d:].reshape(-1, d, d))[k]

    # Sums start at -0.0, which keeps a lone term's sign: a(tau) u(x) bit for
    # bit.  A block of another shape broadcasts as a(tau) u(x) would.
    def value(self, x, tau):
        return (self._factors(tau) * self._block(x, 0)).sum(axis=-1, initial=-0.0)

    def grad(self, x, tau):
        return (self._factors(tau)[..., None] * self._block(x, 1)).sum(axis=-2, initial=-0.0)

    def hess(self, x, tau):
        return (self._factors(tau)[..., None, None] * self._block(x, 2)).sum(axis=-3, initial=-0.0)

    def _bins(self, taus):
        """The factors' rfft on the grid, kept per grid size; None unless they
        are J finite floats at each phase."""
        cache = self.__dict__.setdefault("_factor_bins", {})
        bins = cache.get(len(taus))
        if bins is None:
            f = np.asarray(self._factors(taus))
            if (f.ndim != 2 or f.shape[0] != len(taus) or f.dtype != np.float64
                    or not np.isfinite(f).all()):
                return None
            # contiguous bins: spectrum views each bin as two floats
            bins = cache[len(taus)] = np.fft.rfft(np.ascontiguousarray(f.T), norm="forward")
            bins.flags.writeable = False
        return bins

    def _gathered(self, points, n_pieces):
        """The pieces of every point, shape (P, J, 1 + d + d d), or None."""
        size = len(points) * n_pieces * (1 + self.dim * (1 + self.dim))
        flat = chain.from_iterable(map(self._pieces, points))
        try:
            pieces = np.fromiter(flat, float, size)
            if next(flat, flat) is not flat:
                return None
        except (TypeError, ValueError):
            return None
        if not np.isfinite(pieces).all():
            if self._checked_per_point:
                return None
            bad = np.argmin(np.isfinite(pieces.reshape(len(points), -1)).all(axis=1))
            raise ValueError(f"potential returned non-finite pieces at x={points[bad]}")
        return pieces.reshape(len(points), n_pieces, -1)

    def spectrum(self, points, n_tau):
        bins = self._bins(checked_grid(points, self.dim, n_tau))
        pieces = None if bins is None else self._gathered(points, len(bins))
        if pieces is None:
            return super().spectrum(points, n_tau)
        # one real product, each bin's real and imaginary parts side by side
        return (pieces.transpose(0, 2, 1) @ bins.view(float)).view(complex)


class HarmonicPotential(FactoredPotential):
    """P0(x) + C(x) cos(m theta) + S(x) sin(m theta), theta = 2 pi tau: three
    pieces times one harmonic's factors (1, cos m theta, sin m theta), whose
    bins are exact: P0 in bin 0 and (C - i S) / 2 in bin m.  A grid of 2m
    phases or fewer is refused: on it sin(m theta) falls into the Nyquist bin
    or below, and the samples would lose it.  A subclass may set any dim."""

    dim = 2
    harmonic = 1

    def _factors(self, tau):
        ang = self.harmonic * TWO_PI * np.asarray(tau, dtype=float)
        return np.stack([np.ones_like(ang), np.cos(ang), np.sin(ang)], axis=-1)

    def _bins(self, taus):
        n, m = len(taus), self.harmonic
        if n <= 2 * m:
            raise ValueError(f"n_tau={n} aliases harmonic {m} of {type(self).__name__}: "
                             f"sin({m} theta) needs more than {2 * m} phases; "
                             f"use n_tau >= {2 * m + 1}")
        bins = np.zeros((3, n // 2 + 1), dtype=complex)
        bins[0, 0], bins[1, m], bins[2, m] = 1.0, 0.5, -0.5j
        return bins


# ---- rotating saddle ----

class RotatingSaddlePotential(HarmonicPotential):
    """Quadratic saddle whose principal axes spin clockwise, one turn per cycle.

    U(x, tau) = x . Q(-2 pi tau) x / 2 with Q(t) = [[cos t, sin t], [sin t, -cos t]],
    that is C cos(theta) + S sin(theta) with C = (x^2 - y^2) / 2 and S = -x y.
    The clockwise sense fixes the sign of the induced magnetic-like coupling:
    the averaged force is -eps_u^2 X - 2 eps_u^3 J Xd in user (angular) units.
    """

    def _pieces(self, x):
        xx, yy = float(x[0]), float(x[1])
        return [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                0.5 * (xx * xx - yy * yy), xx, -yy, 1.0, 0.0, 0.0, -1.0,
                -xx * yy, -yy, -xx, 0.0, -1.0, -1.0, 0.0]

    # minus the gradient of C cos(theta) + S sin(theta), theta = -2 pi tau
    phase_force_source = (("{p}c = cos(-TWO_PI * {p})", "{p}s = sin(-TWO_PI * {p})"),
                          ("{a}_0 = -({p}c * {x}_0 + {p}s * {x}_1)",
                           "{a}_1 = -({p}s * {x}_0 - {p}c * {x}_1)"))


def rotating_saddle() -> Scenario:
    pot = RotatingSaddlePotential()
    k3 = 1.0 / (8.0 * math.pi ** 3)

    def b_closed(x):
        return k3 * (J2 @ np.asarray(x, dtype=float))

    def b_matrix_closed(x):
        return -2.0 * k3 * J2

    closed = {
        "mean_grad": lambda x: np.zeros(2),
        "w_value": lambda x: float(np.dot(x, x)) / (8.0 * math.pi ** 2),
        "w_grad": lambda x: np.asarray(x, dtype=float) / (4.0 * math.pi ** 2),
        "b": b_closed,
        "b_matrix": b_matrix_closed,
    }
    return Scenario(
        name="rotating_saddle",
        description="spinning quadratic saddle, the standard example of magnetic-like stabilization",
        potential=pot,
        eps_scale=TWO_PI,
        default_eps=[1 / 64, 1 / 128, 1 / 256, 1 / 512],
        x0=np.array([1.0, 0.0]),
        v0=np.array([0.0, 0.3]),
        t_end=2.0,
        steps_per_period=256,
        h_avg=0.01,
        out_dt=0.01,
        n_tau=16,
        closed_forms=closed,
        extras={"slope_floor": 3.7},
    )


# ---- separable drives a(tau) u(x) ----

class SeparableDrivePotential(FactoredPotential):
    """U(x, tau) = a(tau) u(x): a scalar drive times a fixed spatial profile.

    The magnetic-like vector vanishes identically for this family, since the
    two tau factors entering it are antiderivatives of the same scalar drive
    and their product has zero mean.  The only surviving correction is the
    velocity-independent one with coefficient avg over tau of the squared
    zero-mean antiderivative of a.

    One factor and one piece: a gets float arrays of phases (and one float
    phase in the full flow, through its grad); the
    profile u_value/u_grad/u_hess (d floats, d rows of d) gets float
    arrays.  CosineDrivePotential is the float-source form for a cosine
    drive.
    """

    _checked_per_point = True

    def __init__(self, a, u_value, u_grad, u_hess, dim):
        self.dim = int(dim)
        self._a, self._uv, self._ug, self._uh = a, u_value, u_grad, u_hess

    def _factors(self, tau):
        return np.asarray(self._a(np.asarray(tau, dtype=float)))[..., None]

    def _pieces(self, x):
        return [self._uv(x), *self._ug(x), *chain.from_iterable(self._uh(x))]

    def _block(self, x, k):  # the profile's own shapes, for the per-point checks
        return [(self._uv, self._ug, self._uh)[k](x)]


class CosineDrivePotential(SeparableDrivePotential):
    """U(x, tau) = (a_mean + alpha cos(2 pi tau)) u(x), with grad u given as
    float source, one expression in {x}_0, {x}_1, ... per entry: the
    quartic's is ("{x}_0 ** 3 + {x}_1", "{x}_0").  The drive a(tau) and
    u_grad(x, a=1.0), which grad, spectrum and the closed forms call, are
    methods: u_grad is those expressions in fields.STAGE, a * g for each
    entry g on the floats of x.  phase_force_source takes the factor
    a = -(a_mean + alpha cos(2 pi tau)) once per phase (math.cos, which
    tests/test_properties.py holds to numpy's cos bit for bit) and the same
    products at each stage, so each entry is -(a(tau) g) exactly.
    """

    def __init__(self, a_mean, alpha, u_value, grad_source, u_hess, dim):
        self.dim = int(dim)
        self.a_mean, self.alpha = float(a_mean), float(alpha)
        if len(grad_source) != self.dim:
            raise ValueError(f"{len(grad_source)} gradient expressions for dim {dim}")
        self._uv, self._uh = u_value, u_hess
        self.phase_force_source = (("{p} = -(%r + %r * cos(TWO_PI * {p}))" % (self.a_mean, self.alpha),),
                                   tuple("{a}_%d = {p} * (%s)" % item for item in enumerate(grad_source)))

    def _a(self, tau):
        return self.a_mean + self.alpha * np.cos(TWO_PI * tau)

    def _ug(self, x, a=1.0):
        return generated(STAGE, self.dim, ("", ("{p} = {t}",), self.phase_force_source[1]))(a, x, None)


def _separable_closed(a_mean, avg_v2, u_grad, u_hess, dim):
    def w_grad(x):
        return avg_v2 * (np.asarray(u_hess(x), dtype=float) @ np.asarray(u_grad(x), dtype=float))

    return {
        "mean_grad": lambda x: a_mean * np.asarray(u_grad(x), dtype=float),
        "w_grad": w_grad,
        "b": lambda x: np.zeros(dim),
        "b_matrix": lambda x: np.zeros((dim, dim)),
    }


def _quartic_value(x):
    return x[0] ** 4 / 4.0 + x[0] * x[1]


def _quartic_hess(x):
    return [[3.0 * x[0] ** 2, 1.0], [1.0, 0.0]]


def quartic_drive() -> Scenario:
    """Zero-mean cosine drive on a quartic-plus-shear profile (no closed orbitals,
    exercises the third-antiderivative terms of the guiding-center map)."""
    pot = CosineDrivePotential(0.0, 1.0, _quartic_value, ("{x}_0 ** 3 + {x}_1", "{x}_0"),
                               _quartic_hess, dim=2)
    avg_v2 = 1.0 / (8.0 * math.pi ** 2)  # drive antiderivative sin(2 pi tau)/(2 pi)
    return Scenario(
        name="quartic_drive",
        description="oscillating quartic profile with shear, a generic zero-mean drive",
        potential=pot,
        eps_scale=1.0,
        default_eps=[1 / 64, 1 / 128, 1 / 256, 1 / 512],
        x0=np.array([0.8, 0.4]),
        v0=np.array([0.2, -0.1]),
        t_end=2.0,
        steps_per_period=128,
        h_avg=0.005,
        out_dt=0.01,
        n_tau=16,
        closed_forms=_separable_closed(0.0, avg_v2, pot._ug, _quartic_hess, 2),
        extras={"slope_floor": 3.7},
    )


def _pendulum_value(x):
    return -math.cos(x[0])


def _pendulum_hess(x):
    return [[math.cos(x[0])]]


def kapitza_pendulum(a_mean: float = 1.0, alpha: float = 1.0) -> Scenario:
    """Pendulum with vertically modulated gravity a(tau) = a_mean + alpha cos(2 pi tau).

    The inverted position becomes linearly stable once
    eps^2 alpha^2 / (8 pi^2) exceeds a_mean.
    """
    pot = CosineDrivePotential(a_mean, alpha, _pendulum_value, ("sin({x}_0)",), _pendulum_hess, dim=1)
    avg_v2 = alpha ** 2 / (8.0 * math.pi ** 2)
    return Scenario(
        name="kapitza_pendulum",
        description="pendulum with oscillating gravity; flips stability of the inverted point",
        potential=pot,
        eps_scale=1.0,
        default_eps=[1 / 16, 1 / 32, 1 / 64, 1 / 128],
        x0=np.array([0.3]),
        v0=np.array([0.0]),
        t_end=3.0,
        steps_per_period=96,
        h_avg=0.005,
        out_dt=0.01,
        n_tau=16,
        closed_forms=_separable_closed(a_mean, avg_v2, pot._ug, _pendulum_hess, 1),
    )


# ---- rotating angular wave ----

class RotatingWavePotential(HarmonicPotential):
    """U(x, tau) = cos(phi - 2 pi tau) + offset, phi the polar angle of x.

    A pure angular wave sweeping around the origin once per cycle.  Its mean
    is constant, so the entire averaged force comes from the oscillation
    corrections; the magnetic-like vector decays like 1/r^3.  Singular at the
    origin, so a disk around it is excluded from the trusted region.

    Its pieces are offset, x / r and y / r (times 1, cos 2 pi tau and
    sin 2 pi tau).
    """

    offset = 0.3
    r_min = 0.5

    def _pieces(self, x):
        xx, yy = float(x[0]), float(x[1])
        r2 = xx * xx + yy * yy
        r = math.sqrt(r2)
        r3 = r2 * r
        r5 = r2 * r3
        cross = -xx * yy / r3                          # d(x/r)/dy = d(y/r)/dx
        mix_x = yy * (2.0 * xx * xx - yy * yy) / r5    # d2(x/r)/dx dy = d2(y/r)/dx2
        mix_y = xx * (2.0 * yy * yy - xx * xx) / r5    # d2(x/r)/dy2 = d2(y/r)/dx dy
        return [self.offset, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                xx / r, yy * yy / r3, cross, -3.0 * xx * yy * yy / r5, mix_x, mix_x, mix_y,
                yy / r, cross, xx * xx / r3, mix_x, mix_y, mix_y, -3.0 * xx * xx * yy / r5]


    def in_region(self, x):
        return math.hypot(x[0], x[1]) >= self.r_min

    # minus the gradient of (x cos theta + y sin theta) / r, theta = 2 pi tau
    phase_force_source = (("{p}c = cos(TWO_PI * {p})", "{p}s = sin(TWO_PI * {p})"),
                          ("r2 = {x}_0 ** 2 + {x}_1 ** 2", "r = sqrt(r2)",
                           "dot = ({x}_0 * {p}c + {x}_1 * {p}s) / (r2 * r)",
                           "{a}_0 = -({p}c / r - dot * {x}_0)", "{a}_1 = -({p}s / r - dot * {x}_1)"))


def rotating_wave() -> Scenario:
    pot = RotatingWavePotential()
    c1 = 0.5  # avg over one turn of (cos)^2

    def w_value(x):
        r2 = float(np.dot(x, x))
        return c1 / (8.0 * math.pi ** 2 * r2)

    def w_grad(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return -c1 * x / (4.0 * math.pi ** 2 * r2 ** 2)

    def b_closed(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return c1 * np.array([x[1], -x[0]]) / (8.0 * math.pi ** 3 * r2 ** 2)

    def b_matrix_closed(x):
        r2 = float(np.dot(x, x))
        kappa = c1 / (4.0 * math.pi ** 3 * r2 ** 2)
        return np.array([[0.0, kappa], [-kappa, 0.0]])

    return Scenario(
        name="rotating_wave",
        description="angular wave circling the origin; pure oscillation corrections, 1/r^3 magnetic decay",
        potential=pot,
        eps_scale=TWO_PI,
        default_eps=[1 / 64, 1 / 128, 1 / 256, 1 / 512],
        x0=np.array([1.5, 0.0]),
        v0=np.array([0.0, 0.25]),
        t_end=2.0,
        steps_per_period=96,
        h_avg=0.01,
        out_dt=0.01,
        n_tau=16,
        closed_forms={"mean_grad": lambda x: np.zeros(2), "w_value": w_value,
                      "w_grad": w_grad, "b": b_closed, "b_matrix": b_matrix_closed},
        extras={"field_decay_slope": -3.0},
    )


# ---- spinning satellite (fast-spinning dumbbell around a point mass) ----

class SatelliteStatic(StaticPotential):
    """Slow part 2 sigma / r: both endpoint masses feel the ambient field."""

    dim = 2
    r_min = 0.1

    def __init__(self, sigma=-1.0):
        self.sigma = float(sigma)
        c = -2.0 * self.sigma
        self.float_grad_source = ("r3 = hypot({x}_0, {x}_1) ** 3",
                                  "{a}_0 = %r * {x}_0 / r3" % c, "{a}_1 = %r * {x}_1 / r3" % c)

    def value(self, x):
        return 2.0 * self.sigma / math.hypot(x[0], x[1])

    def grad(self, x):
        return np.array(self.float_grad(x))

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        r3 = r2 ** 1.5
        r5 = r2 * r3
        return 2.0 * self.sigma * (3.0 * np.outer(x, x) / r5 - np.eye(2) / r3)

    def in_region(self, x):
        return math.hypot(x[0], x[1]) >= self.r_min


class SatelliteOscillating(HarmonicPotential):
    """First-order tidal term of a spinning dumbbell, phase-averaged form.

    In angular variables the term is sigma (1 + 3 cos 2(theta - phi)) / (2 r^3)
    with theta the spin angle and phi the polar angle of the center.  Written
    on the unit-period phase tau (theta = 2 pi tau) and rescaled by 1/(2 pi) so
    that internal eps times this equals the angular-units term times the user
    eps.
    """

    harmonic = 2
    r_min = SatelliteStatic.r_min

    def __init__(self, sigma=-1.0):
        self.sigma = float(sigma)
        # minus float math on grad p = -3k z / (2 r^5), grad B = 3k ((y, x) / r^5
        # - 5 xy z / r^7) and grad C = 3k/2 ((2x, -2y) / r^5 - 5 q z / r^7), q = x^2 - y^2
        k = self.sigma / TWO_PI
        self.phase_force_source = (
            ("{p}c = cos(2.0 * TWO_PI * {p})", "{p}s = sin(2.0 * TWO_PI * {p})"),
            ("r2 = {x}_0 * {x}_0 + {x}_1 * {x}_1", "r5 = r2 * r2 * sqrt(r2)",
             "u = 1.0 / r5", "w = 5.0 / (r5 * r2)", "q = {x}_0 * {x}_0 - {x}_1 * {x}_1",
             "xy = {x}_0 * {x}_1",
             "{a}_0 = -(%r * (-1.5 * {x}_0 * u + 1.5 * {p}c * (2.0 * {x}_0 * u - q * {x}_0 * w)"
             " + 3.0 * {p}s * ({x}_1 * u - xy * {x}_0 * w)))" % k,
             "{a}_1 = -(%r * (-1.5 * {x}_1 * u + 1.5 * {p}c * (-2.0 * {x}_1 * u - q * {x}_1 * w)"
             " + 3.0 * {p}s * ({x}_0 * u - xy * {x}_1 * w)))" % k))

    in_region = SatelliteStatic.in_region

    def _pieces(self, x):
        """value = p + C cos(2 theta) + B sin(2 theta) with k = sigma / (2 pi),
        p = k / (2 r^3), C = 3k (x^2 - y^2) / (2 r^5) and B = 3k xy / r^5.

        Each piece is a quadratic form f = z.A z / 2 times g = r^-5, with
        A = k [[1, 0], [0, 1]], k [[3, 0], [0, -3]] and k [[0, 3], [3, 0]];
        the product rule gives grad = A z g + f grad g and
        hess = A g + f hess g + (A z) (grad g)^T + (grad g) (A z)^T.
        """
        xx, yy = float(x[0]), float(x[1])
        k = self.sigma / TWO_PI
        k3 = 3.0 * k
        r2 = xx * xx + yy * yy
        g = r2 ** -2.5
        dg = -5.0 * g / r2
        gx, gy = dg * xx, dg * yy                    # grad g
        e = 35.0 * g / (r2 * r2)                     # hess g = dg I + e z z^T
        hxx, hxy, hyy = dg + e * xx * xx, e * xx * yy, dg + e * yy * yy
        out = []
        for a, b, c in ((k, 0.0, k), (k3, 0.0, -k3), (0.0, k3, 0.0)):  # A = [[a, b], [b, c]]
            ax, ay = a * xx + b * yy, b * xx + c * yy  # grad f = A z
            f = 0.5 * (ax * xx + ay * yy)
            off = b * g + f * hxy + (ax * gy + gx * ay)
            out += [f * g, ax * g + f * gx, ay * g + f * gy,
                    a * g + f * hxx + 2.0 * ax * gx, off, off,
                    c * g + f * hyy + 2.0 * ay * gy]
        return out


def spinning_satellite(sigma: float = -1.0) -> Scenario:
    """Fast-spinning dumbbell around a point mass, reduced to a split potential.

    sigma = -1 is the attractive case with bound orbits; sigma = +1 is
    repulsive and only useful for field checks.
    """
    pot = Order1Potential(SatelliteStatic(sigma), SatelliteOscillating(sigma))
    s2 = sigma * sigma

    def mean_grad(x):
        x = np.asarray(x, dtype=float)
        r = math.hypot(x[0], x[1])
        return sigma / TWO_PI * (-1.5) * x / r ** 5

    def w_value(x):
        r2 = float(np.dot(x, x))
        return s2 * (117.0 / 64.0) / r2 ** 4 / TWO_PI ** 4

    def w_grad(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return -s2 * (117.0 / 8.0) * x / r2 ** 5 / TWO_PI ** 4

    def b_closed(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return s2 * (171.0 / 32.0) * np.array([x[1], -x[0]]) / r2 ** 5 / TWO_PI ** 5

    def b_matrix_closed(x):
        r2 = float(np.dot(x, x))
        kappa = s2 * (171.0 / 4.0) / r2 ** 5 / TWO_PI ** 5
        return np.array([[0.0, kappa], [-kappa, 0.0]])

    return Scenario(
        name="spinning_satellite",
        description="fast-spinning dumbbell orbiting a point mass (split potential, corrections two orders down)",
        potential=pot,
        eps_scale=TWO_PI,
        default_eps=[1 / 64, 1 / 128, 1 / 256, 1 / 512],
        x0=np.array([1.0, 0.0]),
        v0=np.array([0.0, 1.2]),
        t_end=2.0,
        steps_per_period=96,
        h_avg=0.001,
        out_dt=0.01,
        n_tau=16,
        closed_forms={"mean_grad": mean_grad, "w_value": w_value, "w_grad": w_grad,
                      "b": b_closed, "b_matrix": b_matrix_closed},
        extras={"sigma": sigma, "slope_floor": 4.5,
                # defaults for the dumbbell-vs-model precession comparison;
                # periods are rough vis-viva estimates used only to size t_end
                "precession": {"eps": 0.02, "z0": [1.0, 0.0],
                               "dumbbell_v0": [0.0, 0.9], "dumbbell_period": 4.9,
                               "averaged_v0": [0.0, 1.2], "averaged_period": 3.1,
                               "min_separation": 1.0}},
    )


def custom_scenario(potential, eps_scale=1.0, default_eps=(0.05,), x0=None, v0=None,
                    t_end=2.0, steps_per_period=96, h_avg=0.01, out_dt=0.01,
                    n_tau=48, name="custom", description="user-supplied potential") -> Scenario:
    """Wrap a user potential as a scenario.  Library use only: the command line
    cannot construct one, since a potential is code, not a config value."""
    dim = potential.dim
    return Scenario(
        name=name, description=description, potential=potential,
        eps_scale=float(eps_scale), default_eps=list(default_eps),
        x0=np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float),
        v0=np.zeros(dim) if v0 is None else np.asarray(v0, dtype=float),
        t_end=float(t_end), steps_per_period=int(steps_per_period),
        h_avg=float(h_avg), out_dt=float(out_dt), n_tau=int(n_tau),
    )


def _custom_placeholder(**kw):
    raise ScenarioUsageError(
        "scenario 'custom' wraps a user potential and can only be built in code: "
        "call oscavg.scenarios.custom_scenario(potential, ...)")


CATALOG = {
    "rotating_saddle": rotating_saddle,
    "quartic_drive": quartic_drive,
    "kapitza_pendulum": kapitza_pendulum,
    "rotating_wave": rotating_wave,
    "spinning_satellite": spinning_satellite,
    "custom": _custom_placeholder,
}


def get_scenario(name: str, **kwargs) -> Scenario:
    try:
        factory = CATALOG[name]
    except KeyError:
        raise KeyError(name)
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ScenarioUsageError(f"scenario {name!r} does not accept {sorted(kwargs)}: {exc}")

