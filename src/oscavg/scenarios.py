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
from functools import cached_property
from itertools import chain

import numpy as np

from .averaging import assemble
from .fields import FactoredPotential, Order1Potential, StaticPotential

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

class HarmonicPotential(FactoredPotential):
    """P0(x) + C(x) cos(m theta) + S(x) sin(m theta), theta = 2 pi tau: three
    pieces times one harmonic's factors (1, cos m theta, sin m theta), whose
    bins are exact: P0 in bin 0 and (C - i S) / 2 in bin m.  A grid of 2m
    phases or fewer is refused: on it sin(m theta) falls into the Nyquist bin
    or below, and the samples would lose it.  A subclass may set any dim."""

    dim = 2
    harmonic = 1

    @cached_property  # kept on the instance: _pieces reads it at every point
    def factor_source(self):
        return "1.0", *(f"{f}({self.harmonic * TWO_PI!r} * {{p}})" for f in ("cos", "sin"))

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

    # C's and S's gradient, Hessian and value; the constant piece is zero
    pieces_source = (("{q}1_0 = {x}_0", "{q}1_1 = -{x}_1", "{q}2_0 = -{x}_1", "{q}2_1 = -{x}_0"),
                     ("{q}1_0_0 = 1.0", "{q}1_1_1 = -1.0", "{q}2_0_1 = -1.0", "{q}2_1_0 = -1.0"),
                     ("{q}1 = 0.5 * ({x}_0 * {x}_0 - {x}_1 * {x}_1)", "{q}2 = -{x}_0 * {x}_1"))


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

    One factor and one piece: a gets float arrays of phases (one float phase
    in the full flow, through its grad), the profile u_value/u_grad/u_hess
    (d floats, d rows of d) float arrays.  CosineDrivePotential is the
    float-source form for a cosine drive.
    """

    _checked_per_point = True

    def __init__(self, a, u_value, u_grad, u_hess, dim):
        self.dim = int(dim)
        self._a, self._u = a, (u_value, u_grad, u_hess)

    def _factors(self, tau):
        return np.asarray(self._a(np.asarray(tau, dtype=float)))[..., None]

    def _pieces(self, x):
        u_value, u_grad, u_hess = self._u
        return [u_value(x), *u_grad(x), *chain.from_iterable(u_hess(x))]

    def _block(self, x, k):  # the profile's own shapes, for the per-point checks
        return [self._u[k](x)]


class CosineDrivePotential(FactoredPotential):
    """U(x, tau) = (a_mean + alpha cos(2 pi tau)) u(x), with u's value, each
    gradient entry and each Hessian entry (rows) as float expressions in
    {x}_0, {x}_1, ..., e.g. the quartic's gradient ("{x}_0 ** 3 + {x}_1",
    "{x}_0").  Its factor bins are exact, not the drive's noisy rfft."""

    def __init__(self, a_mean, alpha, value, grad, hess, dim):
        self.dim = int(dim)
        self.a_mean, self.alpha = float(a_mean), float(alpha)
        if len(grad) != self.dim or [len(row) for row in hess] != [self.dim] * self.dim:
            raise ValueError(f"{len(grad)} gradient expressions and Hessian rows of "
                             f"{[len(row) for row in hess]} expressions for dim {dim}")
        self.factor_source = ("%r + %r * cos(TWO_PI * {p})" % (self.a_mean, self.alpha),)
        self.pieces_source = (tuple(f"{{q}}0_{i} = {e}" for i, e in enumerate(grad)),
                              tuple(f"{{q}}0_{i}_{m} = {e}" for i, row in enumerate(hess)
                                    for m, e in enumerate(row)),
                              ("{q}0 = " + value,))

    def _factors(self, tau):
        drive = self.a_mean + self.alpha * np.cos(TWO_PI * np.asarray(tau, dtype=float))
        return np.asarray(drive)[..., None]

    def _bins(self, taus):
        """a_mean, then alpha / 2 (alpha at Nyquist) per grid size; None unless finite."""
        n, cache = len(taus), self.__dict__.setdefault("_factor_bins", {})
        if n not in cache and math.isfinite(self.a_mean) and math.isfinite(self.alpha):
            bins = cache[n] = np.zeros((1, n // 2 + 1), dtype=complex)
            bins[0, 0], bins[0, 1] = self.a_mean, self.alpha if n == 2 else 0.5 * self.alpha
            bins.flags.writeable = False
        return cache.get(n)


def _separable_closed(a_mean, avg_v2, pot):
    """Closed forms of a drive a(tau) u(x) of mean a_mean; u_grad, u_hess from its pieces."""
    def u(x, k):  # u_grad at k = 1, u_hess at k = 2
        return np.asarray(pot._block(x, k)[0], dtype=float)
    return {"mean_grad": lambda x: a_mean * u(x, 1), "w_grad": lambda x: avg_v2 * (u(x, 2) @ u(x, 1)),
            "b": lambda x: np.zeros(pot.dim), "b_matrix": lambda x: np.zeros((pot.dim, pot.dim))}


def quartic_drive() -> Scenario:
    """Zero-mean cosine drive on a quartic-plus-shear profile (no closed orbitals,
    exercises the third-antiderivative terms of the guiding-center map)."""
    pot = CosineDrivePotential(0.0, 1.0, "{x}_0 ** 4 / 4.0 + {x}_0 * {x}_1", ("{x}_0 ** 3 + {x}_1", "{x}_0"),
                               (("3.0 * {x}_0 ** 2", "1.0"), ("1.0", "0.0")), dim=2)
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
        closed_forms=_separable_closed(0.0, avg_v2, pot),
        extras={"slope_floor": 3.7},
    )


def kapitza_pendulum(a_mean: float = 1.0, alpha: float = 1.0) -> Scenario:
    """Pendulum with vertically modulated gravity a(tau) = a_mean + alpha cos(2 pi tau).

    The inverted position becomes linearly stable once
    eps^2 alpha^2 / (8 pi^2) exceeds a_mean.
    """
    pot = CosineDrivePotential(a_mean, alpha, "-cos({x}_0)", ("sin({x}_0)",), (("cos({x}_0)",),), dim=1)
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
        closed_forms=_separable_closed(a_mean, avg_v2, pot),
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

    pieces_source = (
        ("r2 = {x}_0 * {x}_0 + {x}_1 * {x}_1", "r = sqrt(r2)", "r3 = r2 * r",
         "cross = -{x}_0 * {x}_1 / r3",                                  # d(x/r)/dy = d(y/r)/dx
         "{q}1_0 = {x}_1 * {x}_1 / r3", "{q}1_1 = cross", "{q}2_0 = cross", "{q}2_1 = {x}_0 * {x}_0 / r3"),
        ("r5 = r2 * r3",
         "mix_x = {x}_1 * (2.0 * {x}_0 * {x}_0 - {x}_1 * {x}_1) / r5",  # d2(x/r)/dx dy = d2(y/r)/dx2
         "mix_y = {x}_0 * (2.0 * {x}_1 * {x}_1 - {x}_0 * {x}_0) / r5",  # d2(x/r)/dy2 = d2(y/r)/dx dy
         "{q}1_0_0 = -3.0 * {x}_0 * {x}_1 * {x}_1 / r5", "{q}1_0_1 = mix_x", "{q}1_1_0 = mix_x",
         "{q}1_1_1 = mix_y", "{q}2_0_0 = mix_x", "{q}2_0_1 = mix_y", "{q}2_1_0 = mix_y",
         "{q}2_1_1 = -3.0 * {x}_0 * {x}_0 * {x}_1 / r5"),
        ("{q}0 = %r" % offset, "{q}1 = {x}_0 / r", "{q}2 = {x}_1 / r"))

    def in_region(self, x):
        return math.hypot(x[0], x[1]) >= self.r_min


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
    in_region = SatelliteStatic.in_region

    def __init__(self, sigma=-1.0):
        """Pieces p = k / (2 r^3), C = 3k (x^2 - y^2) / (2 r^5) and B = 3k xy / r^5,
        k = sigma / (2 pi), each f = z.A z / 2 times g = r^-5 with A = k I,
        diag(3k, -3k) and 3k [[0, 1], [1, 0]] (a, b, c are k, 3k, -3k): grad =
        A z g + f dg z, hess = A g + f (dg I + e z z^T) + (A z)(dg z)^T + (dg z)(A z)^T."""
        self.sigma = float(sigma)
        k = self.sigma / TWO_PI
        a, b, c = repr(k), repr(3.0 * k), repr(-3.0 * k)
        grad = ("r2 = {x}_0 * {x}_0 + {x}_1 * {x}_1", "g = r2 ** -2.5", "dg = -5.0 * g / r2",
                "gx = dg * {x}_0", "gy = dg * {x}_1", f"ax0 = {a} * {{x}}_0", f"ay0 = {a} * {{x}}_1",
                f"ax1 = {b} * {{x}}_0", f"ay1 = {c} * {{x}}_1", f"ax2 = {b} * {{x}}_1", f"ay2 = {b} * {{x}}_0",
                *(f"f{j} = 0.5 * (ax{j} * {{x}}_0 + ay{j} * {{x}}_1)" for j in range(3)),
                *(f"{{q}}{j}_0 = ax{j} * g + f{j} * gx" for j in range(3)),
                *(f"{{q}}{j}_1 = ay{j} * g + f{j} * gy" for j in range(3)))
        hess = ("e = 35.0 * g / (r2 * r2)", "hxx = dg + e * {x}_0 * {x}_0", "hxy = e * {x}_0 * {x}_1",
                "hyy = dg + e * {x}_1 * {x}_1",
                f"{{q}}0_0_0 = {a} * g + f0 * hxx + 2.0 * ax0 * gx",
                f"{{q}}0_1_1 = {a} * g + f0 * hyy + 2.0 * ay0 * gy",
                f"{{q}}1_0_0 = {b} * g + f1 * hxx + 2.0 * ax1 * gx",
                f"{{q}}1_1_1 = {c} * g + f1 * hyy + 2.0 * ay1 * gy",
                "{q}2_0_0 = f2 * hxx + 2.0 * ax2 * gx", "{q}2_1_1 = f2 * hyy + 2.0 * ay2 * gy",
                "{q}0_0_1 = f0 * hxy + (ax0 * gy + gx * ay0)", "{q}1_0_1 = f1 * hxy + (ax1 * gy + gx * ay1)",
                f"{{q}}2_0_1 = {b} * g + f2 * hxy + (ax2 * gy + gx * ay2)",
                *(f"{{q}}{j}_1_0 = {{q}}{j}_0_1" for j in range(3)))
        self.pieces_source = grad, hess, tuple(f"{{q}}{j} = f{j} * g" for j in range(3))


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

