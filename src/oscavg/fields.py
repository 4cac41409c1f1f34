"""Time-periodic potentials and the Fourier tools used to average them.

Everything here works with the fast phase tau measured in units of one
oscillation period, so all periodic quantities have period 1 in tau.
First differences all take central_stencil's points and stencil_jacobian.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_EPS = float(np.finfo(float).eps)

MIN_N_TAU = 4  # the coarsest tau grid any spectrum accepts

# central-difference steps, scaled by the point magnitude
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


def _fd_step(x, base):
    """base * (1 + max |x_i|) for a 1-d float array x, in float math: np.max
    costs microseconds on a few coordinates.  A NaN coordinate gives a NaN
    step, as np.max would; Python's max would drop it."""
    xs = x.tolist()
    if any(map(math.isnan, xs)):
        return math.nan
    return base * (1.0 + max(map(abs, xs)))


def central_stencil(x, h=None):
    """The point x followed by x + h e_j, x - h e_j for each j, and the step h."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = _fd_step(x, GRAD_STEP)
    points = [x]
    for j in range(x.shape[0]):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        points += [xp, xm]
    return points, h


def stencil_jacobian(values, h):
    """J[i, j] = d f_i / d x_j from a vector f at the 2 dim points of
    central_stencil after its centre, in their order."""
    values = np.asarray(values, dtype=float)
    return ((values[0::2] - values[1::2]) / (2.0 * h)).T


def fd_gradient(f, x, h=None):
    """Central-difference gradient of f at x over central_stencil's points.
    f is scalar or vector valued; the derivative axis is then last:
    g[i] = d f / d x_i, or g[i, j] = d f_i / d x_j."""
    points, h = central_stencil(x, h)
    return stencil_jacobian([f(p) for p in points[1:]], h)


def checked_sample(name, arr, shape):
    """arr as a float array, after checking that potential.<name> gave it the
    shape it must have at one point."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"potential.{name} returned shape {arr.shape}, expected {shape}")
    return arr


def fd_hessian(f, x, h=None):
    """Symmetric second-difference Hessian of f at x.  f may be array valued;
    the two derivative axes are then last: H[..., i, j]."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if h is None:
        h = _fd_step(x, HESS_STEP)
    f0 = np.asarray(f(x))
    H = np.empty(f0.shape + (d, d))
    for i in range(d):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        H[..., i, i] = (np.asarray(f(xp)) - 2.0 * f0 + np.asarray(f(xm))) / h ** 2
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            H[..., i, j] = H[..., j, i] = (np.asarray(f(xpp)) - np.asarray(f(xpm))
                                          - np.asarray(f(xmp)) + np.asarray(f(xmm))) / (4.0 * h ** 2)
    return H


def antiderivative_factors(n: int, level: int):
    """1 / (2 pi i k)^level for the rfft bins k >= 1 of an n-point grid, 0 at k = 0."""
    k = np.arange(1, n // 2 + 1)
    return np.concatenate(([0.0], (-1j) ** level / (2.0 * np.pi * k) ** level))


def phase_weights(n: int, taus, level: int = 0):
    """phi[..., k] such that Re sum_k c_k phi[..., k] is, at each tau in taus,
    the series with normalized rfft coefficients c_k of an n-point grid
    (level 0) or its level-`level` zero-mean tau antiderivative.

    phi_k = w_k e^{2 pi i k tau} / (2 pi i k)^level with w_0 = 1 and w_k = 2
    above.  On an even grid the Nyquist bin appears once and the n samples
    hold only the real part of a coefficient there, as grid() and irfft have
    it: its entry is the real cos(2 pi N tau) Re(1 / (2 pi i N)^level), so the
    sum reads only Re(c_N), and it is zero at odd levels, where the
    antiderivative's Nyquist coefficient is imaginary.  This is the one place
    that rule is kept.
    """
    k = np.arange(n // 2 + 1)
    phase = 2.0 * np.exp(2j * np.pi * np.multiply.outer(np.asarray(taus, dtype=float), k))
    phase[..., 0] = 1.0
    if n % 2 == 0:
        phase[..., -1] = phase[..., -1].real / 2.0
    if level:
        phase = phase * antiderivative_factors(n, level)
        if n % 2 == 0:
            phase[..., -1] = phase[..., -1].real
    return phase


class FourierSeries:
    """A real, 1-periodic function (possibly array valued) held as rfft coefficients.

    Built from uniform samples over one period.  Coefficients are normalized so
    that coeffs[0] is the mean.  The sample count n is kept so the series can be
    restored on the original grid exactly.
    """

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs, n):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.n = int(n)

    @classmethod
    def from_samples(cls, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape[0] < 2:
            raise ValueError(f"need at least 2 samples per period, got {samples.shape[0]}")
        n = samples.shape[0]
        return cls(np.fft.rfft(samples, axis=0) / n, n)

    @property
    def mean(self):
        m = self.coeffs[0].real
        return float(m) if m.ndim == 0 else m.copy()

    def without_mean(self):
        c = self.coeffs.copy()
        c[0] = 0.0
        return FourierSeries(c, self.n)

    def antiderivative(self):
        """Zero-mean antiderivative in tau.  Requires a zero-mean input."""
        scale = float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0
        if float(np.max(np.abs(self.coeffs[0]))) > 1e-10 * max(scale, 1e-300):
            raise ValueError("nonzero mean; subtract the average before integrating in tau")
        factor = antiderivative_factors(self.n, 1)
        shape = factor.shape + (1,) * (self.coeffs.ndim - 1)
        return FourierSeries(self.coeffs * factor.reshape(shape), self.n)

    def derivative(self):
        """Derivative in tau."""
        k = np.arange(self.coeffs.shape[0])
        factor = 2.0j * np.pi * k
        shape = (k.shape[0],) + (1,) * (self.coeffs.ndim - 1)
        return FourierSeries(self.coeffs * factor.reshape(shape), self.n)

    def grid(self):
        """Values back on the original n-point sample grid."""
        return np.fft.irfft(self.coeffs * self.n, n=self.n, axis=0)

    def eval(self, tau):
        """Evaluate at arbitrary tau (scalar or 1-d array), interpreted mod 1."""
        phases = phase_weights(self.n, np.atleast_1d(np.asarray(tau, dtype=float)))
        out = np.real(np.tensordot(phases, self.coeffs, axes=([1], [0])))
        if np.isscalar(tau) or np.asarray(tau).ndim == 0:
            return out[0]
        return out


@lru_cache(maxsize=16)
def _tau_grid(n_tau: int):
    """The sample phases n / n_tau, read-only: every spectra build shares them."""
    taus = np.arange(n_tau) / n_tau
    taus.flags.writeable = False
    return taus


def checked_grid(points, dim: int, n_tau: int):
    """The tau grid of n_tau phases, after checking that every point has
    shape (dim,) and that the grid is fine enough to resolve anything."""
    for x in points:
        if x.shape != (dim,):
            raise ValueError(f"point shape {x.shape} does not match potential dim {dim}")
    if n_tau < MIN_N_TAU:
        raise ValueError(f"n_tau={n_tau} is too coarse to resolve any oscillation")
    return _tau_grid(n_tau)


def _checked_samples(potential, points, n_tau: int):
    """Value, gradient and Hessian of the potential on the tau grid at each
    point (float arrays).

    Returns samples[p, c, n]: at point p and tau = n / n_tau, the value (c = 0),
    the gradient (c = 1 .. dim) and the Hessian (the next dim * dim, row major).
    Makes one value, one grad and one hess call per point, on the shared,
    read-only grid.  Rejects a point of the wrong shape, a grid too coarse to
    resolve anything, samples of the wrong shape and non-finite samples.
    """
    d = potential.dim
    taus = checked_grid(points, d, n_tau)
    samples = np.empty((len(points), 1 + d + d * d, n_tau))
    for x, out in zip(points, samples):
        out[0] = checked_sample("value", potential.value(x, taus), (n_tau,))
        out[1:1 + d] = checked_sample("grad", potential.grad(x, taus), (n_tau, d)).T
        out[1 + d:] = checked_sample("hess", potential.hess(x, taus),
                                     (n_tau, d, d)).reshape(n_tau, d * d).T
    if not np.isfinite(samples).all():
        bad_rows = ~np.all(np.isfinite(samples), axis=1)
        bad = taus[bad_rows[np.argmax(bad_rows.any(axis=1))]]
        raise ValueError(f"potential returned non-finite samples at tau={bad[:4]}")
    return samples


class TimePeriodicPotential:
    """Base class for potentials U(x, tau) with period 1 in tau: the shift 0
    case of U = static(x) + eps^shift * oscillating(x, tau), with no static
    part and itself as the oscillating part (Order1Potential is shift 1).

    Subclasses must implement value() and should implement grad() and hess()
    analytically when possible; the finite-difference fallbacks are tested to
    1e-9 (gradient) and 1e-6 (Hessian) on a smooth O(1) function, and on a
    seeded quadratic drive they move the guiding-center gaps of eps 1/16 and
    1/32 by at most 7.7e-6 relative (tested to 1e-4).  value/grad/hess must
    accept tau as a scalar or a 1-d array and vectorize over it.

    The full flow calls phase_force(x, tau), minus the gradient at one float
    phase as a list of floats, four times per RK4 substep, with x the
    stepper's own list of floats, so that call's fixed cost sets the speed of
    the full run: for a potential with no static part its list is the RK
    stage as it stands.  The default converts x to a float array once, calls
    grad(x, tau) and negates; the bundled potentials override it in float
    math on x's floats, negating in the expression itself (IEEE negation is
    exact), which skips the array round trip and the 0-d array overhead of
    the array path.

    spectrum(points, n_tau) is all the field averages read: the normalized
    rfft coefficients of value, gradient and Hessian over the n_tau-point
    tau grid at P points, shape (P, 1 + dim + dim * dim, n_tau // 2 + 1),
    channels laid out as in _checked_samples, one call per averaged force,
    at its point.  The default calls value, grad and hess once per point on
    the shared, read-only grid, checks the samples and takes one rfft.  A
    sum of tau factors times spatial pieces (scenarios.FactoredPotential, in
    any dim: the saddle, the wave, the satellite and the separable drives)
    skips both: its spectrum is the factors' bins times the pieces, after
    the checks of checked_grid, and exact harmonic bins refuse a grid too
    coarse for them, which the samples would alias without notice.
    """

    dim: int = 0
    static = None
    shift = 0

    @property
    def oscillating(self):
        return self

    def value(self, x, tau):
        raise NotImplementedError

    def spectrum(self, points, n_tau):
        """Normalized rfft coefficients out[p, c, k] of channel c at point p
        over the n_tau-point tau grid: the default is one rfft of
        _checked_samples."""
        return np.fft.rfft(_checked_samples(self, points, n_tau), axis=-1, norm="forward")

    def grad(self, x, tau):
        return fd_gradient(lambda y: self.value(y, tau), x)

    def phase_force(self, x, tau):
        """Minus grad at x, a sequence of floats (the stepper's list, or a
        float array), and one float phase tau, as a list of floats.  The
        default converts x to a float array once, calls grad and negates."""
        return [-g for g in np.asarray(self.grad(np.asarray(x, dtype=float), tau),
                                       dtype=float).tolist()]

    def hess(self, x, tau):
        return fd_hessian(lambda y: self.value(y, tau), x)

    def in_region(self, x):
        """True while x stays inside the region where the model is trusted."""
        return True


class StaticPotential:
    """Potential of position only.  Used as the slow part of split potentials."""

    dim: int = 0

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        return fd_gradient(self.value, np.asarray(x, dtype=float))

    def float_grad(self, x):
        """grad at x, a sequence of floats, as a list of floats: the static
        part of a split potential's full-flow stage.  The default converts x
        to a float array once and calls grad."""
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float).tolist()

    def hess(self, x):
        return fd_hessian(self.value, np.asarray(x, dtype=float))

    def in_region(self, x):
        return True


class _Callables:
    """Plain callables as a potential: value, and grad and hess when given,
    are the instance's own methods of those names, called as given; an
    omitted grad or hess keeps the class's finite-difference default.  An
    instance of module-level functions pickles."""

    def __init__(self, value, dim, grad=None, hess=None, in_region=None):
        self.dim = int(dim)
        self.value = value
        if grad is not None:
            self.grad = grad
        if hess is not None:
            self.hess = hess
        self._in_region = in_region

    def in_region(self, x):
        return self._in_region is None or bool(self._in_region(x))


class CallablePotential(_Callables, TimePeriodicPotential):
    """Wrap plain callables value(x, tau), grad, hess as a time-periodic potential."""


class CallableStatic(_Callables, StaticPotential):
    """Wrap plain callables value(x), grad, hess as a static potential."""


class Order1Potential:
    """Split potential U0(x) + eps * U1(x, tau), the shift 1 case.

    The oscillating part U1 rides one power of eps above the slow part, which
    pushes every averaged correction two orders higher than in the standard
    case (see averaging).
    """

    shift = 1

    def __init__(self, static: StaticPotential, oscillating: TimePeriodicPotential):
        if static.dim != oscillating.dim:
            raise ValueError(f"dimension mismatch: static {static.dim} vs oscillating {oscillating.dim}")
        self.static = static
        self.oscillating = oscillating
        self.dim = static.dim

    def in_region(self, x):
        return self.static.in_region(x) and self.oscillating.in_region(x)
