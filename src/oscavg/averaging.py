"""Construction of the averaged dynamics for a rapidly oscillating potential.

For a particle obeying  xdd = -grad U(x, t/eps)  with U 1-periodic in its
second argument, the motion splits into a small fast wiggle around a smooth
guiding trajectory.  The guiding trajectory feels the mean potential, a
velocity-independent correction built from the oscillating part, and a weak
magnetic-like coupling.  This module builds those fields from the tau
spectrum of the potential and packages them as a force law.

Spectral core: the normalized rfft coefficients of value/grad/hess of the
potential on a uniform tau grid, at a batch of points, from one
potential.spectrum call (fields.TimePeriodicPotential).  The default samples
the potential on the grid and takes one rfft over all of them; a potential
whose coefficients follow in closed form hands them over directly, with no
samples and no transform (the plane potentials' three spatial pieces times
one harmonic: the saddle, the wave and the satellite; the separable drives'
a(tau) u(x)).  With G_k and H_k the coefficients of U' and
U'' (k >= 1), the antiderivatives are V_k = G_k / (2 pi i k) and so on, and
discrete Parseval turns every tau average of a product into a weighted sum
over k:

    grad W = sum_k c_k Re(H_k conj G_k) / (2 pi k)^2
    b      = sum_k c_k Im(H_k conj G_k) / (2 pi k)^3

with c_k = 2 for interior bins and 1 for the Nyquist bin of an even grid.
The sums equal the averages of the products on the sample grid, which are
exact as long as the potential is a trigonometric polynomial resolved by the
grid (all bundled scenarios are; the closed-form spectra refuse a grid that
would alias their harmonic).  On an even grid the sample grid holds only the
real part of each antiderivative's Nyquist coefficient, so the Nyquist bin
of G enters with its real part dropped (see FieldSpectra._parseval_products).

The B matrix is a central difference of b; the force takes its centre point
and the 2 dim stencil points x +- h e_j in one sweep, so one force call costs
one potential.spectrum call over 2 dim + 1 points and the Parseval sums for
grad W and b.  At n_tau 16 a one-row force call takes about 90-110 us on the
spinning satellite, 50-80 us on rotating_wave and about 90 us on
quartic_drive: 0.75x, 0.73x and 0.58x of sampling and transforming
(in-process alternating medians on a shared 2-core VM, Python 3.11, numpy
2.4).  What is left on the satellite is mostly its float-math tidal pieces,
about 2.5 us a point.  The fields depend on x alone and eps enters only as weights, so
ladder_force pays the fixed costs once per RK stage for a whole eps ladder:
one spectra build over the stencils of every rung, then each rung's force
with its own weights (AveragedSystem.force is the one-rung case).  The
guiding-center map takes that stencil around every state of a trajectory in
one call and reads V, S, A at each state's own phase from the coefficients.

Every potential is U = U0(x) + eps^s U1(x, tau), its static, oscillating and
shift s (s = 0 and no U0 is the standard split, s = 1 the slow-plus-eps split
of Order1Potential), and every eps power of the averaged force follows from s:

    F = -grad(U0) - eps^s grad(U1bar) - eps^(2+2s) grad(W) + eps^(3+2s) B xd

with W = avg(V' . V')/2, b = avg(S'' V'), B = (Db)^T - Db, where V, S are the
first and second zero-mean tau antiderivatives of U1 and
(Db)[i, j] = d b_i / d x_j.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (TimePeriodicPotential, antiderivative_factors, central_stencil,
                     phase_weights, stencil_jacobian)


@lru_cache(maxsize=16)
def _parseval_weights(n_tau: int):
    """c_k / (2 pi k)^2 and c_k / (2 pi k)^3 for the bins k >= 1 of an n_tau grid."""
    k = np.arange(1, n_tau // 2 + 1)
    c = np.full(k.shape[0], 2.0)
    if n_tau % 2 == 0:
        c[-1] = 1.0  # the Nyquist bin appears once
    w2 = c / (2.0 * np.pi * k) ** 2
    w3 = w2 / (2.0 * np.pi * k)
    w2.flags.writeable = w3.flags.writeable = False
    return w2, w3


class FieldSpectra:
    """Tau spectra of one potential at a batch of points.

    Keeps the normalized rfft coefficients of value/grad/hess at all the
    points on an n_tau grid, from one potential.spectrum call.  Means and the
    product averages W, grad W and b come from the coefficients directly;
    antiderivative_at evaluates the zero-mean tau antiderivatives at any
    phase for the guiding-center map.
    """

    def __init__(self, potential: TimePeriodicPotential, points, n_tau: int = 48):
        n_tau = int(n_tau)
        self.dim = d = potential.dim
        self.n_tau = n_tau
        points = [np.asarray(x, dtype=float) for x in points]
        # coeffs[p, c, k]: bin k of sample channel c at point p
        self.coeffs = potential.spectrum(points, n_tau)
        shape = (len(points), 1 + d + d * d, n_tau // 2 + 1)
        if np.shape(self.coeffs) != shape:
            raise ValueError(f"potential.spectrum returned shape {np.shape(self.coeffs)}, "
                             f"expected {shape}")
        mean = self.coeffs[:, :, 0].real
        self.u_mean = mean[:, 0]
        self.g_mean = mean[:, 1:1 + d]
        self._products = None

    def _parseval_products(self):
        """conj(G_k) and H_k conj G_k summed over the inner index, for k >= 1,
        shapes (points, dim, bins); formed on first use, since the
        guiding-center map needs neither.

        On an even grid irfft keeps only the real part of the Nyquist
        coefficient of V' = G / (2 pi i k), which is Im(G) / (2 pi k): the
        Nyquist G enters with its real part dropped, as the grid averages
        have it.  V'' and S'' keep their Nyquist bins as they are, because
        every product pairs them with V'.
        """
        if self._products is None:
            d = self.dim
            g_conj = self.coeffs[:, 1:1 + d, 1:].conj()
            if self.n_tau % 2 == 0:
                g_conj[:, :, -1].real = 0.0
            H = self.coeffs[:, 1 + d:, 1:].reshape(len(self.coeffs), d, d, -1)
            self._products = g_conj, (H * g_conj[:, None]).sum(axis=2)
        return self._products

    def vv_mean(self):
        """avg over tau of V' . V' at each point."""
        G = self._parseval_products()[0]
        return (G.real ** 2 + G.imag ** 2).sum(axis=1) @ _parseval_weights(self.n_tau)[0]

    def w_grad(self):
        """grad W = avg(V'' V') at each point."""
        return self._parseval_products()[1].real @ _parseval_weights(self.n_tau)[0]

    def b_vector(self):
        """b = avg(S'' V') at each point."""
        return self._parseval_products()[1].imag @ _parseval_weights(self.n_tau)[1]

    def antiderivative_at(self, level: int, taus):
        """Level-`level` zero-mean tau antiderivative of every sample channel,
        out[p, c] at point p's own phase taus[p] (level 1 of the gradient
        channels is V', level 2 is S', level 3 is A')."""
        return _series_at(self.coeffs, self.n_tau, level, taus)

    def hess_s_grad_antiderivative_at(self, taus):
        """Zero-mean tau antiderivative of the product U''(tau) S'(tau), at
        point p's own phase taus[p].

        This is the driven part of the phase velocity carried by the first
        corrector dropped from the guiding-center position map; the product is
        formed on the sample grid before transforming, which keeps it exact as
        long as twice the potential's bandwidth is still resolved.  Both
        factors come back to the grid from their coefficients.
        """
        d, n = self.dim, self.n_tau
        s_grad = np.fft.irfft(self.coeffs[:, 1:1 + d] * (n * antiderivative_factors(n, 2)),
                              n=n, axis=-1)
        hess = np.fft.irfft(self.coeffs[:, 1 + d:], n=n, axis=-1,
                            norm="forward").reshape(-1, d, d, n)
        prod = np.einsum("pijn,pjn->pin", hess, s_grad)
        return _series_at(np.fft.rfft(prod, axis=-1, norm="forward"), n, 1, taus)


def _series_at(coeffs, n_tau: int, level: int, taus):
    """The level-`level` zero-mean antiderivative of each series coeffs[p, c]
    at its own phase taus[p] (Nyquist rule in fields.phase_weights)."""
    phi = phase_weights(n_tau, taus, level)
    return (coeffs * phi[:, None, :]).sum(axis=-1).real


class PeriodicFieldStack:
    """The tau averages of one potential's oscillation at one point: means,
    W, grad W and b from the spectral core."""

    def __init__(self, potential: TimePeriodicPotential, x, n_tau: int = 48):
        self._spectra = sp = FieldSpectra(potential, [x], n_tau)
        self.u_mean = float(sp.u_mean[0])
        self.g_mean = sp.g_mean[0].copy()

    def vv_mean(self) -> float:
        """avg over tau of V' . V'  (twice the velocity-independent correction)."""
        return float(self._spectra.vv_mean()[0])

    def w_value(self) -> float:
        return 0.5 * self.vv_mean()

    def w_grad(self):
        """grad of W, computed as avg(V'' V') without differencing."""
        return self._spectra.w_grad()[0]

    def b_vector(self):
        """Magnetic-like vector b = avg(S'' V')."""
        return self._spectra.b_vector()[0]


class AveragedSystem:
    """The assembled averaged dynamics for one potential at one eps.

    force(x, v) evaluates the averaged force law, with every eps power taken
    from the potential's shift s (see the module docstring): w_power 2 + 2s,
    b_power 3 + 2s.  The instance also exposes the raw b vector, the
    antisymmetric coupling matrix B, the effective potential, an
    adiabatic-invariant style energy for drift checks and the full flow's
    acceleration.
    """

    def __init__(self, potential, epsilon: float, n_tau: int = 48):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.potential = potential
        self.epsilon = float(epsilon)
        self.n_tau = int(n_tau)
        self._osc = potential.oscillating
        self._static = potential.static
        self.shift = s = potential.shift
        self.order = ("standard", "slow_plus_eps")[s]
        self.w_power = 2 + 2 * s
        self.b_power = 3 + 2 * s
        # the eps weights of B xd, grad W and the mean gradient in the force
        self.weights = (self.epsilon ** self.b_power, self.epsilon ** self.w_power,
                        self.epsilon ** s)
        self.dim = self._osc.dim

    def spectra(self, points) -> FieldSpectra:
        """Tau spectra of the oscillating part at a batch of points."""
        return FieldSpectra(self._osc, points, self.n_tau)

    def stack(self, x) -> PeriodicFieldStack:
        return PeriodicFieldStack(self._osc, x, self.n_tau)

    # ---- assembled fields ----

    def effective_potential(self, x) -> float:
        st = self.stack(x)
        u = self.epsilon ** self.w_power * st.w_value()
        static = 0.0 if self._static is None else float(self._static.value(x))
        return float(u + (self.epsilon ** self.shift * st.u_mean + static))

    def b_vector(self, x):
        return self.spectra([x]).b_vector()[0]

    def b_matrix(self, x):
        """B = (Db)^T - Db, exactly antisymmetric by construction."""
        points, h = central_stencil(x)
        Db = stencil_jacobian(self.spectra(points[1:]).b_vector(), h)
        return Db.T - Db

    def force(self, x, v):
        """The averaged force at x for the velocity v: the one-row case of
        ladder_force."""
        x = np.asarray(x, dtype=float).tolist()
        return np.array(ladder_force([self], x, np.asarray(v, dtype=float).tolist()))

    def energy(self, x, v) -> float:
        """Effective energy 0.5 |v|^2 + U_eff(x).

        The velocity-coupled part of the force is antisymmetric and does no
        work, so this is an exact invariant of the averaged flow; its numerical
        drift measures integrator quality alone.
        """
        v = np.asarray(v, dtype=float)
        return float(0.5 * np.dot(v, v) + self.effective_potential(x))

    def full_acceleration(self, x, tau):
        """Acceleration -grad(U0 + eps^s U1) of the full system at x, a
        sequence of floats, and the float phase tau, as a list of floats:
        full_stage's value at the phase tau.  The oscillating part's
        phase_force is minus its gradient, so scale * o - s is
        -(s + scale * g) exactly."""
        osc = self._osc.phase_force(x, tau)
        if self._static is None:
            return osc
        scale = self.epsilon ** self.shift
        return [scale * o - s for s, o in zip(self._static.float_grad(x), osc)]

    def full_stage(self):
        """The full flow's RK stage acc(t, x, v): full_acceleration at the
        phase t / eps, in one call on the stepper's list of floats x.  The
        full flow makes four of these per substep, so the stage calls the
        parts' float gradients directly rather than through
        full_acceleration, with the same arithmetic; with no static part it
        is the potential's phase_force list as it comes."""
        eps, phase_force = self.epsilon, self._osc.phase_force
        if self._static is None:
            return lambda t, x, v: phase_force(x, (t / eps) % 1.0)
        static_grad, scale = self._static.float_grad, eps ** self.shift
        return lambda t, x, v: [scale * o - s for s, o in
                                zip(static_grad(x), phase_force(x, (t / eps) % 1.0))]

    def in_region(self, x):
        return self.potential.in_region(x)


def assemble(potential, epsilon: float, n_tau: int = 48) -> AveragedSystem:
    """Build the averaged system for a potential at a given eps; the
    potential's shift selects the eps bookkeeping (see AveragedSystem)."""
    return AveragedSystem(potential, epsilon, n_tau=n_tau)


def ladder_force(systems, x, v):
    """The averaged force of each system at its own state, end to end in one
    list of floats: row i of the float lists x and v (dim floats a row) is
    the state of systems[i].

    The fields depend on x alone and eps enters only as weights, so one
    spectra build covers the central stencils of every row: grad W and the
    mean gradient at each row's point, b at its stencil points.  Each row's
    force is then assembled with its own system's eps weights.  The systems
    must share their potential and n_tau.
    """
    d = systems[0].dim
    m = 2 * d + 1
    stencils = [central_stencil(np.array(x[i:i + d])) for i in range(0, len(x), d)]
    sp = systems[0].spectra([p for points, _ in stencils for p in points])
    b, g_mean, w_grad = sp.b_vector(), sp.g_mean, sp.w_grad()
    static = systems[0].potential.static
    out = []
    for i, (system, (points, h)) in enumerate(zip(systems, stencils)):
        c = i * m
        Db = stencil_jacobian(b[c + 1:c + m], h)
        b_weight, w_weight, mean_weight = system.weights
        g = w_weight * w_grad[c] + mean_weight * g_mean[c]
        if static is not None:
            g = g + np.asarray(static.grad(points[0]), dtype=float)
        out += (b_weight * ((Db.T - Db) @ np.array(v[i * d:(i + 1) * d])) - g).tolist()
    return out
