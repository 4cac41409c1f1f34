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
the potential on the grid and takes one rfft over all of them.  Every
bundled potential is tau factors times spatial pieces
(scenarios.FactoredPotential: the saddle, the wave, the satellite, the
separable drives a(tau) u(x)) and hands over its factors' bins times its
pieces, with no samples and no transform.  With G_k and H_k the
coefficients of U' and U'' (k >= 1), the antiderivatives are
V_k = G_k / (2 pi i k) and so on, and discrete Parseval turns every tau
average of a product into a weighted sum over k:

    grad W = sum_k c_k Re(H_k conj G_k) / (2 pi k)^2
    b      = sum_k c_k Im(H_k conj G_k) / (2 pi k)^3

with c_k = 2 for interior bins and 1 for the Nyquist bin of an even grid.
The sums equal the averages of the products on the sample grid, which are
exact as long as the potential is a trigonometric polynomial resolved by the
grid (all bundled scenarios are; exact harmonic bins refuse a grid that
would alias their harmonic).  On an even grid the sample grid holds only the
real part of each antiderivative's Nyquist coefficient, so the Nyquist bin
of G enters with its real part dropped (see FieldSpectra._parseval_products),
and B below leaves its Nyquist bin out (see FieldSpectra.b_matrix).

B = (Db)^T - Db, with (Db)[i, j] = d b_i / d x_j, needs no derivative of b:
d_i b_j = avg(S'''_ijk V'_k + S''_jk V''_ki), whose S''' term is symmetric in
i and j and cancels, which leaves a product average of the Hessian channel:

    B = avg(V'' S'' - S'' V'') = M^T - M,  M = sum_k c_k Im(H_k conj H_k) / (2 pi k)^3

So a force call costs one potential.spectrum call at its own point, where the
central difference of b took 2 dim + 1 points: at n_tau 16 a one-row call
takes 60-70 us (0.83-0.92x) on the satellite, the wave and the quartic, and a
four-rung ladder_force call, which builds a whole eps ladder's spectra once
per RK stage, 70-85 us (0.42-0.46x; in-process alternating medians, shared
2-core VM, Python 3.11, numpy 2.4).  The guiding-center map needs a true
third derivative: it takes a central stencil around every state in one call
and reads V, S, A at each state's phase from the coefficients.  A single
point's fields are row 0 of a one-point FieldSpectra (stack(x)).

Every potential is U = U0(x) + eps^s U1(x, tau), its static, oscillating and
shift s (s = 0 and no U0 is the standard split, s = 1 the slow-plus-eps split
of Order1Potential), and every eps power of the averaged force follows from s:

    F = -grad(U0) - eps^s grad(U1bar) - eps^(2+2s) grad(W) + eps^(3+2s) B xd

with W = avg(V' . V')/2, b = avg(S'' V') and B = (Db)^T - Db as above, where
V, S are the first and second zero-mean tau antiderivatives of U1.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import TimePeriodicPotential, antiderivative_factors, phase_weights


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
    product averages W, grad W, b and B come from the coefficients directly;
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

    def b_matrix(self):
        """B = M^T - M at each point, shape (points, dim, dim), M = avg(S'' V'')
        = sum_k c_k Im(H_k conj H_k) / (2 pi k)^3.  An even grid's samples hold
        only Re(H_N), whose Nyquist term is zero; a spectrum's complex Nyquist
        bin gets the same treatment (Im(H_N) dropped): the bin is left out."""
        d, interior = self.dim, (self.n_tau - 1) // 2
        H = self.coeffs[:, 1 + d:, 1:interior + 1].reshape(-1, d, d, interior)
        M = np.einsum("pimk,pmjk->pij", H * _parseval_weights(self.n_tau)[1][:interior],
                      H.conj()).imag
        return M.transpose(0, 2, 1) - M

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


class AveragedSystem:
    """The assembled averaged dynamics for one potential at one eps.

    force(x, v) evaluates the averaged force law, with every eps power taken
    from the potential's shift s (see the module docstring): w_power 2 + 2s,
    b_power 3 + 2s.  The instance also exposes the raw b vector, the
    antisymmetric coupling matrix B, the effective potential, an
    adiabatic-invariant style energy for drift checks and the full flow's
    RK stage.
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

    def stack(self, x) -> FieldSpectra:
        """The spectra at the one point x: every field at x is row 0."""
        return self.spectra([x])

    # ---- assembled fields ----

    def effective_potential(self, x) -> float:
        st = self.stack(x)
        u = self.epsilon ** self.w_power * (0.5 * st.vv_mean()[0])
        static = 0.0 if self._static is None else float(self._static.value(x))
        return float(u + (self.epsilon ** self.shift * st.u_mean[0] + static))

    def b_vector(self, x):
        return self.spectra([x]).b_vector()[0]

    def b_matrix(self, x):
        """B = (Db)^T - Db at x, from the Hessian channel at x alone."""
        return self.stack(x).b_matrix()[0]

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

    def full_stage(self):
        """The full flow's RK stage acc(t, x, v): -grad(U0 + eps^s U1) at x, a
        sequence of floats, and the phase t / eps mod 1, as a list of floats,
        four calls per substep.  phase_force is minus the oscillating
        gradient, so scale * o - s is -(s + scale * g) exactly; with no
        static part the stage is the phase_force list as it comes.  The
        guiding-center map reads the full acceleration from it too."""
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

    The fields depend on x alone, so one spectra build at the rows' own
    points serves every row, and each row's force takes its own system's eps
    weights.  The systems must share their potential and n_tau.
    """
    d = systems[0].dim
    points = [np.array(x[i:i + d]) for i in range(0, len(x), d)]
    sp = systems[0].spectra(points)
    b_weight, w_weight, mean_weight = np.array([s.weights for s in systems]).T[:, :, None]
    g = w_weight * sp.w_grad() + mean_weight * sp.g_mean
    static = systems[0].potential.static
    if static is not None:
        g = g + np.array([static.grad(point) for point in points], dtype=float)
    bv = np.einsum("pij,pj->pi", sp.b_matrix(), np.reshape(v, (-1, d)))
    return (b_weight * bv - g).ravel().tolist()
