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
(fields.FactoredPotential: the saddle, the wave, the satellite, the
separable drives a(tau) u(x)) and hands over its factors' bins times its
pieces, with no samples and no transform.  With G_k and H_k the
coefficients of U' and U'' (k >= 1), the antiderivatives are
V_k = G_k / (2 pi i k) and so on, and discrete Parseval turns every tau
average of a product into a weighted sum over k:

    grad W = sum_k 2 Re(H_k conj G_k) / (2 pi k)^2
    b      = sum_k 2 Im(H_k conj G_k) / (2 pi k)^3

over the interior bins 1 <= k < n_tau / 2.  The sums equal the averages of
the products on the sample grid, which are exact as long as the potential is
a trigonometric polynomial resolved by the grid (all bundled scenarios are;
exact harmonic bins refuse a grid that would alias their harmonic).  An even
grid's Nyquist bin is left out of every product average, by one rule: each
product pairs an odd-level antiderivative (V' or V''), whose Nyquist
coefficient G_N / (2 pi i N) is imaginary for real samples, and the samples
hold only the real part of a Nyquist coefficient, so that factor is zero on
the grid.  The antiderivatives at a phase take their Nyquist entry from
fields.phase_weights, which reads the real part of the bin, as the samples
hold it.

B = (Db)^T - Db, with (Db)[i, j] = d b_i / d x_j, needs no derivative of b:
d_i b_j = avg(S'''_ijk V'_k + S''_jk V''_ki), whose S''' term is symmetric in
i and j and cancels, which leaves a product average of the Hessian channel:

    B = avg(V'' S'' - S'' V'') = M^T - M,  M = sum_k 2 Im(H_k conj H_k) / (2 pi k)^3

The force reads the means, grad W and B at its own point.  For a factored
potential U1 = sum_j f_j(tau) P_j(x), with factor bins b_jk and g_j, h_j the
gradient and Hessian of P_j, the channels are G_k = sum_j b_jk g_j and
H_k = sum_j b_jk h_j, so every product average is a J x J weighted sum of
piece products whose weights depend on the bins and n_tau alone:

    grad W_i   = sum_jl Q2_jl sum_m h_j[i, m] g_l[m],  Q2 = Re sum_k w2_k b_jk conj(b_lk)
    M_in       = sum_jl Q3_jl sum_m h_j[i, m] h_l[m, n],  Q3 = Im sum_k w3_k b_jk conj(b_lk)
    grad U1bar = sum_j Re(b_j0) g_j

with w2_k = 2 / (2 pi k)^2 and w3_k = 2 / (2 pi k)^3 over the interior bins.
ladder_force therefore takes a factored potential's force from one function
generated over all its rows (ladder_kernel, also the averaged flow's RK
stage): straight-line float code over each row's pieces, with the zero
entries of Q2 and Q3 left out (the satellite keeps two of each, a separable
drive one Q2 entry and no Q3 entry), and no spectrum: on a few
coordinates, numpy's per-operation cost in a spectra build outweighs the
arithmetic many times over.  Any other potential takes the FieldSpectra
path: one potential.spectrum call at the rows' own points per force call,
B from the Hessian channel at those points alone.  The guiding-center map
needs a true third derivative: it takes a central stencil around every
state in one call and reads V, S, A at each state's phase from the
coefficients.  A single
point's fields are row 0 of a one-point FieldSpectra (stack(x)); the tests
hold the kernel to that path.

Every potential is U = U0(x) + eps^s U1(x, tau), its static, oscillating and
shift s (s = 0 and no U0 is the standard split, s = 1 the slow-plus-eps split
of Order1Potential), and every eps power of the averaged force follows from s:

    F = -grad(U0) - eps^s grad(U1bar) - eps^(2+2s) grad(W) + eps^(3+2s) B xd

with W = avg(V' . V')/2, b = avg(S'' V') and B = (Db)^T - Db as above, where
V, S are the first and second zero-mean tau antiderivatives of U1.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .fields import (SOURCE_NAMES, STAGE, TimePeriodicPotential, antiderivative_factors, checked_grid,
                     checked_state, generated, phase_weights, piece_entries, source_of, stage_lines)


@lru_cache(maxsize=16)
def _parseval_weights(n_tau: int):
    """2 / (2 pi k)^2 and 2 / (2 pi k)^3 for the interior bins 1 <= k < n_tau / 2."""
    k = np.arange(1, (n_tau + 1) // 2)
    w2 = 2.0 / (2.0 * np.pi * k) ** 2
    w3 = w2 / (2.0 * np.pi * k)
    w2.flags.writeable = w3.flags.writeable = False
    return w2, w3


class FieldSpectra:
    """Tau spectra of one potential at a batch of points.

    Keeps the normalized rfft coefficients of value/grad/hess at all the
    points on an n_tau grid, from one potential.spectrum call.  Means and the
    product averages W, grad W, b and B come from the interior bins of the
    gradient (G) and Hessian (H) channels; antiderivative_at evaluates the
    zero-mean tau antiderivatives at any phase for the guiding-center map.
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
        interior = (n_tau - 1) // 2
        self._G = self.coeffs[:, 1:1 + d, 1:interior + 1]
        self._H = self.coeffs[:, 1 + d:, 1:interior + 1].reshape(len(points), d, d, interior)

    def _hess_conj_grad(self):
        """H_k conj G_k summed over the inner index, shape (points, dim, bins)."""
        return (self._H * self._G.conj()[:, None]).sum(axis=2)

    def vv_mean(self):
        """avg over tau of V' . V' at each point."""
        G = self._G
        return (G.real ** 2 + G.imag ** 2).sum(axis=1) @ _parseval_weights(self.n_tau)[0]

    def w_grad(self):
        """grad W = avg(V'' V') at each point."""
        return self._hess_conj_grad().real @ _parseval_weights(self.n_tau)[0]

    def b_vector(self):
        """b = avg(S'' V') at each point."""
        return self._hess_conj_grad().imag @ _parseval_weights(self.n_tau)[1]

    def b_matrix(self):
        """B = M^T - M at each point, shape (points, dim, dim), M = avg(S'' V'')
        = sum_k 2 Im(H_k conj H_k) / (2 pi k)^3 over the interior bins."""
        H = self._H
        M = np.einsum("pimk,pmjk->pij", H * _parseval_weights(self.n_tau)[1], H.conj()).imag
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
    at its own phase taus[p], with the Nyquist entry of fields.phase_weights,
    the one place that rule lives."""
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
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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
        return self.stack(x).b_vector()[0]

    def b_matrix(self, x):
        """B = (Db)^T - Db at x, from the Hessian channel at x alone."""
        return self.stack(x).b_matrix()[0]

    def force(self, x, v):
        """The averaged force at x for the velocity v, dim floats each: the
        one-row case of ladder_force, from the potential's force kernel if it
        is factored and from one spectra build at x otherwise."""
        x, v = (checked_state(name, q, self.dim).tolist() for name, q in (("x", x), ("v", v)))
        return np.array(ladder_force([self], x, v))

    def energy(self, x, v) -> float:
        """Effective energy 0.5 |v|^2 + U_eff(x).

        The velocity-coupled part of the force is antisymmetric and does no
        work, so this is an exact invariant of the averaged flow; its numerical
        drift measures integrator quality alone.
        """
        v = np.asarray(v, dtype=float)
        return float(0.5 * np.dot(v, v) + self.effective_potential(x))

    def full_form(self):
        """The full flow's stage form and its arguments, which integrate_full
        and full_stage() take: -grad(U0 + eps^s U1) at the phase t / eps mod 1
        from the oscillating part's fields.stage_lines, with a static part's
        as scale * o_i - s_i, -(s + scale * g) exactly."""
        osc, static = self._osc, self._static
        names = dict(SOURCE_NAMES, eps=self.epsilon, osc=osc)
        phase, stage = stage_lines(osc, "osc")
        if static is not None:
            names.update(static=static, scale=self.epsilon ** self.shift)
            stage = (*stage_lines(static, "static", "{a}s")[1], *stage_lines(osc, "osc", "{a}o")[1],
                     "{a}_{i} = scale * {a}o_{i} - {a}s_{i}")
        return (", ".join(names), ("{p} = ({t}) / eps % 1.0", *phase), stage), list(names.values())

    def full_stage(self):
        """The full flow's acceleration acc(t, x, v), a list of floats, for
        the guiding-center map: full_form() in STAGE, integrate_full's stage
        bit for bit."""
        form, args = self.full_form()
        stage = generated(STAGE, self.dim, form)
        return lambda t, x, v: stage(t, x, v, *args)

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

    The fields depend on x alone, and each row's force takes its own
    system's eps weights.  The systems must share their potential and n_tau.
    A factored potential's rows take one call of ladder_kernel's force (the
    averaged flow's RK stage); any other potential builds one FieldSpectra
    at the rows' points, whose checks and messages then apply.
    """
    found = ladder_kernel(systems)
    return found[0](x, v, *found[1:]) if found else _spectra_force(systems, x, v)


def ladder_kernel(systems):
    """[force, *args], force(x, v, *args) the ladder_force of `systems` from
    _kernel_source for their row count (the first system keeps the text, so
    it pickles), the static part's lines and the gradient and Hessian lines
    of the pieces_source; None if not factored."""
    first, rows = systems[0], len(systems)
    texts = first.__dict__.setdefault("_kernels", {})
    if rows not in texts:
        texts[rows] = _kernel_source(first._osc, first.n_tau, first._static is not None, rows)
    if texts[rows] is None:
        return None
    static, source = first._static, source_of(first._osc) or ((), ())
    form = ("", (), () if static is None else stage_lines(static, "static")[1], source[0] + source[1])
    weights = tuple(w for s in systems for w in s.weights)
    return [generated(texts[rows], first.dim, form), weights, first._osc._pieces, np.array,
            static, partial(_spectra_force, systems)]


def _spectra_force(systems, x, v):
    """ladder_force from one FieldSpectra at the rows' points."""
    first = systems[0]
    d = first.dim
    points = [np.array(x[i:i + d]) for i in range(0, len(x), d)]
    static = first._static
    sp = first.spectra(points)
    b_weight, w_weight, mean_weight = np.array([s.weights for s in systems]).T[:, :, None]
    g = w_weight * sp.w_grad() + mean_weight * sp.g_mean
    if static is not None:
        g = g + np.array([static.grad(point) for point in points], dtype=float)
    bv = np.einsum("pij,pj->pi", sp.b_matrix(), np.reshape(v, (-1, d)))
    return (b_weight * bv - g).ravel().tolist()


# Row r's force F = bw B v - (ww grad W + mw grad U1bar + s) over its pieces
# p<r>_<entry> (its gradient and Hessian lines, @pieces, or one call of pieces)
# and the static gradient s (@stage); fallback(x, v) gives every row's force unless all
# pieces are finite floats (an array or a complex makes their sum no float).
_FORCE_KERNEL = """\
def force(x, v, weights, pieces, array, static, fallback):
    {xs}, = x
    {vs}, = v
    {weights}, = weights
    {pieces}
    try:
        finite = {finite}
    except TypeError:
        finite = False
    if not finite:
        return fallback(x, v)
    {rows}
    return [{forces}]
"""


def _gram_terms(bins, n_tau):
    """The nonzero entries of Q2 = Re sum_k w2_k b_jk conj(b_lk) and Q3 =
    Im sum_k w3_k b_jk conj(b_lk) over the interior bins, each grouped as
    {weight: [(j, l), ...]}.  Taken from the bins' real and imaginary parts,
    so that Q2 is exactly symmetric and Q3 exactly antisymmetric with a zero
    diagonal: a single factor's Q3 is no term at all."""
    w2, w3 = _parseval_weights(n_tau)
    b = bins[:, 1:len(w2) + 1]
    re, im = b.real[:, None], b.imag[:, None]
    grams = ((re * b.real + im * b.imag) @ w2, (im * b.real - re * b.imag) @ w3)
    terms = ({}, {})
    for q, grouped in zip(grams, terms):
        for j, l in zip(*np.nonzero(q)):
            grouped.setdefault(float(q[j, l]), []).append((j, l))
    return terms


def _kernel_source(potential, n_tau, static, rows):
    """_FORCE_KERNEL written out for `rows` rows of a factored potential (one
    that gives _bins and _pieces) on an n_tau grid, with an @stage line for
    the static gradient s when `static`; None for any other potential, or
    for factors that are not floats.  Each row writes in the gradient and
    Hessian lines of fields.source_of (@pieces), or calls _pieces if there
    are none.

    With b_jk the factor bins and g_j, h_j the gradient and Hessian of P_j,
    the mean gradient is sum_j Re(b_j0) g_j, grad W_i = sum_jl Q2_jl sum_m
    h_j[i, m] g_l[m] and M_in = sum_jl Q3_jl sum_m h_j[i, m] h_l[m, n]
    (module docstring).  Zero entries are left out, and the pairs that share
    a weight share its product.  Only B's upper triangle is written: the
    entries below are their exact negatives and the diagonal is zero.
    """
    d = potential.dim
    if not hasattr(potential, "_pieces") or (bins := potential._bins(checked_grid([], d, n_tau))) is None:
        return None
    row = 1 + d + d * d
    lines = None if (source := source_of(potential)) is None else source[0] + source[1]
    names = piece_entries(lines, len(bins), d, "p$_")

    def g(j, m):
        return names[j * row + 1 + m]

    def h(j, i, m):
        return names[j * row + 1 + d + i * d + m]

    def weighted(terms, product):
        """The sum over the weights q of q times the sum over m, m by m, of
        the products of q's pairs."""
        return " + ".join(
            f"{q!r} * (" + " + ".join("(" + " + ".join(product(j, l, m) for j, l in pairs) + ")"
                                      for m in range(d)) + ")"
            for q, pairs in terms.items()) or "0.0"

    def w_grad(i):
        return weighted(q2, lambda j, l, m: f"{h(j, i, m)} * {g(l, m)}")

    def m_entry(i, n):
        return weighted(q3, lambda j, l, m: f"{h(j, i, m)} * {h(l, m, n)}")

    q2, q3 = _gram_terms(bins, n_tau)
    upper = [(i, n) for i in range(d) for n in range(i + 1, d)] if q3 else []
    means = [(j, c) for j, c in enumerate(bins[:, 0].real.tolist()) if c]
    # one row's lines, $ standing for the row
    body = [*(["@stage s$ _ x$ v$"] if static else []),
            *(f"b{i}_{n} = ({m_entry(n, i)}) - ({m_entry(i, n)})" for i, n in upper)]
    for i in range(d):
        bv = " + ".join([f"-b{n}_{i} * v$_{n}" for n, k in upper if k == i]
                        + [f"b{i}_{n} * v$_{n}" for k, n in upper if k == i]) or "0.0"
        mean = " + ".join(f"{c!r} * {g(j, i)}" for j, c in means) or "0.0"
        body.append(f"f$_{i} = bw$ * ({bv}) - (ww$ * ({w_grad(i)}) + mw$ * ({mean})"
                    + (f" + s$_{i})" if static else ")"))

    def each(line, sep):
        return sep.join(line.replace("$", str(r)) for r in range(rows))

    point = ", ".join(f"x$_{i}" for i in range(d))
    if lines is None:
        pieces, body[:0] = f"q$ = pieces(array([{point}]))", [", ".join(names) + ", = q$"]
        finite = f"len(q$) == {len(names)} and isinstance(t := sum(q$), float) and isfinite(t)"
    else:
        pieces = "@pieces p$ x$"
        finite = f"isfinite({' + '.join(n for n in names if n != '0.0') or '0.0'})"
    return _FORCE_KERNEL.format(
        xs=each(point, ", "), vs=each(point.replace("x", "v"), ", "),
        weights=each("bw$, ww$, mw$", ", "), pieces=each(pieces, "\n    "),
        finite=each(finite, " and "), rows=each("\n    ".join(body), "\n    "),
        forces=each(point.replace("x", "f"), ", "))
