"""Time-periodic potentials and the Fourier tools used to average them.

Everything here works with the fast phase tau measured in units of one
oscillation period, so all periodic quantities have period 1 in tau.
First differences all take central_stencil's points and stencil_jacobian.
Every compiled function of oscavg comes from generated, under one cache:
the stepper's interval (RK4, or Runge-Kutta-Nystrom for a stage that
ignores v), the full-flow stage, phase_force, float_grad, a factored
potential's pieces and the force kernel.  stage_lines is the one place
that chooses how a potential part's gradient is written into them.
"""
from __future__ import annotations

import ast
import math
import re
from functools import lru_cache
from itertools import chain

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


def checked_state(name, state, dim):
    """state as a float array of dim floats, else a ValueError naming it."""
    state = np.asarray(state, dtype=float)
    if state.shape != (dim,):
        raise ValueError(f"{name} must be {dim} floats (the potential's dim), got shape {state.shape}")
    return state


def fd_hessian(f, x, h=None, f0=None):
    """Symmetric second-difference Hessian of f at x (f0 = f(x) if given).
    f may be array valued; the two derivative axes are then last: H[..., i, j]."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if h is None:
        h = _fd_step(x, HESS_STEP)
    f0 = np.asarray(f(x) if f0 is None else f0)
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
    read-only grid (a default hess reuses the value sample as its centre).
    Rejects a point of the wrong shape, a grid too coarse to resolve anything,
    samples of the wrong shape and non-finite samples.
    """
    d = potential.dim
    taus = checked_grid(points, d, n_tau)
    samples = np.empty((len(points), 1 + d + d * d, n_tau))
    for x, out in zip(points, samples):
        value = potential.value(x, taus)
        out[0] = checked_sample("value", value, (n_tau,))
        out[1:1 + d] = checked_sample("grad", potential.grad(x, taus), (n_tau, d)).T
        hess = (potential.hess(x, taus) if _own(potential, TimePeriodicPotential, "hess")
                else fd_hessian(lambda y: potential.value(y, taus), x, f0=value))
        out[1 + d:] = checked_sample("hess", hess, (n_tau, d, d)).reshape(n_tau, d * d).T
    if not np.isfinite(samples).all():
        bad_rows = ~np.all(np.isfinite(samples), axis=1)
        bad = taus[bad_rows[np.argmax(bad_rows.any(axis=1))]]
        raise ValueError(f"potential returned non-finite samples at tau={bad[:4]}")
    return samples


# ---- generated code: a force as straight-line float code ----

def checked_value(f):
    """potential.value's f at one point as the float fd_gradient's float
    array holds; a ValueError naming value unless it is one real number."""
    if not isinstance(f, float) and (np.shape(f) != () or np.asarray(f).dtype.kind not in "biuf"):
        raise ValueError(f"potential.value returned {f!r:.60}, expected one real number")
    return float(f)


# The names float source and stage_lines read; any float is its repr.
SOURCE_NAMES = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt, "hypot": math.hypot,
                "isfinite": math.isfinite, "isnan": math.isnan, "TWO_PI": 2.0 * math.pi,
                "inf": math.inf, "nan": math.nan, "array": np.array, "checked_value": checked_value}


@lru_cache(maxsize=256)
def generated(template, n=0, form=("", (), ())):
    """The function `template` defines, written out on n floats in the stage
    form (args, phase lines, stage lines) and compiled with the globals
    SOURCE_NAMES: every compiled function of oscavg, in this one cache by
    (template, n, form), none on a potential; plain source text is
    compiled as it is.  In the template <e> is e at every element, comma
    separated, a line holding {i} is repeated for each element, and "@phase
    p T" and "@stage a p x v" are the form's lines with {p} named p, {t} T,
    {a} a, {x} x and {v} v; "@pieces q x" is the lines of a fourth group, a
    pieces_source's, with {q} named q_ and {x} x.  Other names the form's
    lines bind are local, so one that rebinds a name of the template (but
    its p, a_i or q_...) is refused."""
    args, phase, stage, *pieces = form

    def written(line):
        line = re.sub(r"<([^<>]*)>", lambda m: ", ".join(m[1].replace("{i}", str(i)) for i in range(n)), line)
        return [line.replace("{i}", str(i)) for i in range(n)] if "{i}" in line else [line]

    lines, own, bound = [], set(), []
    for line in template.replace("{args}", args).splitlines():
        indent, _, rest = line.partition("@")
        if not rest:
            out = written(line)
            lines += out
            own.update(re.findall(r"[A-Za-z_]\w*", " ".join(out)))
            continue
        kind, name, operands = rest.split(" ", 2)
        if kind == "phase":
            parts, subs = phase, {"{p}": name, "{t}": operands}
        elif kind == "pieces":
            parts, subs = pieces[0], {"{q}": name + "_", "{x}": operands}
        else:
            parts, subs = stage, dict(zip(("{a}", "{p}", "{x}", "{v}"), (name, *operands.split())))
        for part in parts:
            for key, value in subs.items():
                part = part.replace(key, value)
            out = written(indent + part)
            lines += out
            bound += [(name, node.id, q.strip()) for q in out for node in ast.walk(ast.parse(q.strip()))
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    for name, target, line in bound:
        if target in own and target != name and not target.startswith(name + "_"):
            raise ValueError(f"stage line {line!r} rebinds {target!r}, a name of the generated function")
    name = re.match(r"def (\w+)", template)[1]
    namespace = dict(SOURCE_NAMES)
    exec(compile("\n".join(lines), f"<{name} on {n} floats>", "exec"), namespace)
    return namespace[name]


# One stage of a form on the floats of x, a list of n floats: phase_force,
# float_grad and AveragedSystem.full_stage().
STAGE = """\
def stage(t, x, v, {args}):
    <x_{i}>, = map(float, x)
    @phase p t
    @stage a p x v
    return [<a_{i}>]
"""

# A factored potential's pieces at a float array x from its pieces_source,
# whose entries are named {q}j (value), {q}j_i (gradient), {q}j_i_m (Hessian).
PIECES = """\
def pieces(x):
    <x_{i}>, = x.tolist()
    @pieces q x
    return q_
"""
_ENTRY = re.compile(r"\{q\}(\d+(?:_\d+)*)")


def _own(part, base, name):
    """True unless part is a base that takes base's own method `name`: not
    overridden on its class, not set on it."""
    return (not isinstance(part, base) or getattr(type(part), name) is not getattr(base, name)
            or name in getattr(part, "__dict__", {}))


def source_of(part):
    """A FactoredPotential's pieces_source unless it has its own _pieces: the one place that chooses."""
    return None if _own(part, FactoredPotential, "_pieces") else part.pieces_source


def piece_entries(lines, n_pieces, dim, prefix):
    """The names of n_pieces pieces' entries in _pieces' order after prefix,
    "0.0" for one that lines (a pieces_source's, or None for all) never name."""
    named = None if lines is None else set(_ENTRY.findall(" ".join(lines)))
    keys = ["", *(f"_{i}" for i in range(dim)), *(f"_{i}_{m}" for i in range(dim) for m in range(dim))]
    return [prefix + key if named is None or key in named else "0.0"
            for key in (f"{j}{k}" for j in range(n_pieces) for k in keys)]


def _sum_lines(part):
    """(phase lines, stage lines) setting {a}_i to sum_j (-f_j) dP_j/dx_i: the
    phase lines negate the factors, the gradient lines name their entries
    {a}q..., zero entries are left out, and a lone term has no start value,
    so it is -(f_j g_j) exactly."""
    factors, lines = part.factor_source, part.pieces_source[0]
    named = set(_ENTRY.findall(" ".join(lines)))
    terms = [[j for j in range(len(factors)) if f"{j}_{i}" in named] for i in range(part.dim)]
    return (tuple(f"{{p}}f{j} = -({factors[j]})" for j in sorted(set(chain(*terms)))),
            (*(line.replace("{q}", "{a}q") for line in lines),
             *(f"{{a}}_{i} = " + (" + ".join(f"{{p}}f{j} * {{a}}q{j}_{i}" for j in js) or "-0.0")
               for i, js in enumerate(terms))))


def stage_lines(part, name, out="{a}"):
    """(phase lines, stage lines) of a potential part read as `name`: the
    stage lines set out_i to minus a TimePeriodicPotential's gradient at {x}
    and phase {p}, or to a StaticPotential's gradient at {x}.  The one place
    that chooses how: its float source (_sum_lines of source_of's lines, or
    float_grad_source); else a call of its own grad (_own) on a float array;
    else its central difference, in fd_gradient's float operations and
    central_stencil's order (_fd_step's step, value on a fresh float array,
    checked_value): the default grad bit for bit.  No line reads {v}, so
    these stages step by the Nystrom template (dynamics._interval)."""
    timed = isinstance(part, TimePeriodicPotential)
    base, at_phase, sign = ((TimePeriodicPotential, ", {p}", "-") if timed
                            else (StaticPotential, "", ""))
    source = source_of(part) if timed else getattr(part, "float_grad_source", None)
    if source is not None:
        phase, lines = _sum_lines(part) if timed else ((), source)
    elif _own(part, base, "grad"):
        phase, lines = (), (f"<{{a}}_{{i}}>, = ({sign}array({name}.grad(array([<{{x}}_{{i}}>]){at_phase}), "
                            "dtype=float)).tolist()",)
    else:
        xs = [f"{{x}}_{j}" for j in range(part.dim)]

        def at(j, op):
            point = ", ".join(f"{q} {op} {{a}}h" if k == j else q for k, q in enumerate(xs))
            return f"checked_value({name}.value(array([{point}]){at_phase}))"
        phase, lines = (), (
            f"{{a}}h = nan if {' or '.join(f'isnan({q})' for q in xs)} else "
            f"{GRAD_STEP!r} * (1.0 + max(0.0, {', '.join(f'abs({q})' for q in xs)}))",
            *(f"{{a}}_{j} = {sign}(({at(j, '+')} - {at(j, '-')}) / (2.0 * {{a}}h))" for j in range(len(xs))))
    return phase, tuple(line.replace("{a}", out) for line in lines)


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

    The full flow's Runge-Kutta-Nystrom loop (dynamics) takes minus the
    gradient at one float phase three times per substep, written into the
    loop as the lines of stage_lines; phase_force is those lines in STAGE.

    spectrum(points, n_tau) is all the field averages read: the normalized
    rfft coefficients of value, gradient and Hessian over the n_tau-point
    tau grid at P points, shape (P, 1 + dim + dim * dim, n_tau // 2 + 1),
    channels laid out as in _checked_samples, one call per averaged force,
    at its point (a FactoredPotential's force reads its bins and pieces
    instead).  The default calls value, grad and hess once per point on the
    shared, read-only grid, checks the samples and takes one rfft.
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
        float array), and one float phase tau, as a list of floats: the
        full flow's stage_lines in STAGE."""
        phase, stage = stage_lines(self, "self")
        return generated(STAGE, self.dim, ("self", ("{p} = {t}", *phase), stage))(tau, x, None, self)

    def hess(self, x, tau):
        return fd_hessian(lambda y: self.value(y, tau), x)

    def in_region(self, x):
        """True while x stays inside the region where the model is trusted."""
        return True


class FactoredPotential(TimePeriodicPotential):
    """U(x, tau) = sum_j f_j(tau) P_j(x) in any dim, holding data only.  A
    subclass gives _factors(tau), the J factors at each phase (shape
    shape(tau) + (J,)), and its pieces either as _pieces(x), flat: J rows of
    the value, the gradient and the Hessian (row major); or once, as float
    lines, pieces_source = (gradient lines, Hessian lines, value lines)
    setting piece j's entries {q}j_i, {q}j_i_m and {q}j from the floats
    {x}_i (other names are local, a group may read the groups before it, an
    entry no line sets is zero), with factor_source, the factors at {p}.
    Those lines serve _pieces, the full-flow stage (stage_lines) and the
    force kernel (averaging.ladder_kernel); a subclass's own _pieces wins
    (source_of).  The spectrum is the factors' bins (_bins: by default their
    rfft, kept per grid size) times the pieces of every point; factors or
    pieces that are not that many floats take the per-point path, and so do
    non-finite pieces of a user's callables (_checked_per_point; their _block
    keeps their shapes), others being refused by naming the point."""

    _checked_per_point = False
    pieces_source = factor_source = None

    def _pieces(self, x):
        return self._compiled_pieces()(np.asarray(x, dtype=float))

    def _compiled_pieces(self):  # _pieces without its lookups, once per spectrum
        return generated(PIECES, self.dim, _pieces_form(self.pieces_source, len(self.factor_source), self.dim))

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
        at = self._pieces if source_of(self) is None else self._compiled_pieces()  # looked up once
        flat = chain.from_iterable(at(np.asarray(x, dtype=float)) for x in points)
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


@lru_cache(maxsize=64)
def _pieces_form(source, n_pieces, dim):
    """PIECES' form for a pieces_source: its lines, then the list of every entry."""
    lines = sum(source, ())
    return "", (), (), (*lines, f"{{q}} = [{', '.join(piece_entries(lines, n_pieces, dim, '{q}'))}]")


class StaticPotential:
    """Potential of position only.  Used as the slow part of split potentials."""

    dim: int = 0
    float_grad_source = None

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        return fd_gradient(self.value, np.asarray(x, dtype=float))

    def float_grad(self, x):
        """grad at x, a sequence of floats, as a list of floats: the stage
        lines of stage_lines in STAGE, as a split potential's full-flow stage
        takes them."""
        return generated(STAGE, self.dim, ("self", (), stage_lines(self, "self")[1]))(None, x, None, self)

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
