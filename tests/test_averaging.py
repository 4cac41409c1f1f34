"""Unit tests for the oscillation averages and the assembled force law.

Expected values are hand-derived closed forms, written out as literals so the
averaging pipeline is checked against something it does not compute itself.
"""
import math

import numpy as np
import pytest

from oscavg import (CallablePotential, CallableStatic, FieldSpectra, FourierSeries,
                    Order1Potential, assemble, fd_gradient, guiding_center,
                    transform_trajectory)
from oscavg.averaging import AveragedSystem, ladder_force
from oscavg.dynamics import Trajectory, integrate_averaged, integrate_averaged_ladder
from oscavg.fields import (TimePeriodicPotential, _checked_samples, central_stencil,
                           stencil_jacobian)
from oscavg.scenarios import get_scenario

TWO_PI = 2.0 * math.pi
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _saddle_stack(x, n_tau=16):
    sc = get_scenario("rotating_saddle")
    return FieldSpectra(sc.potential, [np.asarray(x, dtype=float)], n_tau)


# ---- stack construction and validation ----

def test_stack_rejects_wrong_point_shape():
    sc = get_scenario("rotating_saddle")
    with pytest.raises(ValueError, match="does not match potential dim"):
        FieldSpectra(sc.potential, [np.zeros(3)], 16)


def test_stack_rejects_coarse_tau_grid():
    sc = get_scenario("rotating_saddle")
    with pytest.raises(ValueError, match="too coarse"):
        FieldSpectra(sc.potential, [np.array([1.0, 0.0])], 2)


def test_stack_rejects_bad_grad_shape():
    pot = CallablePotential(
        value=lambda x, tau: np.cos(TWO_PI * np.asarray(tau)) * x[0],
        dim=1,
        grad=lambda x, tau: np.cos(TWO_PI * np.asarray(tau)),  # missing dim axis
        hess=lambda x, tau: np.zeros(np.shape(tau) + (1, 1)))
    with pytest.raises(ValueError, match="potential.grad returned shape"):
        FieldSpectra(pot, [np.array([0.5])], 16)


def test_stack_rejects_non_finite_samples():
    def bad_value(x, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.cos(TWO_PI * tau)
        return np.where(tau > 0.5, np.nan, out)

    pot = CallablePotential(
        value=bad_value, dim=1,
        grad=lambda x, tau: np.ones(np.shape(tau) + (1,)),
        hess=lambda x, tau: np.zeros(np.shape(tau) + (1, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        FieldSpectra(pot, [np.array([0.5])], 16)


# ---- the spectrum hook ----

@pytest.mark.parametrize("n_tau", [15, 16, 48])
def test_satellite_sample_matches_per_point_calls(n_tau):
    """The satellite's closed-form spectrum is the rfft of value/grad/hess
    point by point, and back on the grid it equals those calls, grad at each
    scalar tau and minus phase_force, to rounding of the largest sample.
    (tests/test_scenarios.py holds its pieces' lines to differences of their
    value lines.)"""
    _check_spectrum_matches_per_point_calls(
        get_scenario("spinning_satellite").potential.oscillating, n_tau)


def _old_wave_forms(pot, x, taus):
    """value, grad and hess of cos(phi - 2 pi tau) + offset by the array
    formulas the wave had before its pieces gave them."""
    ang = TWO_PI * np.asarray(taus, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    r2 = x[0] ** 2 + x[1] ** 2
    r = math.sqrt(r2)
    r3 = r2 * r
    r5 = r2 * r3
    dot = x[0] * c + x[1] * s
    grad = np.stack([c / r - dot / r3 * x[0], s / r - dot / r3 * x[1]], axis=-1)
    e = [c, s]
    hess = np.empty(np.shape(c) + (2, 2))
    for i in range(2):
        for j in range(2):
            term = -(e[i] * x[j] + e[j] * x[i]) / r3 + 3.0 * dot * x[i] * x[j] / r5
            if i == j:
                term = term - dot / r3
            hess[..., i, j] = term
    return dot / math.hypot(x[0], x[1]) + pot.offset, grad, hess


def _old_saddle_forms(pot, x, taus):
    """value, grad and hess of x . Q(-2 pi tau) x / 2, with
    Q(t) = [[cos t, sin t], [sin t, -cos t]], by the saddle's old array
    formulas."""
    ang = -TWO_PI * np.asarray(taus, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    value = 0.5 * c * (x[0] ** 2 - x[1] ** 2) + s * x[0] * x[1]
    grad = np.stack([c * x[0] + s * x[1], s * x[0] - c * x[1]], axis=-1)
    hess = np.stack([np.stack([c, s], axis=-1), np.stack([s, -c], axis=-1)], axis=-2)
    return value, grad, hess


@pytest.mark.parametrize("n_tau", [15, 16, 48])
def test_wave_sample_matches_per_point_calls(n_tau):
    """The wave's closed-form spectrum (pieces offset, x / r, y / r) is the
    rfft of the array formulas it had before, and back on the grid it
    equals them, grad at each scalar tau and minus phase_force."""
    _check_spectrum_matches_per_point_calls(get_scenario("rotating_wave").potential, n_tau,
                                            _old_wave_forms)


@pytest.mark.parametrize("n_tau", [15, 16, 48])
def test_saddle_sample_matches_per_point_calls(n_tau):
    """The saddle's closed-form spectrum (pieces 0, (x^2 - y^2) / 2, -x y) is
    the rfft of its old Q(-2 pi tau) array formulas, and back on the grid it
    equals them, grad at each scalar tau and minus phase_force."""
    _check_spectrum_matches_per_point_calls(get_scenario("rotating_saddle").potential, n_tau,
                                            _old_saddle_forms)


def _own_forms(pot, x, taus):
    return pot.value(x, taus), pot.grad(x, taus), pot.hess(x, taus)


def _check_spectrum_matches_per_point_calls(pot, n_tau, forms=_own_forms):
    """pot.spectrum at 50 random points against the rfft of value, grad and
    hess from forms(pot, x, taus), to 1e-14 of the largest coefficient."""
    rng = np.random.default_rng(n_tau)
    r = rng.uniform(getattr(pot, "r_min", 0.1), 3.0, 50)
    phi = rng.uniform(0.0, TWO_PI, 50)
    points = list(np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1))
    taus = np.arange(n_tau) / n_tau
    coeffs = pot.spectrum(points, n_tau)
    assert coeffs.shape == (50, 7, n_tau // 2 + 1)
    grid = np.fft.irfft(coeffs, n=n_tau, axis=-1, norm="forward")
    vals, grads, hesss = grid[:, 0], grid[:, 1:3], grid[:, 3:].reshape(50, 2, 2, n_tau)
    for p, x in enumerate(points):
        value, grad, hess = forms(pot, x, taus)
        per_point = np.concatenate([value[None], grad.T, hess.reshape(n_tau, 4).T])
        want = np.fft.rfft(per_point, axis=-1, norm="forward")
        _assert_close(f"coefficients at r={r[p]:.3f}", coeffs[p], want,
                      np.max(np.abs(want)), rtol=1e-14)
        for name, got, want in (("value", vals[p], value),
                                ("grad", grads[p].T, grad),
                                ("hess", np.moveaxis(hesss[p], -1, 0), hess),
                                ("scalar grad", grads[p].T,
                                 np.array([pot.grad(x, float(t)) for t in taus])),
                                ("phase force", -grads[p].T,
                                 np.array([pot.phase_force(x, float(t)) for t in taus]))):
            _assert_close(f"{name} at r={r[p]:.3f}", got, want, np.max(np.abs(got)), rtol=1e-14)


def test_drive_spectra_are_cached_per_grid():
    """A cosine drive's factor bins are exact (a_mean, alpha / 2 and zeros,
    alpha in a Nyquist bin 1), kept per grid size, within rounding of a
    fresh rfft of the drive on that grid, and cannot be written through;
    the satellite, whose exact bins hold nothing of its
    points, gives the rfft of its samples on each grid, also when a grid
    comes back after others."""
    sat = get_scenario("spinning_satellite").potential.oscillating
    quartic = get_scenario("quartic_drive").potential
    rng = np.random.default_rng(7)
    points = [np.array([1.2, -0.4]), np.array([-0.3, 0.9])]
    for n_tau in [16] + list(rng.integers(5, 49, 10)) + [16]:
        n_tau = int(n_tau)
        taus = np.arange(n_tau) / n_tau
        drive = quartic._bins(taus)
        assert drive is quartic._bins(taus)
        assert not drive.flags.writeable
        exact = np.zeros(n_tau // 2 + 1, dtype=complex)
        exact[1] = 0.5
        assert np.array_equal(drive, [exact])
        assert np.allclose(drive, [np.fft.rfft(np.cos(TWO_PI * taus), norm="forward")], rtol=0, atol=1e-15)
        got = sat.spectrum(points, n_tau)
        want = TimePeriodicPotential.spectrum(sat, points, n_tau)
        _assert_close(f"satellite spectrum at n_tau={n_tau}", got, want,
                      np.max(np.abs(want)), rtol=1e-14)
    assert np.array_equal(quartic._bins(np.arange(2) / 2), [[0.0, 1.0]])  # Nyquist bin 1


def test_a_zero_mean_drive_writes_no_mean_force_into_the_kernel():
    """The quartic's drive has mean 0, so its kernel's mean-gradient sum is
    the literal 0.0; with rfft bins it carried bin 0 = -5.6e-17 times the
    profile's gradient.  Kapitza's mean 1.0 is written as it is."""
    from oscavg.averaging import _kernel_source
    quartic = _kernel_source(get_scenario("quartic_drive").potential, 16, False, 1)
    kapitza = _kernel_source(get_scenario("kapitza_pendulum").potential, 16, False, 1)
    assert "mw0 * (0.0)" in quartic and "e-17" not in quartic
    assert "mw0 * (1.0 * p0_0_0)" in kapitza


@pytest.mark.parametrize("n_tau", [4, 5])
def test_satellite_refuses_a_grid_that_aliases_its_harmonic(n_tau):
    """On 4 phases sin(4 pi tau) is the Nyquist wave, which the samples hold
    as zeros: the satellite's spectrum refuses that grid by name and points
    to 5, the least that works, where it is the rfft of the samples."""
    pot = get_scenario("spinning_satellite").potential.oscillating
    x = np.array([1.1, 0.7])
    if n_tau == 4:
        with pytest.raises(ValueError) as info:
            FieldSpectra(pot, [x], n_tau)
        assert str(info.value) == ("n_tau=4 aliases harmonic 2 of SatelliteOscillating: "
                                   "sin(2 theta) needs more than 4 phases; use n_tau >= 5")
        return
    want = TimePeriodicPotential.spectrum(pot, [x], n_tau)
    _assert_close("spectrum", pot.spectrum([x], n_tau), want, np.max(np.abs(want)), rtol=1e-14)


def test_satellite_refuses_non_finite_pieces():
    """A point whose pieces are not finite is named, as non-finite samples are."""
    pot = get_scenario("spinning_satellite").potential.oscillating
    with pytest.raises(ValueError, match=r"non-finite pieces at x=\[nan 0.5\]"):
        pot.spectrum([np.array([1.0, 0.5]), np.array([np.nan, 0.5])], 16)


def _old_sample_loop(pot, points, n_tau):
    """samples[p, c, n] as the per-point loop assembled them, with no checks."""
    d = pot.dim
    taus = np.arange(n_tau) / n_tau
    samples = np.empty((len(points), 1 + d + d * d, n_tau))
    for x, out in zip(points, samples):
        out[0] = np.asarray(pot.value(x, taus), dtype=float)
        out[1:1 + d] = np.asarray(pot.grad(x, taus), dtype=float).T
        out[1 + d:] = np.asarray(pot.hess(x, taus), dtype=float).reshape(n_tau, d * d).T
    return samples


@pytest.mark.parametrize("analytic", [True, False])
def test_default_sample_is_the_per_point_loop(analytic):
    """The checked samples and the default spectrum are the unchecked
    per-point loop and its rfft, bit for bit."""
    rng = np.random.default_rng(5)
    pot = _random_trig_potential(rng, 2, kmax=4)
    if not analytic:  # value only: grad and hess by finite differences
        pot = CallablePotential(value=pot.value, dim=2)
    points = [rng.uniform(-1.0, 1.0, 2) for _ in range(5)]
    assert np.array_equal(_checked_samples(pot, points, 16), _old_sample_loop(pot, points, 16))
    assert np.array_equal(pot.spectrum(points, 16),
                          np.fft.rfft(_old_sample_loop(pot, points, 16), axis=-1, norm="forward"))


def test_ragged_samples_get_the_per_point_message():
    """A grad whose shape changes from one point to the next is reported as
    the wrong shape at that point, not by numpy's stacking of the points."""
    def grad(x, tau):
        g = np.cos(TWO_PI * np.asarray(tau))[:, None]
        return g[:, 0] if x[0] > 0.6 else g  # missing dim axis at one point only

    pot = CallablePotential(value=lambda x, tau: np.cos(TWO_PI * np.asarray(tau)) * x[0],
                            dim=1, grad=grad,
                            hess=lambda x, tau: np.zeros(np.shape(tau) + (1, 1)))
    points = [np.array([0.5]), np.array([0.7]), np.array([0.4])]
    with pytest.raises(ValueError) as info:
        _checked_samples(pot, points, 16)
    assert str(info.value) == "potential.grad returned shape (16,), expected (16, 1)"


# ---- spectral core against the grid-product averages ----
# Random trigonometric polynomials in tau up to the grid's highest bin; the
# reference forms the antiderivative series, restores them on the sample grid
# and averages their products there, the way the fields were first computed.

def _random_trig_potential(rng, dim, kmax):
    """U = sum_k cos(2 pi k tau) f_k(x) + sin(2 pi k tau) g_k(x), each f_k, g_k
    of the form c + a.x + x.Q x / 2 + s sin(w.x), with analytic derivatives."""
    n_terms = 2 * (kmax + 1)
    c = rng.standard_normal(n_terms)
    a = rng.standard_normal((n_terms, dim))
    Q = rng.standard_normal((n_terms, dim, dim))
    Q = Q + Q.transpose(0, 2, 1)
    s = rng.standard_normal(n_terms)
    w = rng.standard_normal((n_terms, dim))

    def basis(tau):
        tau = np.asarray(tau, dtype=float)
        phase = TWO_PI * np.multiply.outer(tau, np.arange(kmax + 1))
        return np.stack([np.cos(phase), np.sin(phase)], axis=-1).reshape(tau.shape + (n_terms,))

    def value(x, tau):
        f = c + a @ x + 0.5 * np.einsum("i,tij,j->t", x, Q, x) + s * np.sin(w @ x)
        return basis(tau) @ f

    def grad(x, tau):
        g = a + Q @ x + (s * np.cos(w @ x))[:, None] * w
        return basis(tau) @ g

    def hess(x, tau):
        h = Q - (s * np.sin(w @ x))[:, None, None] * np.einsum("ti,tj->tij", w, w)
        return np.tensordot(basis(tau), h, axes=1)

    return CallablePotential(value=value, dim=dim, grad=grad, hess=hess)


def _grid_b_matrix(hess_samples):
    """avg(V'' S'' - S'' V'') on the sample grid, from U'' samples (n, dim, dim)."""
    v_hess = FourierSeries.from_samples(hess_samples).without_mean().antiderivative()
    vh, sh = v_hess.grid(), v_hess.antiderivative().grid()
    return (vh @ sh - sh @ vh).mean(axis=0)


def _grid_product_fields(pot, x, n_tau):
    """g_mean, grad W, b and B from products averaged on the sample grid."""
    taus = np.arange(n_tau) / n_tau
    f_grad = FourierSeries.from_samples(pot.grad(x, taus))
    hess = pot.hess(x, taus)
    f_hess = FourierSeries.from_samples(hess)
    v_grad = f_grad.without_mean().antiderivative()
    v_hess = f_hess.without_mean().antiderivative()
    s_hess = v_hess.antiderivative()
    vg, vh, sh = v_grad.grid(), v_hess.grid(), s_hess.grid()
    return (f_grad.mean, np.einsum("nij,nj->i", vh, vg) / n_tau,
            np.einsum("nij,nj->i", sh, vg) / n_tau, _grid_b_matrix(hess))


def _assert_close(name, got, want, scale, rtol=1e-13):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert err <= rtol * scale, f"{name}: off by {err:.2e}, allowed {rtol * scale:.2e}"


@pytest.mark.parametrize("n_tau, dim, seed", [(16, 2, 11), (16, 3, 12), (15, 2, 13), (21, 1, 14)])
def test_spectral_core_matches_grid_product_averages(n_tau, dim, seed):
    rng = np.random.default_rng(seed)
    pot = _random_trig_potential(rng, dim, kmax=n_tau // 2)
    taus = np.arange(n_tau) / n_tau
    if n_tau % 2 == 0:
        nyquist = np.fft.rfft(pot.grad(rng.standard_normal(dim), taus), axis=0)[-1]
        assert np.max(np.abs(nyquist)) > 1e-3, "the test potential must fill the Nyquist bin"
    eps = 0.07
    system = assemble(pot, eps, n_tau=n_tau)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, dim)
        v = rng.uniform(-1.0, 1.0, dim)
        g_mean, w_grad, b, B = _grid_product_fields(pot, x, n_tau)
        st = FieldSpectra(pot, [x], n_tau)
        _assert_close("g_mean", st.g_mean[0], g_mean, np.max(np.abs(g_mean)))
        _assert_close("w_grad", st.w_grad()[0], w_grad, np.max(np.abs(w_grad)))
        _assert_close("b_vector", st.b_vector()[0], b, np.max(np.abs(b)))
        _assert_close("system b_vector", system.b_vector(x), b, np.max(np.abs(b)))
        _assert_close("b_matrix", system.b_matrix(x), B, np.max(np.abs(B)))

        want = -(g_mean + eps ** 2 * w_grad) + eps ** 3 * (B @ v)
        _assert_close("force", system.force(x, v), want, np.max(np.abs(want)))


class _ComplexNyquist(TimePeriodicPotential):
    """A potential whose spectrum adds an imaginary part to the Nyquist bin of
    every gradient and Hessian channel (symmetric in the Hessian's indices):
    no rfft of real samples has one, and the samples it stands for are those
    of the wrapped potential."""

    def __init__(self, inner, rng):
        self.inner, self.dim = inner, inner.dim
        extra = rng.standard_normal((self.dim, self.dim))
        self.extra = np.concatenate([rng.standard_normal(self.dim), (extra + extra.T).ravel()])

    def spectrum(self, points, n_tau):
        coeffs = self.inner.spectrum(points, n_tau)
        coeffs[:, 1:, -1] += 1j * self.extra
        return coeffs


@pytest.mark.parametrize("override", [False, True])
def test_b_matrix_drops_the_nyquist_bin(override):
    """On 8 phases a harmonic-4 potential fills the Nyquist bin, whose samples
    hold only Re(H_N).  B equals avg(V'' S'' - S'' V'') on the grid of the
    irfft'd U'' series to 1e-14, and a spectrum with a complex Nyquist bin
    gives the B of its samples."""
    n_tau, dim = 8, 3
    rng = np.random.default_rng(41)
    pot = _random_trig_potential(rng, dim, kmax=n_tau // 2)
    if override:
        pot = _ComplexNyquist(pot, rng)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, dim)
        coeffs = pot.spectrum([x], n_tau)[0]
        hess_bins = coeffs[1 + dim:]
        assert np.max(np.abs(hess_bins[:, -1].real)) > 1e-3, "the Nyquist bin must be filled"
        assert (np.max(np.abs(hess_bins[:, -1].imag)) > 1e-3) == override
        samples = np.fft.irfft(hess_bins, n=n_tau, axis=-1, norm="forward")
        want = _grid_b_matrix(np.moveaxis(samples, -1, 0).reshape(n_tau, dim, dim))
        _assert_close(f"B at x={x}", FieldSpectra(pot, [x], n_tau).b_matrix()[0], want,
                      np.max(np.abs(want)), rtol=1e-14)


_NYQUIST_READS = {
    **{name: lambda sp, tau, name=name: getattr(sp, name)()
       for name in ("vv_mean", "w_grad", "b_vector", "b_matrix")},
    **{f"antiderivative_at_{level}": lambda sp, tau, level=level: sp.antiderivative_at(level, [tau])
       for level in (1, 2, 3)},
}


@pytest.mark.parametrize("field", list(_NYQUIST_READS))
def test_product_averages_ignore_a_complex_nyquist_bin(field):
    """Each product average pairs an odd-level antiderivative, whose Nyquist
    coefficient is imaginary for real samples and so vanishes on the grid:
    one rule, leave the bin out, holds for all four, and a spectrum with
    complex Nyquist bins gives the fields of the wrapped potential.  So do
    the antiderivatives at a random phase, which read only Re(c_N)."""
    n_tau, dim = 8, 3
    rng = np.random.default_rng(41)
    pot = _random_trig_potential(rng, dim, kmax=n_tau // 2)
    wrapped = _ComplexNyquist(pot, rng)
    read = _NYQUIST_READS[field]
    for _ in range(3):
        x, tau = rng.uniform(-1.0, 1.0, dim), rng.uniform()
        want = read(FieldSpectra(pot, [x], n_tau), tau)[0]
        got = read(FieldSpectra(wrapped, [x], n_tau), tau)[0]
        _assert_close(f"{field} at x={x}, tau={tau:.3f}", got, want, np.max(np.abs(want)),
                      rtol=1e-14)


# ---- the batched guiding-center map against per-point series ----

def _series_guiding_center(system, osc, static, x, v, t):
    """The guiding-center map at one state, evaluated point by point with
    FourierSeries antiderivative chains (the reference for the batched map)."""
    eps, n_tau = system.epsilon, system.n_tau
    taus = np.arange(n_tau) / n_tau
    tau = (t / eps) % 1.0
    p = 2 if static is None else 3
    ep, ep1 = eps ** p, eps ** (p + 1)

    def chains(y):
        v_grad = FourierSeries.from_samples(osc.grad(y, taus)).without_mean().antiderivative()
        v_hess = FourierSeries.from_samples(osc.hess(y, taus)).without_mean().antiderivative()
        return v_grad, v_hess.antiderivative()

    v_grad, s_hess = chains(x)
    s_grad = v_grad.antiderivative()
    a_hess = s_hess.antiderivative().eval(tau)
    a_full = system.full_stage()(t, x.tolist(), v.tolist())
    X = x + ep * s_grad.eval(tau) - 2.0 * ep1 * (a_hess @ v)
    points, h = central_stencil(x)
    j_av = stencil_jacobian([chains(q)[1].antiderivative().eval(tau) @ v
                             for q in points[1:]], h)
    V = (v + eps ** (p - 1) * v_grad.eval(tau) - ep * (s_hess.eval(tau) @ v)
         - 2.0 * ep1 * (j_av @ v + a_hess @ a_full))
    if static is None:
        prod = np.einsum("nij,nj->ni", osc.hess(x, taus), s_grad.grid())
        drive = FourierSeries.from_samples(prod).without_mean().antiderivative().eval(tau)
        mean_acc = -FourierSeries.from_samples(osc.grad(x, taus)).mean
    else:
        drive = static.hess(x) @ s_grad.antiderivative().eval(tau)
        mean_acc = -static.grad(x)
    V = V - ep1 * (drive - 3.0 * (j_av @ v) - 3.0 * (a_hess @ mean_acc))
    return X, V


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n_tau, dim, seed", [(16, 2, 31), (16, 3, 32), (15, 2, 33), (21, 1, 34)])
def test_batched_guiding_center_map_matches_per_point_series(n_tau, dim, seed, split):
    rng = np.random.default_rng(seed)
    osc = _random_trig_potential(rng, dim, kmax=n_tau // 2)
    static = None
    potential = osc
    if split:
        K = rng.standard_normal((dim, dim))
        K = K @ K.T + np.eye(dim)
        c = rng.standard_normal(dim)
        static = CallableStatic(value=lambda x: 0.5 * x @ K @ x + c @ np.sin(x), dim=dim,
                                grad=lambda x: K @ x + c * np.cos(x),
                                hess=lambda x: K - np.diag(c * np.sin(x)))
        potential = Order1Potential(static, osc)
    system = assemble(potential, 0.07, n_tau=n_tau)
    n = 6
    traj = Trajectory(np.sort(rng.uniform(0.0, 1.0, n)), rng.uniform(-1.0, 1.0, (n, dim)),
                      rng.uniform(-1.0, 1.0, (n, dim)))
    guided = transform_trajectory(system, traj)
    for i in range(n):
        X, V = _series_guiding_center(system, osc, static, traj.positions[i],
                                      traj.velocities[i], traj.times[i])
        _assert_close(f"X[{i}]", guided.positions[i], X, np.max(np.abs(X)))
        _assert_close(f"V[{i}]", guided.velocities[i], V, np.max(np.abs(V)))
        Xg, Vg = guiding_center(system, traj.positions[i], traj.velocities[i], traj.times[i])
        assert np.array_equal(Xg, guided.positions[i]) and np.array_equal(Vg, guided.velocities[i]), \
            f"guiding_center differs from row {i} of transform_trajectory"


# ---- spinning saddle: every averaged field has a two-line closed form ----
# U = x . Q(-2 pi tau) x / 2 gives V' = [[sin, cos], [cos, -sin]] x / (2 pi),
# so avg V'.V' = |x|^2 / (4 pi^2) and b = avg(S'' V') = J x / (8 pi^3).

def test_saddle_fluctuation_energy():
    x = np.array([0.8, -0.5])
    st = _saddle_stack(x)
    want_vv = float(x @ x) / (4.0 * math.pi ** 2)
    vv = st.vv_mean()[0]
    assert abs(vv - want_vv) < 1e-13, f"vv_mean {vv:.15e} != {want_vv:.15e}"
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    # the saddle has no mean, so U_eff is eps^2 W with W = vv_mean / 2
    assert abs(system.effective_potential(x) - system.epsilon ** 2 * 0.5 * want_vv) < 1e-13
    want_grad = x / (4.0 * math.pi ** 2)
    err = np.max(np.abs(st.w_grad()[0] - want_grad))
    assert err < 1e-13, f"w_grad off by {err:.2e}"


def test_saddle_magnetic_vector_and_matrix():
    x = np.array([-0.3, 1.1])
    st = _saddle_stack(x)
    want_b = (J @ x) / (8.0 * math.pi ** 3)
    err = np.max(np.abs(st.b_vector()[0] - want_b))
    assert err < 1e-14, f"b vector off by {err:.2e}"

    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    B = system.b_matrix(x)
    want_B = -J / (4.0 * math.pi ** 3)
    err = np.max(np.abs(B - want_B))
    assert err < 1e-16, f"B matrix off by {err:.2e}"
    skew = np.max(np.abs(B + B.T))
    assert skew < 1e-18, f"B not antisymmetric, |B + B^T| = {skew:.2e}"


def test_saddle_user_unit_force():
    """Assembled force in user units: -eps^2 x - 2 eps^3 J v."""
    sc = get_scenario("rotating_saddle")
    eps_u = 1.0 / 64
    system = sc.build_system(eps_u)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.uniform(-1.5, 1.5, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        want = -eps_u ** 2 * x - 2.0 * eps_u ** 3 * (J @ v)
        got = system.force(x, v)
        err = np.max(np.abs(got - want))
        assert err < 1e-10, f"saddle force off by {err:.2e} at x={x}, v={v}"


# ---- separable drive a(tau) u(x): b vanishes, W = avg(a-anti^2) |u'|^2 / 2 ----

def test_quartic_fluctuation_and_null_magnetic_vector():
    sc = get_scenario("quartic_drive")
    x = np.array([0.9, -0.4])
    st = FieldSpectra(sc.potential, [x], 16)
    u_grad = np.array([x[0] ** 3 + x[1], x[0]])
    avg_v2 = 1.0 / (8.0 * math.pi ** 2)  # cosine drive, antiderivative sin/(2 pi)
    want_vv = avg_v2 * float(u_grad @ u_grad)
    vv = st.vv_mean()[0]
    assert abs(vv - want_vv) < 1e-14, f"quartic vv_mean {vv:.15e} != {want_vv:.15e}"
    bnorm = float(np.linalg.norm(st.b_vector()[0]))
    assert bnorm < 1e-14, f"separable drive should have b = 0, got |b| = {bnorm:.2e}"

    u_hess = np.array([[3.0 * x[0] ** 2, 1.0], [1.0, 0.0]])
    want_w_grad = avg_v2 * (u_hess @ u_grad)
    err = np.max(np.abs(st.w_grad()[0] - want_w_grad))
    assert err < 1e-13, f"quartic w_grad off by {err:.2e}"


def test_w_grad_matches_gradient_of_w_value():
    """The product-average route and differentiating W must agree."""
    for name, x in (("rotating_saddle", np.array([0.7, 0.2])),
                    ("rotating_wave", np.array([1.3, -0.6]))):
        sc = get_scenario(name)

        def w_of(y, sc=sc):
            return 0.5 * FieldSpectra(sc.potential, [y], 32).vv_mean()[0]

        direct = FieldSpectra(sc.potential, [x], 32).w_grad()[0]
        fd = fd_gradient(w_of, x)
        err = np.max(np.abs(direct - fd))
        assert err < 1e-8, f"{name}: w_grad vs grad of w_value differ by {err:.2e}"


# ---- tau-resolved pieces used by the guiding-center velocity ----

def test_third_antiderivative_for_cosine_drive():
    """For a(tau) = cos(2 pi tau) the third antiderivative is -sin(2 pi tau)/(2 pi)^3."""
    sc = get_scenario("quartic_drive")
    x = np.array([0.6, 0.3])
    sp = FieldSpectra(sc.potential, [x], 16)
    u_grad = np.array([x[0] ** 3 + x[1], x[0]])
    for tau in (0.0, 0.15, 0.4, 0.85):
        want = -math.sin(TWO_PI * tau) / TWO_PI ** 3 * u_grad
        got = sp.antiderivative_at(3, [tau])[0, 1:3]
        err = np.max(np.abs(got - want))
        assert err < 1e-14, f"level-3 gradient antiderivative at {tau} off by {err:.2e}"


def test_phase_drive_antiderivative_for_cosine_drive():
    """avg-free antiderivative of U'' S' for a cosine drive.

    a * a_anti2 = -cos^2/(4 pi^2) has oscillating part -cos(4 pi tau)/(8 pi^2),
    whose antiderivative is -sin(4 pi tau)/(32 pi^3), times u'' u'.
    """
    sc = get_scenario("quartic_drive")
    x = np.array([0.5, -0.2])
    sp = FieldSpectra(sc.potential, [x], 16)
    u_grad = np.array([x[0] ** 3 + x[1], x[0]])
    u_hess = np.array([[3.0 * x[0] ** 2, 1.0], [1.0, 0.0]])
    vec = u_hess @ u_grad
    for tau in (0.1, 0.35, 0.7):
        want = -math.sin(2.0 * TWO_PI * tau) / (32.0 * math.pi ** 3) * vec
        got = sp.hess_s_grad_antiderivative_at([tau])[0]
        err = np.max(np.abs(got - want))
        assert err < 1e-14, f"phase drive at tau={tau} off by {err:.2e}"


def test_phase_drive_vanishes_for_saddle():
    """The saddle's U'' S' product is constant in tau, so its wiggle part is zero."""
    sc = get_scenario("rotating_saddle")
    sp = FieldSpectra(sc.potential, [np.array([0.9, 0.4])], 16)
    worst = max(np.max(np.abs(sp.hess_s_grad_antiderivative_at([tau])))
                for tau in (0.0, 0.2, 0.55, 0.8))
    assert worst < 1e-14, f"saddle phase drive should vanish, got {worst:.2e}"


def test_antiderivative_at_keeps_only_the_real_part_of_the_nyquist_bin():
    """cos(16 pi tau) + cos(2 pi tau) on 16 samples: the Nyquist wave's
    antiderivative vanishes on the grid, leaving sin(2 pi tau) / (2 pi)."""
    pot = CallablePotential(value=lambda x, tau: np.cos(8 * TWO_PI * tau) + np.cos(TWO_PI * tau),
                            dim=1, grad=lambda x, tau: np.zeros(np.shape(tau) + (1,)),
                            hess=lambda x, tau: np.zeros(np.shape(tau) + (1, 1)))
    got = FieldSpectra(pot, [np.zeros(1)], 16).antiderivative_at(1, [1.0 / 32])[0, 0]
    want = math.sin(TWO_PI / 32) / TWO_PI
    assert abs(got - want) < 1e-14, f"level 1 at tau=1/32: {got} vs {want} (0.0310)"


@pytest.mark.parametrize("n_tau", [15, 16])
def test_antiderivative_at_matches_fourier_series_chain(n_tau):
    """Levels 1-3 at 20 points, each at its own random phase, against
    FourierSeries.without_mean().antiderivative()...eval."""
    rng = np.random.default_rng(20 + n_tau)
    pot = _random_trig_potential(rng, 2, kmax=n_tau // 2)
    points = rng.uniform(-1.0, 1.0, (20, 2))
    taus = rng.uniform(0.0, 1.0, 20)
    sp = FieldSpectra(pot, points, n_tau)
    for level in (1, 2, 3):
        got = sp.antiderivative_at(level, taus)
        for p, tau in enumerate(taus):
            series = FourierSeries(sp.coeffs[p].T, n_tau).without_mean()
            for _ in range(level):
                series = series.antiderivative()
            want = series.eval(tau)
            _assert_close(f"level {level} at point {p}", got[p], want,
                          max(1.0, np.max(np.abs(want))), rtol=1e-14)


# ---- effective potential assembly ----

def test_effective_potential_standard_split():
    """U = g(x) + cos(2 pi tau) u(x) gives U_eff = g + eps^2 |grad u|^2 / (16 pi^2)."""

    def value(x, tau):
        g = 0.5 * (x[0] ** 2 + x[1] ** 2)
        return g + np.cos(TWO_PI * np.asarray(tau, dtype=float)) * x[0] * x[1]

    def grad(x, tau):
        c = np.cos(TWO_PI * np.asarray(tau, dtype=float))
        gg = np.stack([x[0] + c * x[1], x[1] + c * x[0]], axis=-1)
        return gg

    def hess(x, tau):
        c = np.cos(TWO_PI * np.asarray(tau, dtype=float))
        one = np.ones_like(c)
        return np.stack([np.stack([one, c], axis=-1),
                         np.stack([c, one], axis=-1)], axis=-2)

    pot = CallablePotential(value=value, dim=2, grad=grad, hess=hess)
    eps = 0.05
    system = assemble(pot, eps, n_tau=16)
    x = np.array([0.7, -1.1])
    grad_u = np.array([x[1], x[0]])
    want = 0.5 * float(x @ x) + eps ** 2 * float(grad_u @ grad_u) / (16.0 * math.pi ** 2)
    got = system.effective_potential(x)
    assert abs(got - want) < 1e-13, f"U_eff {got:.15e} != {want:.15e}"


def test_kapitza_inverted_point_stability_flip():
    """Curvature at the flipped equilibrium changes sign once the drive is strong enough.

    With mean gravity a0 and drive amplitude 1, the inverted point is stable
    iff eps^2 / (8 pi^2) > a0.
    """
    a0 = 0.001
    sc = get_scenario("kapitza_pendulum", a_mean=a0, alpha=1.0)
    x_top = np.array([math.pi])

    def curvature(eps):
        system = sc.build_system(eps)

        def u_eff(y):
            return system.effective_potential(y)

        h = 1e-4
        return (u_eff(x_top + h) - 2.0 * u_eff(x_top) + u_eff(x_top - h)) / h ** 2

    # threshold at eps = sqrt(8 pi^2 a0) ~ 0.281
    weak = curvature(0.05)
    strong = curvature(0.5)
    assert weak < 0.0, f"weak drive should leave the inverted point unstable, got {weak:.3e}"
    assert strong > 0.0, f"strong drive should stabilize the inverted point, got {strong:.3e}"


def test_satellite_internal_mean_matches_closed_form():
    """Mean of the oscillating part is sigma/(2 pi) * 1/(2 r^3) (checked at sigma = +1)."""
    sc = get_scenario("spinning_satellite", sigma=1.0)
    system = sc.build_system(1.0 / 128)
    for r in (0.7, 1.4, 2.6):
        x = np.array([r * math.cos(0.9), r * math.sin(0.9)])
        mean = system.stack(x).u_mean[0]
        want = 1.0 / (TWO_PI * 2.0 * r ** 3)
        assert abs(mean - want) < 1e-12 * abs(want), \
            f"satellite mean at r={r}: {mean:.15e} != {want:.15e}"


# ---- system-level wiring ----

def test_order_detection_and_correction_powers():
    standard = get_scenario("rotating_saddle").build_system(1.0 / 64)
    assert (standard.order, standard.shift) == ("standard", 0)
    assert (standard.w_power, standard.b_power) == (2, 3)

    split = get_scenario("spinning_satellite").build_system(1.0 / 64)
    assert (split.order, split.shift) == ("slow_plus_eps", 1)
    assert (split.w_power, split.b_power) == (4, 5)


# ---- one eps ordering: a split with a zero static part is the standard split of eps U1 ----

def _oracle_drive(scale):
    """scale * U1 with U1 = a(tau) f(x) + b(tau) g(x): a (with a mean) and b
    trig polynomials of degree 3, f = x0^2 x1 + x1^3 / 2, g = sin x0 + x0 x1^2,
    all derivatives analytic."""
    def ab(tau):
        tau = np.asarray(tau, dtype=float)
        a = 0.2 + 0.5 * np.cos(TWO_PI * tau) + 0.15 * np.sin(2.0 * TWO_PI * tau)
        return a, 0.4 * np.sin(TWO_PI * tau) - 0.1 * np.cos(3.0 * TWO_PI * tau)

    def value(x, tau):
        a, b = ab(tau)
        return scale * (a * (x[0] ** 2 * x[1] + 0.5 * x[1] ** 3) + b * (math.sin(x[0]) + x[0] * x[1] ** 2))

    def grad(x, tau):
        a, b = ab(tau)
        f = [2.0 * x[0] * x[1], x[0] ** 2 + 1.5 * x[1] ** 2]
        g = [math.cos(x[0]) + x[1] ** 2, 2.0 * x[0] * x[1]]
        return scale * (np.multiply.outer(a, f) + np.multiply.outer(b, g))

    def hess(x, tau):
        a, b = ab(tau)
        f = [[2.0 * x[1], 2.0 * x[0]], [2.0 * x[0], 3.0 * x[1]]]
        g = [[-math.sin(x[0]), 2.0 * x[1]], [2.0 * x[1], 2.0 * x[0]]]
        return scale * (np.multiply.outer(a, f) + np.multiply.outer(b, g))

    return CallablePotential(value, 2, grad=grad, hess=hess)


def _u1_shares(osc, x, tau, n_tau):
    """D + 3 A'' avg(U'): the antiderivative D of U'' S' and the level-3
    antiderivative A'' times the mean gradient at x and phase tau, from
    FourierSeries chains."""
    taus = np.arange(n_tau) / n_tau
    grads = FourierSeries.from_samples(osc.grad(x, taus))
    s_grad = grads.without_mean().antiderivative().antiderivative()
    prod = np.einsum("nij,nj->ni", osc.hess(x, taus), s_grad.grid())
    drive = FourierSeries.from_samples(prod).without_mean().antiderivative().eval(tau)
    v_hess = FourierSeries.from_samples(osc.hess(x, taus)).without_mean().antiderivative()
    return drive + 3.0 * (v_hess.antiderivative().antiderivative().eval(tau) @ grads.mean)


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005])
def test_zero_static_split_matches_the_standard_split_of_eps_u1(eps):
    """Order1Potential(0, U1) and the plain potential eps U1 are one system
    written with shift 1 and shift 0.  The force (the mean at eps^s, W at
    eps^(2+2s), B at eps^(3+2s)) and the mapped X (leading power 2 + s) agree
    to rounding.  The mapped V differs by the U1 shares of U'' S' and of the
    mean acceleration alone: they land at eps^(3+2s), past the map's
    eps^(3+s), so only the standard split keeps them, and the gap must be
    exactly -eps^5 (D + 3 A'' avg U') of U1."""
    zero = CallableStatic(lambda x: 0.0, 2, grad=lambda x: np.zeros(2), hess=lambda x: np.zeros((2, 2)))
    split = assemble(Order1Potential(zero, _oracle_drive(1.0)), eps, n_tau=16)
    standard = assemble(_oracle_drive(eps), eps, n_tau=16)
    assert (split.b_power, standard.b_power) == (5, 3)
    rng = np.random.default_rng(41)
    n = 6
    traj = Trajectory(np.sort(rng.uniform(0.0, 1.0, n)), rng.uniform(-1.0, 1.0, (n, 2)),
                      rng.uniform(-1.0, 1.0, (n, 2)))
    for x, v in zip(traj.positions, traj.velocities):
        want = standard.force(x, v)
        _assert_close(f"force at x={x}", split.force(x, v), want, np.max(np.abs(want)), rtol=1e-14)
    got, want = transform_trajectory(split, traj), transform_trajectory(standard, traj)
    _assert_close("X", got.positions, want.positions, np.max(np.abs(want.positions)), rtol=1e-14)
    dropped = eps ** 5 * np.array([_u1_shares(_oracle_drive(1.0), x, (t / eps) % 1.0, 16)
                                   for x, t in zip(traj.positions, traj.times)])
    # both maps round V (of order 1) on their own, hence the few-ulp floor
    err = float(np.max(np.abs(want.velocities - got.velocities + dropped)))
    allowed = 1e-3 * float(np.max(np.abs(dropped))) + 8.0 * np.finfo(float).eps * np.max(np.abs(want.velocities))
    assert err <= allowed, f"V_std - V_split is off -eps^5 (D + 3 A'' avg U') by {err:.2e}, allowed {allowed:.2e}"


def test_energy_is_kinetic_plus_effective_potential():
    system = get_scenario("rotating_wave").build_system(1.0 / 64)
    x = np.array([1.2, -0.8])
    v = np.array([0.3, 0.4])
    want = 0.5 * float(v @ v) + system.effective_potential(x)
    assert abs(system.energy(x, v) - want) < 1e-15


def test_b_matrix_antisymmetric_on_generic_scenarios():
    rng = np.random.default_rng(5)
    for name in ("rotating_wave", "spinning_satellite"):
        system = get_scenario(name).build_system(1.0 / 64)
        for _ in range(5):
            r = rng.uniform(0.8, 2.0)
            ang = rng.uniform(0.0, TWO_PI)
            x = r * np.array([math.cos(ang), math.sin(ang)])
            B = system.b_matrix(x)
            scale = max(float(np.max(np.abs(B))), 1e-14)
            skew = float(np.max(np.abs(B + B.T))) / scale
            assert skew < 1e-9, f"{name}: relative skew {skew:.2e} at {x}"


@pytest.mark.parametrize("name", ["rotating_saddle", "rotating_wave", "spinning_satellite"])
def test_b_matrix_matches_the_closed_forms(name):
    """B from the Hessian channel at x alone equals each scenario's closed
    form to 1e-13 relative (a central difference of b was off by up to 4e-9)."""
    sc = get_scenario(name)
    system = sc.build_system(sc.default_eps[0])
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = sc.x0 * rng.uniform(0.8, 1.5) + rng.uniform(-0.3, 0.3, sc.dim)
        want = sc.closed_forms["b_matrix"](x)
        _assert_close(f"{name} B at x={x}", system.b_matrix(x), want, np.max(np.abs(want)))


def test_b_matrix_on_value_only_potentials_beats_the_stencil_of_b():
    """With every derivative by finite differences, the one-point B agrees
    with the central difference of b, (Db)^T - Db, within that stencil's
    error, and lies closer than it to the B of the analytic potential."""
    rng = np.random.default_rng(12)
    analytic = _random_trig_potential(rng, 2, kmax=3)
    exact = assemble(analytic, 0.07, n_tau=16)
    system = assemble(CallablePotential(value=analytic.value, dim=2), 0.07, n_tau=16)
    for _ in range(4):
        x = rng.uniform(-1.0, 1.0, 2)
        want = exact.b_matrix(x)
        scale = float(np.max(np.abs(want)))
        Db = fd_gradient(system.b_vector, x)
        stencil_err = float(np.max(np.abs(Db.T - Db - want)))
        one_point_err = float(np.max(np.abs(system.b_matrix(x) - want)))
        _assert_close(f"B vs stencil at x={x}", system.b_matrix(x), Db.T - Db, scale, rtol=5e-3)
        assert one_point_err <= 1e-6 * scale, f"one-point B off by {one_point_err / scale:.1e}"
        assert one_point_err < stencil_err, f"stencil {stencil_err:.1e}, one point {one_point_err:.1e}"


class _SpectrumSpy(TimePeriodicPotential):
    """Records how many points each spectrum call asks for."""

    def __init__(self, inner):
        self.inner, self.dim, self.calls = inner, inner.dim, []

    def spectrum(self, points, n_tau):
        self.calls.append(len(points))
        return self.inner.spectrum(points, n_tau)


def test_force_builds_spectra_at_one_point_per_row():
    """force and ladder_force ask spectrum for each row's own point, once."""
    spy = _SpectrumSpy(get_scenario("rotating_wave").potential)
    systems = [assemble(spy, eps, n_tau=16) for eps in (0.1, 0.05, 0.025)]
    x, v = np.array([1.2, -0.4]), np.array([0.3, 0.5])
    systems[0].force(x, v)
    assert spy.calls == [1]
    spy.calls.clear()
    ladder_force(systems, np.tile(x, 3).tolist(), np.tile(v, 3).tolist())
    assert spy.calls == [3]
    spy.calls.clear()
    integrate_averaged_ladder(systems[:2], [x, x], [v, v], 0.05, h=0.01, out_dt=0.01)
    assert spy.calls == [2] * 4 * 5


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_assemble_rejects_bad_epsilon(eps):
    """A NaN or infinite eps would give NaN eps weights: refused by name."""
    sc = get_scenario("rotating_saddle")
    with pytest.raises(ValueError, match=f"epsilon must be positive and finite, got {eps}"):
        assemble(sc.potential, eps)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        AveragedSystem(sc.potential, np.float64(eps))


@pytest.mark.parametrize("name", ["rotating_saddle", "quartic_drive", "kapitza_pendulum",
                                  "rotating_wave", "spinning_satellite"])
def test_a_state_that_is_not_dim_floats_is_refused_by_name(name):
    """force, integrate_averaged and the lockstep ladder refuse an x or v one
    float longer or shorter than dim, with one message naming the argument
    and the dim (a longer v was cut to dim, a longer x reached the pieces)."""
    sc = get_scenario(name)
    system, d = sc.build_system(sc.default_eps[0]), sc.dim
    x, v = sc.x0, sc.v0
    for resized in (np.append(x, 0.5), x[:-1]):
        n = len(resized)
        for args, arg in (((resized, v), "x"), ((x, resized), "v")):
            message = rf"^{arg} must be {d} floats \(the potential's dim\), got shape \({n},\)$"
            with pytest.raises(ValueError, match=message):
                system.force(*args)
            with pytest.raises(ValueError, match=message.replace(arg, arg + "0", 1)):
                integrate_averaged(system, *args, 0.05)
            with pytest.raises(ValueError, match=message.replace(arg, arg + "0", 1)):
                integrate_averaged_ladder([system, system], *([q, w] for q, w in zip((x, v), args)), 0.05)


@pytest.mark.parametrize("name", ["rotating_saddle", "quartic_drive", "kapitza_pendulum",
                                  "rotating_wave", "spinning_satellite", "value_only"])
def test_force_is_the_sum_of_its_field_terms(name):
    """force(x, v) = -grad(Ubar) - eps^p grad W + eps^q B(x) v, with each term
    from the field definitions: the means and grad W of stack(x), B from
    b_matrix(x).  Agreement to 1e-15 of the largest term ties the force's
    one-build path to them."""
    if name == "value_only":
        rng = np.random.default_rng(8)
        analytic = _random_trig_potential(rng, 2, kmax=3)
        system = assemble(CallablePotential(value=analytic.value, dim=2), 0.07, n_tau=16)
        states = [(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)) for _ in range(3)]
    else:
        sc = get_scenario(name)
        system = sc.build_system(sc.default_eps[0])
        rng = np.random.default_rng(9)
        states = [(sc.x0, sc.v0)] + [(sc.x0 * rng.uniform(0.8, 1.2), rng.uniform(-1.0, 1.0, sc.dim))
                                     for _ in range(2)]
    eps = system.epsilon
    for x, v in states:
        st = system.stack(x)
        mean_grad = eps ** system.shift * st.g_mean[0]
        if system.potential.static is not None:
            mean_grad = system.potential.static.grad(x) + mean_grad
        terms = [-mean_grad, -eps ** system.w_power * st.w_grad()[0],
                 eps ** system.b_power * (system.b_matrix(x) @ v)]
        scale = max(float(np.max(np.abs(t))) for t in terms)
        _assert_close(f"{name} force at x={x}", system.force(x, v), sum(terms), scale,
                      rtol=1e-15)


def test_a_spectrum_of_the_wrong_shape_is_refused():
    """FieldSpectra names potential.spectrum and both shapes when the
    coefficients do not have one bin row per channel and point."""
    potential = CallablePotential(lambda x, tau: float(x @ x) * math.cos(2.0 * math.pi * tau), 2)
    potential.spectrum = lambda points, n_tau: np.zeros((len(points), 3, n_tau // 2 + 1), complex)
    with pytest.raises(ValueError, match=r"potential.spectrum returned shape \(1, 3, 9\), "
                                         r"expected \(1, 7, 9\)"):
        FieldSpectra(potential, [np.zeros(2)], 16)


def test_a_split_of_two_dimensions_is_refused():
    static = CallableStatic(lambda x: float(x @ x), 2)
    oscillating = CallablePotential(lambda x, tau: float(x @ x) * math.cos(2.0 * math.pi * tau), 3)
    with pytest.raises(ValueError, match="dimension mismatch: static 2 vs oscillating 3"):
        Order1Potential(static, oscillating)
