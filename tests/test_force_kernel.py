"""The force kernel of a factored potential against the FieldSpectra path.

A factored potential U1 = sum_j f_j(tau) P_j(x) takes its averaged force
from a kernel generated over its pieces (averaging.ladder_kernel, kept in
fields.generated's cache by its source text); every
other potential, and a call whose pieces are not finite floats, builds a
FieldSpectra.  The reference here is that path on the same spectrum: the
potential wrapped so that it no longer looks factored.
"""
import math
import pickle
import re

import numpy as np
import pytest

from oscavg import CallablePotential, CallableStatic, Order1Potential, assemble, closed_form_checks
from oscavg.averaging import AveragedSystem, _kernel_source, ladder_force, ladder_kernel
from oscavg.dynamics import integrate_averaged_ladder, integrate_full
from oscavg.fields import TimePeriodicPotential, source_of
from oscavg.scenarios import (CATALOG, FactoredPotential, HarmonicPotential, RotatingSaddlePotential,
                              SatelliteStatic, SeparableDrivePotential, get_scenario)

TWO_PI = 2.0 * math.pi
BUNDLED = [name for name in CATALOG if name != "custom"]


class _RandomFactored(FactoredPotential):
    """Seeded U1 = sum_j f_j(tau) P_j(x): factors drawn from 1, cos 2 pi k tau
    and sin 2 pi k tau for k <= 2, each times a quadratic piece
    c + a.x + x.Q x / 2, and with `cubic` one piece also carries
    sum T_ikl x_i x_k x_l / 6 (T symmetric)."""

    def __init__(self, rng, dim, cubic):
        self.dim = dim
        self.kinds = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
        n = len(self.kinds)
        self.c = rng.standard_normal(n)
        self.a = rng.standard_normal((n, dim))
        q = rng.standard_normal((n, dim, dim))
        self.q = q + q.transpose(0, 2, 1)
        t = rng.standard_normal((dim, dim, dim)) if cubic else np.zeros((dim, dim, dim))
        self.t = sum(t.transpose(p) for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                              (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
        self.cubic_piece = int(rng.integers(n))

    def _factors(self, tau):
        tau = np.asarray(tau, dtype=float)
        k = (self.kinds + 1) // 2  # kind 0 is the constant, 1-2 harmonic 1, 3-4 harmonic 2
        ang = TWO_PI * np.multiply.outer(tau, k)
        return np.where(self.kinds == 0, 1.0, np.where(self.kinds % 2 == 1, np.cos(ang), np.sin(ang)))

    def _pieces(self, x):
        assert type(x) is np.ndarray and x.dtype == float
        tx = self.t @ x
        out = []
        for j in range(len(self.kinds)):
            qx = self.q[j] @ x
            value = self.c[j] + self.a[j] @ x + 0.5 * x @ qx
            grad, hess = self.a[j] + qx, self.q[j]
            if j == self.cubic_piece:
                value, grad, hess = value + x @ tx @ x / 6.0, grad + 0.5 * tx @ x, hess + tx
            out += [float(value), *grad.tolist(), *hess.ravel().tolist()]
        return out


def _random_potential(seed, dim, cubic, static):
    rng = np.random.default_rng(seed)
    osc = _RandomFactored(rng, dim, cubic)
    if not static:
        return osc
    a, q = rng.standard_normal(dim), rng.standard_normal((dim, dim))
    q = q @ q.T
    return Order1Potential(CallableStatic(lambda x: a @ x + 0.5 * x @ q @ x, dim,
                                          grad=lambda x: a + q @ x, hess=lambda x: q), osc)


GENERATED = [(seed, dim, cubic, static) for seed, (dim, cubic, static) in enumerate(
    [(1, False, False), (1, True, True), (2, False, True), (2, True, False),
     (3, True, False), (3, False, True), (2, True, True), (3, True, True)])]


class _Unfactored(TimePeriodicPotential):
    """The same spectrum behind a plain TimePeriodicPotential, which takes
    the FieldSpectra path."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim

    def spectrum(self, points, n_tau):
        return self.inner.spectrum(points, n_tau)


def _unfactored(potential):
    if potential.static is None:
        return _Unfactored(potential)
    return Order1Potential(potential.static, _Unfactored(potential.oscillating))


def _assert_kernel_matches_spectra(potential, eps_values, n_tau, xs, vs):
    """ladder_force through the kernel against the FieldSpectra path, each
    row within 1e-14 of that row's largest force entry."""
    d = potential.dim
    systems = [assemble(potential, eps, n_tau) for eps in eps_values]
    reference = [assemble(_unfactored(potential), eps, n_tau) for eps in eps_values]
    x, v = np.ravel(xs).tolist(), np.ravel(vs).tolist()
    got = np.reshape(ladder_force(systems, x, v), (-1, d))
    want = np.reshape(ladder_force(reference, x, v), (-1, d))
    assert ladder_kernel(systems) is not None
    for row_got, row_want in zip(got, want):
        scale = float(np.max(np.abs(row_want)))
        err = float(np.max(np.abs(row_got - row_want)))
        assert err <= 1e-14 * scale, f"off by {err / scale:.1e} of the largest entry"


def _states(rng, x0, rows):
    d = len(x0)
    return (np.asarray(x0) * rng.uniform(0.8, 1.2, (rows, d)) + rng.uniform(-0.1, 0.1, (rows, d)),
            rng.uniform(-1.0, 1.0, (rows, d)))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("name", BUNDLED)
def test_kernel_matches_the_spectra_path_on_bundled_scenarios(name, rows):
    sc = get_scenario(name)
    rng = np.random.default_rng(5)
    for _ in range(5):
        xs, vs = _states(rng, sc.x0, rows)
        eps_values = [sc.internal_eps(e) for e in sc.default_eps[:rows]]
        _assert_kernel_matches_spectra(sc.potential, eps_values, sc.n_tau, xs, vs)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("n_tau", [15, 16])
@pytest.mark.parametrize("seed, dim, cubic, static", GENERATED)
def test_kernel_matches_the_spectra_path_on_random_factored_potentials(seed, dim, cubic,
                                                                       static, n_tau, rows):
    potential = _random_potential(seed, dim, cubic, static)
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        xs, vs = _states(rng, rng.uniform(-1.0, 1.0, dim), rows)
        _assert_kernel_matches_spectra(potential, [0.3, 0.1, 0.05, 0.02][:rows], n_tau, xs, vs)


@pytest.mark.parametrize("case", BUNDLED + [f"random{seed}" for seed, *_ in GENERATED])
def test_kernel_b_is_exactly_antisymmetric(case):
    """With weights (1, 0, 0) and v a unit vector the kernel returns a column
    of B as it multiplies v: B = -B^T bit for bit, with a zero diagonal, and
    it is FieldSpectra's b_matrix to 1e-14 of the larger of its entries and
    grad W's (the quartic's B is zero, and rounding noise on that path)."""
    if case in BUNDLED:
        sc = get_scenario(case)
        potential, n_tau, x = sc.potential, sc.n_tau, sc.x0 + 0.05
    else:
        seed, dim, cubic, static = GENERATED[int(case[len("random"):])]
        potential, n_tau = _random_potential(seed, dim, cubic, static), 16
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    osc, d = potential.oscillating, potential.dim
    kernel, _, *args = ladder_kernel([assemble(osc, 0.1, n_tau)])
    B = np.array([kernel(x.tolist(), np.eye(d)[n].tolist(), (1.0, 0.0, 0.0), *args)
                  for n in range(d)]).T
    assert np.array_equal(B, -B.T)
    assert not np.diagonal(B).any()
    stack = assemble(potential, 0.1, n_tau).stack(x)
    want = stack.b_matrix()[0]
    scale = max(np.max(np.abs(want)), np.max(np.abs(stack.w_grad())))
    assert np.max(np.abs(B - want)) <= 1e-14 * scale


def test_a_nan_point_is_named_through_force():
    """Non-finite pieces send the call down the FieldSpectra path, which names
    the point; a finite call afterwards takes the kernel again."""
    sc = get_scenario("spinning_satellite")
    system = sc.build_system(1 / 64)
    with pytest.raises(ValueError, match=r"non-finite pieces at x=\[nan 0.5\]"):
        system.force(np.array([np.nan, 0.5]), sc.v0)
    assert np.isfinite(system.force(sc.x0, sc.v0)).all()


def _array_drive(seen, nan_at=None):
    """A separable drive whose profile callables take and return arrays and
    record the type of x they get; a NaN gradient at x[0] == nan_at."""

    def u_value(x):
        seen.append(type(x))
        return 0.5 * x @ x + np.sin(x[0])

    def u_grad(x):
        seen.append(type(x))
        g = x + np.array([np.cos(x[0]), 0.0])
        return np.where(x[0] == nan_at, np.nan, g)

    def u_hess(x):
        seen.append(type(x))
        return np.eye(2) - np.diag([np.sin(x[0]), 0.0])

    return SeparableDrivePotential(lambda tau: 0.4 + np.cos(TWO_PI * tau) + 0.3 * np.sin(2 * TWO_PI * tau),
                                   u_value, u_grad, u_hess, dim=2)


def test_array_valued_profile_callables_take_the_kernel(monkeypatch):
    """Profile callables that return numpy arrays and scalars get float
    arrays and give the spectra path's force, with no spectrum call; a NaN
    from them gets the per-point message of the samples."""
    seen = []
    pot = _array_drive(seen, nan_at=0.25)
    rng = np.random.default_rng(3)
    xs, vs = _states(rng, [0.6, -0.4], 4)
    _assert_kernel_matches_spectra(pot, [0.2, 0.1, 0.05, 0.02], 16, xs, vs)
    assert set(seen) == {np.ndarray}
    monkeypatch.setattr(FactoredPotential, "spectrum", _refuse)
    system = assemble(pot, 0.1, 16)
    force = system.force(xs[0], vs[0])
    assert force.dtype == float and np.isfinite(force).all()
    monkeypatch.undo()
    with pytest.raises(ValueError, match="non-finite samples at tau"):
        system.force(np.array([0.25, 0.3]), vs[0])


def _refuse(self, points, n_tau):
    raise AssertionError("spectrum called on the kernel path")


def test_satellites_with_different_sigma_have_their_own_kernels_and_forces():
    """sigma enters the satellite's pieces as the constant k folded into its
    lines, which the kernel writes in, so the sigma = -1 and +1 satellites
    each get their own kernel; each matches the spectra path and their
    forces differ."""
    attractive, repulsive = (get_scenario("spinning_satellite", sigma=s) for s in (-1.0, 1.0))
    x, v = np.array([1.1, 0.3]), np.array([-0.2, 0.9])
    forces = []
    for sc in (attractive, repulsive):
        _assert_kernel_matches_spectra(sc.potential, [0.1], 16, [x], [v])
        forces.append(sc.build_system(1 / 64).force(x, v))
    kernels = [ladder_kernel([assemble(sc.potential.oscillating, 0.1, 16)])[0]
               for sc in (attractive, repulsive)]
    assert kernels[0] is not kernels[1]
    assert not np.allclose(forces[0], forces[1])


def test_a_potential_with_kernels_pickles():
    """Every bundled potential pickles after its force kernel and its
    full-flow stage (generated from its float source) have been built, and
    its clone gives the same averaged force and the same full run, bit for
    bit; so does a system that has taken a force."""
    for name in BUNDLED:
        sc = get_scenario(name)
        system = sc.build_system(sc.default_eps[0])
        force = system.force(sc.x0, sc.v0)

        def full_run(potential):
            return integrate_full(potential, system.epsilon, sc.x0, sc.v0, 0.05,
                                  steps_per_period=sc.steps_per_period, out_dt=sc.out_dt)

        run = full_run(sc.potential)
        clone = pickle.loads(pickle.dumps(sc.potential))
        assert np.array_equal(assemble(clone, system.epsilon, sc.n_tau).force(sc.x0, sc.v0), force), name
        assert np.array_equal(pickle.loads(pickle.dumps(system)).force(sc.x0, sc.v0), force), name
        again = full_run(clone)
        for field in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(again, field), getattr(run, field)), f"{name}: {field} differ"


# ---- symmetries of B and grad W ----

# generated potentials whose B is not zero: some of their factors share a harmonic
SYMMETRY_CASES = [*BUNDLED, *(f"random{seed}" for seed in (0, 4, 6, 9))]


def _at_phase(osc, phase):
    """osc at the phase phase(tau), behind CallablePotential: the sampled path."""
    return CallablePotential(lambda x, tau: osc.value(x, phase(tau)), osc.dim,
                             grad=lambda x, tau: osc.grad(x, phase(tau)),
                             hess=lambda x, tau: osc.hess(x, phase(tau)))


PHASES = (("U", lambda tau: tau), ("reversed", lambda tau: -tau), ("shifted", lambda tau: tau + 0.3))


def _symmetry_case(case):
    """The oscillating part of a case and a point off its start."""
    if case in BUNDLED:
        sc = get_scenario(case)
        return sc.potential.oscillating, sc.x0 * 1.1 + 0.05
    rng = np.random.default_rng(int(case[len("random"):]))
    osc = _RandomFactored(rng, int(rng.integers(2, 4)), True)
    return osc, rng.uniform(-1.0, 1.0, osc.dim)


@pytest.mark.parametrize("case", SYMMETRY_CASES)
def test_b_and_w_grad_under_time_reversal_and_phase_shift(case):
    """On the sampled path at n_tau 16, for the oscillating part of each
    bundled potential and of seeded generated ones: B is antisymmetric with
    a zero diagonal, bit for bit; the time reversal U(x, -tau) flips B and
    keeps grad W, and the phase shift U(x, tau + 0.3) keeps both, to 1e-13
    of their largest entry."""
    osc, x = _symmetry_case(case)
    fields = {}
    for name, phase in PHASES:
        spectra = assemble(_at_phase(osc, phase), 0.05, n_tau=16).stack(x)
        fields[name] = spectra.b_matrix()[0], spectra.w_grad()[0]
    b, w_grad = fields["U"]
    for name, (b_other, _) in fields.items():
        assert np.array_equal(b_other, -b_other.T) and not np.diag(b_other).any(), name
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(w_grad))))
    for name, sign in (("reversed", -1.0), ("shifted", 1.0)):
        b_other, w_other = fields[name]
        err = max(float(np.max(np.abs(b_other - sign * b))), float(np.max(np.abs(w_other - w_grad))))
        assert err <= 1e-13 * scale, f"{case} {name}: off by {err / scale:.1e} of the largest entry"


class _Rephased(FactoredPotential):
    """A factored potential's factors at the phase phase(tau), with its own
    pieces: factored again, so its force takes the generated kernel."""

    def __init__(self, inner, phase):
        self.inner, self.phase, self.dim = inner, phase, inner.dim

    def _factors(self, tau):
        return self.inner._factors(self.phase(np.asarray(tau, dtype=float)))

    def _pieces(self, x):
        return self.inner._pieces(x)


@pytest.mark.parametrize("case", ["rotating_wave", "rotating_saddle", "spinning_satellite",
                                  *(f"random{seed}" for seed in (0, 4, 6, 9))])
def test_ladder_kernel_and_spectra_under_time_reversal_and_phase_shift(case):
    """The same symmetries on the generated ladder force (B column by column
    at weights (1, 0, 0), -grad W at weights (0, 1, 0) and v = 0) and on the
    factored potential's spectra path, with the phase written into the
    factors: the time reversal flips B and keeps grad W, the phase shift
    keeps both, each to 1e-13 of its largest entry at the phase tau."""
    osc, x = _symmetry_case(case)
    d = osc.dim
    fields = {}
    for name, phase in PHASES:
        system = assemble(_Rephased(osc, phase), 0.05, n_tau=16)
        kernel, _, *args = ladder_kernel([system])
        b = np.array([kernel(x.tolist(), np.eye(d)[n].tolist(), (1.0, 0.0, 0.0), *args)
                      for n in range(d)]).T
        w_grad = -np.array(kernel(x.tolist(), [0.0] * d, (0.0, 1.0, 0.0), *args))
        stack = system.stack(x)
        fields[name] = {"ladder": (b, w_grad), "spectra": (stack.b_matrix()[0], stack.w_grad()[0])}
    for path in ("ladder", "spectra"):
        b, w_grad = fields["U"][path]
        assert np.max(np.abs(b)) > 0.0 and np.max(np.abs(w_grad)) > 0.0, (case, path)
        for name, sign in (("reversed", -1.0), ("shifted", 1.0)):
            for label, got, want in zip(("B", "grad W"), fields[name][path], (sign * b, w_grad)):
                scale = float(np.max(np.abs(want)))
                err = float(np.max(np.abs(got - want)))
                assert err <= 1e-13 * scale, (f"{case} {path} {name} {label}: off by "
                                              f"{err / scale:.1e} of the largest entry")


class _UserSourced(HarmonicPotential):
    """P1 = x^2 / 2 + y^3 / 3 and P2 = x y^2 times cos and sin, in two
    shapes a user's pieces_source may take: piece 2's gradient and Hessian
    lines read piece 1's and its own entries, and the local r3 (which the
    satellite's static lines also bind) is rebound between the two entries
    that read it."""

    pieces_source = (("r3 = {x}_0", "{q}1_0 = r3", "r3 = {x}_1 * {x}_1", "{q}1_1 = r3", "{q}2_0 = {q}1_1",
                      "{q}2_1 = 2.0 * {x}_0 * {x}_1"),
                     ("{q}1_0_0 = 1.0", "{q}1_1_1 = 2.0 * {x}_1", "{q}2_0_1 = {q}1_1_1", "{q}2_1_0 = {q}2_0_1",
                      "{q}2_1_1 = 2.0 * {x}_0"),
                     ("{q}1 = 0.5 * {x}_0 * {x}_0 + {x}_1 ** 3 / 3.0", "{q}2 = {x}_0 * {x}_1 * {x}_1"))


def test_a_user_pieces_source_serves_the_spectrum_the_kernel_and_the_full_flow():
    """The pieces (PIECES) are P1's and P2's, bit for bit; the full-flow
    stage is minus f_1 grad P1 + f_2 grad P2 to rounding; and the kernel,
    which writes the lines into each row, matches the spectra path over
    those pieces, alone and under the satellite's static part."""
    pot = _UserSourced()
    rng = np.random.default_rng(8)
    for _ in range(5):
        x, y = rng.uniform(0.5, 1.5, 2)
        assert pot._pieces(np.array([x, y])) == [
            0.0, *[0.0] * 6, 0.5 * x * x + y ** 3 / 3.0, x, y * y, 1.0, 0.0, 0.0, 2.0 * y,
            x * y * y, y * y, 2.0 * x * y, 0.0, 2.0 * y, 2.0 * y, 2.0 * x]
        tau = float(rng.uniform())
        c, s = math.cos(TWO_PI * tau), math.sin(TWO_PI * tau)
        want = [-(c * x + s * y * y), -(c * y * y + s * 2.0 * x * y)]
        assert np.allclose(pot.phase_force([x, y], tau), want, rtol=0.0, atol=1e-14)  # terms below 5
    for potential in (pot, Order1Potential(SatelliteStatic(), pot)):
        for rows in (1, 3):
            xs, vs = rng.uniform(0.5, 1.5, (rows, 2)), rng.uniform(-1.0, 1.0, (rows, 2))
            _assert_kernel_matches_spectra(potential, [0.1, 0.05, 0.02][:rows], 16, xs, vs)


class _Clobbering(RotatingSaddlePotential):
    """The saddle, whose gradient lines bind a local named as an argument of
    the kernel and of PIECES."""

    pieces_source = (("x = {x}_0", "{q}1_0 = x", *RotatingSaddlePotential.pieces_source[0][1:]),
                     *RotatingSaddlePotential.pieces_source[1:])


def test_a_pieces_source_that_rebinds_a_generated_name_is_refused():
    for build in (lambda: ladder_kernel([assemble(_Clobbering(), 0.1, 16)]),
                  lambda: _Clobbering()._pieces(np.array([1.0, 0.5]))):
        with pytest.raises(ValueError, match="rebinds 'x', a name of the generated function"):
            build()


NAN_MESSAGE = "potential returned non-finite pieces at x=[1.05249859 0.01049997]"


class _NanSourced(RotatingSaddlePotential):
    """The saddle, whose gradient source turns NaN right of x1 = 1.05: the
    kernel writes the line in."""

    pieces_source = (("{q}1_0 = nan if {x}_0 > 1.05 else {x}_0",
                      *RotatingSaddlePotential.pieces_source[0][1:]),
                     *RotatingSaddlePotential.pieces_source[1:])


class _NanCalled(RotatingSaddlePotential):
    """The saddle, with its own _pieces, NaN right of x1 = 1.05: the kernel
    calls it."""

    def _pieces(self, x):
        return [math.nan] * 21 if x[0] > 1.05 else super()._pieces(x)


@pytest.mark.parametrize("potential, path", [(_NanSourced(), "source"), (_NanCalled(), "call")],
                         ids=["source", "call"])
def test_a_ladder_row_whose_pieces_turn_non_finite_mid_run_is_named(potential, path):
    """The first rung drifts right and its pieces turn NaN during a stage of
    the lockstep run, through a line of its source written into the kernel
    or through its own _pieces that the kernel calls: that stage takes the
    spectra path for every row, which names the stage point where they
    turned, digit for digit."""
    assert (source_of(potential) is None) == (path == "call")
    assert ("pieces(array(" in _kernel_source(potential, 16, False, 1)) == (path == "call")
    systems = [assemble(potential, eps, 16) for eps in (0.1, 0.05)]
    with pytest.raises(ValueError, match=f"^{re.escape(NAN_MESSAGE)}$"):
        integrate_averaged_ladder(systems, [[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.1], [0.0, 0.2]],
                                  1.0, h=0.01, out_dt=0.01)


class _CountedPieces(RotatingSaddlePotential):
    """The saddle with its own _pieces, which counts its calls."""

    def __init__(self):
        self.calls = 0

    def _pieces(self, x):
        self.calls += 1
        return super()._pieces(x)


def test_a_spectrum_looks_the_compiled_pieces_up_once_and_calls_own_pieces_per_point(monkeypatch):
    """A sourced potential's spectrum resolves its compiled pieces once per
    call, not once per point, and gives the bins that a subclass calling
    _pieces at every point gives, bit for bit; that subclass's own _pieces
    is still called at every point."""
    points = [np.array([0.3 * i - 0.5, 0.7 - 0.2 * i]) for i in range(7)]
    saddle, counted = RotatingSaddlePotential(), _CountedPieces()
    lookups = []
    compiled = saddle._compiled_pieces
    monkeypatch.setattr(saddle, "_compiled_pieces", lambda: lookups.append(1) or compiled())
    got = saddle.spectrum(points, 16)
    assert lookups == [1]
    assert np.array_equal(got, counted.spectrum(points, 16))
    assert counted.calls == len(points)


# ---- the fast path stays taken ----

@pytest.fixture
def spectrum_calls(monkeypatch):
    """Count spectrum calls on every potential class."""
    calls = []
    for cls in (TimePeriodicPotential, FactoredPotential):
        original = cls.spectrum

        def counted(self, points, n_tau, original=original):
            calls.append(len(points))
            return original(self, points, n_tau)

        monkeypatch.setattr(cls, "spectrum", counted)
    return calls


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_ladders_build_no_spectra(name, spectrum_calls):
    sc = get_scenario(name)
    systems = [sc.build_system(e) for e in sc.default_eps]
    runs = integrate_averaged_ladder(systems, [sc.x0] * len(systems), [sc.v0] * len(systems),
                                     0.05, h=0.01, out_dt=0.01)
    assert len(runs[0]) == 6
    assert spectrum_calls == []


def test_a_callable_potential_ladder_builds_one_spectrum_per_stage(spectrum_calls):
    pot = CallablePotential(lambda x, tau: np.cos(TWO_PI * np.asarray(tau)) * (x[0] ** 2 + x[0] * x[1]), 2)
    systems = [assemble(pot, eps, 16) for eps in (0.1, 0.05)]
    x0, v0 = [0.5, 0.2], [0.1, -0.3]
    integrate_averaged_ladder(systems, [x0, x0], [v0, v0], 0.05, h=0.01, out_dt=0.01)
    assert spectrum_calls == [2] * (5 * 4)


def test_the_force_oracle_catches_a_force_without_its_b_term(monkeypatch):
    sc = get_scenario("rotating_saddle")
    points = [np.array([0.7, -0.2]), np.array([-0.4, 0.9])]
    checks = {name: passed for name, passed, _ in closed_form_checks(sc, 1 / 128, points)}
    assert checks["rotating_saddle:force"]
    force = AveragedSystem.force
    monkeypatch.setattr(AveragedSystem, "force", lambda self, x, v: force(self, x, 0.0 * v))
    checks = {name: passed for name, passed, _ in closed_form_checks(sc, 1 / 128, points)}
    assert not checks["rotating_saddle:force"]
    assert all(passed for name, passed in checks.items() if name != "rotating_saddle:force")
