"""Unit tests for the scenario catalog, its potentials and the command line's
config format."""
import math

import numpy as np
import pytest

from oscavg import (CallablePotential, CallableStatic, closed_form_checks,
                    fd_gradient, fd_hessian)
from oscavg.averaging import assemble
from oscavg.fields import Order1Potential, TimePeriodicPotential
from oscavg.cli import parse_config, parse_number
from oscavg.scenarios import (CATALOG, ScenarioUsageError, SeparableDrivePotential,
                              custom_scenario, get_scenario)

TWO_PI = 2.0 * math.pi

BUILTIN = ["rotating_saddle", "quartic_drive", "kapitza_pendulum",
           "rotating_wave", "spinning_satellite"]


def _probe_point(name, rng):
    """A random point safely inside the scenario's trusted region."""
    sc = get_scenario(name)
    if sc.dim == 1:
        return np.array([rng.uniform(-1.2, 1.2)])
    if name in ("rotating_wave", "spinning_satellite"):
        r = rng.uniform(0.8, 2.2)
        ang = rng.uniform(0.0, TWO_PI)
        return r * np.array([math.cos(ang), math.sin(ang)])
    return rng.uniform(-1.2, 1.2, 2)


# ---- catalog ----

def test_catalog_contains_the_builtin_scenarios():
    for name in BUILTIN:
        assert name in CATALOG, f"{name} missing from catalog"
    assert "custom" in CATALOG


def test_unknown_scenario_raises_key_error():
    with pytest.raises(KeyError):
        get_scenario("no_such_scenario")


def test_custom_scenario_requires_code():
    with pytest.raises(ScenarioUsageError, match="in code"):
        get_scenario("custom")


def test_bad_factory_kwargs_become_usage_errors():
    with pytest.raises(ScenarioUsageError, match="bogus"):
        get_scenario("rotating_saddle", bogus=1)


def test_custom_scenario_wraps_a_potential():
    sc = get_scenario("quartic_drive")
    wrapped = custom_scenario(sc.potential, name="mine", default_eps=[0.1])
    assert wrapped.name == "mine"
    assert wrapped.dim == 2
    system = wrapped.build_system(0.1)
    assert system.epsilon == 0.1  # eps_scale defaults to 1


# ---- potential derivatives against finite differences ----

def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    for name in BUILTIN:
        sc = get_scenario(name)
        pot = sc.potential.oscillating
        for _ in range(3):
            x = _probe_point(name, rng)
            tau = rng.uniform(0.0, 1.0)
            fd = fd_gradient(lambda y: float(pot.value(y, tau)), x)
            got = np.asarray(pot.grad(x, tau), dtype=float)
            err = np.max(np.abs(got - fd))
            assert err < 1e-7, f"{name}: grad vs fd differ by {err:.2e} at {x}, tau={tau:.3f}"


def test_analytic_hessians_match_finite_differences():
    rng = np.random.default_rng(22)
    for name in BUILTIN:
        sc = get_scenario(name)
        pot = sc.potential.oscillating
        for _ in range(2):
            x = _probe_point(name, rng)
            tau = rng.uniform(0.0, 1.0)
            fd = fd_hessian(lambda y: float(pot.value(y, tau)), x)
            got = np.asarray(pot.hess(x, tau), dtype=float)
            err = np.max(np.abs(got - fd))
            assert err < 1e-5, f"{name}: hess vs fd differ by {err:.2e} at {x}, tau={tau:.3f}"


def test_satellite_static_part_matches_finite_differences():
    rng = np.random.default_rng(23)
    static = get_scenario("spinning_satellite").potential.static
    for _ in range(3):
        x = _probe_point("spinning_satellite", rng)
        fd_g = fd_gradient(lambda y: float(static.value(y)), x)
        err_g = np.max(np.abs(np.asarray(static.grad(x)) - fd_g))
        assert err_g < 1e-7, f"static grad vs fd differ by {err_g:.2e}"
        fd_h = fd_hessian(lambda y: float(static.value(y)), x)
        err_h = np.max(np.abs(np.asarray(static.hess(x)) - fd_h))
        assert err_h < 1e-4, f"static hess vs fd differ by {err_h:.2e}"


def test_oscillating_potentials_broadcast_over_tau():
    taus = np.linspace(0.0, 1.0, 8, endpoint=False)
    for name in BUILTIN:
        sc = get_scenario(name)
        pot = sc.potential.oscillating
        d = pot.dim
        x = np.full(d, 0.9)
        vals = np.asarray(pot.value(x, taus))
        grads = np.asarray(pot.grad(x, taus))
        hesss = np.asarray(pot.hess(x, taus))
        assert vals.shape == (8,), f"{name}: value shape {vals.shape}"
        assert grads.shape == (8, d), f"{name}: grad shape {grads.shape}"
        assert hesss.shape == (8, d, d), f"{name}: hess shape {hesss.shape}"
        # array evaluation must agree with scalar evaluation
        err = max(np.max(np.abs(vals[3] - pot.value(x, taus[3]))),
                  np.max(np.abs(grads[3] - pot.grad(x, taus[3]))),
                  np.max(np.abs(hesss[3] - pot.hess(x, taus[3]))))
        assert err < 1e-14, f"{name}: array vs scalar tau mismatch {err:.2e}"


# ---- separable drives: scalar-phase branch and batched sampling ----

def _sincos_drive():
    """A drive that converts tau itself, as user drives may, on a 1-d profile."""
    def drive(tau):
        tau = np.asarray(tau, dtype=float)
        return 0.7 + np.cos(TWO_PI * tau) + 0.5 * np.sin(2.0 * TWO_PI * tau)

    return SeparableDrivePotential(drive, lambda x: math.cos(x[0]) + 0.5 * x[0] ** 2,
                                   lambda x: np.array([-math.sin(x[0]) + x[0]]),
                                   lambda x: np.array([[-math.cos(x[0]) + 1.0]]), 1)


SEPARABLE = {"quartic_drive": lambda: get_scenario("quartic_drive").potential,
             "kapitza_pendulum": lambda: get_scenario("kapitza_pendulum").potential,
             "sincos": _sincos_drive}


class _PerPointSeparable(SeparableDrivePotential):
    """The same potential behind the default spectrum: the base class's
    per-point samples and one rfft."""

    spectrum = TimePeriodicPotential.spectrum


@pytest.mark.parametrize("which", sorted(SEPARABLE))
def test_separable_scalar_phase_equals_array_path(which):
    """At a scalar phase, value/grad/hess equal the array path at [tau] and
    the 0-d array path, bit for bit."""
    pot = SEPARABLE[which]()
    rng = np.random.default_rng(31)
    for _ in range(1000):
        x = rng.uniform(-1.5, 1.5, pot.dim)
        tau = float(rng.uniform(0.0, 1.0))
        for other in (np.array([tau]), np.asarray(tau)):
            assert pot.value(x, tau) == np.asarray(pot.value(x, other)).reshape(())
            assert np.array_equal(pot.grad(x, tau), pot.grad(x, other).reshape(pot.dim))
            assert np.array_equal(pot.hess(x, tau),
                                  pot.hess(x, other).reshape(pot.dim, pot.dim))


@pytest.mark.parametrize("n_tau", [15, 16, 48])
@pytest.mark.parametrize("which", sorted(SEPARABLE))
def test_separable_sample_equals_the_per_point_loop(which, n_tau):
    """The drive's rfft times the profile equals the rfft of the per-point
    samples to 1e-14 of the largest coefficient.  The quartic's u_hess gives
    nested lists of floats; its spectrum equals, bit for bit, the one with
    the 2x2 array u_hess it replaced."""
    pot = SEPARABLE[which]()
    rng = np.random.default_rng(32)
    points = [rng.uniform(-1.5, 1.5, pot.dim) for _ in range(7)]
    got = pot.spectrum(points, n_tau)
    want = TimePeriodicPotential.spectrum(pot, points, n_tau)
    assert got.shape == want.shape
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-14 * float(np.max(np.abs(want))), f"off by {err:.2e}"
    if which == "quartic_drive":
        array_hess = SeparableDrivePotential(pot._a, pot._uv, pot._ug,
                                             _quartic_parts()["u_hess"], pot.dim)
        assert np.array_equal(got, array_hess.spectrum(points, n_tau))


def _quartic_parts():
    return dict(a=lambda tau: np.cos(TWO_PI * np.asarray(tau, dtype=float)),
                u_value=lambda x: x[0] ** 4 / 4.0 + x[0] * x[1],
                u_grad=lambda x: np.array([x[0] ** 3 + x[1], x[0]]),
                u_hess=lambda x: np.array([[3.0 * x[0] ** 2, 1.0], [1.0, 0.0]]), dim=2)


@pytest.mark.parametrize("broken, want", [
    (dict(u_grad=lambda x: np.array([x[0], x[1], 0.0])),
     "potential.grad returned shape (16, 3), expected (16, 2)"),
    (dict(u_hess=lambda x: np.array([3.0 * x[0] ** 2, 1.0])),
     "potential.hess returned shape (16, 1, 2), expected (16, 2, 2)"),
    (dict(a=lambda tau: 0.5),
     "potential.value returned shape (), expected (16,)"),
    (dict(a=lambda tau: np.where(np.asarray(tau) > 0.5, np.nan, 1.0)),
     "potential returned non-finite samples at tau=[0.5625 0.625  0.6875 0.75  ]"),
])
def test_separable_sample_rejects_like_the_per_point_loop(broken, want):
    """A profile or drive of the wrong shape, or a NaN drive, gets the
    per-point path's exact message."""
    parts = dict(_quartic_parts(), **broken)
    points = [np.array([0.8, 0.4]), np.array([-0.3, 1.1])]
    messages = []
    for cls in (SeparableDrivePotential, _PerPointSeparable):
        with pytest.raises(ValueError) as info:
            cls(**parts).spectrum(points, 16)
        messages.append(str(info.value))
    assert messages == [want, want]


# ---- split potentials: the full flow's one-phase gradient ----

def _full_flow_grad(potential, x, tau, eps):
    """The gradient the full flow integrates: minus full_acceleration."""
    return -np.array(assemble(potential, eps).full_acceleration(x, tau))


def test_split_grads_equal_the_array_formulas():
    """SatelliteStatic.grad and the split full-flow gradient in float math
    equal the array expressions they replace, bit for bit, with the
    oscillating gradient read as minus phase_force.  sigma = -0.7 as well as
    -1, since scaling by a power of two is exact in any order."""
    rng = np.random.default_rng(33)
    for _ in range(1000):
        pot = get_scenario("spinning_satellite", sigma=float(rng.choice([-1.0, -0.7]))).potential
        static = pot.static
        x = _probe_point("spinning_satellite", rng)
        tau = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(1e-4, 0.2))
        want_static = -2.0 * static.sigma * x / math.hypot(x[0], x[1]) ** 3
        assert np.array_equal(static.grad(x), want_static)
        g1 = -np.asarray(pot.oscillating.phase_force(x, tau), dtype=float)
        assert np.array_equal(_full_flow_grad(pot, x, tau, eps), want_static + eps * g1)


def test_split_grad_accepts_sequences_from_its_parts():
    static = CallableStatic(lambda x: x[0] ** 2, 2, grad=lambda x: [2.0 * x[0], 0.0])
    osc = CallablePotential(lambda x, tau: x[1] * math.cos(TWO_PI * tau), 2,
                            grad=lambda x, tau: [0.0, math.cos(TWO_PI * tau)])
    got = _full_flow_grad(Order1Potential(static, osc), np.array([0.5, 0.2]), 0.125, 0.1)
    assert np.array_equal(got, np.array([1.0, 0.1 * math.cos(TWO_PI * 0.125)]))


# ---- scenario parameters ----

def test_internal_eps_scaling():
    assert get_scenario("rotating_saddle").internal_eps(1.0 / 64) == pytest.approx(TWO_PI / 64)
    assert get_scenario("quartic_drive").internal_eps(1.0 / 64) == pytest.approx(1.0 / 64)


def test_initial_states_match_dimension():
    for name in BUILTIN:
        sc = get_scenario(name)
        assert sc.x0.shape == (sc.dim,), f"{name}: x0 shape {sc.x0.shape}"
        assert sc.v0.shape == (sc.dim,), f"{name}: v0 shape {sc.v0.shape}"
        assert all(e > 0 for e in sc.default_eps), f"{name}: nonpositive ladder eps"
        assert sc.potential.in_region(sc.x0), f"{name}: x0 outside trusted region"


def test_closed_forms_match_assembled_fields():
    rng = np.random.default_rng(24)
    for name in BUILTIN:
        sc = get_scenario(name)
        pts = np.stack([_probe_point(name, rng) for _ in range(4)])
        for check_name, passed, detail in closed_form_checks(sc, 1.0 / 128, pts):
            assert passed, f"{check_name}: {detail}"


def test_closed_form_checks_rejects_an_unknown_form():
    sc = get_scenario("rotating_saddle")
    sc.closed_forms["curl"] = lambda x: np.zeros(2)
    with pytest.raises(KeyError) as info:
        closed_form_checks(sc, 1.0 / 128, [np.array([0.5, 0.2])])
    assert info.value.args == ("unknown closed form 'curl' in scenario rotating_saddle",)


def test_satellite_sign_convention():
    """Flipping sigma flips the mean force but keeps the sigma^2 corrections."""
    plus = get_scenario("spinning_satellite", sigma=1.0)
    minus = get_scenario("spinning_satellite", sigma=-1.0)
    x = np.array([1.3, 0.4])
    gp = plus.closed_forms["mean_grad"](x)
    gm = minus.closed_forms["mean_grad"](x)
    assert np.max(np.abs(gp + gm)) < 1e-15, "mean gradient should be odd in sigma"
    bp = plus.closed_forms["b"](x)
    bm = minus.closed_forms["b"](x)
    assert np.max(np.abs(bp - bm)) < 1e-15, "b should be even in sigma"


# ---- config files ----

def test_parse_number_accepts_fractions():
    assert parse_number("1/64") == pytest.approx(1.0 / 64)
    assert parse_number(" 0.25 ") == 0.25


def test_parse_config_accepts_comments_and_fractions():
    cfg = parse_config("# header\nscenario = quartic_drive\neps = 1/128  # inline\n\n")
    assert cfg == {"scenario": "quartic_drive", "eps": [pytest.approx(1.0 / 128)]}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("scenario = quartic_drive\nnot a key value pair\n")
    with pytest.raises(ValueError, match="unknown config key 'walrus' on line 1"):
        parse_config("walrus = 3\n")

