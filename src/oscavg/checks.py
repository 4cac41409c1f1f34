"""The check suites behind `oscavg validate`.

SUITES maps a suite name to its (name, fn) checks in run order.
fn(rng, quick) returns (passed, detail); rng is a seeded numpy Generator, and
quick asks for fewer points and shorter ladders.  invariants hold for any
potential, oracles compare the assembled fields and the force with the
scenarios' closed forms, and convergence fits the order at which the
guiding-centre gap falls.
"""
from __future__ import annotations

import math

import numpy as np

from .analysis import closed_form_checks, energy_drift, guiding_convergence
from .averaging import assemble
from .dynamics import integrate_averaged, integrate_full
from .fields import CallablePotential, FourierSeries, fd_gradient, fd_hessian
from .scenarios import SeparableDrivePotential, _separable_closed, get_scenario

TWO_PI = 2.0 * math.pi


def _points_for(sc, rng, n):
    """Sample points inside a scenario's trusted region, away from its edge."""
    d = sc.dim
    if sc.name in ("rotating_wave", "spinning_satellite"):
        radii = rng.uniform(0.6, 2.5, n)
        angs = rng.uniform(0.0, TWO_PI, n)
        return np.column_stack([radii * np.cos(angs), radii * np.sin(angs)])
    return rng.uniform(-1.5, 1.5, (n, d))


def _check_fourier_roundtrip(rng, quick):
    n = 24
    samples = rng.standard_normal(n)
    series = FourierSeries.from_samples(samples).without_mean()
    back = series.antiderivative().derivative()
    scale = float(np.max(np.abs(series.grid()))) or 1.0
    err = float(np.max(np.abs(back.grid() - series.grid()))) / scale
    # second direction: differentiate, then integrate back
    back2 = series.derivative().antiderivative()
    err2 = float(np.max(np.abs(back2.grid() - series.grid()))) / scale
    worst = max(err, err2)
    return worst <= 1e-12, f"round-trip rel err {worst:.2e} (tol 1e-12)"


def _check_fd_order(rng, quick):
    x0 = np.array([0.4, -0.7])

    def f_scalar(x):
        return math.sin(x[0]) * math.cos(2.0 * x[1]) + x[0] ** 3 * x[1]

    def grad_true(x):
        return np.array([math.cos(x[0]) * math.cos(2.0 * x[1]) + 3.0 * x[0] ** 2 * x[1],
                         -2.0 * math.sin(x[0]) * math.sin(2.0 * x[1]) + x[0] ** 3])

    def hess_true(x):
        mixed = -2.0 * math.cos(x[0]) * math.sin(2.0 * x[1]) + 3.0 * x[0] ** 2
        return np.array([
            [-math.sin(x[0]) * math.cos(2.0 * x[1]) + 6.0 * x[0] * x[1], mixed],
            [mixed, -4.0 * math.sin(x[0]) * math.cos(2.0 * x[1])],
        ])

    h1, h2 = 1e-2, 5e-3
    eg = [float(np.max(np.abs(fd_gradient(f_scalar, x0, h=h) - grad_true(x0))))
          for h in (h1, h2)]
    eh = [float(np.max(np.abs(fd_hessian(f_scalar, x0, h=h) - hess_true(x0))))
          for h in (h1, h2)]
    order_g = math.log(eg[0] / eg[1]) / math.log(h1 / h2)
    order_h = math.log(eh[0] / eh[1]) / math.log(h1 / h2)
    ok = order_g >= 1.9 and order_h >= 1.9
    return ok, f"gradient order {order_g:.3f}, hessian order {order_h:.3f} (want >= 1.9)"


def _check_energy_drift(rng, quick):
    # autonomous full run in a static well: the integrator itself must hold energy
    well = CallablePotential(lambda x, tau: 0.5 * float(x @ x), 2, grad=lambda x, tau: x)
    t_end = 5.0 if quick else 20.0
    traj = integrate_full(well, 1.0, np.array([1.0, 0.0]), np.array([0.0, 0.7]),
                          t_end, steps_per_period=512, out_dt=0.1)

    def e_static(x, v):
        return 0.5 * float(v @ v) + 0.5 * float(x @ x)

    d1 = energy_drift(traj, e_static) / e_static(traj.positions[0], traj.velocities[0])

    # autonomous averaged run: the assembled force law must hold its own energy
    sc = get_scenario("rotating_saddle")
    system = sc.build_system(1.0 / 64)
    avg = integrate_averaged(system, np.array([1.0, 0.2]), np.array([0.0, 0.1]),
                             t_end, h=0.01, out_dt=0.1)
    e0 = abs(system.energy(avg.positions[0], avg.velocities[0]))
    d2 = energy_drift(avg, system.energy) / max(e0, 1e-30)
    worst = max(d1, d2)
    return worst <= 1e-8, f"relative drift {worst:.2e} (tol 1e-8; static {d1:.1e}, averaged {d2:.1e})"


def _check_separable_null(rng, quick):
    """Three drive/profile pairs: no magnetic vector, force matches the closed law."""
    entries = []
    for name in ("quartic_drive", "kapitza_pendulum"):
        sc = get_scenario(name)
        entries.append((sc.potential, sc.closed_forms))

    def u_val(x):
        return math.cos(x[0]) + 0.5 * x[0] ** 2

    def u_grad(x):
        return np.array([-math.sin(x[0]) + x[0]])

    def u_hess(x):
        return np.array([[-math.cos(x[0]) + 1.0]])

    def drive(tau):
        tau = np.asarray(tau, dtype=float)
        return 0.7 + np.cos(TWO_PI * tau) + 0.5 * np.sin(2.0 * TWO_PI * tau)

    # avg of v^2: antiderivative modes have amplitudes 1/(2 pi) and 0.5/(4 pi),
    # each cosine/sine contributing half its squared amplitude
    avg_v2 = 0.5 / TWO_PI ** 2 + 0.5 * (0.5 / (2.0 * TWO_PI)) ** 2
    third = SeparableDrivePotential(drive, u_val, u_grad, u_hess, 1)
    entries.append((third, _separable_closed(0.7, avg_v2, third)))

    eps = 1.0 / 64
    worst_b, worst_f = 0.0, 0.0
    for pot, forms in entries:
        system = assemble(pot, eps, n_tau=32)
        for _ in range(4 if quick else 8):
            x = rng.uniform(-1.2, 1.2, pot.dim)
            v = rng.uniform(-1.0, 1.0, pot.dim)
            worst_b = max(worst_b, float(np.linalg.norm(system.b_vector(x))))
            want = -np.asarray(forms["mean_grad"](x)) - eps ** 2 * np.asarray(forms["w_grad"](x))
            got = system.force(x, v)
            worst_f = max(worst_f, float(np.max(np.abs(got - want))))
    ok = worst_b <= 1e-10 and worst_f <= 1e-8
    return ok, f"max ||b|| {worst_b:.2e} (tol 1e-10), force mismatch {worst_f:.2e} (tol 1e-8)"


def _check_skew_curl(rng, quick):
    """B is antisymmetric and its strength is twice the curl of b (2D scenarios)."""
    names = ["rotating_saddle", "quartic_drive", "rotating_wave", "spinning_satellite"]
    n_per = 10 if quick else 50
    rtol, atol = 1e-5, 1e-10
    worst_skew, worst_curl = 0.0, 0.0
    for name in names:
        sc = get_scenario(name)
        system = sc.build_system(1.0 / 64)
        pts = _points_for(sc, rng, n_per)
        for x in pts:
            B = system.b_matrix(x)
            scale = max(float(np.max(np.abs(B))), 1e-14)
            worst_skew = max(worst_skew, float(np.max(np.abs(B + B.T))) / scale)
            # the curl of b by central differences, a route independent of b_matrix
            h = 2e-4 * (1.0 + float(np.max(np.abs(x))))
            e1 = np.array([h, 0.0])
            e2 = np.array([0.0, h])
            curl = ((system.b_vector(x + e1)[1] - system.b_vector(x - e1)[1]) / (2 * h)
                    - (system.b_vector(x + e2)[0] - system.b_vector(x - e2)[0]) / (2 * h))
            strength = B[0, 1] - B[1, 0]
            # atol floor keeps identically-zero fields (separable drives) from
            # being judged by the ratio of two finite-difference noise terms
            err = abs(strength - 2.0 * curl) / max(rtol * abs(strength), atol)
            worst_curl = max(worst_curl, err)
    ok = worst_skew <= 1e-9 and worst_curl <= 1.0
    return ok, (f"max skew {worst_skew:.2e} (tol 1e-9), strength vs 2*curl violation "
                f"{worst_curl:.2f} of budget (rtol 1e-5, atol 1e-10)")


def _check_ruled_decay(rng, quick):
    sc = get_scenario("rotating_wave")
    system = sc.build_system(1.0 / 128)
    radii = np.linspace(1.0, 4.0, 8 if quick else 12)
    norms = []
    for i, r in enumerate(radii):
        ang = rng.uniform(0.0, TWO_PI)
        x = r * np.array([math.cos(ang), math.sin(ang)])
        norms.append(float(np.linalg.norm(system.b_vector(x))))
    slope = float(np.polyfit(np.log(radii), np.log(norms), 1)[0])
    want = sc.extras["field_decay_slope"]
    ok = abs(slope - want) <= 0.05
    return ok, f"fitted decay slope {slope:.4f} (want {want} +/- 0.05)"


def _check_saddle_force(rng, quick):
    sc = get_scenario("rotating_saddle")
    eps_u = 1.0 / 128
    system = sc.build_system(eps_u)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    worst = 0.0
    for _ in range(6 if quick else 12):
        x = rng.uniform(-1.5, 1.5, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        want = -eps_u ** 2 * x - 2.0 * eps_u ** 3 * (J @ v)
        worst = max(worst, float(np.max(np.abs(system.force(x, v) - want))))
    return worst <= 1e-8, f"max force mismatch {worst:.2e} (tol 1e-8)"


def _check_scenario_oracles(rng, quick):
    """Every bundled closed form against the assembled pipeline."""
    failures = []
    for name in ("rotating_saddle", "quartic_drive", "kapitza_pendulum",
                 "rotating_wave", "spinning_satellite"):
        sc = get_scenario(name)
        pts = _points_for(sc, rng, 3 if quick else 6)
        for check_name, passed, detail in closed_form_checks(sc, 1.0 / 128, pts):
            if not passed:
                failures.append(f"{check_name}: {detail}")
    if failures:
        return False, "; ".join(failures)
    return True, "all bundled closed forms and force laws match the assembled ones (rtol 1e-6)"


def _check_satellite_trio(rng, quick):
    """The three satellite averages in their original (angular-phase) units."""
    sc = get_scenario("spinning_satellite", sigma=1.0)
    system = sc.build_system(1.0 / 128)
    radii = np.linspace(0.5, 3.0, 20)
    worst = 0.0
    worst_name = ""
    for i, r in enumerate(radii):
        ang = 0.37 + 2.11 * i
        x = r * np.array([math.cos(ang), math.sin(ang)])
        st = system.stack(x)
        checks = [
            ("mean", TWO_PI * st.u_mean[0], 1.0 / (2.0 * r ** 3)),
            ("fluct_sq", TWO_PI ** 4 * st.vv_mean()[0], 117.0 / (32.0 * r ** 8)),
        ]
        b = TWO_PI ** 5 * st.b_vector()[0]
        want_b = (171.0 / 32.0) / r ** 10 * np.array([x[1], -x[0]])
        checks.append(("b", b, want_b))
        for nm, got, want in checks:
            got = np.asarray(got, dtype=float)
            want = np.asarray(want, dtype=float)
            err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
            if err > worst:
                worst, worst_name = err, f"{nm} at r={r:.3g}"
    ok = worst <= 1e-6
    return ok, f"max rel err {worst:.2e} ({worst_name}; tol 1e-6)"


def _check_convergence(names, quick_overrides=None):
    """Each named scenario's guiding-centre gap must fall at least as fast as
    its slope floor.  --quick fits the first two rungs against a floor 0.2
    lower, with quick_overrides passed on to compare."""
    def check(rng, quick):
        ok, details = True, []
        for name in names:
            sc = get_scenario(name)
            floor = sc.extras["slope_floor"] - (0.2 if quick else 0.0)
            eps, kw = (sc.default_eps[:2], quick_overrides or {}) if quick else (sc.default_eps, {})
            rep = guiding_convergence(sc, eps, **kw)
            details.append(f"{name} slope {rep.slope:.3f} (floor {floor})")
            ok = ok and rep.slope >= floor
        return ok, "; ".join(details)
    return check


SUITES = {
    "invariants": [
        ("fourier_roundtrip", _check_fourier_roundtrip),
        ("fd_order", _check_fd_order),
        ("energy_drift", _check_energy_drift),
        ("separable_null_magnetic", _check_separable_null),
        ("skew_and_curl", _check_skew_curl),
        ("ruled_surface_decay", _check_ruled_decay),
        ("saddle_closed_force", _check_saddle_force),
    ],
    "oracles": [
        ("scenario_closed_forms", _check_scenario_oracles),
        ("satellite_trio", _check_satellite_trio),
    ],
    "convergence": [
        ("guiding_order_standard", _check_convergence(("rotating_saddle", "quartic_drive"))),
        # a coarser averaged step than the satellite's 0.001 keeps its quick rungs short
        ("guiding_order_one_down", _check_convergence(("spinning_satellite",),
                                                      quick_overrides={"h_avg": 0.002})),
    ],
}
