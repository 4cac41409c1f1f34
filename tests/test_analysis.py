"""Unit tests for slope fitting, interpolation and precession measurement.

The precession tests run on a synthetic orbit built from a closed ellipse
rotated at a known constant rate, so the expected advance per orbit is an
input, not something the library computed.
"""
import dataclasses
import math

import numpy as np
import pytest

from oscavg import (compare, compare_ladder, fit_order, guiding_convergence, measure_precession,
                    position_gap)
from oscavg.analysis import energy_drift, guided_run, hermite_positions
from oscavg.dynamics import Trajectory
from oscavg.scenarios import get_scenario

TWO_PI = 2.0 * math.pi


# ---- order fitting ----

def test_fit_order_recovers_exact_power():
    eps = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    errors = 3.7 * eps ** 4
    rep = fit_order(eps, errors, label="synthetic")
    assert abs(rep.slope - 4.0) < 1e-12, f"fitted slope {rep.slope} != 4"
    assert np.max(np.abs(rep.pair_slopes - 4.0)) < 1e-12
    assert rep.label == "synthetic"
    assert len(rep.lines()) == 5  # headline plus one line per ladder point


def test_fit_order_sorts_descending_eps():
    eps = np.array([1 / 64, 1 / 16, 1 / 32])
    rep = fit_order(eps, 2.0 * eps ** 3)
    assert abs(rep.slope - 3.0) < 1e-12
    assert np.all(np.diff(rep.eps_values) < 0), "ladder should be stored largest first"


def test_fit_order_input_validation():
    good_eps = np.array([0.1, 0.05])
    with pytest.raises(ValueError, match="equal length"):
        fit_order(good_eps, np.array([1.0]))
    with pytest.raises(ValueError, match="at least two"):
        fit_order(np.array([0.1]), np.array([1.0]))
    with pytest.raises(ValueError, match="repeated eps"):
        fit_order(np.array([0.1, 0.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="must be positive"):
        fit_order(np.array([0.1, -0.05]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="errors must be positive"):
        fit_order(good_eps, np.array([1.0, 0.0]))


# ---- trajectory comparison helpers ----

def test_position_gap_is_per_sample_distance():
    t = np.arange(4) * 0.1
    a = Trajectory(t, np.zeros((4, 2)), np.zeros((4, 2)))
    shifted = np.zeros((4, 2))
    shifted[2] = [3.0, 4.0]
    b = Trajectory(t, shifted, np.zeros((4, 2)))
    gap = position_gap(a, b)
    assert gap.shape == (4,)
    assert gap[2] == pytest.approx(5.0)
    assert gap[0] == 0.0


def test_hermite_interpolation_is_exact_on_cubics():
    # position components are cubics, velocities their exact derivatives
    t = np.linspace(0.0, 2.0, 21)
    pos = np.stack([t ** 3 - t, 0.5 * t ** 2 + 1.0], axis=1)
    vel = np.stack([3.0 * t ** 2 - 1.0, t], axis=1)
    traj = Trajectory(t, pos, vel)
    for ts in (0.13, 0.777, 1.5049):
        want = np.array([ts ** 3 - ts, 0.5 * ts ** 2 + 1.0])
        got = hermite_positions(traj, ts)
        err = np.max(np.abs(got - want))
        assert err < 1e-12, f"cubic interpolation error {err:.2e} at t={ts}"
    # outside the grid it clamps to the end samples
    assert np.array_equal(hermite_positions(traj, -1.0), pos[0])
    assert np.array_equal(hermite_positions(traj, 3.0), pos[-1])


def test_energy_drift_is_max_abs_deviation():
    t = np.arange(5) * 1.0
    pos = np.zeros((5, 2))
    pos[:, 0] = [0.0, 0.5, -1.5, 1.0, 0.0]
    traj = Trajectory(t, pos, np.zeros((5, 2)))
    drift = energy_drift(traj, lambda x, v: x[0])
    assert drift == pytest.approx(1.5)


# ---- synthetic precessing orbit ----

def _precessing_ellipse(advance_per_orbit, n_orbits=6, samples_per_orbit=600,
                        ecc=0.5, mirror=False):
    """Kepler ellipse (unit semi-axis, unit attraction) rotated at a fixed rate.

    The rotation adds exactly advance_per_orbit to the perihelion angle per
    radial period and leaves r(t) unchanged, so the expected report is known.
    """
    E = np.linspace(0.0, TWO_PI * n_orbits, samples_per_orbit * n_orbits)
    t = E - ecc * np.sin(E)  # orbital period 2 pi
    b = math.sqrt(1.0 - ecc ** 2)
    base_pos = np.stack([np.cos(E) - ecc, b * np.sin(E)], axis=1)
    denom = 1.0 - ecc * np.cos(E)
    base_vel = np.stack([-np.sin(E) / denom, b * np.cos(E) / denom], axis=1)

    rate = advance_per_orbit / TWO_PI
    phi = rate * t
    c, s = np.cos(phi), np.sin(phi)
    pos = np.stack([c * base_pos[:, 0] - s * base_pos[:, 1],
                    s * base_pos[:, 0] + c * base_pos[:, 1]], axis=1)
    jbase = np.stack([-base_pos[:, 1], base_pos[:, 0]], axis=1)
    tot = base_vel + rate * jbase
    vel = np.stack([c * tot[:, 0] - s * tot[:, 1],
                    s * tot[:, 0] + c * tot[:, 1]], axis=1)
    if mirror:
        pos[:, 1] *= -1.0
        vel[:, 1] *= -1.0
    return t, pos, vel


def _rippled_orbit(advance_per_orbit, n_orbits=6, ripple=0.008):
    """Radially periodic orbit with a fast radial ripple near each perihelion.

    r = 1 + 0.3 cos t + ripple sin^4(t/2) cos(15 t): the sharp envelope keeps
    the ripple's radial velocity below the smooth term except close to the
    perihelion passages at t = pi mod 2 pi, so the spurious sign changes it
    creates cluster there and nowhere else.  The angle advances uniformly,
    adding advance_per_orbit per radial period, and 15 ripple cycles fit one
    orbit exactly, so every cluster repeats with the same shape.
    """
    t = np.linspace(0.0, TWO_PI * n_orbits, 800 * n_orbits)
    ct, st = np.cos(t), np.sin(t)
    c15, s15 = np.cos(15.0 * t), np.sin(15.0 * t)
    env = np.sin(0.5 * t) ** 4
    denv = np.sin(0.5 * t) ** 2 * st
    r = 1.0 + 0.3 * ct + ripple * env * c15
    rdot = -0.3 * st + ripple * (denv * c15 - 15.0 * env * s15)
    om = 1.0 + advance_per_orbit / TWO_PI
    th = om * t
    pos = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    vel = np.stack([rdot * np.cos(th) - r * om * np.sin(th),
                    rdot * np.sin(th) + r * om * np.cos(th)], axis=1)
    return t, pos, vel


def test_precession_recovers_known_advance():
    delta = 0.05
    t, pos, vel = _precessing_ellipse(delta)
    rep = measure_precession(t, pos, vel)
    assert rep.direction == 1
    assert rep.n_orbits >= 4, f"only {rep.n_orbits} orbits found"
    assert abs(rep.mean_advance - delta) < 1e-3 * delta, \
        f"measured {rep.mean_advance:.6f} rad/orbit, expected {delta}"


def test_precession_sign_flips_with_orbit_orientation():
    delta = 0.05
    t, pos, vel = _precessing_ellipse(delta, mirror=True)
    rep = measure_precession(t, pos, vel)
    assert rep.direction == -1
    assert abs(rep.mean_advance + delta) < 1e-3 * delta, \
        f"mirrored orbit measured {rep.mean_advance:.6f}, expected {-delta}"


def test_precession_of_closed_orbit_is_zero():
    t, pos, vel = _precessing_ellipse(0.0)
    rep = measure_precession(t, pos, vel)
    assert abs(rep.mean_advance) < 1e-6, \
        f"closed ellipse measured spurious advance {rep.mean_advance:.2e}"


def test_precession_min_separation_filters_fast_wiggle():
    delta = 0.05
    t, pos, vel = _rippled_orbit(delta)
    # 6 orbits hold 6 perihelion passages (t = pi, 3 pi, ..., 11 pi): 5 intervals
    raw = measure_precession(t, pos, vel)
    assert raw.n_orbits > 5, \
        f"ripple should create spurious crossings, got only {raw.n_orbits} intervals"
    rep = measure_precession(t, pos, vel, min_separation=1.5)
    assert rep.n_orbits == 5, \
        f"with the separation window expected 5 intervals, got {rep.n_orbits}"
    assert abs(rep.mean_advance - delta) < 0.1 * delta, \
        f"rippled orbit measured {rep.mean_advance:.4f}, expected ~{delta}"


def test_precession_rejects_circular_orbits():
    t = np.linspace(0.0, 20.0, 2000)
    pos = np.stack([np.cos(t), np.sin(t)], axis=1)
    vel = np.stack([-np.sin(t), np.cos(t)], axis=1)
    with pytest.raises(ValueError, match="circular"):
        measure_precession(t, pos, vel)


def test_precession_needs_three_passages():
    t, pos, vel = _precessing_ellipse(0.05, n_orbits=1)
    with pytest.raises(ValueError, match="at least 3 perihelion passages"):
        measure_precession(t, pos, vel)


# ---- the comparison pipeline ----

def test_compare_gives_no_gap_when_a_run_leaves_its_region(exit_probe):
    rung = compare(exit_probe, 1 / 16)
    assert rung.gap is None
    run, t = rung.region_exit()
    assert run == "full"
    assert 0.45 < t < 0.55, f"full run left |x| < 1 at t={t}, expected near 0.5"
    assert rung.full.times[-1] < t < exit_probe.t_end
    assert len(rung.guided) == len(rung.full)
    assert "exited_region_at" in rung.averaged.meta


def test_guiding_convergence_names_the_run_that_left_its_region(exit_probe):
    with pytest.raises(RuntimeError,
                       match=r"^exit_probe at eps=0.0625: full run left the trusted "
                             r"region at t=0\.\d+$"):
        guiding_convergence(exit_probe)


def _partial_exit_probe(exit_probe):
    """exit_probe on a ladder where only some rungs leave |x| < 1 by t_end.

    Every rung drifts at unit speed from about 0.5; the guiding centre of the
    eps = 1.5 rung starts eps^2 / (4 pi^2) further in, so that rung is still
    inside at t_end = 0.55 while the 1/32 and 1/16 rungs leave near t = 0.5.
    """
    return dataclasses.replace(exit_probe, t_end=0.55, default_eps=[1 / 32, 1.5, 1 / 16])


def test_lockstep_ladder_truncates_only_the_rungs_that_leave(exit_probe):
    sc = _partial_exit_probe(exit_probe)
    ladder = compare_ladder(sc, sc.default_eps)
    assert [rung.gap is None for rung in ladder] == [True, False, True]
    for eps, rung in zip(sc.default_eps, ladder):
        alone = compare(sc, eps)
        assert rung.gap == alone.gap, f"eps={eps}: gap {rung.gap} vs {alone.gap} alone"
        assert rung.region_exit() == alone.region_exit()
        for kind in ("full", "guided", "averaged"):
            got, want = getattr(rung, kind), getattr(alone, kind)
            assert np.array_equal(got.times, want.times), f"eps={eps}: {kind} times differ"
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.velocities, want.velocities)
            assert got.meta == want.meta
    left = ladder[0].averaged
    assert 0.45 < left.meta["exited_region_at"] < 0.55
    assert ladder[1].averaged.times[-1] == pytest.approx(sc.t_end)


def test_guiding_convergence_names_the_first_rung_that_left_in_ladder_order(exit_probe):
    sc = _partial_exit_probe(exit_probe)
    _, t = compare(sc, 1 / 32).region_exit()
    with pytest.raises(RuntimeError) as info:
        guiding_convergence(sc)
    assert str(info.value) == (f"exit_probe at eps=0.03125: full run left the trusted "
                               f"region at t={t}")


def _short_runs(sc, eps_values):
    return [guided_run(sc, e, t_end=0.05) for e in eps_values]


def test_compare_ladder_rejects_runs_of_another_length():
    """Three eps with two runs raise instead of dropping a rung."""
    sc = get_scenario("rotating_saddle")
    eps_values = [1 / 64, 1 / 128, 1 / 256]
    with pytest.raises(ValueError, match=r"^runs holds 2 \(full, guided\) pairs for 3 eps values$"):
        compare_ladder(sc, eps_values, t_end=0.05, runs=_short_runs(sc, eps_values[:2]))


def test_compare_ladder_rejects_runs_at_another_eps():
    """A run for another eps, or runs out of ladder order, raise."""
    sc = get_scenario("rotating_saddle")
    runs = _short_runs(sc, [1 / 64, 1 / 128])
    assert len(compare_ladder(sc, [1 / 64, 1 / 128], t_end=0.05, runs=runs)) == 2
    with pytest.raises(ValueError, match=r"^the run given for eps=0\.0078125 is at internal eps "):
        compare_ladder(sc, [1 / 64, 1 / 128], t_end=0.05, runs=[runs[0], runs[0]])
    with pytest.raises(ValueError, match=r"^the run given for eps=0\.015625 is at internal eps "):
        compare_ladder(sc, [1 / 64, 1 / 128], t_end=0.05, runs=runs[::-1])


def test_empty_ladder_is_refused_by_the_fit():
    sc = get_scenario("rotating_saddle")
    assert compare_ladder(sc, []) == []
    with pytest.raises(ValueError, match="at least two ladder points"):
        guiding_convergence(sc, [])
