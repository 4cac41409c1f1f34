"""Unit tests for the integrators, the guiding-center map and serialization."""
import hashlib
import math

import numpy as np
import pytest

from oscavg import (CallablePotential, energy_drift, guiding_center,
                    integrate_averaged, integrate_dumbbell, integrate_full,
                    integrate_second_order, load_trajectory, position_gap,
                    save_dumbbell, save_trajectory, transform_trajectory)
from oscavg.analysis import compare
from oscavg.dynamics import Trajectory, atomic_write
from oscavg.scenarios import SeparableDrivePotential, get_scenario

TWO_PI = 2.0 * math.pi


def _static_well():
    """Harmonic well written as a (constant-in-tau) periodic potential."""

    def value(x, tau):
        v = 0.5 * float(np.dot(x, x))
        tau = np.asarray(tau, dtype=float)
        return v * np.ones_like(tau) if tau.ndim else v

    def grad(x, tau):
        x = np.asarray(x, dtype=float)
        if np.ndim(tau):
            return np.broadcast_to(x, (np.asarray(tau).shape[0], 2)).copy()
        return x.copy()

    return CallablePotential(value=value, dim=2, grad=grad)


# ---- full-system integrator ----

def test_full_energy_conservation_in_static_well():
    pot = _static_well()
    traj = integrate_full(pot, 1.0, np.array([1.0, 0.0]), np.array([0.0, 0.7]),
                          10.0, steps_per_period=512, out_dt=0.1)

    def energy(x, v):
        return 0.5 * float(v @ v) + 0.5 * float(x @ x)

    drift = energy_drift(traj, energy) / energy(traj.positions[0], traj.velocities[0])
    # RK4 at ~500 steps per orbit holds energy to near rounding over 10 units
    assert drift < 1e-10, f"relative energy drift {drift:.2e}"


def test_full_output_grid_is_exact():
    pot = _static_well()
    traj = integrate_full(pot, 1.0, np.array([1.0, 0.0]), np.zeros(2),
                          1.0, steps_per_period=64, out_dt=0.01)
    want = np.arange(len(traj)) * 0.01
    assert np.array_equal(traj.times, want), "output times are not the exact grid i*out_dt"
    assert len(traj) == 101, f"expected 101 samples, got {len(traj)}"
    assert traj.meta["kind"] == "full"
    assert traj.meta["epsilon"] == 1.0


def test_full_rejects_coarse_stepping():
    with pytest.raises(ValueError, match="below the minimum"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 1.0,
                       steps_per_period=8)


def test_full_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        integrate_full(_static_well(), 0.0, np.zeros(2), np.zeros(2), 1.0)


def test_full_rejects_bad_output_interval():
    with pytest.raises(ValueError, match="out_dt must be positive"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 1.0, out_dt=-0.1)
    with pytest.raises(ValueError, match="shorter than one output interval"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 0.0, out_dt=0.01)


def test_full_rejects_start_outside_region():
    sc = get_scenario("rotating_wave")  # trusted region is r >= 0.5
    with pytest.raises(ValueError, match="outside the potential's trusted region"):
        integrate_full(sc.potential, 1.0 / 64, np.array([0.1, 0.0]), np.zeros(2), 1.0)


def test_region_exit_truncates_averaged_run():
    sc = get_scenario("rotating_wave")
    system = sc.build_system(1.0 / 128)
    # aimed straight at the excluded disk: r drops below 0.5 before t = 0.5
    traj = integrate_averaged(system, np.array([0.8, 0.0]), np.array([-1.0, 0.0]),
                              2.0, h=0.005, out_dt=0.01)
    assert "exited_region_at" in traj.meta, "expected an early exit marker"
    assert len(traj) < 201, f"run should be truncated, kept {len(traj)} samples"
    radii = np.linalg.norm(traj.positions, axis=1)
    assert np.all(radii >= 0.5 - 1e-12), "kept samples must stay inside the trusted region"


# ---- averaged integrator and its invariant ----

def test_averaged_energy_drift_is_tiny():
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    traj = integrate_averaged(system, np.array([1.0, 0.2]), np.array([0.0, 0.1]),
                              5.0, h=0.01, out_dt=0.1)
    e0 = abs(system.energy(traj.positions[0], traj.velocities[0]))
    drift = energy_drift(traj, system.energy) / e0
    # the magnetic-like term does no work, so this is pure integrator error
    assert drift < 1e-10, f"averaged relative energy drift {drift:.2e}"
    assert traj.meta["kind"] == "averaged"
    assert traj.meta["order"] == "standard"


def test_averaged_rejects_bad_step():
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    with pytest.raises(ValueError, match="step h must be positive"):
        integrate_averaged(system, np.ones(2), np.zeros(2), 1.0, h=0.0)


# ---- the stepper against an array version of it ----

def _rk4_arrays(acc, x0, v0, n_out, out_dt, n_sub, in_region):
    """Classical RK4 on numpy arrays, on the grid i * out_dt, stopping at the
    first sample outside the region; returns times, positions, velocities."""
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    h = out_dt / n_sub
    hh, h6 = 0.5 * h, h / 6.0
    times, pos, vel = [], [], []
    for i in range(n_out + 1):
        t = i * out_dt
        if not in_region(x):
            break
        times.append(t), pos.append(x), vel.append(v)
        if i == n_out:
            break
        for s in range(n_sub):
            tt = t + s * h
            a1 = acc(tt, x, v)
            v2, x2 = v + hh * a1, x + hh * v
            a2 = acc(tt + hh, x2, v2)
            v3, x3 = v + hh * a2, x + hh * v2
            a3 = acc(tt + hh, x3, v3)
            v4, x4 = v + h * a3, x + h * v3
            a4 = acc(tt + h, x4, v4)
            x = x + h6 * (v + 2.0 * (v2 + v3) + v4)
            v = v + h6 * (a1 + 2.0 * (a2 + a3) + a4)
    return np.array(times), np.array(pos), np.array(vel)


def _assert_same_run(traj, ref):
    times, pos, vel = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.positions, pos), "positions differ from the array stepper"
    assert np.array_equal(traj.velocities, vel), "velocities differ from the array stepper"


def test_full_run_is_bit_identical_to_the_array_stepper():
    sc = get_scenario("quartic_drive")
    # a coarse step, so that a change in the order of the final sums shows
    eps = sc.internal_eps(1.0 / 4)
    traj = integrate_full(sc.potential, eps, sc.x0, sc.v0, 0.5,
                          steps_per_period=16, out_dt=0.05)
    n_sub = math.ceil(0.05 / (eps / 16) - 1e-9)
    assert traj.meta["substeps_per_out"] == n_sub

    def acc(t, x, v):
        return -np.asarray(sc.potential.grad(x, (t / eps) % 1.0), dtype=float)

    _assert_same_run(traj, _rk4_arrays(acc, sc.x0, sc.v0, 10, 0.05, n_sub,
                                       sc.potential.in_region))


def test_averaged_run_is_bit_identical_to_the_array_stepper():
    sc = get_scenario("spinning_satellite")
    system = sc.build_system(1.0 / 64)
    traj = integrate_averaged(system, sc.x0, sc.v0, 1.0, h=0.01, out_dt=0.02)
    _assert_same_run(traj, _rk4_arrays(lambda t, x, v: system.force(x, v), sc.x0, sc.v0,
                                       50, 0.02, 2, system.in_region))


def test_region_exit_stops_at_the_same_sample_as_the_array_stepper():
    system = get_scenario("rotating_wave").build_system(1.0 / 128)
    x0, v0 = np.array([0.8, 0.0]), np.array([-1.0, 0.0])
    traj = integrate_averaged(system, x0, v0, 1.0, h=0.01, out_dt=0.02)
    ref = _rk4_arrays(lambda t, x, v: system.force(x, v), x0, v0, 50, 0.02, 2,
                      system.in_region)
    _assert_same_run(traj, ref)
    assert len(traj) < 51, "the run should leave the region before t = 1"
    assert traj.meta["exited_region_at"] == len(traj) * 0.02


def test_callbacks_receive_float_arrays():
    """A user grad may use ndarray-only operations on x (a list would fail)."""
    M = np.diag([1.0, 4.0])
    pot = CallablePotential(
        value=lambda x, tau: 0.5 * float(x @ M @ x) * np.ones(np.shape(tau)),
        dim=2, grad=lambda x, tau: 0.5 * (2.0 * x) @ M)
    traj = integrate_full(pot, 1.0, np.array([1.0, 0.5]), np.zeros(2), 2.0, out_dt=0.1)
    want = np.column_stack([np.cos(traj.times), 0.5 * np.cos(2.0 * traj.times)])
    assert np.max(np.abs(traj.positions - want)) < 1e-8


def test_separable_profiles_receive_float_arrays_in_the_full_flow():
    """phase_grad hands a separable profile the float array x, so a u_grad
    written with ndarray operations runs through the full flow."""
    M = np.diag([1.0, 4.0])
    seen = set()

    def u_grad(x):
        seen.add((type(x), x.dtype, x.shape))
        return x @ M

    pot = SeparableDrivePotential(lambda tau: np.ones(np.shape(tau)),
                                  lambda x: 0.5 * float(x @ M @ x), u_grad,
                                  lambda x: M, dim=2)
    traj = integrate_full(pot, 1.0, np.array([1.0, 0.5]), np.zeros(2), 2.0, out_dt=0.1)
    want = np.column_stack([np.cos(traj.times), 0.5 * np.cos(2.0 * traj.times)])
    assert np.max(np.abs(traj.positions - want)) < 1e-8
    assert seen == {(np.ndarray, np.dtype(float), (2,))}


def test_full_flow_accepts_a_grad_that_returns_a_list():
    as_array = _static_well()
    as_list = CallablePotential(value=as_array.value, dim=2,
                                grad=lambda x, tau: [float(x[0]), float(x[1])])
    runs = [integrate_full(pot, 0.5, np.array([1.0, 0.5]), np.zeros(2), 1.0, out_dt=0.1)
            for pot in (as_array, as_list)]
    assert np.array_equal(runs[0].positions, runs[1].positions)


def test_plain_float_acceleration_and_step_check():
    traj = integrate_second_order(lambda t, x, v: [-x[0]], [1.0], [0.0], 3.0,
                                  h=0.01, out_dt=0.1)
    assert traj.meta == {"h": 0.01, "out_dt": 0.1}
    assert np.max(np.abs(traj.positions[:, 0] - np.cos(traj.times))) < 1e-9
    with pytest.raises(ValueError, match="step h must be positive"):
        integrate_second_order(lambda t, x, v: [-x[0]], [1.0], [0.0], 3.0, h=0.0)


# ---- guiding-center map ----

def test_guided_initial_conditions_track_the_full_run():
    """At eps = 1/64 the transformed saddle run and the averaged run agree to ~5e-9."""
    sc = get_scenario("rotating_saddle")
    gap = compare(sc, 1.0 / 64).gap
    assert gap < 1e-8, f"guiding-center gap {gap:.2e} at eps=1/64 (expected ~5e-9)"


def test_guiding_gap_shrinks_at_fourth_order_or_better():
    sc = get_scenario("rotating_saddle")
    g1 = compare(sc, 1.0 / 64).gap
    g2 = compare(sc, 1.0 / 128).gap
    ratio = g1 / g2
    # one halving of eps must shrink the gap by at least 2^4
    assert ratio >= 16.0, f"gap ratio {ratio:.1f} across eps halving (want >= 16)"


def test_guiding_center_is_phase_periodic():
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    eps_int = system.epsilon
    x = np.array([0.9, -0.3])
    v = np.array([0.1, 0.4])
    t = 0.37
    X1, V1 = guiding_center(system, x, v, t)
    X2, V2 = guiding_center(system, x, v, t + eps_int)  # one full oscillation later
    assert np.max(np.abs(X1 - X2)) < 1e-14, "position map must be phase periodic"
    assert np.max(np.abs(V1 - V2)) < 1e-13, "velocity map must be phase periodic"


def test_guiding_center_shift_is_second_order_small():
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    x = np.array([1.0, 0.0])
    v = np.array([0.0, 0.3])
    X, V = guiding_center(system, x, v, 0.013)
    eps_int = system.epsilon
    shift = float(np.linalg.norm(X - x))
    # position shift is eps_int^2 S' + smaller; |S'| <= |x| / (2 pi)^2 here
    bound = 2.0 * eps_int ** 2 * float(np.linalg.norm(x))
    assert shift < bound, f"position shift {shift:.2e} exceeds O(eps^2) bound {bound:.2e}"
    kick = float(np.linalg.norm(V - v))
    assert kick < 2.0 * eps_int * float(np.linalg.norm(x)), \
        f"velocity shift {kick:.2e} not O(eps)"


def test_transform_trajectory_keeps_grid_and_tags_kind():
    sc = get_scenario("rotating_saddle")
    system = sc.build_system(1.0 / 64)
    eps_int = sc.internal_eps(1.0 / 64)
    full = integrate_full(sc.potential, eps_int, sc.x0, sc.v0, 0.2,
                          steps_per_period=64, out_dt=0.01)
    guided = transform_trajectory(system, full)
    assert guided.meta["kind"] == "guided"
    assert np.array_equal(guided.times, full.times)
    assert len(guided) == len(full)


# ---- dumbbell (spinning two-body) integrator ----

def test_dumbbell_conserves_total_angular_momentum():
    eps = 0.02
    traj = integrate_dumbbell(eps, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                              0.0, 1.0 / eps, 10.0, steps_per_spin=96,
                              out_dt=0.05, sigma=-1.0)
    L = (2.0 * (traj.center[:, 0] * traj.center_vel[:, 1]
                - traj.center[:, 1] * traj.center_vel[:, 0])
         + 2.0 * eps * traj.spin)
    drift = np.max(np.abs(L - L[0])) / abs(L[0])
    # exactly conserved in any central field; residual is integrator error
    assert drift < 1e-8, f"angular momentum relative drift {drift:.2e}"


def test_dumbbell_matches_the_first_order_array_loop():
    """The dumbbell as a 6-vector first-order system (center, its velocity,
    spin angle, spin rate) stepped with array RK4 sums its final stage in
    another order; the states agree to rounding over 5 time units."""
    eps, sigma, theta_dot0 = 0.02, -1.0, 1.0 / 0.02
    arm = math.sqrt(eps)

    def rhs(y):
        u = np.array([math.cos(y[4]), math.sin(y[4])])
        up = np.array([-u[1], u[0]])
        gp = -sigma * (y[0:2] + arm * u) / float((y[0:2] + arm * u) @ (y[0:2] + arm * u)) ** 1.5
        gm = -sigma * (y[0:2] - arm * u) / float((y[0:2] - arm * u) @ (y[0:2] - arm * u)) ** 1.5
        thdd = -(0.5 / arm) * float((gp - gm) @ up)
        return np.concatenate([y[2:4], -0.5 * (gp + gm), [y[5], thdd]])

    traj = integrate_dumbbell(eps, np.array([1.0, 0.0]), np.array([0.0, 1.1]), 0.3,
                              theta_dot0, 5.0, steps_per_spin=96, out_dt=0.05, sigma=sigma)
    n_sub = math.ceil(0.05 / (TWO_PI / theta_dot0 / 96) - 1e-9)
    h = 0.05 / n_sub
    y = np.array([1.0, 0.0, 0.0, 1.1, 0.3, theta_dot0])
    states = [y]
    for i in range(100):
        for s in range(n_sub):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    states = np.array(states)
    got = np.column_stack([traj.center, traj.center_vel, traj.angle, traj.spin])
    assert got.shape == states.shape
    assert np.max(np.abs(got - states)) < 1e-10


def test_dumbbell_rejects_slow_or_backward_spin():
    with pytest.raises(ValueError, match="below the minimum"):
        integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                           0.0, 50.0, 1.0, steps_per_spin=4)
    with pytest.raises(ValueError, match="theta_dot0 must be positive"):
        integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                           0.0, -50.0, 1.0)


@pytest.mark.parametrize("eps", [0.0, -0.02])
def test_dumbbell_rejects_nonpositive_epsilon(eps):
    """A zero arm would divide by zero partway through the run, and a negative
    eps has no square root: both are refused up front, as assemble does."""
    with pytest.raises(ValueError, match=f"epsilon must be positive, got {eps}"):
        integrate_dumbbell(eps, np.array([1.0, 0.0]), np.array([0.0, 0.9]), 0.0, 50.0, 1.0)


# ---- serialization ----

def test_trajectory_csv_round_trip(tmp_path):
    sc = get_scenario("rotating_saddle")
    system = sc.build_system(1.0 / 64)
    traj = integrate_averaged(system, sc.x0, sc.v0, 0.5, h=0.01, out_dt=0.05)
    path = tmp_path / "run.csv"
    save_trajectory(traj, path, extra_meta={"note": "round trip"})
    back = load_trajectory(path)
    assert np.array_equal(back.times, traj.times), "times changed in round trip"
    assert np.array_equal(back.positions, traj.positions), "positions changed"
    assert np.array_equal(back.velocities, traj.velocities), "velocities changed"
    assert back.meta["kind"] == "averaged"
    assert back.meta["note"] == "round trip"
    assert (tmp_path / "run.json").exists(), "sidecar JSON missing"


def test_load_trajectory_without_sidecar(tmp_path):
    traj = Trajectory(np.array([0.0, 0.1]), np.zeros((2, 2)), np.ones((2, 2)), {"kind": "full"})
    path = tmp_path / "bare.csv"
    save_trajectory(traj, path)
    (tmp_path / "bare.json").unlink()
    back = load_trajectory(path)
    assert back.meta == {}, "missing sidecar should load as empty meta"
    assert len(back) == 2


def test_csv_write_that_fails_midway_leaves_nothing(tmp_path):
    """A row that cannot be formatted aborts the write after earlier rows went
    out; neither the CSV nor its temporary file may remain."""
    pos = np.zeros((50, 2), dtype=object)
    pos[-1, 0] = "not a number"
    traj = Trajectory(np.arange(50) * 0.1, pos, np.zeros((50, 2)), {"kind": "full"})
    with pytest.raises(ValueError):
        save_trajectory(traj, tmp_path / "run.csv")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_save_dumbbell_writes_declared_columns(tmp_path):
    traj = integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                              0.0, 50.0, 0.5, steps_per_spin=32, out_dt=0.1)
    path = tmp_path / "dumbbell.csv"
    save_dumbbell(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,z1,z2,zd1,zd2,theta,thetadot", f"unexpected header {header!r}"
    import json
    sidecar = json.loads((tmp_path / "dumbbell.json").read_text())
    assert sidecar["rows"] == len(traj)
    assert sidecar["meta"]["kind"] == "dumbbell"


def test_writers_return_the_digests_of_their_files(tmp_path):
    """save_dumbbell and save_trajectory return {file name: sha256} for the
    CSV and its sidecar, equal to the files on disk."""
    dumb = integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                              0.0, 50.0, 0.5, steps_per_spin=32, out_dt=0.1)
    traj = Trajectory(np.array([0.0, 0.1]), np.zeros((2, 2)), np.ones((2, 2)), {"kind": "full"})
    for digests, stem in ((save_dumbbell(dumb, tmp_path / "d.csv", {"eps_user": 0.02}), "d"),
                          (save_trajectory(traj, tmp_path / "t.csv"), "t")):
        assert sorted(digests) == [f"{stem}.csv", f"{stem}.json"]
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_position_gap_requires_matching_grids():
    t = np.arange(3) * 0.1
    a = Trajectory(t, np.zeros((3, 2)), np.zeros((3, 2)))
    b = Trajectory(t + 0.05, np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="output grids differ"):
        position_gap(a, b)
    c = Trajectory(np.arange(4) * 0.1, np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="lengths differ"):
        position_gap(a, c)
