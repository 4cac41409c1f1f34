"""Unit tests for the integrators, the guiding-center map and serialization."""
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from oscavg import (CallablePotential, CallableStatic, energy_drift, guiding_center,
                    integrate_averaged, integrate_averaged_ladder, integrate_dumbbell,
                    integrate_full, integrate_second_order, load_trajectory, position_gap,
                    save_dumbbell, save_trajectory, transform_trajectory)
from oscavg.analysis import compare, fit_order
from oscavg.averaging import assemble
from oscavg.dynamics import (_CALLED, _DUMBBELL, _LADDER, _RK4_INTERVAL, _RKN_INTERVAL, Trajectory,
                             _interval, _save_table,
                             atomic_write, integrate_static)
from oscavg.fields import SOURCE_NAMES, STAGE, generated
from oscavg.scenarios import SatelliteStatic, SeparableDrivePotential, custom_scenario, get_scenario

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


@pytest.mark.parametrize("steps", [8, math.nan])
def test_full_rejects_coarse_stepping(steps):
    with pytest.raises(ValueError, match="below the minimum"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 1.0,
                       steps_per_period=steps)


@pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
def test_full_rejects_nonpositive_epsilon(eps):
    with pytest.raises(ValueError, match=f"epsilon must be positive and finite, got {eps}"):
        integrate_full(_static_well(), eps, np.zeros(2), np.zeros(2), 1.0)


def test_full_rejects_bad_output_interval():
    with pytest.raises(ValueError, match="out_dt must be positive"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 1.0, out_dt=-0.1)
    with pytest.raises(ValueError, match="shorter than one output interval"):
        integrate_full(_static_well(), 1.0, np.zeros(2), np.zeros(2), 0.0, out_dt=0.01)


def test_full_rejects_start_outside_region():
    sc = get_scenario("rotating_wave")  # trusted region is r >= 0.5
    with pytest.raises(ValueError, match="outside the potential's trusted region"):
        integrate_full(sc.potential, 1.0 / 64, np.array([0.1, 0.0]), np.zeros(2), 1.0)


def _nan_start_entry_points():
    """Each flow's entry point, called from a start (x0, v0) on a callable
    harmonic well with no region (a satellite's static part for
    integrate_static)."""
    well = _static_well()
    system = assemble(well, 0.1)
    static = SatelliteStatic()
    return {
        "second_order": lambda x0, v0: integrate_second_order(lambda t, x, v: [-q for q in x],
                                                              x0, v0, 0.1),
        "full": lambda x0, v0: integrate_full(well, 0.1, x0, v0, 0.1),
        "averaged": lambda x0, v0: integrate_averaged(system, x0, v0, 0.1),
        "ladder": lambda x0, v0: integrate_averaged_ladder([system, system], [x0, x0], [v0, v0], 0.1),
        "static": lambda x0, v0: integrate_static(static, x0, v0, 0.1),
    }


@pytest.mark.parametrize("entry", sorted(_nan_start_entry_points()))
@pytest.mark.parametrize("name", ["x0", "v0"])
def test_every_flow_refuses_a_non_finite_start_by_name(entry, name):
    """A NaN start gave a trajectory of NaNs and no error (integrate_full on
    a potential with no region); every flow now refuses it by name."""
    start = {"x0": [1.0, 0.5], "v0": [0.0, 0.2]}
    start[name] = [math.nan, 0.0]
    with pytest.raises(ValueError, match=f"{name} must be finite, got"):
        _nan_start_entry_points()[entry](start["x0"], start["v0"])


def test_static_run_refuses_a_start_inside_its_excluded_disk():
    """integrate_static from inside r_min returned an empty run that had
    left at 0.0; it is refused as the full and averaged flows refuse it."""
    with pytest.raises(ValueError, match="outside the potential's trusted region"):
        integrate_static(SatelliteStatic(), [0.01, 0.0], [0.0, 1.0], 0.1)


def test_averaged_runs_refuse_a_start_outside_the_region():
    system = get_scenario("rotating_wave").build_system(1.0 / 128)
    outside, inside = [0.1, 0.0], [1.0, 0.0]
    with pytest.raises(ValueError, match="outside the potential's trusted region"):
        integrate_averaged(system, outside, [0.0, 0.0], 0.1)
    with pytest.raises(ValueError, match="outside the potential's trusted region"):
        integrate_averaged_ladder([system, system], [inside, outside], [[0.0, 0.0]] * 2, 0.1)


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

def _rk4_substep(acc, tt, x, v, h, hh, h6):
    a1 = acc(tt, x, v)
    v2, x2 = v + hh * a1, x + hh * v
    a2 = acc(tt + hh, x2, v2)
    v3, x3 = v + hh * a2, x + hh * v2
    a3 = acc(tt + hh, x3, v3)
    v4, x4 = v + h * a3, x + h * v3
    a4 = acc(tt + h, x4, v4)
    return x + h6 * (v + 2.0 * (v2 + v3) + v4), v + h6 * (a1 + 2.0 * (a2 + a3) + a4)


def _rkn_substep(acc, tt, x, v, h, hh, h6):
    """The 4th-order Runge-Kutta-Nystrom substep of an acc that ignores v."""
    a1 = acc(tt, x, v)
    a2 = acc(tt + hh, x + hh * (v + (0.5 * hh) * a1), v)
    a3 = acc(tt + h, x + h * (v + hh * a2), v)
    return x + h * (v + h6 * (a1 + 2.0 * a2)), v + h6 * (a1 + 4.0 * a2 + a3)


def _array_run(acc, x0, v0, n_out, out_dt, n_sub, in_region, substep=_rk4_substep):
    """Classical RK4 (or the given substep) on numpy arrays, on the grid
    i * out_dt, stopping at the first sample outside the region; returns
    times, positions, velocities."""
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
            x, v = substep(acc, t + s * h, x, v, h, hh, h6)
    return np.array(times), np.array(pos), np.array(vel)


def _assert_same_run(traj, ref):
    times, pos, vel = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.positions, pos), "positions differ from the array stepper"
    assert np.array_equal(traj.velocities, vel), "velocities differ from the array stepper"


def test_full_run_is_bit_identical_to_the_array_stepper():
    """The full flow's force ignores v, so it steps by Runge-Kutta-Nystrom."""
    sc = get_scenario("quartic_drive")
    # a coarse step, so that a change in the order of the final sums shows
    eps = sc.internal_eps(1.0 / 4)
    traj = integrate_full(sc.potential, eps, sc.x0, sc.v0, 0.5,
                          steps_per_period=16, out_dt=0.05)
    n_sub = math.ceil(0.05 / (eps / 16) - 1e-9)
    assert traj.meta["substeps_per_out"] == n_sub

    def acc(t, x, v):
        return -np.asarray(sc.potential.grad(x, (t / eps) % 1.0), dtype=float)

    _assert_same_run(traj, _array_run(acc, sc.x0, sc.v0, 10, 0.05, n_sub,
                                       sc.potential.in_region, substep=_rkn_substep))


def test_averaged_run_is_bit_identical_to_the_array_stepper():
    sc = get_scenario("spinning_satellite")
    system = sc.build_system(1.0 / 64)
    traj = integrate_averaged(system, sc.x0, sc.v0, 1.0, h=0.01, out_dt=0.02)
    _assert_same_run(traj, _array_run(lambda t, x, v: system.force(x, v), sc.x0, sc.v0,
                                       50, 0.02, 2, system.in_region))


def test_region_exit_stops_at_the_same_sample_as_the_array_stepper():
    system = get_scenario("rotating_wave").build_system(1.0 / 128)
    x0, v0 = np.array([0.8, 0.0]), np.array([-1.0, 0.0])
    traj = integrate_averaged(system, x0, v0, 1.0, h=0.01, out_dt=0.02)
    ref = _array_run(lambda t, x, v: system.force(x, v), x0, v0, 50, 0.02, 2,
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


@pytest.mark.parametrize("arg, message", [
    ({"h": math.nan}, "step h must be positive, got nan"),
    ({"out_dt": math.nan}, "out_dt must be positive, got nan"),
    ({"t_end": math.nan}, "t_end must be finite, got nan"),
    ({"t_end": math.inf}, "t_end must be finite, got inf"),
])
def test_stepper_rejects_a_nan_step_by_name(arg, message):
    kw = {"t_end": 1.0, "h": 0.01, "out_dt": 0.1, **arg}
    with pytest.raises(ValueError, match=message):
        integrate_second_order(lambda t, x, v: [-x[0]], [1.0], [0.0], **kw)


def test_an_infinite_step_is_one_substep_per_output_interval():
    """h bounds the step from above, so h = inf is one substep per interval."""
    got = integrate_second_order(lambda t, x, v: [-x[0]], [1.0], [0.0], 0.5, h=math.inf,
                                 out_dt=0.1)
    want = integrate_second_order(lambda t, x, v: [-x[0]], [1.0], [0.0], 0.5, h=0.1,
                                  out_dt=0.1)
    assert np.array_equal(got.positions, want.positions)
    assert got.meta == want.meta == {"h": 0.1, "out_dt": 0.1}


# ---- averaged flows of a ladder in lockstep ----

def _value_only_scenario():
    """A 2-d trig drive given by its value alone: grad and hess, and so every
    spectra sample, go through finite differences point by point."""
    def value(x, tau):
        ph = TWO_PI * np.asarray(tau, dtype=float)
        return (np.cos(ph) * (x[0] ** 2 - 0.5 * x[1] ** 2) + np.sin(ph) * x[0] * x[1]
                + 0.3 * np.cos(2.0 * ph) * x[0] + 0.2 * (x[0] ** 2 + x[1] ** 2))

    return custom_scenario(CallablePotential(value, 2), default_eps=[1 / 16, 1 / 32, 1 / 64],
                           x0=[0.6, -0.3], v0=[0.1, 0.2], n_tau=16, name="value_only")


LOCKSTEP_CASES = {
    "rotating_saddle": lambda: get_scenario("rotating_saddle"),
    "quartic_drive": lambda: get_scenario("quartic_drive"),
    "kapitza_pendulum": lambda: get_scenario("kapitza_pendulum"),
    "rotating_wave": lambda: get_scenario("rotating_wave"),
    "spinning_satellite+1": lambda: get_scenario("spinning_satellite", sigma=1.0),
    "spinning_satellite-1": lambda: get_scenario("spinning_satellite", sigma=-1.0),
    "value_only": _value_only_scenario,
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_ladder_matches_each_rung_alone(case):
    """Every rung of a lockstep ladder, started from its own state, is bit for
    bit the run integrate_averaged makes for that rung alone."""
    sc = LOCKSTEP_CASES[case]()
    systems = [sc.build_system(e) for e in sc.default_eps]
    x0s = [sc.x0 + 0.01 * i for i in range(len(systems))]
    v0s = [sc.v0 - 0.02 * i for i in range(len(systems))]
    ladder = integrate_averaged_ladder(systems, x0s, v0s, 0.1, h=sc.h_avg, out_dt=sc.out_dt)
    assert len(ladder) == len(systems)
    for system, x0, v0, got in zip(systems, x0s, v0s, ladder):
        want = integrate_averaged(system, x0, v0, 0.1, h=sc.h_avg, out_dt=sc.out_dt)
        for name in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                f"{case} eps={system.epsilon}: {name} differ from the rung alone"
        assert list(got.meta.items()) == list(want.meta.items())


def test_lockstep_ladder_needs_one_potential_and_one_n_tau():
    sc = get_scenario("rotating_saddle")
    x0s, v0s = [sc.x0, sc.x0], [sc.v0, sc.v0]
    for other in (sc.build_system(1 / 64, n_tau=32),
                  get_scenario("rotating_saddle").build_system(1 / 64)):
        with pytest.raises(ValueError, match="one potential and one n_tau"):
            integrate_averaged_ladder([sc.build_system(1 / 32), other], x0s, v0s, 0.1)


def test_stepper_drops_a_row_that_leaves_and_steps_the_rest():
    """Rows of one batch: the row that crosses x = 1 stops at that sample,
    the other two run to t_end exactly as they would alone."""
    def acc(t, x, v):
        return [-0.5 * q for q in x]

    x0s, v0s = [[0.0], [0.9], [-0.5]], [[0.2], [1.0], [0.1]]
    rows = integrate_second_order(acc, x0s, v0s, 1.0, h=0.01, out_dt=0.05,
                                  in_region=lambda x: x[0] < 1.0)
    assert rows[1].meta["exited_region_at"] == len(rows[1]) * 0.05 < 1.0
    for x0, v0, got in zip(x0s, v0s, rows):
        want = integrate_second_order(lambda t, x, v: [-0.5 * x[0]], x0, v0, 1.0,
                                      h=0.01, out_dt=0.05, in_region=lambda x: x[0] < 1.0)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.velocities, want.velocities)
        assert got.meta == want.meta


def _list_form_substep(stage, tt, x, v, h, hh, h6):
    """The RK4 substep as eight list comprehensions: the oracle for the
    generated straight-line substep."""
    a1 = stage(tt, x, v)
    v2 = [q + hh * a for q, a in zip(v, a1)]
    x2 = [p + hh * q for p, q in zip(x, v)]
    a2 = stage(tt + hh, x2, v2)
    v3 = [q + hh * a for q, a in zip(v, a2)]
    x3 = [p + hh * q for p, q in zip(x, v2)]
    a3 = stage(tt + hh, x3, v3)
    v4 = [q + h * a for q, a in zip(v, a3)]
    x4 = [p + h * q for p, q in zip(x, v3)]
    a4 = stage(tt + h, x4, v4)
    return ([p + h6 * (k1 + 2.0 * (k2 + k3) + k4) for p, k1, k2, k3, k4 in zip(x, v, v2, v3, v4)],
            [q + h6 * (k1 + 2.0 * (k2 + k3) + k4) for q, k1, k2, k3, k4 in zip(v, a1, a2, a3, a4)])


def _coupled_stage(t, x, v):
    """A nonlinear acceleration that mixes neighbouring elements and t."""
    n = len(x)
    return [-math.sin(x[i]) * (1.0 + 0.3 * t) + 0.2 * x[(i + 1) % n] * v[i] - 0.1 * v[i - 1]
            for i in range(n)]


def _list_form_interval(t, x, v, n_sub, h, hh, h6, args):
    """n_sub list-form substeps from time t, with the generated interval's
    arguments."""
    stage, = args
    for s in range(n_sub):
        x, v = _list_form_substep(stage, t + s * h, x, v, h, hh, h6)
    return x, v


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_generated_interval_is_the_list_form_bit_for_bit(n):
    """Five whole intervals of seven substeps of the generated code equal the
    list form's floats."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, n).tolist()
    v = rng.uniform(-1.0, 1.0, n).tolist()
    h = 0.037
    want = (x, v)
    for i in range(5):
        t = 0.25 + i * 7 * h
        x, v = _interval(n, _CALLED)(t, x, v, 7, h, 0.5 * h, h / 6.0, [_coupled_stage])
        want = _list_form_interval(t, *want, 7, h, 0.5 * h, h / 6.0, [_coupled_stage])
        assert (x, v) == want, f"n={n}: interval {i} differs"
    assert {type(q) for q in x + v} == {float}


@pytest.mark.parametrize("x0, v0", [
    ([0.4], [0.1]),
    ([0.4, -0.2], [0.1, 0.3]),
    ([0.4, -0.2, 0.7], [0.1, 0.3, -0.2]),
    # four rows of two floats (8 in all); the second row crosses x1 = 1
    # mid-run, after which the rest step on as 6 floats
    ([[0.4, -0.2], [0.9, 0.1], [-0.5, 0.3], [0.2, 0.6]],
     [[0.1, 0.3], [0.8, 0.0], [0.2, -0.1], [-0.3, 0.2]]),
], ids=["n1", "n2", "n3", "n8-exit"])
def test_stepper_runs_equal_the_list_form_bit_for_bit(monkeypatch, x0, v0):
    """Whole runs, row exits included, equal the same runs stepped by the
    list form: the stepper picks the generated interval for each new length."""
    def run():
        return integrate_second_order(_coupled_stage, x0, v0, 1.5, h=0.02, out_dt=0.05,
                                      in_region=lambda x: x[0] < 1.0)

    got = run()
    lengths = []

    def list_form(n, form):
        assert form == _CALLED
        lengths.append(n)
        return _list_form_interval

    monkeypatch.setattr("oscavg.dynamics._interval", list_form)
    want = run()
    if np.ndim(x0) == 2:
        assert lengths == [8, 6]
        assert [len(r) for r in got] == [31, 3, 31, 31]
        assert got[1].meta["exited_region_at"] == pytest.approx(0.15)
    else:
        got, want = [got], [want]
    for g, w in zip(got, want):
        assert np.array_equal(g.times, w.times)
        assert np.array_equal(g.positions, w.positions)
        assert np.array_equal(g.velocities, w.velocities)
        assert g.meta == w.meta


# ---- the two templates, chosen by the form ----

def test_the_nystrom_step_is_fourth_order_in_positions_and_velocities():
    """integrate_static (a form that ignores v) on the well |x|^2 / 2
    against cos and sin: over four halving steps the fitted error slopes of
    positions and of velocities lie in 3.8-4.2."""
    well = CallableStatic(lambda x: 0.5 * float(x @ x), 2, grad=lambda x: np.array(x, dtype=float))
    x0, v0 = np.array([1.0, -0.5]), np.array([0.3, 0.8])
    steps = [0.2, 0.1, 0.05, 0.025]
    errors = []
    for h in steps:
        run = integrate_static(well, x0, v0, 4.0, h=h, out_dt=0.2)
        t = run.times[:, None]
        errors.append((np.abs(run.positions - (x0 * np.cos(t) + v0 * np.sin(t))).max(),
                       np.abs(run.velocities - (v0 * np.cos(t) - x0 * np.sin(t))).max()))
    for k, name in enumerate(("positions", "velocities")):
        slope = fit_order(steps, [e[k] for e in errors]).slope
        assert 3.8 <= slope <= 4.2, f"{name}: error slope {slope:.3f}, errors {errors}"


def test_the_template_follows_from_whether_a_stage_line_reads_v():
    """Forms whose stage lines read {v} (a called acceleration, the ladder
    force with its B v) get RK4; the dumbbell, the full flow and the
    point-mass control get Runge-Kutta-Nystrom."""
    assert _interval(2, _CALLED) is generated(_RK4_INTERVAL, 2, _CALLED)
    assert _interval(4, _LADDER) is generated(_RK4_INTERVAL, 4, _LADDER)
    assert _interval(3, _DUMBBELL) is generated(_RKN_INTERVAL, 3, _DUMBBELL)
    for name in ("quartic_drive", "spinning_satellite"):
        form, _ = get_scenario(name).build_system(1 / 64).full_form()
        assert _interval(2, form) is generated(_RKN_INTERVAL, 2, form)


def test_forms_that_read_v_keep_rk4_bit_for_bit():
    """integrate_second_order steps RK4 even for an acceleration that
    ignores v (its call reads v), bit for bit the list form; a factored
    ladder's averaged flow is the array RK4 run of its force."""
    x, v, h = [0.4, -0.2], [0.1, 0.3], 0.1 / 3  # three substeps per output interval
    for acc in (_coupled_stage, lambda t, x, v: [-math.sin(q) * (1.0 + 0.3 * t) for q in x]):
        got = integrate_second_order(acc, x, v, 0.5, h=h, out_dt=0.1)
        want = [(x, v)]
        for i in range(5):
            want.append(_list_form_interval(i * 0.1, *want[-1], 3, h, 0.5 * h, h / 6.0, [acc]))
        assert np.array_equal(got.positions, [q for q, _ in want])
        assert np.array_equal(got.velocities, [q for _, q in want])
    system = get_scenario("rotating_saddle").build_system(1.0 / 64)
    traj = integrate_averaged(system, [1.0, 0.0], [0.0, 0.3], 0.5, h=0.01, out_dt=0.05)
    _assert_same_run(traj, _array_run(lambda t, x, v: system.force(x, v), [1.0, 0.0], [0.0, 0.3],
                                       10, 0.05, 5, system.in_region))


# ---- the full flow's stage forms ----

def _separable_scenario():
    """A generic separable drive a(tau) u(x) with numpy callables, through
    SeparableDrivePotential's own grad."""
    def a(tau):
        ph = TWO_PI * np.asarray(tau, dtype=float)
        return 0.4 + np.cos(ph) + 0.5 * np.sin(2.0 * ph)

    def u_value(x):
        return float(x[0] ** 2 * x[1] + np.sin(x[1]))

    def u_grad(x):
        return np.array([2.0 * x[0] * x[1], x[0] ** 2 + np.cos(x[1])])

    def u_hess(x):
        return np.array([[2.0 * x[1], 2.0 * x[0]], [2.0 * x[0], -np.sin(x[1])]])

    pot = SeparableDrivePotential(a, u_value, u_grad, u_hess, dim=2)
    return custom_scenario(pot, default_eps=[1 / 32], x0=[0.6, -0.3], v0=[0.1, 0.2],
                           n_tau=16, name="separable")


FULL_CASES = {**LOCKSTEP_CASES, "separable": _separable_scenario}


@pytest.mark.parametrize("case", sorted(FULL_CASES))
def test_full_run_equals_the_callable_full_stage_bit_for_bit(case, nystrom_run):
    """integrate_full's generated stage (the phase factor once per stage
    time, the spatial force at each stage, a static part written in) gives
    the run that the callable AveragedSystem.full_stage() gives in the
    list-form Runge-Kutta-Nystrom stepper, bit for bit."""
    sc = FULL_CASES[case]()
    eps = sc.internal_eps(sc.default_eps[0])
    got = integrate_full(sc.potential, eps, sc.x0, sc.v0, 0.1,
                         steps_per_period=sc.steps_per_period, out_dt=sc.out_dt)
    want = nystrom_run(assemble(sc.potential, eps).full_stage(), sc.x0, sc.v0, 0.1,
                       h=eps / sc.steps_per_period, out_dt=sc.out_dt,
                       in_region=sc.potential.in_region)
    assert len(got) == 11
    for name in ("times", "positions", "velocities"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), f"{case}: {name} differ"


def test_cosine_drive_takes_one_cos_per_stage_time(monkeypatch):
    """A spy on the cos that the quartic's stage form binds: three drive
    factors per substep (stages 2 and 3 share theirs), and substeps_per_out
    times the intervals run is the number of substeps taken, which the
    bench tracer counts by."""
    calls = Counter()

    def counted_cos(a):
        calls["cos"] += 1
        return math.cos(a)

    monkeypatch.setitem(SOURCE_NAMES, "cos", counted_cos)
    traj = integrate_full(get_scenario("quartic_drive").potential, 1 / 64, [0.8, 0.4], [0.2, -0.1],
                          0.05, steps_per_period=128, out_dt=0.01)
    substeps = traj.meta["substeps_per_out"] * (len(traj) - 1)
    assert substeps == 82 * 5
    assert calls == {"cos": 3 * substeps}


def test_a_stage_line_that_rebinds_an_interval_name_is_refused():
    """Stage temporaries share the interval's local scope: one named s (the
    substep counter) or eps (an argument) is refused by name, and a
    temporary of a name of its own steps as the called form does."""
    called = _CALLED[2][0]
    for name in ("s", "eps", "a2_0"):
        form = ("stage, eps", ("{p} = {t}",), (f"{name} = 0.5", called))
        with pytest.raises(ValueError, match=f"rebinds '{name}'"):
            _interval(2, form)
    form = ("stage", ("{p} = {t}",), ("scratch = 0.5", called))
    x, v, h = [0.4, -0.2], [0.1, 0.3], 0.037
    assert (_interval(2, form)(0.25, x, v, 7, h, 0.5 * h, h / 6.0, [_coupled_stage])
            == _interval(2, _CALLED)(0.25, x, v, 7, h, 0.5 * h, h / 6.0, [_coupled_stage]))


def test_generated_is_one_cache_by_template_n_and_form():
    """fields.generated gives the same function object for the same
    (template, n, form), also when the form is an equal copy, and its own
    function for another n, form or source text."""
    form = ("", ("{p} = {t}",), ("{a}_{i} = -{p} * {x}_{i}",))
    copy = ("", tuple(list(form[1])), tuple(list(form[2])))
    assert copy == form and copy[2] is not form[2]
    assert generated(STAGE, 2, form) is generated(STAGE, 2, copy)
    assert generated(STAGE, 2, form)(0.5, [1.0, -2.0], None) == [-0.5, 1.0]
    assert generated(STAGE, 3, form) is not generated(STAGE, 2, form)
    assert generated(_RK4_INTERVAL, 2, _CALLED) is _interval(2, _CALLED)
    text = "def force(p):\n    return -p\n"
    assert generated(text) is generated("".join(text)) is not generated(text.replace("-p", "p"))


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


def _dumbbell_acc(eps, sigma):
    """The dumbbell's acceleration as a callable on lists of floats, as
    integrate_dumbbell stepped it through integrate_second_order before its
    stage was written into the RK4 loop."""
    arm = math.sqrt(eps)

    def acc(t, x, v):
        z1, z2, th = x
        c = math.cos(th)
        s = math.sin(th)
        p1, p2 = z1 + arm * c, z2 + arm * s
        m1, m2 = z1 - arm * c, z2 - arm * s
        rp = (p1 * p1 + p2 * p2) ** 1.5
        rm = (m1 * m1 + m2 * m2) ** 1.5
        gp1, gp2 = -sigma * p1 / rp, -sigma * p2 / rp
        gm1, gm2 = -sigma * m1 / rm, -sigma * m2 / rm
        return [-0.5 * (gp1 + gm1), -0.5 * (gp2 + gm2),
                -(0.5 / arm) * ((gp1 - gm1) * -s + (gp2 - gm2) * c)]

    return acc


@pytest.mark.parametrize("eps", [0.02, 0.005])
@pytest.mark.parametrize("theta0", [0.0, 0.3])
@pytest.mark.parametrize("sigma", [-1.0, 1.0])
def test_dumbbell_equals_the_callable_acceleration_bit_for_bit(eps, theta0, sigma, nystrom_run):
    """_DUMBBELL ignores v, so the run is the callable's in the list-form
    Runge-Kutta-Nystrom stepper."""
    z0, zdot0, theta_dot0 = [1.0, 0.0], [0.0, 0.9], 1.0 / eps
    traj = integrate_dumbbell(eps, np.array(z0), np.array(zdot0), theta0, theta_dot0, 0.5,
                              steps_per_spin=96, out_dt=0.05, sigma=sigma)
    ref = nystrom_run(_dumbbell_acc(eps, sigma), [*z0, theta0], [*zdot0, theta_dot0],
                      0.5, h=TWO_PI / theta_dot0 / 96, out_dt=0.05)
    assert len(traj) == 11
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_array_equal(np.column_stack([traj.center, traj.angle]), ref.positions)
    np.testing.assert_array_equal(np.column_stack([traj.center_vel, traj.spin]), ref.velocities)


@pytest.mark.parametrize("sigma", [-1.0, 1.0])
def test_dumbbell_stage_equals_the_callable_acceleration_bit_for_bit(sigma):
    """_DUMBBELL's own output at seeded states is the callable's, bit for
    bit: over a short run a last-bit change to the spin line vanishes in a
    spin of 1/eps, at a single stage it does not."""
    rng = np.random.default_rng(29)
    stage = generated(STAGE, 3, _DUMBBELL)
    for eps in (0.02, 0.005):
        arm = math.sqrt(eps)
        acc = _dumbbell_acc(eps, sigma)
        for _ in range(200):
            r, phi = rng.uniform(0.5, 3.0), rng.uniform(0.0, TWO_PI)
            x = [r * math.cos(phi), r * math.sin(phi), rng.uniform(-10.0, 10.0)]
            v = rng.normal(size=3).tolist()
            assert stage(0.0, x, v, arm, -sigma, -(0.5 / arm), math.cos, math.sin) == acc(0.0, x, v), (eps, x)


@pytest.mark.parametrize("name", ["satellite", "callable"])
def test_static_run_equals_the_negated_float_grad_bit_for_bit(name, nystrom_run):
    """integrate_static steps minus the static part's float_grad, written
    into the Runge-Kutta-Nystrom loop: the precession run's point-mass
    control, and a CallableStatic whose float_grad is the default over its
    grad; both stop where in_region turns false, at the same sample."""
    if name == "satellite":
        static = get_scenario("spinning_satellite").potential.static
        x0, v0, t_end = [1.0, 0.0], [0.0, 1.3], 8.0
    else:
        static = CallableStatic(lambda x: 0.5 * float(x @ x), 2,
                                grad=lambda x: np.array([x[0], 4.0 * x[1]]),
                                in_region=lambda x: x[0] < 0.9)
        x0, v0, t_end = [0.3, -0.2], [1.0, 0.5], 3.0
    got = integrate_static(static, x0, v0, t_end, h=0.01, out_dt=0.05)
    ref = nystrom_run(lambda t, x, v: [-g for g in static.float_grad(x)], x0, v0, t_end,
                      h=0.01, out_dt=0.05, in_region=static.in_region)
    np.testing.assert_array_equal(got.times, ref.times)
    np.testing.assert_array_equal(got.positions, ref.positions)
    np.testing.assert_array_equal(got.velocities, ref.velocities)
    assert got.meta == ref.meta
    if name == "callable":
        assert "exited_region_at" in got.meta and len(got) < 61


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["z0", "zdot0", "theta0", "sigma"])
def test_dumbbell_rejects_a_non_finite_start_by_name(name, bad):
    """A NaN or infinite start or field strength gave a NaN trajectory and
    no error."""
    given = {"z0": np.array([1.0, 0.0]), "zdot0": np.array([0.0, 0.9]), "theta0": 0.0,
             "sigma": -1.0}
    given[name] = np.array([1.0, bad]) if name in ("z0", "zdot0") else bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        integrate_dumbbell(0.02, given["z0"], given["zdot0"], given["theta0"], 50.0, 0.2,
                           sigma=given["sigma"])


def test_dumbbell_rejects_slow_or_backward_spin():
    with pytest.raises(ValueError, match="below the minimum"):
        integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                           0.0, 50.0, 1.0, steps_per_spin=4)
    for theta_dot0 in (-50.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta_dot0 must be positive"):
            integrate_dumbbell(0.02, np.array([1.0, 0.0]), np.array([0.0, 0.9]),
                               0.0, theta_dot0, 1.0)


@pytest.mark.parametrize("eps", [0.0, -0.02, math.nan, math.inf])
def test_dumbbell_rejects_nonpositive_epsilon(eps):
    """A zero arm would divide by zero partway through the run, a negative
    eps has no square root, and a NaN or infinite one gives NaN orbits: all
    are refused up front, as assemble does."""
    with pytest.raises(ValueError, match=f"epsilon must be positive and finite, got {eps}"):
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


def test_table_text_is_the_per_float64_csv_writer_text(tmp_path):
    """Rows formatted from Python floats give the text that a csv.writer fed
    each np.float64 through f"{v:.17g}" gives, byte for byte."""
    import csv
    import io
    values = [-0.0, 5e-324, 1e300, 0.1, 1.0, -2.5e-17]
    columns = [np.array(values), np.array(values[::-1]).reshape(-1, 1)]
    header = ["a", "b"]
    _save_table(tmp_path / "t.csv", header, columns, {}, None)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(header)
    for row in np.column_stack(columns):
        w.writerow([f"{v:.17g}" for v in row])
    assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()
    assert want.getvalue().splitlines()[1] == "-0,-2.4999999999999999e-17"


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
