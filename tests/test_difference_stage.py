"""The full-flow stage of a value-only potential: its central difference
written into the generated Runge-Kutta-Nystrom loop (fields.stage_lines).

Each run is held bit for bit to the path the stage replaces, copied here
(phase_force over the default grad, fd_gradient on central_stencil's
points), stepped by the list-form Nystrom oracle of conftest.
A potential that gives its own grad keeps being called.  The spectra's
finite-difference Hessian reuses the value sample.
"""
import functools
import math
from collections import Counter

import numpy as np
import pytest

from oscavg import fields
from oscavg import (CallablePotential, CallableStatic, Order1Potential, assemble, fd_gradient,
                    fd_hessian, integrate_averaged, integrate_full)
from oscavg.dynamics import integrate_static
from oscavg.fields import TimePeriodicPotential
from oscavg.scenarios import get_scenario

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


# ---- the called path as it was: phase_force -> grad -> fd_gradient ----

def _old_fd_gradient(f, x):
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    h = math.nan if any(map(math.isnan, xs)) else _EPS ** (1.0 / 3.0) * (1.0 + max(map(abs, xs)))
    points = []
    for j in range(x.shape[0]):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        points += [xp, xm]
    values = np.asarray([f(p) for p in points], dtype=float)
    return ((values[0::2] - values[1::2]) / (2.0 * h)).T


def _old_phase_force(value, x, tau):
    return [-g for g in np.asarray(_old_fd_gradient(lambda y: value(y, tau), np.asarray(x, dtype=float)),
                                   dtype=float).tolist()]


def _old_float_grad(value, x):
    return np.asarray(_old_fd_gradient(value, np.asarray(x, dtype=float)), dtype=float).tolist()


def _old_full_acc(potential, eps):
    """The full flow's acceleration on the called path: scale * (minus the
    oscillating gradient, by differences unless it has float source) minus
    the static gradient, at the phase t / eps mod 1."""
    osc, static = potential.oscillating, potential.static

    def acc(t, x, v):
        if fields.source_of(osc) is not None:
            a = osc.phase_force(x, t / eps % 1.0)
        else:
            a = _old_phase_force(osc.value, x, t / eps % 1.0)
        if static is None:
            return a
        return [eps * o - s for o, s in zip(a, _old_float_grad(static.value, x))]

    return acc


def _value_only(dim, seed):
    """A seeded trig drive in dim coordinates given by value alone."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, dim))
    q = rng.standard_normal((dim, dim))

    def value(x, tau):
        ph = TWO_PI * np.asarray(tau, dtype=float)
        return (0.5 * float(x @ x) + np.cos(ph) * (a @ x + x @ q @ x)
                + np.sin(2.0 * ph) * float(np.sin(b @ x)))

    return CallablePotential(value, dim)


def _static_value_only(dim, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim)
    return CallableStatic(lambda x: 0.5 * float(x @ x) + float(c @ np.cos(x)), dim)


def _same(got, want):
    for name in ("times", "positions", "velocities"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _full_pair(nystrom_run, potential, eps, x0, v0, t_end=0.05, steps=96):
    got = integrate_full(potential, eps, x0, v0, t_end, steps_per_period=steps, out_dt=0.01)
    want = nystrom_run(_old_full_acc(potential, eps), x0, v0, t_end, h=eps / steps,
                       out_dt=0.01, in_region=potential.in_region)
    return got, want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_full_run_and_full_stage_equal_the_called_fd_path_bit_for_bit(dim, monkeypatch, nystrom_run):
    """integrate_full and full_stage() on a value-only potential: 2 dim
    value calls per stage and no call of fd_gradient (so of the default grad
    and phase_force), and the same floats as phase_force over fd_gradient."""
    monkeypatch.setattr(fields, "fd_gradient", lambda *args: pytest.fail("fd_gradient was called"))
    potential = _value_only(dim, 10 + dim)
    calls = Counter()
    value = potential.value
    potential.value = lambda x, tau: calls.update(["value"]) or value(x, tau)
    x0, v0 = np.linspace(0.3, -0.4, dim), np.linspace(0.1, 0.5, dim)
    got, want = _full_pair(nystrom_run, potential, 1 / 32, x0, v0)
    _same(got, want)
    stages = 3 * got.meta["substeps_per_out"] * (len(got) - 1)
    assert calls["value"] == 2 * 2 * dim * stages  # the run and its reference
    stage = assemble(potential, 1 / 32).full_stage()
    acc = _old_full_acc(potential, 1 / 32)
    rng = np.random.default_rng(dim)
    for t, x, v in zip(rng.uniform(0.0, 1.0, 20), rng.uniform(-2.0, 2.0, (20, dim)), rng.normal(size=(20, dim))):
        assert stage(t, x.tolist(), v.tolist()) == acc(t, x.tolist(), v.tolist())


def test_a_value_only_full_run_makes_twelve_value_calls_per_substep_in_2d():
    """Three Nystrom stages per substep, each 2 dim central-difference
    value calls: 12 in 2-d, where RK4's four stages made 16."""
    potential = _value_only(2, 7)
    calls = Counter()
    value = potential.value
    potential.value = lambda x, tau: calls.update(["value"]) or value(x, tau)
    traj = integrate_full(potential, 1 / 32, [0.3, -0.4], [0.1, 0.5], 0.05, out_dt=0.01)
    substeps = traj.meta["substeps_per_out"] * (len(traj) - 1)
    assert substeps > 0 and calls["value"] == 12 * substeps


def test_a_nan_coordinate_takes_a_nan_step():
    """At a NaN coordinate the step is NaN, as _fd_step has it, so every
    entry is NaN even where the value ignores that coordinate; an infinite
    coordinate gives an infinite step, as it did."""
    potential = CallablePotential(lambda x, tau: x[0] ** 2 * (1.0 + math.cos(TWO_PI * tau)), 2)
    stage = assemble(potential, 0.1).full_stage()
    for x in ([0.5, math.nan], [math.nan, 0.5], [1.0, -math.inf]):
        got = stage(0.3, x, [0.0, 0.0])
        with np.errstate(invalid="ignore"):
            want = _old_full_acc(potential, 0.1)(0.3, x, None)
        assert np.array_equal(got, want, equal_nan=True)
    assert all(map(math.isnan, stage(0.3, [0.5, math.nan], [0.0, 0.0])))
    static = CallableStatic(lambda x: x[0] ** 2, 2)
    split = assemble(Order1Potential(static, potential), 0.1).full_stage()
    assert all(map(math.isnan, split(0.3, [0.5, math.nan], [0.0, 0.0])))


def test_a_value_only_static_part_is_differenced_in_the_full_and_static_flows(nystrom_run):
    """Order1Potential with a value-only CallableStatic: integrate_full and
    integrate_static equal the called float_grad path bit for bit."""
    static = _static_value_only(2, 5)
    potential = Order1Potential(static, _value_only(2, 6))
    _same(*_full_pair(nystrom_run, potential, 1 / 16, [0.4, -0.3], [0.2, 0.1]))
    got = integrate_static(static, [0.4, -0.3], [0.2, 0.1], 0.5, h=0.01, out_dt=0.05)
    want = nystrom_run(lambda t, x, v: [-g for g in _old_float_grad(static.value, x)],
                       [0.4, -0.3], [0.2, 0.1], 0.5, h=0.01, out_dt=0.05)
    _same(got, want)


def test_a_value_only_static_part_in_the_ladder_kernel(nystrom_run):
    """A factored oscillating part with a value-only static part: the
    averaged flow's generated force differences the static part in its
    stage, bit for bit the float_grad it called, and so does the full flow."""
    osc = get_scenario("spinning_satellite").potential.oscillating
    static = _static_value_only(2, 8)
    called = CallableStatic(static.value, 2, grad=lambda x: _old_fd_gradient(static.value, x))
    runs = [integrate_averaged(assemble(Order1Potential(s, osc), 0.05, 16), [1.0, 0.1], [0.0, 0.9], 0.5,
                               h=0.01, out_dt=0.05) for s in (static, called)]
    _same(*runs)
    _same(*_full_pair(nystrom_run, Order1Potential(static, osc), 0.05, [1.0, 0.1], [0.0, 0.9]))


CALLS = Counter()  # spies on the derivatives the stage must still call


class _OwnGrad(TimePeriodicPotential):
    dim = 2

    def value(self, x, tau):
        return float(x @ x) * math.cos(TWO_PI * tau)

    def grad(self, x, tau):
        CALLS["grad"] += 1
        return 2.0 * x * math.cos(TWO_PI * tau)


class _OwnStaticGrad(CallableStatic):
    def grad(self, x):
        CALLS["grad"] += 1
        return super().grad(x)


def _traced_grad(potential):
    """grad wrapped and set on the instance, as the bench tracer sets it."""
    original = potential.grad

    @functools.wraps(original)
    def traced(*args, **kwargs):
        CALLS["grad"] += 1
        return original(*args, **kwargs)

    potential.grad = traced
    return potential


def _given_grad():
    pot = _value_only(2, 3)
    return CallablePotential(pot.value, 2, grad=lambda x, tau: CALLS.update(["grad"]) or fd_gradient(
        lambda y: pot.value(y, tau), x))


@pytest.mark.parametrize("case, method", [
    ("grad given", "grad"), ("subclass grad", "grad"), ("traced grad", "grad")])
def test_a_potential_with_its_own_derivative_is_still_called(case, method):
    make = {"grad given": _given_grad, "subclass grad": _OwnGrad,
            "traced grad": lambda: _traced_grad(_value_only(2, 3))}[case]
    CALLS.clear()
    traj = integrate_full(make(), 1 / 16, [0.4, 0.2], [0.0, 0.1], 0.02, out_dt=0.01)
    assert CALLS[method] == 3 * traj.meta["substeps_per_out"] * (len(traj) - 1)
    if case == "traced grad":  # the wrapped default grad: the same floats as the written stage
        _same(traj, integrate_full(_value_only(2, 3), 1 / 16, [0.4, 0.2], [0.0, 0.1], 0.02, out_dt=0.01))


@pytest.mark.parametrize("case", ["grad given", "subclass grad"])
def test_a_static_part_with_its_own_derivative_is_still_called(case):
    value = _static_value_only(2, 4).value
    if case == "grad given":
        static = CallableStatic(value, 2, grad=lambda x: CALLS.update(["grad"]) or fd_gradient(value, x))
    else:
        static = _OwnStaticGrad(value, 2)
    CALLS.clear()
    traj = integrate_static(static, [0.4, 0.2], [0.0, 0.1], 0.05, h=0.01, out_dt=0.01)
    assert CALLS["grad"] == 3 * (len(traj) - 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_phase_force_and_float_grad_are_the_stage_lines_bit_for_bit(dim):
    """phase_force and float_grad take fields.stage_lines as the full flow
    does: a value-only part's central difference, and a given grad called,
    each the floats of the old called path."""
    osc, static = _value_only(dim, 30 + dim), _static_value_only(dim, 40 + dim)
    given_osc = CallablePotential(osc.value, dim, grad=lambda x, tau: 2.0 * x * math.cos(TWO_PI * tau))
    given_static = CallableStatic(static.value, dim, grad=lambda x: np.sin(x))
    rng = np.random.default_rng(dim)
    for x, tau in zip(rng.uniform(-2.0, 2.0, (20, dim)).tolist(), rng.uniform(0.0, 1.0, 20).tolist()):
        assert osc.phase_force(x, tau) == _old_phase_force(osc.value, x, tau)
        assert static.float_grad(x) == _old_float_grad(static.value, x)
        assert given_osc.phase_force(x, tau) == [-g for g in (2.0 * np.array(x) * math.cos(TWO_PI * tau)).tolist()]
        assert given_static.float_grad(x) == np.sin(np.array(x)).tolist()


def _returning(result):
    return CallablePotential(lambda x, tau: result(x), 2)


@pytest.mark.parametrize("result", [
    lambda x: None, lambda x: np.array([float(x @ x)]), lambda x: 2.0 * x,
    lambda x: complex(float(x @ x), 1.0), lambda x: np.complex128(float(x @ x))],
    ids=["None", "shape (1,)", "shape (dim,)", "complex", "numpy complex"])
def test_a_value_that_is_not_one_real_number_is_named(result):
    """None gave a NaN trajectory and no error, a shape (1,) or (dim,) value
    "bad operand type for unary -: 'list'"; each now names value."""
    with pytest.raises(ValueError, match="potential.value returned .*, expected one real number"):
        integrate_full(_returning(result), 0.1, [0.5, 0.1], [0.0, 0.0], 0.02)
    with pytest.raises(ValueError, match="potential.value returned"):
        integrate_static(CallableStatic(result, 2), [0.5, 0.1], [0.0, 0.0], 0.02)


def test_values_of_other_real_types_are_read_as_the_float_array_read_them(nystrom_run):
    """A Python int, a float32 and a 0-d array give the floats that
    fd_gradient's float array gave."""
    for cast in (lambda f: np.float32(f), lambda f: np.array(f), lambda f: int(f * 1000)):
        def value(x, tau):
            return cast(float(x @ x) * (2.0 + math.cos(TWO_PI * tau)))

        _same(*_full_pair(nystrom_run, CallablePotential(value, 2), 1 / 16, [0.4, 0.2], [0.0, 0.1],
                          t_end=0.02))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spectra_samples_reuse_the_value_sample_as_the_hessian_centre(dim):
    """A value-only potential's spectrum costs 1 + 4 dim + 2 dim (dim - 1)
    value calls per point (the Hessian no longer calls the centre again), and
    its coefficients are those of the samples taken with that extra call."""
    potential = _value_only(dim, 20 + dim)
    value = potential.value
    calls = Counter()
    potential.value = lambda x, tau: calls.update(["value"]) or value(x, tau)
    points = [np.linspace(-0.5, 0.7, dim), np.linspace(0.2, 0.1, dim)]
    got = potential.spectrum(points, 16)
    assert calls["value"] == len(points) * (1 + 4 * dim + 2 * dim * (dim - 1))
    taus = np.arange(16) / 16
    samples = [np.concatenate([value(x, taus)[None], fd_gradient(lambda y: value(y, taus), x).T,
                               fd_hessian(lambda y: value(y, taus), x).reshape(16, -1).T])
               for x in points]
    assert np.array_equal(got, np.fft.rfft(np.array(samples), axis=-1, norm="forward"))
