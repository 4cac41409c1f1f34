"""Measurements on trajectories: convergence order, field checks, precession.

The convergence harness compares a transformed full trajectory against an
averaged run started from the transformed initial state, then fits the decay
of the sup-norm gap against eps on a log-log scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (Trajectory, integrate_averaged, integrate_full,
                       transform_trajectory)


@dataclass
class ConvergenceReport:
    eps_values: np.ndarray
    errors: np.ndarray
    slope: float
    pair_slopes: np.ndarray
    label: str = ""

    def lines(self):
        out = [f"convergence of {self.label or 'trajectory gap'}: fitted slope {self.slope:.3f}"]
        for i, (e, err) in enumerate(zip(self.eps_values, self.errors)):
            extra = f"  pair slope {self.pair_slopes[i - 1]:.3f}" if i > 0 else ""
            out.append(f"  eps={e:<12.6g} sup error={err:.6e}{extra}")
        return out


@dataclass
class PrecessionReport:
    advances: np.ndarray          # perihelion-to-perihelion angle advance, radians
    mean_advance: float
    direction: int                # +1 counterclockwise orbit, -1 clockwise
    perihelion_times: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_orbits(self):
        return self.advances.shape[0]


def fit_order(eps_values, errors, label="") -> ConvergenceReport:
    """Fit error ~ C eps^p; returns the fitted p and pairwise slopes."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_values.shape != errors.shape or eps_values.ndim != 1:
        raise ValueError("eps_values and errors must be 1-d arrays of equal length")
    if eps_values.shape[0] < 2:
        raise ValueError("need at least two ladder points to fit a slope")
    if np.unique(eps_values).shape[0] != eps_values.shape[0]:
        raise ValueError("ladder contains a repeated eps value")
    if np.any(eps_values <= 0):
        raise ValueError("eps values must be positive")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to fit a log-log slope "
                         "(an exactly zero error usually means the comparison is degenerate)")
    order = np.argsort(eps_values)[::-1]
    eps_values = eps_values[order]
    errors = errors[order]
    le, lr = np.log(eps_values), np.log(errors)
    slope = float(np.polyfit(le, lr, 1)[0])
    pair = np.diff(lr) / np.diff(le)
    return ConvergenceReport(eps_values, errors, slope, pair, label)


def position_gap(a: Trajectory, b: Trajectory):
    """Per-sample position distance between two runs on the same output grid."""
    if len(a) != len(b):
        raise ValueError(f"trajectory lengths differ: {len(a)} vs {len(b)} "
                         "(one run may have left the trusted region early)")
    if not np.allclose(a.times, b.times, rtol=0.0, atol=1e-9):
        raise ValueError("output grids differ; integrate both with the same out_dt")
    return np.linalg.norm(a.positions - b.positions, axis=1)


def hermite_positions(traj: Trajectory, t: float):
    """Cubic Hermite interpolation of position at time t (velocities are the slopes)."""
    times = traj.times
    if t <= times[0]:
        return traj.positions[0].copy()
    if t >= times[-1]:
        return traj.positions[-1].copy()
    i = int(np.searchsorted(times, t) - 1)
    h = times[i + 1] - times[i]
    s = (t - times[i]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s ** 2 * (3 - 2 * s)
    h11 = s ** 2 * (s - 1)
    return (h00 * traj.positions[i] + h10 * h * traj.velocities[i]
            + h01 * traj.positions[i + 1] + h11 * h * traj.velocities[i + 1])


def guiding_gap(scenario, eps_user, t_end=None, steps_per_period=None,
                h_avg=None, out_dt=None):
    """Sup-norm gap between the transformed full run and the averaged run.

    The averaged run starts from the transformed initial state, so the whole
    gap is model error, not initialization error.
    """
    t_end = scenario.t_end if t_end is None else t_end
    spp = scenario.steps_per_period if steps_per_period is None else steps_per_period
    h_avg = scenario.h_avg if h_avg is None else h_avg
    out_dt = scenario.out_dt if out_dt is None else out_dt

    system = scenario.build_system(eps_user)
    eps_int = scenario.internal_eps(eps_user)
    full = integrate_full(scenario.potential, eps_int, scenario.x0, scenario.v0,
                          t_end, steps_per_period=spp, out_dt=out_dt)
    if "exited_region_at" in full.meta:
        raise RuntimeError(f"{scenario.name} at eps={eps_user}: full run left the trusted "
                           f"region at t={full.meta['exited_region_at']}")
    guided = transform_trajectory(system, full)
    avg = integrate_averaged(system, guided.positions[0], guided.velocities[0],
                             t_end, h=h_avg, out_dt=out_dt)
    if "exited_region_at" in avg.meta:
        raise RuntimeError(f"{scenario.name} at eps={eps_user}: averaged run left the "
                           f"trusted region at t={avg.meta['exited_region_at']}")
    return float(np.max(position_gap(guided, avg)))


def guiding_convergence(scenario, eps_values=None, **kw) -> ConvergenceReport:
    """Run the guiding-center comparison over an eps ladder and fit the slope."""
    eps_values = scenario.default_eps if eps_values is None else list(eps_values)
    errors = [guiding_gap(scenario, e, **kw) for e in eps_values]
    return fit_order(eps_values, errors, label=f"{scenario.name} guiding-center gap")


def energy_drift(traj: Trajectory, energy_fn) -> float:
    vals = np.array([energy_fn(x, v) for x, v in zip(traj.positions, traj.velocities)])
    return float(np.max(np.abs(vals - vals[0])))


# ---- perihelion precession ----

def _refine_crossing(times, u, i):
    """Root of u(t) inside [times[i], times[i+1]] from a local cubic fit."""
    lo = max(0, i - 1)
    hi = min(len(times), i + 3)
    ts = times[lo:hi]
    us = u[lo:hi]
    t0 = times[i]
    coeffs = np.polyfit(ts - t0, us, min(3, len(ts) - 1))
    roots = np.roots(coeffs)
    window = (times[i] - t0 - 1e-12, times[i + 1] - t0 + 1e-12)
    best = None
    for r in roots:
        if abs(r.imag) < 1e-9 and window[0] <= r.real <= window[1]:
            if best is None or abs(r.real - 0.5 * (window[0] + window[1])) < abs(best - 0.5 * (window[0] + window[1])):
                best = r.real
    if best is None:
        # fall back to the secant root of the bracketing pair
        best = (times[i] - t0) - u[i] * (times[i + 1] - times[i]) / (u[i + 1] - u[i])
    return t0 + best


def measure_precession(times, positions, velocities, min_separation=0.0) -> PrecessionReport:
    """Per-orbit perihelion advance from a sampled planar orbit.

    Perihelion passages are zero crossings (minus to plus) of the radial
    velocity x . v; each is refined with a local cubic fit, and the perihelion
    direction is read from Hermite-interpolated positions.  min_separation
    drops spurious crossings caused by a fast wiggle riding on the orbit:
    crossings closer than that to the previous accepted one are ignored.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    r = np.linalg.norm(positions, axis=1)
    if np.max(r) - np.min(r) < 1e-5 * np.median(r):
        raise ValueError("orbit is circular to sampling accuracy; perihelion direction undefined")

    u = np.einsum("ij,ij->i", positions, velocities)
    raw = np.flatnonzero((u[:-1] < 0.0) & (u[1:] >= 0.0))
    crossings = []
    for i in raw:
        t_star = _refine_crossing(times, u, i)
        if crossings and t_star - crossings[-1] < min_separation:
            continue
        crossings.append(t_star)
    if len(crossings) < 3:
        raise ValueError(f"need at least 3 perihelion passages to measure precession, "
                         f"found {len(crossings)}")

    angles = np.unwrap(np.arctan2(positions[:, 1], positions[:, 0]))
    traj = Trajectory(times, positions, velocities)
    peri_angles = []
    for t_star in crossings:
        i = min(int(np.searchsorted(times, t_star)) - 1, len(times) - 2)
        i = max(i, 0)
        p = hermite_positions(traj, t_star)
        raw_angle = math.atan2(p[1], p[0])
        wrapped_i = math.atan2(positions[i, 1], positions[i, 0])
        delta = (raw_angle - wrapped_i + math.pi) % (2.0 * math.pi) - math.pi
        peri_angles.append(angles[i] + delta)
    peri_angles = np.array(peri_angles)

    direction = 1 if angles[-1] >= angles[0] else -1
    advances = np.diff(peri_angles) - 2.0 * math.pi * direction
    return PrecessionReport(advances=advances,
                            mean_advance=float(np.mean(advances)),
                            direction=direction,
                            perihelion_times=np.array(crossings))


# ---- field oracle checks ----

# the assembled field that each closed form in Scenario.closed_forms describes
_ASSEMBLED_FIELDS = {
    "mean_grad": lambda system, x: system.stack(x).g_mean,
    "w_value": lambda system, x: system.stack(x).w_value(),
    "w_grad": lambda system, x: system.stack(x).w_grad(),
    "b": lambda system, x: system.b_vector(x),
    "b_matrix": lambda system, x: system.b_matrix(x),
}


def closed_form_checks(scenario, eps_user, points, rtol=1e-6, atol=1e-12):
    """Compare assembled averaged fields against a scenario's closed forms.

    Returns a list of (check_name, passed, detail) triples, one per closed
    form per point batch (worst point reported).
    """
    system = scenario.build_system(eps_user)
    results = []
    for name, closed in scenario.closed_forms.items():
        try:
            assembled = _ASSEMBLED_FIELDS[name]
        except KeyError:
            raise KeyError(f"unknown closed form {name!r} in scenario {scenario.name}") from None
        worst = 0.0
        worst_pt = None
        for x in points:
            x = np.asarray(x, dtype=float)
            want = np.asarray(closed(x), dtype=float)
            got = np.asarray(assembled(system, x), dtype=float)
            scale = max(float(np.max(np.abs(want))), atol / rtol)
            err = float(np.max(np.abs(got - want))) / scale
            if err > worst:
                worst = err
                worst_pt = x
        passed = worst <= rtol
        detail = f"max rel err {worst:.3e} (tol {rtol:.1e}) at x={worst_pt}"
        results.append((f"{scenario.name}:{name}", passed, detail))
    return results
