"""Trajectory integration for the full, averaged and two-body systems.

All integrators use fixed-step classical RK4.  Output samples land on an exact
grid i * out_dt (each output interval restarts from t = i * out_dt and is cut
into an integer number of substeps), so trajectories from different systems can
be compared sample by sample without interpolation.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .averaging import AveragedSystem
from .fields import Order1Potential, central_stencil, stencil_jacobian

MIN_STEPS_PER_PERIOD = 16


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.times.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]


@dataclass
class DumbbellTrajectory:
    times: np.ndarray
    center: np.ndarray
    center_vel: np.ndarray
    angle: np.ndarray
    spin: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.times.shape[0]


def _out_grid(t_end, out_dt):
    if out_dt <= 0:
        raise ValueError(f"out_dt must be positive, got {out_dt}")
    n_out = int(math.ceil(t_end / out_dt - 1e-9))
    if n_out < 1:
        raise ValueError(f"t_end={t_end} is shorter than one output interval {out_dt}")
    return n_out


def _rk4_second_order(acc, x0, v0, n_out, out_dt, n_sub, in_region=None):
    """March xdd = acc(t, x, v) on the exact output grid i * out_dt."""
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    d = x.shape[0]
    times = np.empty(n_out + 1)
    pos = np.empty((n_out + 1, d))
    vel = np.empty((n_out + 1, d))
    h = out_dt / n_sub
    exited = None
    kept = n_out + 1
    for i in range(n_out + 1):
        t = i * out_dt
        if in_region is not None and not in_region(x):
            kept = i
            exited = t
            break
        times[i] = t
        pos[i] = x
        vel[i] = v
        if i == n_out:
            break
        hh = 0.5 * h
        h6 = h / 6.0
        for s in range(n_sub):
            tt = t + s * h
            a1 = acc(tt, x, v)
            v2 = v + hh * a1
            x2 = x + hh * v
            a2 = acc(tt + hh, x2, v2)
            v3 = v + hh * a2
            x3 = x + hh * v2
            a3 = acc(tt + hh, x3, v3)
            v4 = v + h * a3
            x4 = x + h * v3
            a4 = acc(tt + h, x4, v4)
            x = x + h6 * (v + 2.0 * (v2 + v3) + v4)
            v = v + h6 * (a1 + 2.0 * (a2 + a3) + a4)
    return times[:kept], pos[:kept], vel[:kept], exited


def integrate_full(potential, epsilon, x0, v0, t_end,
                   steps_per_period=96, out_dt=0.01) -> Trajectory:
    """Integrate the oscillating system xdd = -grad U(x, t/eps).

    steps_per_period controls the substep size relative to the fast period;
    fewer than MIN_STEPS_PER_PERIOD steps per oscillation is refused because
    the wiggle phase would be integrated too coarsely to compare against the
    averaged model.
    """
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_period={steps_per_period} is below the minimum {MIN_STEPS_PER_PERIOD}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not potential.in_region(x0):
        raise ValueError("initial position is outside the potential's trusted region")

    eps = float(epsilon)
    if isinstance(potential, Order1Potential):
        def acc(t, x, v):
            return -potential.grad(x, (t / eps) % 1.0, eps)
    else:
        def acc(t, x, v):
            return -np.asarray(potential.grad(x, (t / eps) % 1.0), dtype=float)

    n_out = _out_grid(t_end, out_dt)
    h_nom = eps / steps_per_period
    n_sub = max(1, int(math.ceil(out_dt / h_nom - 1e-9)))
    times, pos, vel, exited = _rk4_second_order(acc, x0, v0, n_out, out_dt, n_sub,
                                                in_region=potential.in_region)
    meta = {"kind": "full", "epsilon": eps, "steps_per_period": steps_per_period,
            "out_dt": out_dt, "substeps_per_out": n_sub}
    if exited is not None:
        meta["exited_region_at"] = exited
    return Trajectory(times, pos, vel, meta)


def integrate_averaged(system: AveragedSystem, x0, v0, t_end,
                       h=0.01, out_dt=0.01) -> Trajectory:
    """Integrate the averaged force law from a guiding-center initial state."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not system.in_region(x0):
        raise ValueError("initial position is outside the potential's trusted region")

    def acc(t, x, v):
        return system.force(x, v)

    n_out = _out_grid(t_end, out_dt)
    n_sub = max(1, int(math.ceil(out_dt / h - 1e-9)))
    times, pos, vel, exited = _rk4_second_order(acc, x0, v0, n_out, out_dt, n_sub,
                                                in_region=system.in_region)
    meta = {"kind": "averaged", "epsilon": system.epsilon, "h": out_dt / n_sub,
            "out_dt": out_dt, "order": system.order}
    if exited is not None:
        meta["exited_region_at"] = exited
    return Trajectory(times, pos, vel, meta)


def guiding_center(system: AveragedSystem, x, v, t):
    """Map a full-system state (x, v) at time t to its guiding-center state.

    The position is shifted by the tau-antiderivative fields at the current
    phase; the velocity is the exact time derivative of that shifted position
    along the full flow, minus the phase velocity of the first corrector the
    position map drops.  That last piece oscillates one eps order below the
    dropped position term, so without it the averaged run would start with a
    velocity offset large enough to dominate the model error at generic
    phases (pure-cosine drives hide it at tau = 0 but sine components do not).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    eps = system.epsilon
    tau = (t / eps) % 1.0
    # x and the stencil for the Jacobian of A''(., tau) v, sampled in one sweep
    points, h = central_stencil(x)
    spectra = system.spectra(points)
    st = spectra.stack(0)

    p = 2 if system.order == "standard" else 3
    ep = eps ** p
    ep1 = eps ** (p + 1)

    s_grad = st.s_grad_at(tau)
    s_hess = st.s_hess_at(tau)
    a_hess = st.a_hess_at(tau)
    v_grad = st.v_grad_at(tau)
    a_full = system.full_acceleration(x, tau)

    X = x + ep * s_grad - 2.0 * ep1 * (a_hess @ v)

    # d/dx of the map y -> A''(y, tau) v, applied to v (third-derivative level,
    # prefactor eps^(p+1) keeps the finite-difference noise far below the model error)
    j_av = stencil_jacobian([spectra.stack(q).a_hess_at(tau) @ v
                             for q in range(1, len(points))], h)
    V = (v + eps ** (p - 1) * v_grad - ep * (s_hess @ v)
         - 2.0 * ep1 * (j_av @ v + a_hess @ a_full))

    # phase velocity of the first dropped corrector: its tau derivative is
    # the antiderivative of  U'' S' - 3 grad(A'' v) v - 3 A'' vdot  with vdot
    # the mean acceleration; j_av @ v doubles as the middle term
    if system.order == "standard":
        drive = st.hess_s_grad_antideriv_at(tau)
        mean_acc = -st.g_mean
    else:
        static_hess = np.asarray(system.potential.static.hess(x), dtype=float)
        drive = static_hess @ st.a_grad_at(tau)
        mean_acc = -np.asarray(system.potential.static.grad(x), dtype=float)
    V = V - ep1 * (drive - 3.0 * (j_av @ v) - 3.0 * (a_hess @ mean_acc))
    return X, V


def transform_trajectory(system: AveragedSystem, traj: Trajectory) -> Trajectory:
    """Apply the guiding-center map to every sample of a full-system trajectory."""
    n = len(traj)
    pos = np.empty_like(traj.positions)
    vel = np.empty_like(traj.velocities)
    for i in range(n):
        pos[i], vel[i] = guiding_center(system, traj.positions[i], traj.velocities[i], traj.times[i])
    meta = dict(traj.meta)
    meta["kind"] = "guided"
    return Trajectory(traj.times.copy(), pos, vel, meta)


# ---- spinning two-body system (rigid dumbbell in an ambient field) ----

def _point_mass_grad(y, sigma):
    """grad of sigma / |y| for a unit point mass."""
    r2 = float(y @ y)
    return -sigma * y / r2 ** 1.5


def integrate_dumbbell(epsilon, z0, zdot0, theta0, theta_dot0, t_end,
                       steps_per_spin=96, out_dt=0.05, sigma=-1.0) -> DumbbellTrajectory:
    """Integrate a rigid dumbbell (two unit masses, arm length sqrt(eps))
    orbiting in the field sigma / r, with spin angle theta.

    This is the parent system whose fast-spin limit the split-potential
    satellite scenario models.  Angular momentum 2 (z x zdot) + 2 eps thetadot
    is conserved in any central field, which the tests use as an invariant.
    """
    if steps_per_spin < MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_spin={steps_per_spin} is below the minimum {MIN_STEPS_PER_PERIOD}")
    eps = float(epsilon)
    arm = math.sqrt(eps)
    z0 = np.asarray(z0, dtype=float)
    zdot0 = np.asarray(zdot0, dtype=float)

    def rhs(t, y):
        z = y[0:2]
        zd = y[2:4]
        th = y[4]
        thd = y[5]
        u = np.array([math.cos(th), math.sin(th)])
        up = np.array([-math.sin(th), math.cos(th)])
        gp = _point_mass_grad(z + arm * u, sigma)
        gm = _point_mass_grad(z - arm * u, sigma)
        zdd = -0.5 * (gp + gm)
        thdd = -(0.5 / arm) * float((gp - gm) @ up)
        return np.concatenate([zd, zdd, [thd, thdd]])

    # the fast spin period is 2 pi / theta_dot0
    if theta_dot0 <= 0:
        raise ValueError("theta_dot0 must be positive (fast forward spin)")
    h_nom = 2.0 * math.pi / theta_dot0 / steps_per_spin
    n_out = _out_grid(t_end, out_dt)
    n_sub = max(1, int(math.ceil(out_dt / h_nom - 1e-9)))
    h = out_dt / n_sub

    y = np.concatenate([z0, zdot0, [float(theta0), float(theta_dot0)]])
    times = np.empty(n_out + 1)
    states = np.empty((n_out + 1, 6))
    for i in range(n_out + 1):
        t = i * out_dt
        times[i] = t
        states[i] = y
        if i == n_out:
            break
        for s in range(n_sub):
            tt = t + s * h
            k1 = rhs(tt, y)
            k2 = rhs(tt + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(tt + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(tt + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    meta = {"kind": "dumbbell", "epsilon": eps, "sigma": sigma,
            "steps_per_spin": steps_per_spin, "out_dt": out_dt}
    return DumbbellTrajectory(times, states[:, 0:2], states[:, 2:4],
                              states[:, 4], states[:, 5], meta)


# ---- serialization ----

@contextmanager
def atomic_write(path, newline=None):
    """Open a text file for writing that appears at path only once complete.

    Writes go to a temporary file in the same directory, which is moved onto
    path when the block ends without error and removed when it raises, so an
    interrupted write never leaves a file that looks complete.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_rows(path, header, rows):
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" for v in row])


def save_trajectory(traj: Trajectory, csv_path, extra_meta=None):
    """Write a trajectory as CSV plus a JSON sidecar with the run metadata."""
    csv_path = str(csv_path)
    d = traj.dim
    header = ["t"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    rows = np.column_stack([traj.times, traj.positions, traj.velocities])
    _write_rows(csv_path, header, rows)
    meta = dict(traj.meta)
    if extra_meta:
        meta.update(extra_meta)
    sidecar = {"columns": header, "rows": int(len(traj)), "meta": meta}
    with atomic_write(_sidecar_path(csv_path)) as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(csv_path):
    csv_path = str(csv_path)
    if csv_path.endswith(".csv"):
        return csv_path[:-4] + ".json"
    return csv_path + ".json"


def load_trajectory(csv_path) -> Trajectory:
    csv_path = str(csv_path)
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    names = data.dtype.names
    d = (len(names) - 1) // 2
    times = np.atleast_1d(data["t"])
    pos = np.column_stack([np.atleast_1d(data[f"x{i + 1}"]) for i in range(d)])
    vel = np.column_stack([np.atleast_1d(data[f"v{i + 1}"]) for i in range(d)])
    meta = {}
    try:
        with open(_sidecar_path(csv_path)) as fh:
            meta = json.load(fh).get("meta", {})
    except FileNotFoundError:
        pass
    return Trajectory(times, pos, vel, meta)


def save_dumbbell(traj: DumbbellTrajectory, csv_path, extra_meta=None):
    csv_path = str(csv_path)
    header = ["t", "z1", "z2", "zd1", "zd2", "theta", "thetadot"]
    rows = np.column_stack([traj.times, traj.center, traj.center_vel,
                            traj.angle, traj.spin])
    _write_rows(csv_path, header, rows)
    meta = dict(traj.meta)
    if extra_meta:
        meta.update(extra_meta)
    with atomic_write(_sidecar_path(csv_path)) as fh:
        json.dump({"columns": header, "rows": int(len(traj)), "meta": meta}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
