"""Trajectory integration for the full, averaged and two-body systems.

Every flow goes through one fixed-step classical RK4 stepper,
integrate_second_order.  Output samples land on an exact grid i * out_dt (each
output interval restarts from t = i * out_dt and is cut into an integer number
of substeps), so trajectories from different systems can be compared sample by
sample without interpolation.

Inside the loop x, v and the accelerations are lists of floats, combined in
the order array arithmetic would use, so results are bit-identical to it at a
fraction of numpy's per-operation cost on 2- and 3-vectors.  The callbacks
still get float arrays: system.full_acceleration (the full flow's, at one
float phase, returned as a list of floats), system.force and in_region see
ndarrays.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .averaging import AveragedSystem, assemble
from .fields import central_stencil, stencil_jacobian

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


def _substeps(out_dt, h):
    """Substeps per output interval for a step of at most about h."""
    return max(1, int(math.ceil(out_dt / h - 1e-9)))


def integrate_second_order(acc, x0, v0, t_end, h=0.01, out_dt=0.01,
                           in_region=None) -> Trajectory:
    """Integrate xdd = acc(t, x, v) with RK4 steps of at most h.

    acc gets t and the lists of floats x and v, and returns the acceleration
    as a sequence of floats.  Samples land on the exact grid i * out_dt; if
    in_region(x) (given a float array) turns false at a sample, the run stops
    there and meta records exited_region_at.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    n_out = _out_grid(t_end, out_dt)
    n_sub = _substeps(out_dt, h)
    x = np.asarray(x0, dtype=float).tolist()
    v = np.asarray(v0, dtype=float).tolist()
    d = len(x)
    times = np.empty(n_out + 1)
    pos = np.empty((n_out + 1, d))
    vel = np.empty((n_out + 1, d))
    h = out_dt / n_sub
    hh = 0.5 * h
    h6 = h / 6.0
    meta = {"h": h, "out_dt": out_dt}
    kept = n_out + 1
    for i in range(n_out + 1):
        t = i * out_dt
        if in_region is not None and not in_region(np.array(x)):
            kept = i
            meta["exited_region_at"] = t
            break
        times[i] = t
        pos[i] = x
        vel[i] = v
        if i == n_out:
            break
        for s in range(n_sub):
            tt = t + s * h
            a1 = acc(tt, x, v)
            v2 = [q + hh * a for q, a in zip(v, a1)]
            x2 = [p + hh * q for p, q in zip(x, v)]
            a2 = acc(tt + hh, x2, v2)
            v3 = [q + hh * a for q, a in zip(v, a2)]
            x3 = [p + hh * q for p, q in zip(x, v2)]
            a3 = acc(tt + hh, x3, v3)
            v4 = [q + h * a for q, a in zip(v, a3)]
            x4 = [p + h * q for p, q in zip(x, v3)]
            a4 = acc(tt + h, x4, v4)
            x = [p + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                 for p, k1, k2, k3, k4 in zip(x, v, v2, v3, v4)]
            v = [q + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                 for q, k1, k2, k3, k4 in zip(v, a1, a2, a3, a4)]
    return Trajectory(times[:kept], pos[:kept], vel[:kept], meta)


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
    system = assemble(potential, epsilon)
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not potential.in_region(x0):
        raise ValueError("initial position is outside the potential's trusted region")

    eps = system.epsilon
    full_acceleration = system.full_acceleration

    def acc(t, x, v):
        return full_acceleration(np.array(x), (t / eps) % 1.0)

    h = eps / steps_per_period
    traj = integrate_second_order(acc, x0, v0, t_end, h=h, out_dt=out_dt,
                                  in_region=potential.in_region)
    # the full run is described by its steps per period, not by its step
    del traj.meta["h"]
    traj.meta.update(kind="full", epsilon=eps, steps_per_period=steps_per_period,
                     substeps_per_out=_substeps(out_dt, h))
    return traj


def integrate_averaged(system: AveragedSystem, x0, v0, t_end,
                       h=0.01, out_dt=0.01) -> Trajectory:
    """Integrate the averaged force law from a guiding-center initial state."""
    x0 = np.asarray(x0, dtype=float)
    if not system.in_region(x0):
        raise ValueError("initial position is outside the potential's trusted region")

    def acc(t, x, v):
        return np.asarray(system.force(np.array(x), np.array(v)), dtype=float).tolist()

    traj = integrate_second_order(acc, x0, v0, t_end, h=h, out_dt=out_dt,
                                  in_region=system.in_region)
    traj.meta.update(kind="averaged", epsilon=system.epsilon, order=system.order)
    return traj


def _guiding_centers(system: AveragedSystem, xs, vs, ts):
    """guiding_center on rows of states (xs[i], vs[i]) at times ts[i]; one
    potential.sample call covers every state and its central stencil."""
    eps = system.epsilon
    n, d = xs.shape
    m = 2 * d + 1
    stencils = [central_stencil(x) for x in xs]
    spectra = system.spectra([q for points, _ in stencils for q in points])
    taus = np.repeat((ts / eps) % 1.0, m)  # every stencil point at its state's phase
    v1, s2, a3 = (spectra.antiderivative_at(level, taus) for level in (1, 2, 3))
    grad, hess = slice(1, 1 + d), slice(1 + d, None)
    a_hess_stencil = a3[:, hess].reshape(n, m, d, d)
    a_hess = a_hess_stencil[:, 0]
    a_full = np.array([system.full_acceleration(x, tau)
                       for x, tau in zip(xs, taus[::m].tolist())])

    def times(mats, vecs):
        return np.einsum("nij,nj->ni", mats, vecs)

    p = 2 + system.shift
    ep, ep1 = eps ** p, eps ** (p + 1)
    X = xs + ep * s2[::m, grad] - 2.0 * ep1 * times(a_hess, vs)

    # d/dx of the map y -> A''(y, tau) v, applied to v (third-derivative level,
    # prefactor eps^(p+1) keeps the finite-difference noise far below the model error)
    av = np.einsum("nqij,nj->nqi", a_hess_stencil[:, 1:], vs)
    j_av_v = times(np.array([stencil_jacobian(row, h) for row, (_, h) in zip(av, stencils)]), vs)
    V = (vs + eps ** (p - 1) * v1[::m, grad] - ep * times(s2[::m, hess].reshape(n, d, d), vs)
         - 2.0 * ep1 * (j_av_v + times(a_hess, a_full)))

    # phase velocity of the first dropped corrector: its tau derivative is
    # the antiderivative of  U'' S' - 3 grad(A'' v) v - 3 A'' vdot  with vdot
    # the mean acceleration; j_av_v doubles as the middle term.  With
    # U = U0 + eps^s U1, the U0 shares of U'' S' and vdot land at eps^(3+s)
    # and the U1 shares at eps^(3+2s); the map keeps terms through eps^(3+s)
    drive = mean_acc = 0.0
    if system.shift == 0:
        drive = spectra.hess_s_grad_antiderivative_at(taus)[::m]
        mean_acc = -spectra.g_mean[::m]
    static = system.potential.static
    if static is not None:
        drive = drive + np.array([np.asarray(static.hess(x), dtype=float) @ a_grad
                                  for x, a_grad in zip(xs, a3[::m, grad])])
        mean_acc = mean_acc - np.array([np.asarray(static.grad(x), dtype=float) for x in xs])
    V = V - ep1 * (drive - 3.0 * j_av_v - 3.0 * times(a_hess, mean_acc))
    return X, V


def guiding_center(system: AveragedSystem, x, v, t):
    """Map a full-system state (x, v) at time t to its guiding-center state.

    The position is shifted by the tau-antiderivative fields at the current
    phase; the velocity is the exact time derivative of that shifted position
    along the full flow, minus the phase velocity of the first corrector the
    position map drops.  That last piece oscillates one eps order below the
    dropped position term, so without it the averaged run would start with a
    velocity offset large enough to dominate the model error at generic
    phases (pure-cosine drives hide it at tau = 0 but sine components do not).
    The result equals the matching row of transform_trajectory.
    """
    X, V = _guiding_centers(system, np.array([x], dtype=float), np.array([v], dtype=float),
                            np.array([t], dtype=float))
    return X[0], V[0]


def transform_trajectory(system: AveragedSystem, traj: Trajectory) -> Trajectory:
    """Apply the guiding-center map to every sample of a full-system
    trajectory, with one potential.sample call for all of them."""
    pos, vel = _guiding_centers(system, traj.positions, traj.velocities, traj.times)
    meta = dict(traj.meta)
    meta["kind"] = "guided"
    return Trajectory(traj.times.copy(), pos, vel, meta)


# ---- spinning two-body system (rigid dumbbell in an ambient field) ----

def integrate_dumbbell(epsilon, z0, zdot0, theta0, theta_dot0, t_end,
                       steps_per_spin=96, out_dt=0.05, sigma=-1.0) -> DumbbellTrajectory:
    """Integrate a rigid dumbbell (two unit masses, arm length sqrt(eps))
    orbiting in the field sigma / r, with spin angle theta.

    This is the parent system whose fast-spin limit the split-potential
    satellite scenario models.  Angular momentum 2 (z x zdot) + 2 eps thetadot
    is conserved in any central field, which the tests use as an invariant.
    It runs through the shared stepper as a second-order system in
    (z1, z2, theta).
    """
    if steps_per_spin < MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_spin={steps_per_spin} is below the minimum {MIN_STEPS_PER_PERIOD}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps = float(epsilon)
    arm = math.sqrt(eps)

    def acc(t, x, v):
        # the ends sit at z +- arm u, u = (cos theta, sin theta); gp and gm are
        # the gradients of sigma / r there, the center feels minus their mean
        # and the spin minus their difference along u' = (-sin theta, cos theta)
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

    # the fast spin period is 2 pi / theta_dot0
    if theta_dot0 <= 0:
        raise ValueError("theta_dot0 must be positive (fast forward spin)")
    x0 = [*np.asarray(z0, dtype=float).tolist(), float(theta0)]
    v0 = [*np.asarray(zdot0, dtype=float).tolist(), float(theta_dot0)]
    traj = integrate_second_order(acc, x0, v0, t_end, out_dt=out_dt,
                                  h=2.0 * math.pi / theta_dot0 / steps_per_spin)
    pos, vel = traj.positions, traj.velocities
    meta = {"kind": "dumbbell", "epsilon": eps, "sigma": sigma,
            "steps_per_spin": steps_per_spin, "out_dt": out_dt}
    return DumbbellTrajectory(traj.times, pos[:, 0:2], vel[:, 0:2], pos[:, 2], vel[:, 2], meta)


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


def file_digests(*paths) -> dict:
    """{file name: sha256 hex digest} of each file as it is on disk."""
    import hashlib  # loads OpenSSL; imported here so `import oscavg` does not pay for it
    digests = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
        digests[os.path.basename(path)] = h.hexdigest()
    return digests


def _save_table(csv_path, header, columns, meta, extra_meta) -> dict:
    """Write columns as a CSV plus a JSON sidecar holding the header, the row
    count and meta updated by extra_meta; return both files' digests."""
    csv_path = str(csv_path)
    rows = np.column_stack(columns)
    with atomic_write(csv_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" for v in row])
    meta = dict(meta)
    if extra_meta:
        meta.update(extra_meta)
    sidecar = _sidecar_path(csv_path)
    with atomic_write(sidecar) as fh:
        json.dump({"columns": header, "rows": int(rows.shape[0]), "meta": meta}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return file_digests(csv_path, sidecar)


def save_trajectory(traj: Trajectory, csv_path, extra_meta=None) -> dict:
    """Write a trajectory as CSV plus a JSON sidecar with the run metadata;
    return {file name: sha256} for the two files."""
    d = traj.dim
    header = ["t"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    return _save_table(csv_path, header, [traj.times, traj.positions, traj.velocities],
                       traj.meta, extra_meta)


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


def save_dumbbell(traj: DumbbellTrajectory, csv_path, extra_meta=None) -> dict:
    """Write a dumbbell run as CSV plus a JSON sidecar with the run metadata;
    return {file name: sha256} for the two files."""
    header = ["t", "z1", "z2", "zd1", "zd2", "theta", "thetadot"]
    return _save_table(csv_path, header, [traj.times, traj.center, traj.center_vel,
                                          traj.angle, traj.spin], traj.meta, extra_meta)
