"""Trajectory integration for the full, averaged and two-body systems.

Every flow goes through one fixed-step stepper, _integrate, over a (rows,
dim) state; a single run is its one-row case.  Its stage form chooses one
of two 4th-order templates (_interval): classical RK4 for a force that
reads v, Runge-Kutta-Nystrom (3 force calls per step, not 4) for one that
does not: the full flow, the dumbbell, the point-mass control.  Samples
land on an exact grid i * out_dt (each output interval restarts from
t = i * out_dt, cut into an integer number of substeps), so trajectories
from different systems compare sample by sample without interpolation.

Rows that share the time grid step in lockstep, one acceleration call per
stage for all of them.  The averaged flows of an eps ladder do
(integrate_averaged_ladder): they share t_end, h and out_dt, and their fields
depend on x alone, so each stage is one call for every live rung: of a
factored potential's generated ladder force (averaging.ladder_kernel), else
of ladder_force, one spectra build over every rung's point.  A row that
leaves its trusted region stops at that sample; the others step on.  The
full flows keep one row each, since their step follows eps.

Each output interval is one call of a function generated once per state
length and stage form (_interval, fields.generated), in local floats, the
rows end to end, in the order array arithmetic would use: bit-identical to
it (and each row to its own one-row run) at a fraction of numpy's cost on
2- and 3-vectors.  A given acceleration acc(t, x, v) is called on lists of
floats (_CALLED), and so is the ladder force (_LADDER); the dumbbell's
stage is written out (_DUMBBELL), and so are the full flow's
(AveragedSystem.full_form: the phase t / eps mod 1 and the potential's
phase lines once per stage time, its fields.stage_lines at each stage) and
the point-mass control's (integrate_static).  full_stage() is one stage of
the full flow's form.  _integrate refuses, for every flow, a start that is
not finite or is outside the trusted region.
"""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
import numpy as np

from .averaging import AveragedSystem, assemble, ladder_force, ladder_kernel
from .fields import (SOURCE_NAMES, central_stencil, checked_state, generated, stage_lines,
                     stencil_jacobian)

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
    if not out_dt > 0:
        raise ValueError(f"out_dt must be positive, got {out_dt}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    n_out = int(math.ceil(t_end / out_dt - 1e-9))
    if n_out < 1:
        raise ValueError(f"t_end={t_end} is shorter than one output interval {out_dt}")
    return n_out


def _substeps(out_dt, h):
    """Substeps per output interval for a step of at most about h."""
    return max(1, int(math.ceil(out_dt / h - 1e-9)))


# One output interval, n_sub substeps from time t, of classical RK4 or of
# the Runge-Kutta-Nystrom method for a force that ignores v (c = 0, 1/2, 1;
# Hairer, Norsett & Wanner, Solving ODEs I, II.14): x and v in local floats,
# each element the list form's expression, so bit-identical to it; a Nystrom
# position x + h (v + h (...)) rounds once at x's scale, as RK4's does.  A
# stage form fills in {args}, "@phase p T" (stage time T's phase p, if the
# form has phase lines) and "@stage a p x v" (a_{i} from x_{i}, v_{i}).  Its
# args come as one sequence: spread into the call they would make a tuple
# per call, and CPython 3.11 pools 20-item tuples (up to 2000) without reuse.
_RK4_INTERVAL = """\
def interval(t, x, v, n_sub, h, hh, h6, args):
    {args}, = args
    <x_{i}>, = x
    <v_{i}>, = v
    for s in range(n_sub):
        tt = t + s * h
        @phase p1 tt
        @stage a1 p1 x v
        v2_{i} = v_{i} + hh * a1_{i}
        x2_{i} = x_{i} + hh * v_{i}
        @phase p2 tt + hh
        @stage a2 p2 x2 v2
        v3_{i} = v_{i} + hh * a2_{i}
        x3_{i} = x_{i} + hh * v2_{i}
        @stage a3 p2 x3 v3
        v4_{i} = v_{i} + h * a3_{i}
        x4_{i} = x_{i} + h * v3_{i}
        @phase p4 tt + h
        @stage a4 p4 x4 v4
        x_{i} = x_{i} + h6 * (v_{i} + 2.0 * (v2_{i} + v3_{i}) + v4_{i})
        v_{i} = v_{i} + h6 * (a1_{i} + 2.0 * (a2_{i} + a3_{i}) + a4_{i})
    return [<x_{i}>], [<v_{i}>]
"""

_RKN_INTERVAL = """\
def interval(t, x, v, n_sub, h, hh, h6, args):
    {args}, = args
    <x_{i}>, = x
    <v_{i}>, = v
    hq = 0.5 * hh
    for s in range(n_sub):
        tt = t + s * h
        @phase p1 tt
        @stage a1 p1 x v
        x2_{i} = x_{i} + hh * (v_{i} + hq * a1_{i})
        @phase p2 tt + hh
        @stage a2 p2 x2 v
        x3_{i} = x_{i} + h * (v_{i} + hh * a2_{i})
        @phase p3 tt + h
        @stage a3 p3 x3 v
        x_{i} = x_{i} + h * (v_{i} + h6 * (a1_{i} + 2.0 * a2_{i}))
        v_{i} = v_{i} + h6 * (a1_{i} + 4.0 * a2_{i} + a3_{i})
    return [<x_{i}>], [<v_{i}>]
"""

# Stage forms: (args, phase lines, stage lines), with {t} the stage time and
# {p}, {a}, {x}, {v} the names of an @phase or @stage line.  _CALLED calls
# acc(t, x, v) as integrate_second_order is given it.
_CALLED = ("stage", ("{p} = {t}",), ("<{a}_{i}>, = stage({p}, [<{x}_{i}>], [<{v}_{i}>])",))

# The dumbbell on (z1, z2, theta): gq and gm are the gradients of sigma / r at
# its ends z +- arm u, u = (cos theta, sin theta); the center feels minus their
# mean, the spin minus their difference along u' = (-sin theta, cos theta).
# nsigma = -sigma and nspin = -(0.5 / arm) come folded: negation is exact, so no bit changes.
_DUMBBELL = ("arm, nsigma, nspin, cos, sin", (), (
    "c = cos({x}_2)", "sn = sin({x}_2)",
    "q1, q2 = {x}_0 + arm * c, {x}_1 + arm * sn", "m1, m2 = {x}_0 - arm * c, {x}_1 - arm * sn",
    "rq = (q1 * q1 + q2 * q2) ** 1.5", "rm = (m1 * m1 + m2 * m2) ** 1.5",
    "gq1, gq2 = nsigma * q1 / rq, nsigma * q2 / rq", "gm1, gm2 = nsigma * m1 / rm, nsigma * m2 / rm",
    "{a}_0 = -0.5 * (gq1 + gm1)", "{a}_1 = -0.5 * (gq2 + gm2)",
    "{a}_2 = nspin * ((gq2 - gm2) * c - (gq1 - gm1) * sn)"))

# A factored potential's averaged flow: averaging.ladder_kernel's force and args
_LADDER = ("force, weights, pieces, array, static, fallback", (), (
    "<{a}_{i}>, = force([<{x}_{i}>], [<{v}_{i}>], weights, pieces, array, static, fallback)",))


def _interval(n, form):
    """interval(t, x, v, n_sub, h, hh, h6, args) -> (x, v) on lists of n
    floats in the stage form `form`: _RK4_INTERVAL if a stage line reads {v},
    else _RKN_INTERVAL, both cheaper on a few floats than the list form."""
    reads_v = any("{v}" in line for line in form[2])
    return generated(_RK4_INTERVAL if reads_v else _RKN_INTERVAL, n, form)


def integrate_second_order(acc, x0, v0, t_end, h=0.01, out_dt=0.01,
                           in_region=None):
    """Integrate xdd = acc(t, x, v), which may read v, with RK4 steps of at most h.

    x0 and v0 are one state of dim floats, or a (rows, dim) batch of states
    that share the time grid and step in lockstep: one acceleration call per
    RK stage serves every row.  acc(t, x, v) gets t and the lists of floats
    x and v, the live rows' states end to end, and returns their
    accelerations the same way.  Samples land on the exact grid
    i * out_dt, and the run ends at the first at or past t_end (t_end 0.0625
    at out_dt 0.01 ends at 0.07).  If in_region(x) (given one row's position
    as a float array) turns false at a sample, that row stops there and its
    meta records exited_region_at; the other rows step on.  Returns a
    Trajectory, or for a batch a list of them, one per row.
    """
    form = (_CALLED, [acc])
    return _integrate(lambda rows: form, x0, v0, t_end, h, out_dt, in_region)


def _integrate(stage_of, x0, v0, t_end, h, out_dt, in_region):
    """integrate_second_order with the stage given as stage_of(rows) ->
    (form, args) for the live rows: one _interval call per output interval,
    after refusing a start that is not finite or is outside in_region."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, value in (("x0", x0), ("v0", v0)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    if in_region is not None and not all(map(in_region, x0.reshape(-1, x0.shape[-1]))):
        raise ValueError("initial position is outside the potential's trusted region")
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    n_out = _out_grid(t_end, out_dt)
    n_sub = _substeps(out_dt, h)
    batch = x0.ndim == 2
    live = list(range(x0.shape[0] if batch else 1))
    x = x0.ravel().tolist()
    v = v0.ravel().tolist()
    d = len(x) // len(live)
    times = np.empty(n_out + 1)
    pos = [np.empty((n_out + 1, d)) for _ in live]
    vel = [np.empty((n_out + 1, d)) for _ in live]
    h = out_dt / n_sub
    hh = 0.5 * h
    h6 = h / 6.0
    metas = [{"h": h, "out_dt": out_dt} for _ in live]
    kept = [n_out + 1 for _ in live]
    form, args = stage_of(live)
    interval = _interval(len(x), form)
    for i in range(n_out + 1):
        t = i * out_dt
        if in_region is not None:
            inside = [in_region(np.array(x[j * d:(j + 1) * d])) for j in range(len(live))]
            if not all(inside):
                for r, ok in zip(live, inside):
                    if not ok:
                        kept[r] = i
                        metas[r]["exited_region_at"] = t
                live = [r for r, ok in zip(live, inside) if ok]
                x = [q for j, ok in enumerate(inside) if ok for q in x[j * d:(j + 1) * d]]
                v = [q for j, ok in enumerate(inside) if ok for q in v[j * d:(j + 1) * d]]
                if not live:
                    break
                form, args = stage_of(live)
                interval = _interval(len(x), form)
        times[i] = t
        for j, r in enumerate(live):
            pos[r][i] = x[j * d:(j + 1) * d]
            vel[r][i] = v[j * d:(j + 1) * d]
        if i == n_out:
            break
        x, v = interval(t, x, v, n_sub, h, hh, h6, args)
    runs = [Trajectory(times[:k], p[:k], q[:k], meta)
            for k, p, q, meta in zip(kept, pos, vel, metas)]
    return runs if batch else runs[0]


def integrate_full(potential, epsilon, x0, v0, t_end,
                   steps_per_period=96, out_dt=0.01) -> Trajectory:
    """Integrate the oscillating system xdd = -grad U(x, t/eps).

    The force ignores v, so each substep is a 3-stage Runge-Kutta-Nystrom step.
    steps_per_period controls the substep size relative to the fast period;
    fewer than MIN_STEPS_PER_PERIOD steps per oscillation is refused because
    the wiggle phase would be integrated too coarsely to compare against the
    averaged model.
    """
    if not steps_per_period >= MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_period={steps_per_period} is below the minimum {MIN_STEPS_PER_PERIOD}")
    system = assemble(potential, epsilon)
    eps = system.epsilon
    h = eps / steps_per_period
    form = system.full_form()
    traj = _integrate(lambda rows: form, x0, v0, t_end, h, out_dt, potential.in_region)
    # the full run is described by its steps per period, not by its step
    del traj.meta["h"]
    traj.meta.update(kind="full", epsilon=eps, steps_per_period=steps_per_period,
                     substeps_per_out=_substeps(out_dt, h))
    return traj


def integrate_averaged(system: AveragedSystem, x0, v0, t_end,
                       h=0.01, out_dt=0.01) -> Trajectory:
    """Integrate the averaged force law from a guiding-center initial state:
    the one-row case of integrate_averaged_ladder."""
    return integrate_averaged_ladder([system], [x0], [v0], t_end, h=h, out_dt=out_dt)[0]


def integrate_averaged_ladder(systems, x0s, v0s, t_end, h=0.01, out_dt=0.01) -> list:
    """Integrate the averaged flows of a ladder in lockstep, one Trajectory
    per system, system i from (x0s[i], v0s[i]).

    The systems share their potential and n_tau (one scenario at several
    eps), so each RK stage is one ladder force call over every live rung
    (averaging.ladder_kernel, or ladder_force for a potential that is not
    factored).  A rung that leaves the trusted region stops at that sample
    while the others step on, so each rung's run is bit-identical to its own
    integrate_averaged.  A state that is not dim floats is refused.  A
    duck-typed system that brings only force(x, v) and in_region(x) is
    stepped through its own force calls; a static potential alone goes
    through integrate_static.
    """
    if not systems:
        return []
    first = systems[0]
    if isinstance(first, AveragedSystem):
        if any(s.potential is not first.potential or s.n_tau != first.n_tau for s in systems):
            raise ValueError("a lockstep ladder needs one potential and one n_tau")
        x0s, v0s = ([checked_state(name, q, first.dim) for q in states]
                    for name, states in (("x0", x0s), ("v0", v0s)))

        def stage_of(rows):
            rungs = [systems[r] for r in rows]
            found = ladder_kernel(rungs)
            return (_LADDER, found) if found else (_CALLED, [lambda t, x, v: ladder_force(rungs, x, v)])
    else:
        d = np.shape(x0s)[1]

        def stage_of(rows):
            def row_forces(t, x, v):
                return [a for j, r in enumerate(rows)
                        for a in np.asarray(systems[r].force(np.array(x[j * d:(j + 1) * d]),
                                                             np.array(v[j * d:(j + 1) * d])),
                                            dtype=float).tolist()]
            return _CALLED, [row_forces]

    runs = _integrate(stage_of, x0s, v0s, t_end, h, out_dt, first.in_region)
    for system, traj in zip(systems, runs):
        traj.meta.update(kind="averaged", epsilon=system.epsilon, order=system.order)
    return runs


def integrate_static(static, x0, v0, t_end, h=0.01, out_dt=0.01) -> Trajectory:
    """Integrate xdd = -grad S(x) for a static potential S, such as a split
    potential's static part, until S.in_region turns false: Runge-Kutta-Nystrom
    steps of lambda t, x, v: [-g for g in S.float_grad(x)], bit for bit."""
    names = dict(SOURCE_NAMES, static=static)
    form = ((", ".join(names), (), (*stage_lines(static, "static", "{a}g")[1], "{a}_{i} = -{a}g_{i}")),
            list(names.values()))
    return _integrate(lambda rows: form, x0, v0, t_end, h, out_dt, static.in_region)


def _guiding_centers(system: AveragedSystem, xs, vs, ts):
    """guiding_center on rows of states (xs[i], vs[i]) at times ts[i]; one
    potential.spectrum call covers every state and its central stencil."""
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
    stage = system.full_stage()
    a_full = np.array([stage(t, x, v) for t, x, v in zip(ts.tolist(), xs.tolist(), vs.tolist())])

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
    trajectory, with one potential.spectrum call for all of them."""
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
    (z1, z2, theta), its stage written into the Nystrom loop (_DUMBBELL).
    """
    if not steps_per_spin >= MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_spin={steps_per_spin} is below the minimum {MIN_STEPS_PER_PERIOD}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < theta_dot0 < math.inf:
        raise ValueError(f"theta_dot0 must be positive and finite (fast forward spin), got {theta_dot0}")
    for name, value in (("z0", z0), ("zdot0", zdot0), ("theta0", theta0), ("sigma", sigma)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    x0 = [*np.asarray(z0, dtype=float).tolist(), float(theta0)]
    v0 = [*np.asarray(zdot0, dtype=float).tolist(), float(theta_dot0)]
    arm = math.sqrt(epsilon)
    form = (_DUMBBELL, [arm, -sigma, -(0.5 / arm), math.cos, math.sin])
    h = 2.0 * math.pi / theta_dot0 / steps_per_spin  # the fast spin period is 2 pi / theta_dot0
    traj = _integrate(lambda rows: form, x0, v0, t_end, h, out_dt, None)
    pos, vel = traj.positions, traj.velocities
    meta = {"kind": "dumbbell", "epsilon": float(epsilon), "sigma": sigma,
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


def write_json(path, payload) -> dict:
    """Write payload as JSON at path, atomically, with sorted keys, indent 2
    and a trailing newline, numpy arrays and scalars as their Python values;
    return {file name: sha256} for it."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return file_digests(path)


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _save_table(csv_path, header, columns, meta, extra_meta) -> dict:
    """Write columns as a CSV plus a JSON sidecar holding the header, the row
    count and meta updated by extra_meta; return both files' digests."""
    csv_path = str(csv_path)
    rows = np.column_stack(columns)
    with atomic_write(csv_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" for v in row] for row in rows.tolist())
    meta = dict(meta)
    if extra_meta:
        meta.update(extra_meta)
    sidecar = {"columns": header, "rows": int(rows.shape[0]), "meta": meta}
    return {**file_digests(csv_path), **write_json(_sidecar_path(csv_path), sidecar)}


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
