"""Command line for the averaged-dynamics toolkit.

Verbs:
    list                     show the scenario catalog
    run <scenario>           integrate the full and averaged systems over an
                             eps ladder, write CSV trajectories + JSON reports
                             + a manifest with file digests
    validate <suite>         run a named check suite (invariants, oracles,
                             convergence, or all); exit 0 iff every check
                             passes; write a machine-readable summary JSON

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
# position_gap and transform_trajectory are unused here (compare calls them),
# but bench/tracer.py patches them by name on this module as well as on analysis
from .analysis import (closed_form_checks, compare, energy_drift, fit_order,
                       guiding_convergence, measure_precession, position_gap)
from .averaging import assemble
from .dynamics import (atomic_write, integrate_averaged, integrate_dumbbell,
                       integrate_full, integrate_second_order, save_dumbbell,
                       save_trajectory, transform_trajectory)
from .fields import FourierSeries, TimePeriodicPotential, fd_gradient, fd_hessian
from .scenarios import (CATALOG, ScenarioUsageError, get_scenario, load_config,
                        parse_number)

TWO_PI = 2.0 * math.pi

# short aliases accepted anywhere a scenario name is
ALIASES = {
    "saddle": "rotating_saddle",
    "quartic": "quartic_drive",
    "kapitza": "kapitza_pendulum",
    "wave": "rotating_wave",
    "satellite": "spinning_satellite",
}


class UsageError(Exception):
    pass


def _resolve_name(name: str) -> str:
    name = ALIASES.get(name, name)
    if name not in CATALOG:
        candidates = sorted(set(CATALOG) | set(ALIASES))
        close = difflib.get_close_matches(name, candidates, n=3, cutoff=0.4)
        hint = f" (did you mean: {', '.join(close)}?)" if close else ""
        raise UsageError(f"unknown scenario {name!r}{hint}; valid names: "
                         + ", ".join(sorted(CATALOG)))
    return name


def _get_scenario(name: str, sign=None):
    name = _resolve_name(name)
    kwargs = {}
    if sign is not None:
        if name != "spinning_satellite":
            raise UsageError("--sign only applies to the spinning_satellite scenario")
        kwargs["sigma"] = float(sign)
    return get_scenario(name, **kwargs)


def _parse_eps_list(text: str, flag: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(parse_number(part))
        except ValueError as e:
            raise UsageError(f"{flag}: {e}")
    if not out:
        raise UsageError(f"{flag}: no eps values given")
    if any(e <= 0 for e in out):
        raise UsageError(f"{flag}: eps values must be positive")
    return out


def _out_dir(args) -> str:
    d = args.out_dir or os.environ.get("OSCAVG_OUT_DIR") or "oscavg_out"
    os.makedirs(d, exist_ok=True)
    return d


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, payload: dict):
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_jsonable)
        f.write("\n")


def _runtime_versions() -> dict:
    """The interpreter and numpy versions a report was made with."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---- run ----

# run settings that compare takes per rung; unset ones come from the scenario
RUNG_OVERRIDES = ("t_end", "steps_per_period", "h_avg", "out_dt", "n_tau")


def _ladder_job(payload: dict) -> dict:
    """One eps rung: compare, then write and digest the three CSVs.

    Module-level and driven by a plain dict so a process pool can ship it to a
    worker; everything the job needs is rebuilt from names and numbers.
    """
    sc = get_scenario(payload["scenario"], **payload["scenario_kwargs"])
    eps = payload["eps"]
    rung = compare(sc, eps, **payload["overrides"])
    prefix = os.path.join(payload["out_dir"], f"{sc.name}_eps{eps:.10g}")
    files = {}
    for kind in ("full", "guided", "averaged"):
        save_trajectory(getattr(rung, kind), f"{prefix}_{kind}.csv",
                        extra_meta={"scenario": sc.name, "eps_user": eps})
        for ext in (".csv", ".json"):
            p = f"{prefix}_{kind}{ext}"
            files[os.path.basename(p)] = _sha256(p)
    note = None if rung.gap is not None else "a run left the trusted region; gap not comparable"
    return {"eps": eps, "gap": rung.gap, "files": files, "note": note}


def _run_precession(sc, orbits: int, out_dir: str, files: dict) -> dict:
    cfg = sc.extras.get("precession")
    if cfg is None:
        raise UsageError(f"--orbits: scenario {sc.name!r} has no precession comparison; "
                         "use the spinning_satellite scenario")
    eps = cfg["eps"]
    sigma = sc.extras["sigma"]
    z0 = np.asarray(cfg["z0"], dtype=float)
    sep = cfg["min_separation"]

    t_dumb = (orbits + 2) * cfg["dumbbell_period"]
    dumb = integrate_dumbbell(eps, z0, np.asarray(cfg["dumbbell_v0"], dtype=float),
                              0.0, 1.0 / eps, t_dumb, steps_per_spin=96, out_dt=0.05,
                              sigma=sigma)
    p = os.path.join(out_dir, f"{sc.name}_dumbbell.csv")
    save_dumbbell(dumb, p, extra_meta={"scenario": sc.name, "eps_user": eps})
    rep_d = measure_precession(dumb.times, dumb.center, dumb.center_vel, min_separation=sep)

    t_avg = (orbits + 2) * cfg["averaged_period"]
    system = sc.build_system(eps)
    v0 = np.asarray(cfg["averaged_v0"], dtype=float)
    avg = integrate_averaged(system, z0, v0, t_avg, h=0.02, out_dt=0.05)
    q = os.path.join(out_dir, f"{sc.name}_model_orbit.csv")
    save_trajectory(avg, q, extra_meta={"scenario": sc.name, "eps_user": eps})
    rep_a = measure_precession(avg.times, avg.positions, avg.velocities, min_separation=sep)

    def kepler(t, x, v):
        # the point mass alone, with no tidal term: it must not precess
        x1, x2 = x
        r3 = (x1 * x1 + x2 * x2) ** 1.5
        return [2.0 * sigma * x1 / r3, 2.0 * sigma * x2 / r3]

    ctrl = integrate_second_order(kepler, z0, v0, t_avg, h=0.01, out_dt=0.05,
                                  in_region=lambda x: float(x @ x) > 1e-12)
    rep_k = measure_precession(ctrl.times, ctrl.positions, ctrl.velocities, min_separation=sep)

    for path in (p, q):
        files[os.path.basename(path)] = _sha256(path)
        sidecar = path[:-4] + ".json"
        files[os.path.basename(sidecar)] = _sha256(sidecar)

    def _rep(r):
        return {"n_orbits": r.n_orbits, "mean_advance": r.mean_advance,
                "direction": r.direction, "advances": r.advances}

    payload = {
        "eps_user": eps,
        "requested_orbits": orbits,
        "dumbbell": _rep(rep_d),
        "averaged_model": _rep(rep_a),
        "kepler_control": _rep(rep_k),
        "same_sign": bool(np.sign(rep_d.mean_advance) == np.sign(rep_a.mean_advance)),
    }
    rp = os.path.join(out_dir, f"{sc.name}_precession.json")
    _write_json(rp, payload)
    files[os.path.basename(rp)] = _sha256(rp)
    return payload


def _worker_count(jobs: int, rungs: int) -> int:
    """Worker processes for a ladder: as asked, but no more than rungs or cores."""
    return min(jobs, rungs, os.cpu_count() or 1)


def cmd_run(args) -> int:
    t0 = time.time()
    out_dir = _out_dir(args)

    cfg = {}
    if args.config:
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as e:
            raise UsageError(f"--config: {e}")
    name = args.scenario or cfg.get("scenario")
    if not name:
        raise UsageError("no scenario given (positional argument or config key 'scenario')")
    sign = args.sign if args.sign is not None else cfg.get("sign")
    sc = _get_scenario(name, sign)

    if args.eps is not None and args.eps_ladder is not None:
        raise UsageError("--eps and --eps-ladder are mutually exclusive")
    if args.eps is not None:
        eps_values = _parse_eps_list(args.eps, "--eps")
    elif args.eps_ladder is not None:
        eps_values = _parse_eps_list(args.eps_ladder, "--eps-ladder")
    elif "eps" in cfg:
        eps_values = list(np.atleast_1d(cfg["eps"]))
    else:
        eps_values = list(sc.default_eps)

    def pick(key, default):
        flag = getattr(args, key)
        return flag if flag is not None else cfg.get(key, default)

    resolved = {"scenario": sc.name, "eps": eps_values, "jobs": pick("jobs", 1),
                "out_dir": out_dir, **{k: pick(k, getattr(sc, k)) for k in RUNG_OVERRIDES}}
    if sign is not None:
        resolved["sign"] = float(sign)
    for key in ("t_end", "h_avg", "out_dt", "steps_per_period", "n_tau", "jobs"):
        if key in ("steps_per_period", "n_tau", "jobs"):
            resolved[key] = int(resolved[key])
        if resolved[key] <= 0:
            raise UsageError(f"--{key.replace('_', '-')}: must be positive, got {resolved[key]}")

    scenario_kwargs = {"sigma": float(sign)} if sign is not None else {}
    payloads = [{"scenario": sc.name, "scenario_kwargs": scenario_kwargs, "eps": e,
                 "overrides": {k: resolved[k] for k in RUNG_OVERRIDES}, "out_dir": out_dir}
                for e in eps_values]

    workers = _worker_count(resolved["jobs"], len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ladder_job, payloads))
    else:
        results = [_ladder_job(p) for p in payloads]

    files = {}
    for r in results:
        files.update(r["files"])

    reports = {}
    usable = [(r["eps"], r["gap"]) for r in results if r["gap"] is not None]
    for r in results:
        note = f"  ({r['note']})" if r["note"] else ""
        gap = "n/a" if r["gap"] is None else f"{r['gap']:.6e}"
        print(f"eps={r['eps']:<12.6g} sup gap={gap}{note}")
    if len(usable) >= 2:
        rep = fit_order([e for e, _ in usable], [g for _, g in usable],
                        label=f"{sc.name} guiding-center gap")
        reports["convergence"] = {
            "label": rep.label,
            "eps": rep.eps_values, "errors": rep.errors,
            "slope": rep.slope, "pair_slopes": rep.pair_slopes,
        }
        cp = os.path.join(out_dir, f"{sc.name}_convergence.json")
        _write_json(cp, reports["convergence"])
        files[os.path.basename(cp)] = _sha256(cp)
        print(f"fitted log-log slope: {rep.slope:.3f}")

    if args.orbits is not None:
        if args.orbits < 3:
            raise UsageError("--orbits: need at least 3 orbits to measure precession")
        pre = _run_precession(sc, args.orbits, out_dir, files)
        reports["precession"] = pre
        print(f"precession: dumbbell {pre['dumbbell']['mean_advance']:+.5f} rad/orbit, "
              f"model {pre['averaged_model']['mean_advance']:+.5f} rad/orbit, "
              f"same sign: {pre['same_sign']}")

    manifest = {
        "command": "run",
        "version": __version__,
        **_runtime_versions(),
        "scenario": sc.name,
        "config": resolved,
        "reports": sorted(reports),
        "files": files,
        "wall_seconds": round(time.time() - t0, 3),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote {len(files)} files + manifest.json to {out_dir}")
    return 0


# ---- validate ----

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


class _HarmonicWell(TimePeriodicPotential):
    dim = 2

    def value(self, x, tau):
        v = 0.5 * float(np.dot(x, x))
        return v * np.ones_like(np.asarray(tau, dtype=float)) if np.ndim(tau) else v

    def grad(self, x, tau):
        x = np.asarray(x, dtype=float)
        if np.ndim(tau):
            return np.broadcast_to(x, (np.asarray(tau).shape[0], 2)).copy()
        return x.copy()


def _check_energy_drift(rng, quick):
    # autonomous full run in a static well: the integrator itself must hold energy
    pot = _HarmonicWell()
    t_end = 5.0 if quick else 20.0
    traj = integrate_full(pot, 1.0, np.array([1.0, 0.0]), np.array([0.0, 0.7]),
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
    from .scenarios import SeparableDrivePotential, _separable_closed

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
    entries.append((third, _separable_closed(0.7, avg_v2, u_grad, u_hess, 1)))

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
            # independent curl stencil, deliberately not the step b_matrix uses
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
    return True, "all bundled closed forms match the assembled fields (rtol 1e-6)"


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
            ("mean", TWO_PI * st.u_mean, 1.0 / (2.0 * r ** 3)),
            ("fluct_sq", TWO_PI ** 4 * st.vv_mean(), 117.0 / (32.0 * r ** 8)),
        ]
        b = TWO_PI ** 5 * st.b_vector()
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


def cmd_validate(args) -> int:
    t0 = time.time()
    out_dir = _out_dir(args)
    if args.suite == "all":
        names = ["invariants", "oracles", "convergence"]
    else:
        names = [args.suite]

    seed = args.seed if args.seed is not None else 0
    checks = []
    all_ok = True
    for suite in names:
        for check_name, fn in SUITES[suite]:
            rng = np.random.default_rng(seed)  # each check gets the same seed: reproducible in isolation
            t1 = time.time()
            try:
                ok, detail = fn(rng, args.quick)
            except Exception as e:  # a crashed check is a failed check, not a crashed suite
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            dt = time.time() - t1
            checks.append({"suite": suite, "name": check_name, "passed": bool(ok),
                           "detail": detail, "seconds": round(dt, 3)})
            all_ok = all_ok and ok
            print(f"{'PASS' if ok else 'FAIL'}  {check_name:<28s} {detail}  [{dt:.1f}s]")

    summary = {
        "command": "validate",
        "version": __version__,
        **_runtime_versions(),
        "suite": args.suite,
        "quick": bool(args.quick),
        "seed": seed,
        "passed": bool(all_ok),
        "n_passed": sum(1 for c in checks if c["passed"]),
        "n_failed": sum(1 for c in checks if not c["passed"]),
        "checks": checks,
        "wall_seconds": round(time.time() - t0, 3),
    }
    path = os.path.join(out_dir, f"validate_{args.suite}.json")
    _write_json(path, summary)
    n = len(checks)
    print(f"{summary['n_passed']}/{n} checks passed; summary written to {path}")
    return 0 if all_ok else 1


# ---- list ----

def cmd_list(args) -> int:
    print(f"{'name':<20s} {'dim':>3s}  {'split':<14s} {'default eps ladder':<34s} description")
    for name in sorted(CATALOG):
        if name == "custom":
            print(f"{'custom':<20s} {'-':>3s}  {'-':<14s} {'-':<34s} "
                  "user potential, library only (oscavg.scenarios.custom_scenario)")
            continue
        sc = get_scenario(name)
        split = "slow + eps" if sc.eps_scale and hasattr(sc.potential, "static") else "standard"
        ladder = ",".join(f"{e:.8g}" for e in sc.default_eps)
        print(f"{name:<20s} {sc.dim:>3d}  {split:<14s} {ladder:<34s} {sc.description}")
    return 0


# ---- entry point ----

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oscavg",
        description="Averaged dynamics for particles in rapidly oscillating potentials.")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario catalog")

    rp = sub.add_parser("run", help="integrate a scenario over an eps ladder and write results")
    rp.add_argument("scenario", nargs="?", help="scenario name (see 'oscavg list')")
    rp.add_argument("--eps", help="single eps value (accepts fractions like 1/128)")
    rp.add_argument("--eps-ladder", help="comma-separated eps values, e.g. 1/64,1/128,1/256")
    rp.add_argument("--t-end", type=float, help="integration horizon (default: scenario)")
    rp.add_argument("--steps-per-period", type=int, help="full-run substeps per fast period")
    rp.add_argument("--h-avg", type=float, help="averaged-run step size")
    rp.add_argument("--out-dt", type=float, help="output sample spacing")
    rp.add_argument("--n-tau", type=int, help="tau samples per field stack")
    rp.add_argument("--orbits", type=int, help="also run the dumbbell precession comparison "
                                               "over this many orbits (satellite only)")
    rp.add_argument("--sign", choices=["+1", "-1", "1"], help="ambient field sign (satellite only)")
    rp.add_argument("--config", help="key-value config file; flags override file values")
    rp.add_argument("--jobs", type=int, help="parallel worker processes for ladder runs "
                                             "(at most one per rung and per core)")

    vp = sub.add_parser("validate", help="run a check suite and write a summary JSON")
    vp.add_argument("suite", choices=["invariants", "oracles", "convergence", "all"])
    vp.add_argument("--quick", action="store_true",
                    help="shorter ladders and fewer points, with slope bands widened by 0.2")
    vp.add_argument("--seed", type=int, help="seed for randomized check points (recorded)")

    for p in (rp, vp):
        p.add_argument("--out-dir", help="output directory (default: $OSCAVG_OUT_DIR or ./oscavg_out)")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "validate":
            return cmd_validate(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ScenarioUsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
