"""Command line for the averaged-dynamics toolkit.

Verbs:
    list                     show the scenario catalog
    run <scenario>           integrate the full and averaged systems over an
                             eps ladder, write CSV trajectories + JSON reports
                             + a manifest with file digests
    validate <suite>         run a check suite of oscavg.checks (invariants,
                             oracles, convergence, or all); exit 0 iff every
                             check passes; write validate_<suite>.json

The command line only: numerics live in the library, the check suites in
oscavg.checks.  Every writer returns {file name: sha256} for what it wrote;
the manifest's files map is their union.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
# integrate_full, position_gap and transform_trajectory are unused here
# (guided_run and compare_ladder call them), but bench/tracer.py patches them
# by name on this module as well as on analysis
from .analysis import compare_ladder, fit_order, guided_run, measure_precession, position_gap
from .checks import SUITES
from .dynamics import (MIN_STEPS_PER_PERIOD, atomic_write, file_digests, integrate_averaged,
                       integrate_dumbbell, integrate_full, integrate_second_order,
                       save_dumbbell, save_trajectory, transform_trajectory)
from .fields import MIN_N_TAU
from .scenarios import CATALOG, ScenarioUsageError, get_scenario

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
    """The scenario and the keyword arguments that build it (a sign becomes
    the satellite's sigma), so a ladder worker can rebuild the same one."""
    name = _resolve_name(name)
    kwargs = {}
    if sign is not None:
        if name != "spinning_satellite":
            raise UsageError("--sign only applies to the spinning_satellite scenario")
        kwargs["sigma"] = float(sign)
    return get_scenario(name, **kwargs), kwargs


def _checked_eps(values, where: str):
    if not values:
        raise UsageError(f"{where}: no eps values given")
    listed = ",".join(f"{e:g}" for e in values)
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{where}: eps values must be finite, got {listed}")
    if any(e <= 0 for e in values):
        raise UsageError(f"{where}: eps values must be positive")
    if len(set(values)) < len(values):  # the ladder's slope fit needs distinct rungs
        raise UsageError(f"{where}: eps values must be distinct, got {listed}")
    return values


def _parse_eps_list(text: str):
    try:
        values = _parse_numbers(text)
    except ValueError as e:
        raise UsageError(f"--eps: {e}")
    return _checked_eps(values, "--eps")


def _out_dir(args, cfg: dict) -> str:
    """--out-dir, else the config's out_dir, else $OSCAVG_OUT_DIR, else ./oscavg_out.
    Only resolved here: a command creates it once its inputs have passed."""
    return args.out_dir or cfg.get("out_dir") or os.environ.get("OSCAVG_OUT_DIR") or "oscavg_out"


def _write_json(path: str, payload: dict) -> dict:
    """Write payload as a JSON report; return {file name: sha256} for it."""
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_jsonable)
        f.write("\n")
    return file_digests(path)


def _runtime_versions() -> dict:
    """The interpreter and numpy versions a report was made with."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---- run settings and config files ----

# the run settings, each a run flag and a config key: name -> (type, least
# value or None for positive and finite, help); unset ones come from the
# scenario, jobs excepted (1), and all but jobs go to compare_ladder
RUN_SETTINGS = {
    "t_end": (float, None, "integration horizon: a run ends at the first output "
                           "sample at or past it (default: scenario)"),
    "steps_per_period": (int, MIN_STEPS_PER_PERIOD, "full-run substeps per fast period"),
    "h_avg": (float, None, "averaged-run step size"),
    "out_dt": (float, None, "output sample spacing"),
    "n_tau": (int, MIN_N_TAU, "tau samples per field stack"),
    "jobs": (int, 1, "parallel worker processes for ladder runs "
                     "(at most one per rung and per core)"),
}


def parse_number(text: str) -> float:
    """Parse a float, allowing fractions like 1/64.  A zero denominator is a
    ValueError, as any other text that names no number."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {text!r}") from None
    return float(text)


def _parse_numbers(text: str) -> list:
    return [parse_number(part) for part in text.split(",") if part.strip()]


# each config key's parser: the run settings' (floats take fractions) and four more
_CONFIG_PARSERS = {"scenario": str, "eps": _parse_numbers, "sign": parse_number, "out_dir": str,
                   **{key: parse_number if kind is float else int
                      for key, (kind, _, _) in RUN_SETTINGS.items()}}


def parse_config(text: str) -> dict:
    """{key: value} from flat `key = value` lines, each key once; `#` starts a comment."""
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key = value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if key in seen:
            raise ValueError(f"config key {key!r} given twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        out[key] = _CONFIG_PARSERS[key](val)
    return out


# ---- run ----


def _save_rung(traj, out_dir, sc, eps, kind) -> dict:
    """Write one rung's trajectory of the given kind; return its digests."""
    return save_trajectory(traj, os.path.join(out_dir, f"{sc.name}_eps{eps:.10g}_{kind}.csv"),
                           extra_meta={"scenario": sc.name, "eps_user": eps})


def _ladder_job(payload: dict) -> dict:
    """One eps rung's full run and guiding centres, written and digested.

    Module-level and driven by a plain dict so a process pool can ship it to a
    worker; everything the job needs is rebuilt from names and numbers.
    """
    sc = get_scenario(payload["scenario"], **payload["scenario_kwargs"])
    eps = payload["eps"]
    full, guided = guided_run(sc, eps, **payload["settings"])
    files = {**_save_rung(full, payload["out_dir"], sc, eps, "full"),
             **_save_rung(guided, payload["out_dir"], sc, eps, "guided")}
    return {"runs": (full, guided), "files": files}


def _run_precession(sc, orbits: int, out_dir: str, files: dict) -> dict:
    cfg = sc.extras["precession"]
    eps = cfg["eps"]
    sigma = sc.extras["sigma"]
    z0 = np.asarray(cfg["z0"], dtype=float)
    sep = cfg["min_separation"]

    t_dumb = (orbits + 2) * cfg["dumbbell_period"]
    dumb = integrate_dumbbell(eps, z0, np.asarray(cfg["dumbbell_v0"], dtype=float),
                              0.0, 1.0 / eps, t_dumb, steps_per_spin=96, out_dt=0.05,
                              sigma=sigma)
    files.update(save_dumbbell(dumb, os.path.join(out_dir, f"{sc.name}_dumbbell.csv"),
                               extra_meta={"scenario": sc.name, "eps_user": eps}))
    rep_d = measure_precession(dumb.times, dumb.center, dumb.center_vel, min_separation=sep)

    t_avg = (orbits + 2) * cfg["averaged_period"]
    system = sc.build_system(eps)
    v0 = np.asarray(cfg["averaged_v0"], dtype=float)
    avg = integrate_averaged(system, z0, v0, t_avg, h=0.02, out_dt=0.05)
    files.update(save_trajectory(avg, os.path.join(out_dir, f"{sc.name}_model_orbit.csv"),
                                 extra_meta={"scenario": sc.name, "eps_user": eps}))
    rep_a = measure_precession(avg.times, avg.positions, avg.velocities, min_separation=sep)

    # the satellite's static part alone, the point mass with no tidal term:
    # it must not precess
    static = sc.potential.static
    ctrl = integrate_second_order(lambda t, x, v: [-g for g in static.float_grad(x)],
                                  z0, v0, t_avg, h=0.01, out_dt=0.05,
                                  in_region=static.in_region)
    rep_k = measure_precession(ctrl.times, ctrl.positions, ctrl.velocities, min_separation=sep)

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
    files.update(_write_json(os.path.join(out_dir, f"{sc.name}_precession.json"), payload))
    return payload


def _worker_count(jobs: int, rungs: int) -> int:
    """Worker processes for a ladder: as asked, but no more than rungs or cores."""
    return min(jobs, rungs, os.cpu_count() or 1)


def cmd_run(args) -> int:
    t0 = time.time()
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except (OSError, ValueError) as e:
            raise UsageError(f"--config: {e}")
    # every input is checked before any work, and before the output directory
    # exists, so a usage error leaves nothing behind
    out_dir = _out_dir(args, cfg)
    name = args.scenario or cfg.get("scenario")
    if not name:
        raise UsageError("no scenario given (positional argument or config key 'scenario')")
    # the flag's choices hold it to +-1; a config value gets the same rule here
    sign = args.sign if args.sign is not None else cfg.get("sign")
    if sign is not None and float(sign) not in (1.0, -1.0):
        raise UsageError(f"config key 'sign': must be +1 or -1, got {sign:g}")
    sc, scenario_kwargs = _get_scenario(name, sign)

    if args.eps is not None:
        eps_values = _parse_eps_list(args.eps)
    elif "eps" in cfg:
        eps_values = _checked_eps(list(np.atleast_1d(cfg["eps"])), "config key 'eps'")
    else:
        eps_values = list(sc.default_eps)

    resolved = {"scenario": sc.name, "eps": eps_values, "out_dir": out_dir}
    if sign is not None:
        resolved["sign"] = float(sign)
    # each run setting is its flag, else its config key, else the scenario's
    # value (jobs: 1), held to its least value
    for key, (_, least, _) in RUN_SETTINGS.items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, 1 if key == "jobs" else getattr(sc, key))
        flag = "--" + key.replace("_", "-")
        if least is not None:
            if value < least:
                raise UsageError(f"{flag}: must be at least {least}, got {value}")
        elif not math.isfinite(value):
            raise UsageError(f"{flag}: must be finite, got {value}")
        elif value <= 0:
            raise UsageError(f"{flag}: must be positive, got {value}")
        resolved[key] = value
    try:  # a grid that aliases the potential's harmonics is refused by its spectrum
        sc.potential.oscillating.spectrum([np.asarray(sc.x0, dtype=float)], resolved["n_tau"])
    except ValueError as e:
        raise UsageError(f"--n-tau: {e}")
    if args.orbits is not None:
        if "precession" not in sc.extras:
            raise UsageError(f"--orbits: scenario {sc.name!r} has no precession comparison; "
                             "use the spinning_satellite scenario")
        if args.orbits < 3:
            raise UsageError("--orbits: need at least 3 orbits to measure precession")
        if sc.extras["sigma"] > 0:  # the repulsive satellite has no bound orbit
            raise UsageError("--orbits: the precession comparison needs the attracting "
                             "satellite (sign -1), got sign +1")
    os.makedirs(out_dir, exist_ok=True)

    # the full runs and their transforms go to the workers, rung by rung; the
    # averaged runs then step in lockstep here
    rung_settings = {k: resolved[k] for k in RUN_SETTINGS if k != "jobs"}
    settings = {k: v for k, v in rung_settings.items() if k != "h_avg"}
    payloads = [{"scenario": sc.name, "scenario_kwargs": scenario_kwargs, "eps": e,
                 "settings": settings, "out_dir": out_dir} for e in eps_values]
    workers = _worker_count(resolved["jobs"], len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = list(pool.map(_ladder_job, payloads))
    else:
        jobs = [_ladder_job(p) for p in payloads]
    rungs = compare_ladder(sc, eps_values, runs=[job["runs"] for job in jobs],
                           **rung_settings)

    files = {}
    reports = {}
    for e, job, rung in zip(eps_values, jobs, rungs):
        files.update(job["files"])
        files.update(_save_rung(rung.averaged, out_dir, sc, e, "averaged"))
        gap, note = ((f"{rung.gap:.6e}", "") if rung.gap is not None else
                     ("n/a", "  (a run left the trusted region; gap not comparable)"))
        print(f"eps={e:<12.6g} sup gap={gap}{note}")
    usable = [(e, rung.gap) for e, rung in zip(eps_values, rungs) if rung.gap is not None]
    if len(usable) >= 2:
        rep = fit_order([e for e, _ in usable], [g for _, g in usable],
                        label=f"{sc.name} guiding-center gap")
        reports["convergence"] = {
            "label": rep.label,
            "eps": rep.eps_values, "errors": rep.errors,
            "slope": rep.slope, "pair_slopes": rep.pair_slopes,
        }
        files.update(_write_json(os.path.join(out_dir, f"{sc.name}_convergence.json"),
                                 reports["convergence"]))
        print(f"fitted log-log slope: {rep.slope:.3f}")

    if args.orbits is not None:
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

def cmd_validate(args) -> int:
    t0 = time.time()
    seed = args.seed if args.seed is not None else 0
    if seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"--seed: must be non-negative, got {seed}")
    out_dir = _out_dir(args, {})
    os.makedirs(out_dir, exist_ok=True)
    names = list(SUITES) if args.suite == "all" else [args.suite]

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
    rows = []
    for name in sorted(CATALOG):
        if name == "custom":
            rows.append((name, "-", "-", "-",
                         "user potential, library only (oscavg.scenarios.custom_scenario)"))
            continue
        sc = get_scenario(name)
        rows.append((name, sc.dim, "slow + eps" if sc.potential.shift else "standard",
                     ",".join(f"{e:.8g}" for e in sc.default_eps), sc.description))
    # the ladder column is as wide as its longest entry, so descriptions line up
    width = max(len("default eps ladder"), *(len(row[3]) for row in rows))
    print(f"{'name':<20s} {'dim':>3s}  {'split':<14s} {'default eps ladder':<{width}s} description")
    for name, dim, split, ladder, description in rows:
        print(f"{name:<20s} {dim!s:>3s}  {split:<14s} {ladder:<{width}s} {description}")
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
    rp.add_argument("--eps", help="one eps value or a comma-separated ladder, fractions "
                                  "accepted, e.g. 0.02 or 1/64,1/128,1/256")
    for key, (kind, _, help_text) in RUN_SETTINGS.items():
        rp.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    rp.add_argument("--orbits", type=int, help="also run the dumbbell precession comparison "
                                               "over this many orbits (satellite only)")
    rp.add_argument("--sign", choices=["+1", "-1", "1"], help="ambient field sign (satellite only)")
    rp.add_argument("--config", help="key-value config file; flags override file values")

    vp = sub.add_parser("validate", help="run a check suite and write a summary JSON")
    vp.add_argument("suite", choices=[*SUITES, "all"])
    vp.add_argument("--quick", action="store_true",
                    help="shorter ladders and fewer points, with slope bands widened by 0.2")
    vp.add_argument("--seed", type=int, help="seed for randomized check points (recorded)")

    for p in (rp, vp):
        p.add_argument("--out-dir", help="output directory (default: the config's out_dir, "
                                         "else $OSCAVG_OUT_DIR, else ./oscavg_out)")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # looked up per call, so a patched cmd_run is the one that runs
        return {"list": cmd_list, "run": cmd_run, "validate": cmd_validate}[args.command](args)
    except (UsageError, ScenarioUsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
