"""The four benchmark workloads: what each pass runs and how it is judged.

A pass is one execution of a workload's unit of work: one `oscavg run` ladder,
one custom-potential ladder through the library, or one precession
comparison.  execute() is the timed part; judge() reads what the pass left
behind and returns one verdict per operation (a ladder rung or a precession
comparison) plus the accuracy fingerprint.  Nothing in judge() is timed.

Horizons are shorter than the scenarios' defaults so that several passes fit
in one timed run; shortening t_end scales the full flow, the transform and the
averaged flow alike, so each layer keeps its share of a pass.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import oscavg.analysis
import oscavg.cli
import oscavg.scenarios

import custom_potential

GAP_RTOL = 0.01             # a rung's sup gap may move this much (relative) from the seed's
CONTROL_ADVANCE_TOL = 1e-4  # the point-mass control must not precess

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _cli(argv):
    """Run the command line in this process; its report goes to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        return oscavg.cli.main(argv)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _files_digest(out_dir):
    """One sha256 over the per-file digests the manifest lists."""
    manifest = _read_json(os.path.join(out_dir, "manifest.json")) or {}
    files = sorted(manifest.get("files", {}).items())
    return hashlib.sha256(json.dumps(files).encode()).hexdigest()


class CliLadder:
    """`oscavg run <scenario>` over its default ladder at a shortened horizon."""

    def __init__(self, name, scenario, t_end):
        self.name = name
        self.scenario = scenario
        self.t_end = t_end
        self.setup_eps = 1 / 64
        self.analytic = True
        self.ref = REFERENCE[name]

    def execute(self, seed, out_dir):
        return _cli(["run", self.scenario, "--t-end", repr(self.t_end),
                     "--jobs", "1", "--out-dir", out_dir])

    def judge(self, code, out_dir):
        ref_gaps = [(float(e), g) for e, g in self.ref["gaps"].items()]
        floor = oscavg.scenarios.get_scenario(self.scenario).extras["slope_floor"]
        conv = _read_json(os.path.join(out_dir, f"{self.scenario}_convergence.json"))
        if code != 0 or conv is None:
            return [False] * len(ref_gaps), [f"exit code {code}, convergence report "
                                             f"{'missing' if conv is None else 'present'}"], {}
        measured = list(zip(conv["eps"], conv["errors"]))
        misses = []
        ok = []
        for eps, want in ref_gaps:
            got = next((g for e, g in measured if math.isclose(e, eps, rel_tol=1e-12)), None)
            ok.append(got is not None and abs(got / want - 1.0) <= GAP_RTOL)
            if not ok[-1]:
                misses.append(f"eps {eps:g}: gap {got} vs seed {want:.6e}")
        if conv["slope"] < floor:
            misses.append(f"slope {conv['slope']:.4f} below the scenario floor {floor}")
            ok = [False] * len(ok)
        digest = _files_digest(out_dir)
        fingerprint = {"gaps": [g for _, g in measured], "slope": conv["slope"],
                       "slope_floor": floor, "digest": digest,
                       "digest_matches_seed": digest == self.ref["digest"]}
        return ok, misses, fingerprint


class CustomLadder:
    """A seeded value-only potential through analysis.guiding_convergence."""

    name = "custom-fd-ladder"
    scenario = "custom"
    setup_eps = custom_potential.EPS_LADDER[0]
    analytic = False

    def __init__(self, t_end):
        self.t_end = t_end

    def execute(self, seed, out_dir):
        sc = custom_potential.make_scenario(seed, self.t_end)
        try:
            return oscavg.analysis.guiding_convergence(sc)
        except Exception as exc:  # judged as failed rungs, never aborts the run
            return exc

    def judge(self, report, out_dir):
        n = len(custom_potential.EPS_LADDER)
        if isinstance(report, Exception):
            return [False] * n, [f"raised {type(report).__name__}: {report}"], {}
        gaps = [float(g) for g in report.errors]
        # no slope floor: the seed fits about 3, below the eps^4 the README
        # claims for standard drives (see NOTES.md); record it as measured
        ok = [math.isfinite(g) and g > 0.0 for g in gaps]
        ok = [o and (i == 0 or gaps[i] < gaps[i - 1]) for i, o in enumerate(ok)]
        misses = [f"eps {e:g}: gap {g}" for e, g, o in zip(report.eps_values, gaps, ok) if not o]
        return ok, misses, {"gaps": gaps, "slope": report.slope}


class Precession:
    """`oscavg run spinning_satellite --orbits N`: dumbbell, averaged model at
    h = 0.02, point-mass control and perihelion measurement, plus the one
    short rung the run command always integrates."""

    name = "precession"
    scenario = "spinning_satellite"
    setup_eps = 0.02
    analytic = True

    def __init__(self, orbits):
        self.orbits = orbits
        self.ref = REFERENCE[self.name]

    def execute(self, seed, out_dir):
        return _cli(["run", self.scenario, "--eps", "0.02", "--t-end", "0.05",
                     "--orbits", str(self.orbits), "--jobs", "1", "--out-dir", out_dir])

    def judge(self, code, out_dir):
        rep = _read_json(os.path.join(out_dir, f"{self.scenario}_precession.json"))
        if code != 0 or rep is None:
            return [False], [f"exit code {code}, precession report "
                             f"{'missing' if rep is None else 'present'}"], {}
        control = rep["kepler_control"]["mean_advance"]
        misses = []
        if not rep["same_sign"]:
            misses.append("dumbbell and model precess in opposite directions")
        if abs(control) > CONTROL_ADVANCE_TOL:
            misses.append(f"control advance {control:.3e} above {CONTROL_ADVANCE_TOL}")
        for key in ("dumbbell", "averaged_model"):
            if rep[key]["n_orbits"] < self.orbits:
                misses.append(f"{key} measured {rep[key]['n_orbits']} of {self.orbits} orbits")
        digest = _files_digest(out_dir)
        fingerprint = {"dumbbell_advance": rep["dumbbell"]["mean_advance"],
                       "model_advance": rep["averaged_model"]["mean_advance"],
                       "control_advance": control, "digest": digest,
                       "digest_matches_seed": digest == self.ref["digest"]}
        return [not misses], misses, fingerprint


WORKLOADS = {w.name: w for w in (
    CliLadder("satellite-ladder", "spinning_satellite", t_end=0.0625),
    CliLadder("quartic-ladder", "quartic_drive", t_end=0.25),
    CustomLadder(t_end=0.125),
    Precession(orbits=3),
)}
