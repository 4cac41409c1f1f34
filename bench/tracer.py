"""Per-layer tracing of oscavg from outside the package.

The tracer wraps public functions where their callers resolve them: cli.py
and analysis.py bind integrate_full, position_gap and the rest by name at
import, so each binding is patched, not only the defining module.  Methods
that every instance shares (AveragedSystem.stack/force/b_matrix,
Scenario.build_system) are patched on the class; the potential's
value/grad/hess are patched on each instance as scenarios are built.

Spans are aggregated as they close: inclusive seconds and calls per span
name, plus the seconds of direct children per parent, which gives self time.
Nothing in src/ is edited, and everything is restored on exit.
"""
from __future__ import annotations

import functools
import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import oscavg.analysis
import oscavg.cli
import oscavg.dynamics
import oscavg.scenarios
from oscavg.averaging import AveragedSystem
from oscavg.scenarios import Scenario


class Tracer:
    def __init__(self):
        self.active = []               # names of open spans, innermost last
        self.seconds = Counter()       # inclusive seconds per span name
        self.calls = Counter()
        self.child_seconds = Counter()  # seconds of direct children, per parent name
        self.counts = Counter()        # work counted at span exit (substeps, bytes, ...)

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span called name; after(tracer, result, args, kwargs)
        runs once the span has closed and records extra counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = tracer.active
            active.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active.pop()
                tracer.seconds[name] += dt
                tracer.calls[name] += 1
                if active:
                    tracer.child_seconds[active[-1]] += dt
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def instrument_potential(self, scenario):
        """Wrap value/grad/hess of the scenario's oscillating potential instance.

        The oscillating part is the one the field stacks sample; for a split
        potential the full flow reaches it through Order1Potential.grad.
        """
        pot = getattr(scenario.potential, "oscillating", scenario.potential)
        for method in ("value", "grad", "hess"):
            setattr(pot, method, self.wrap(getattr(pot, method), f"fields.{method}"))


# ---- counts recorded after a span closes ----

def _full_substeps(tracer, traj, args, kwargs):
    tracer.counts["full_substeps"] += traj.meta["substeps_per_out"] * (len(traj) - 1)


def _averaged_substeps(tracer, traj, args, kwargs):
    per_out = round(traj.meta["out_dt"] / traj.meta["h"])
    tracer.counts["averaged_substeps"] += per_out * (len(traj) - 1)


def _dumbbell_substeps(tracer, traj, args, kwargs):
    # integrate_dumbbell(epsilon, z0, zdot0, theta0, theta_dot0, t_end, steps_per_spin, out_dt)
    theta_dot0 = args[4] if len(args) > 4 else kwargs["theta_dot0"]
    steps_per_spin = args[6] if len(args) > 6 else kwargs.get("steps_per_spin", 96)
    out_dt = args[7] if len(args) > 7 else kwargs.get("out_dt", 0.05)
    h_nom = 2.0 * math.pi / theta_dot0 / steps_per_spin
    per_out = max(1, math.ceil(out_dt / h_nom - 1e-9))
    tracer.counts["dumbbell_substeps"] += per_out * (len(traj) - 1)


def _written_bytes(tracer, result, args, kwargs):
    csv_path = str(args[1])
    sidecar = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    tracer.counts["write_bytes"] += os.path.getsize(csv_path) + os.path.getsize(sidecar)


def _stack_in_force(tracer, result, args, kwargs):
    if "averaging.force" in tracer.active:
        tracer.counts["stacks_in_force"] += 1


def _instrument_scenario(tracer, scenario, args, kwargs):
    tracer.instrument_potential(scenario)


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced binding for the duration of the block."""
    patches = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, after))

    def patch_averaged(owner):
        # the point-mass control of the precession run goes through the same
        # integrator with a plain force; keep it out of the averaged-flow counts
        original = owner.integrate_averaged
        averaged = tracer.wrap(original, "dynamics.averaged", _averaged_substeps)
        control = tracer.wrap(original, "dynamics.control")

        @functools.wraps(original)
        def dispatch(system, *args, **kwargs):
            traced = averaged if isinstance(system, AveragedSystem) else control
            return traced(system, *args, **kwargs)

        patches.append((owner, "integrate_averaged", original))
        owner.integrate_averaged = dispatch

    cli, analysis = oscavg.cli, oscavg.analysis
    try:
        for owner in (cli, analysis):
            patch(owner, "integrate_full", "dynamics.full", _full_substeps)
            patch_averaged(owner)
            patch(owner, "transform_trajectory", "dynamics.transform")
            patch(owner, "position_gap", "analysis.gap")
            patch(owner, "fit_order", "analysis.fit")
            patch(owner, "measure_precession", "analysis.precession")
        patch(oscavg.dynamics, "guiding_center", "dynamics.guiding_center")
        patch(cli, "integrate_dumbbell", "dynamics.dumbbell", _dumbbell_substeps)
        patch(cli, "save_trajectory", "dynamics.write", _written_bytes)
        patch(cli, "save_dumbbell", "dynamics.write", _written_bytes)
        patch(cli, "get_scenario", "scenarios.build", _instrument_scenario)
        patch(oscavg.scenarios, "custom_scenario", "scenarios.build", _instrument_scenario)
        patch(Scenario, "build_system", "scenarios.build")
        patch(AveragedSystem, "stack", "averaging.stack", _stack_in_force)
        patch(AveragedSystem, "force", "averaging.force")
        patch(AveragedSystem, "b_matrix", "averaging.b_matrix")
        patch(cli, "cmd_run", "cli.cmd_run")
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, keyed by metric name."""
    s, n, c = tracer.seconds, tracer.calls, tracer.counts
    force_calls = n["averaging.force"]
    return {
        "fields.value_calls": n["fields.value"],
        "fields.value_s": s["fields.value"],
        "fields.grad_calls": n["fields.grad"],
        "fields.grad_s": s["fields.grad"],
        "fields.hess_calls": n["fields.hess"],
        "fields.hess_s": s["fields.hess"],
        "averaging.force_calls": force_calls,
        "averaging.force_s": s["averaging.force"],
        "averaging.b_matrix_s": s["averaging.b_matrix"],
        "averaging.stack_builds": n["averaging.stack"],
        "averaging.stack_s": s["averaging.stack"],
        "averaging.stacks_per_force": c["stacks_in_force"] / force_calls if force_calls else 0.0,
        "dynamics.full_s": s["dynamics.full"],
        "dynamics.full_substeps": c["full_substeps"],
        "dynamics.averaged_s": s["dynamics.averaged"],
        "dynamics.averaged_substeps": c["averaged_substeps"],
        "dynamics.control_s": s["dynamics.control"],
        "dynamics.transform_s": s["dynamics.transform"],
        "dynamics.guiding_center_calls": n["dynamics.guiding_center"],
        "dynamics.dumbbell_s": s["dynamics.dumbbell"],
        "dynamics.dumbbell_substeps": c["dumbbell_substeps"],
        "dynamics.write_s": s["dynamics.write"],
        "dynamics.write_bytes": c["write_bytes"],
        "analysis.gap_s": s["analysis.gap"],
        "analysis.fit_s": s["analysis.fit"],
        "analysis.precession_s": s["analysis.precession"],
        "scenarios.build_s": s["scenarios.build"],
        "cli.self_s": s["cli.cmd_run"] - tracer.child_seconds["cli.cmd_run"],
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_force"):
        return "ratio"
    return "count"


def identity_misses(m: dict, dim: int) -> list:
    """Count identities of the seed's algorithm that a traced pass breaks.

    They hold for potentials with analytic derivatives: each force call and
    each guided sample builds 1 + 2 dim field stacks, RK4 makes 4 force calls
    per averaged substep, and every grad call is a full-flow stage, a stack
    build or the guiding-centre map's own acceleration.
    """
    stacks, forces = m["averaging.stack_builds"], m["averaging.force_calls"]
    guided = m["dynamics.guiding_center_calls"]
    checks = {
        "stacks": (stacks, (1 + 2 * dim) * (forces + guided)),
        "forces": (forces, 4 * m["dynamics.averaged_substeps"]),
        "grads": (m["fields.grad_calls"], 4 * m["dynamics.full_substeps"] + stacks + guided),
    }
    return [f"{k}: counted {got}, identity gives {want}"
            for k, (got, want) in checks.items() if got != want]
