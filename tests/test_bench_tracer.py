"""The bench tracer patches package names from outside the package; if one
of them is renamed or removed, only the traced bench passes would notice.
Entering and leaving its installed() block here checks every target."""
import importlib.util
from pathlib import Path

import oscavg.analysis
import oscavg.cli
import oscavg.dynamics
import oscavg.scenarios
from oscavg.averaging import AveragedSystem
from oscavg.scenarios import Scenario

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# every owner whose attributes the tracer patches
OWNERS = (oscavg.cli, oscavg.analysis, oscavg.dynamics, oscavg.scenarios, Scenario, AveragedSystem)


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_patches_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = _attributes()
    with tracer.installed(tracer.Tracer()):
        patched = {(owner.__name__, attr) for owner, now, was in zip(OWNERS, _attributes(), before)
                   for attr in was if now[attr] is not was[attr]}
    assert {("AveragedSystem", "stack"), ("AveragedSystem", "force"),
            ("oscavg.cli", "integrate_full"), ("oscavg.dynamics", "guiding_center")} <= patched
    for owner, now, was in zip(OWNERS, _attributes(), before):
        assert now.keys() == was.keys(), owner.__name__
        assert all(now[attr] is was[attr] for attr in was), owner.__name__
