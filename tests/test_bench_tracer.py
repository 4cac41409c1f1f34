"""The bench drives the package from outside it: the tracer patches package
names and the workloads send command lines.  If a name or a flag is renamed
or removed, only the bench passes would notice, so entering and leaving the
tracer's installed() block here checks every target, and every command line
a workload sends is parsed by the CLI's own parser."""
import importlib.util
from pathlib import Path

import oscavg.analysis
import oscavg.cli
import oscavg.dynamics
import oscavg.scenarios
from oscavg.averaging import AveragedSystem
from oscavg.scenarios import Scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

# every owner whose attributes the tracer patches
OWNERS = (oscavg.cli, oscavg.analysis, oscavg.dynamics, oscavg.scenarios, Scenario, AveragedSystem)


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    tracer = _load("tracer")
    before = _attributes()
    with tracer.installed(tracer.Tracer()):
        patched = {(owner.__name__, attr) for owner, now, was in zip(OWNERS, _attributes(), before)
                   for attr in was if now[attr] is not was[attr]}
    assert {("AveragedSystem", "stack"), ("AveragedSystem", "force"),
            ("oscavg.cli", "integrate_full"), ("oscavg.dynamics", "guiding_center")} <= patched
    for owner, now, was in zip(OWNERS, _attributes(), before):
        assert now.keys() == was.keys(), owner.__name__
        assert all(now[attr] is was[attr] for attr in was), owner.__name__


def test_every_command_line_a_workload_sends_parses(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports custom_potential
    workloads = _load("workloads")
    sent = []
    monkeypatch.setattr(oscavg.cli, "main", lambda argv: sent.append(argv) or 0)
    for workload in workloads.WORKLOADS.values():
        if isinstance(workload, (workloads.CliLadder, workloads.Precession)):
            workload.execute(0, str(tmp_path))
    assert len(sent) == 3, sent
    parser = oscavg.cli._build_parser()
    for argv in sent:
        assert parser.parse_args(argv).command == "run"
