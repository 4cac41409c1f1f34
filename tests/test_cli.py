"""End-to-end tests of the command line, run in process through main()."""
import hashlib
import json
import platform
import re

import numpy as np
import pytest

import oscavg.checks
import oscavg.cli as cli
import oscavg.scenarios
from oscavg import compare, load_trajectory
from oscavg.dynamics import write_json
from oscavg.scenarios import get_scenario


def _sha256(path):
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# ---- exit codes and usage errors ----

def test_list_names_every_scenario(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("rotating_saddle", "quartic_drive", "kapitza_pendulum",
                 "rotating_wave", "spinning_satellite"):
        assert name in out, f"{name} missing from listing"


def test_list_names_each_scenario_split(capsys):
    """The split column reads the potential's shift: only the satellite's
    oscillation sits one eps order down."""
    assert cli.main(["list"]) == 0
    splits = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        name, _dim, rest = line.split(maxsplit=2)
        splits[name] = rest[:len("slow + eps")].strip()
    assert splits == {"custom": "-", "kapitza_pendulum": "standard", "quartic_drive": "standard",
                      "rotating_saddle": "standard", "rotating_wave": "standard",
                      "spinning_satellite": "slow + eps"}


def test_unknown_scenario_suggests_and_exits_2(capsys):
    assert cli.main(["run", "rotating_sadle"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "rotating_saddle" in err, f"expected a suggestion in {err!r}"


def test_custom_scenario_is_a_usage_error(capsys):
    assert cli.main(["run", "custom"]) == 2
    assert "in code" in capsys.readouterr().err


def test_nonpositive_eps_is_a_usage_error(capsys):
    assert cli.main(["run", "quartic_drive", "--eps", "0"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_sign_only_applies_to_the_satellite(capsys):
    assert cli.main(["run", "quartic_drive", "--sign", "+1"]) == 2
    assert "--sign" in capsys.readouterr().err


def test_orbits_needs_a_precession_scenario(tmp_path, capsys):
    code = cli.main(["run", "quartic_drive", "--eps", "1/64", "--t-end", "0.2",
                     "--orbits", "5", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "precession" in capsys.readouterr().err


def test_unknown_verb_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_bad_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("walrus = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "walrus" in capsys.readouterr().err


def test_run_without_scenario_anywhere_is_a_usage_error(capsys):
    assert cli.main(["run"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "quartic_drive", "--eps", "1/64", "--seed", "3"],
    ["validate", "invariants", "--quick", "--jobs", "2"],
])
def test_flags_that_did_nothing_are_gone(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("sign", ["0.5", "0", "2"])
def test_config_sign_must_be_plus_or_minus_one(sign, tmp_path, capsys):
    """The config key gets the rule the --sign flag's choices enforce."""
    cfg = tmp_path / "signed.cfg"
    cfg.write_text(f"scenario = spinning_satellite\nsign = {sign}\n")
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "sign" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--config", "{cfg}"], "scenario = quartic_drive\neps = -1/64, 1/128\n",
     "config key 'eps': eps values must be positive"),
    (["--config", "{cfg}"], "scenario = quartic_drive\neps =\n",
     "config key 'eps': no eps values given"),
    (["quartic_drive", "--orbits", "5"], None,
     "--orbits: scenario 'quartic_drive' has no precession comparison"),
    (["spinning_satellite", "--orbits", "2"], None,
     "--orbits: need at least 3 orbits to measure precession"),
    (["--config", "{cfg}"], "scenario = spinning_satellite\nsign = 0.5\n",
     "config key 'sign': must be +1 or -1, got 0.5"),
    (["quartic_drive", "--sign", "+1"], None,
     "--sign only applies to the spinning_satellite scenario"),
    (["rotating_sadle"], None, "unknown scenario 'rotating_sadle'"),
    (["quartic_drive", "--t-end", "-1"], None, "--t-end: must be positive, got -1.0"),
    (["quartic_drive", "--steps-per-period", "8"], None,
     "--steps-per-period: must be at least 16, got 8"),
    (["quartic_drive", "--n-tau", "3"], None, "--n-tau: must be at least 4, got 3"),
    (["spinning_satellite", "--n-tau", "4", "--t-end", "0.0625"], None,
     "--n-tau: n_tau=4 aliases harmonic 2 of SatelliteOscillating"),
    (["quartic_drive", "--eps", "1/64,1/64"], None,
     "--eps: eps values must be distinct, got 0.015625,0.015625"),
    (["quartic_drive", "--eps", "1/64,0.015625"], None,
     "--eps: eps values must be distinct, got 0.015625,0.015625"),
    (["--config", "{cfg}"], "scenario = quartic_drive\neps = 1/64, 1/64\n",
     "config key 'eps': eps values must be distinct, got 0.015625,0.015625"),
    (["--config", "{cfg}"], "scenario = quartic_drive\neps = 1/64\neps = 1/128\n",
     "--config: config key 'eps' given twice, on lines 2 and 3"),
    (["spinning_satellite", "--sign", "+1", "--orbits", "3", "--eps", "0.02",
      "--t-end", "0.05"], None,
     "--orbits: the precession comparison needs the attracting satellite (sign -1)"),
    (["--config", "{cfg}", "--orbits", "3"], "scenario = spinning_satellite\nsign = 1\n",
     "--orbits: the precession comparison needs the attracting satellite (sign -1)"),
])
def test_run_usage_errors_come_before_any_work_or_output(argv, config, message, tmp_path, capsys):
    """Every run input is checked first: a usage error exits 2 with its
    message and leaves no output directory behind."""
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    out = tmp_path / "o"
    code = cli.main(["run", *[a.format(cfg=cfg) for a in argv], "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["quartic_drive", "--eps", "nan"], None, "--eps: eps values must be finite, got nan"),
    (["quartic_drive", "--eps", "inf"], None, "--eps: eps values must be finite, got inf"),
    (["quartic_drive", "--eps", "1/0"], None, "--eps: division by zero in '1/0'"),
    (["quartic_drive", "--eps", "1/64,nan"], None,
     "--eps: eps values must be finite, got 0.015625,nan"),
    (["quartic_drive", "--t-end", "nan"], None, "--t-end: must be finite, got nan"),
    (["quartic_drive", "--t-end", "inf"], None, "--t-end: must be finite, got inf"),
    (["quartic_drive", "--h-avg", "nan"], None, "--h-avg: must be finite, got nan"),
    (["quartic_drive", "--h-avg", "inf"], None, "--h-avg: must be finite, got inf"),
    (["quartic_drive", "--out-dt", "nan"], None, "--out-dt: must be finite, got nan"),
    (["quartic_drive", "--out-dt", "inf"], None, "--out-dt: must be finite, got inf"),
    (["--config", "{cfg}"], "scenario = quartic_drive\neps = 1/64, inf\n",
     "config key 'eps': eps values must be finite, got 0.015625,inf"),
    (["--config", "{cfg}"], "scenario = quartic_drive\neps = 1/0\n",
     "--config: division by zero in '1/0'"),
    (["--config", "{cfg}"], "scenario = quartic_drive\nt_end = inf\n",
     "--t-end: must be finite, got inf"),
    (["--config", "{cfg}"], "scenario = quartic_drive\nh_avg = nan\n",
     "--h-avg: must be finite, got nan"),
    (["--config", "{cfg}"], "scenario = quartic_drive\nout_dt = nan\n",
     "--out-dt: must be finite, got nan"),
])
def test_non_finite_numbers_are_usage_errors(argv, config, message, tmp_path, capsys,
                                             monkeypatch):
    """A NaN or infinite eps, t_end, h_avg or out_dt, from a flag or a config
    key, exits 2 before any rung starts and writes nothing."""
    started = []
    monkeypatch.setattr(cli, "_ladder_job", lambda payload: started.append(payload))
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    code = cli.main(["run", *[a.format(cfg=cfg) for a in argv],
                     "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not started
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


# (run setting, a value below its least value or, for a float, not finite, message)
_BAD_SETTINGS = [
    ("t_end", "0", "--t-end: must be positive, got 0.0"),
    ("t_end", "inf", "--t-end: must be finite, got inf"),
    ("t_end", "nan", "--t-end: must be finite, got nan"),
    ("steps_per_period", "15", "--steps-per-period: must be at least 16, got 15"),
    ("h_avg", "0", "--h-avg: must be positive, got 0.0"),
    ("h_avg", "inf", "--h-avg: must be finite, got inf"),
    ("h_avg", "nan", "--h-avg: must be finite, got nan"),
    ("out_dt", "0", "--out-dt: must be positive, got 0.0"),
    ("out_dt", "inf", "--out-dt: must be finite, got inf"),
    ("out_dt", "nan", "--out-dt: must be finite, got nan"),
    ("n_tau", "3", "--n-tau: must be at least 4, got 3"),
    ("jobs", "0", "--jobs: must be at least 1, got 0"),
]


def test_bad_settings_cover_every_run_setting():
    assert {key for key, _, _ in _BAD_SETTINGS} == set(cli.RUN_SETTINGS)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value, message", _BAD_SETTINGS)
def test_each_run_setting_is_checked_from_flag_and_config(key, value, message, source,
                                                          tmp_path, capsys, monkeypatch):
    """A flag and its config key meet one check: the same --<flag> message,
    exit 2, no rung started and nothing written."""
    started = []
    monkeypatch.setattr(cli, "_ladder_job", lambda payload: started.append(payload))
    cfg = tmp_path / "run.cfg"
    if source == "flag":
        cfg.write_text("scenario = quartic_drive\n")
        argv = ["--" + key.replace("_", "-"), value]
    else:
        cfg.write_text(f"scenario = quartic_drive\n{key} = {value}\n")
        argv = []
    code = cli.main(["run", "--config", str(cfg), "--eps", "1/64", *argv,
                     "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not started
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_config_keys_parse_to_the_flags_types():
    cfg = cli.parse_config("scenario = quartic\neps = 1/32, 1/64\nsign = -1\nout_dir = o\n"
                           "t_end = 1/2\nsteps_per_period = 32\nh_avg = 0.01\nout_dt = 1/50\n"
                           "n_tau = 8\njobs = 2\n")
    assert cfg == {"scenario": "quartic", "eps": [1 / 32, 1 / 64], "sign": -1.0, "out_dir": "o",
                   "t_end": 0.5, "steps_per_period": 32, "h_avg": 0.01, "out_dt": 0.02,
                   "n_tau": 8, "jobs": 2}
    assert all(type(cfg[k]) is kind for k, (kind, _, _) in cli.RUN_SETTINGS.items())


def test_satellite_n_tau_must_resolve_its_second_harmonic(tmp_path, capsys, monkeypatch):
    """4 phases alias the satellite's sin 2 theta piece: the run is refused
    before any rung starts, naming the least n_tau that works; 5 runs."""
    started = []
    real_job = cli._ladder_job
    monkeypatch.setattr(cli, "_ladder_job", lambda payload: started.append(1) or real_job(payload))
    argv = ["run", "spinning_satellite", "--eps", "1/64", "--t-end", "0.0625"]
    assert cli.main(argv + ["--n-tau", "4", "--out-dir", str(tmp_path / "o4")]) == 2
    assert "use n_tau >= 5" in capsys.readouterr().err
    assert not started and not (tmp_path / "o4").exists()
    assert cli.main(argv + ["--n-tau", "5", "--out-dir", str(tmp_path / "o5")]) == 0
    assert started == [1]
    assert json.loads((tmp_path / "o5" / "manifest.json").read_text())["config"]["n_tau"] == 5


def test_ladder_workers_rebuild_the_scenario_from_its_sign(tmp_path, capsys, monkeypatch):
    """The sign -> sigma mapping of _get_scenario is what each rung's payload carries."""
    payloads = []
    real_job = cli._ladder_job

    def job(payload):
        payloads.append(payload)
        return real_job(payload)

    monkeypatch.setattr(cli, "_ladder_job", job)
    assert cli.main(["run", "satellite", "--sign", "+1", "--eps", "1/64,1/128",
                     "--t-end", "0.0625", "--out-dir", str(tmp_path / "o")]) == 0
    assert [p["scenario_kwargs"] for p in payloads] == [{"sigma": 1.0}] * 2
    sc, kwargs = cli._get_scenario("satellite", "+1")
    assert kwargs == {"sigma": 1.0} and sc.extras["sigma"] == 1.0
    assert cli._get_scenario("quartic")[1] == {}


def test_seed_is_not_a_run_config_key(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("scenario = quartic_drive\nseed = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


# ---- run: artifacts, digests, determinism ----

def test_run_writes_manifest_with_matching_digests(tmp_path, capsys):
    out = tmp_path / "run1"
    code = cli.main(["run", "quartic_drive", "--eps", "1/64", "--t-end", "0.5",
                     "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    man = _manifest(out)
    assert man["scenario"] == "quartic_drive"
    assert man["config"]["eps"] == [pytest.approx(1.0 / 64)]
    assert man["config"]["t_end"] == 0.5
    # full, guided and averaged CSVs plus their sidecars
    kinds = [n for n in man["files"] if n.endswith(".csv")]
    assert len(kinds) == 3, f"expected 3 CSVs, got {kinds}"
    for name, digest in man["files"].items():
        path = out / name
        assert path.exists(), f"manifest lists missing file {name}"
        assert _sha256(path) == digest, f"digest mismatch for {name}"
    assert man["python"] == platform.python_version()
    assert man["numpy"] == np.__version__
    # everything written went through a temporary file that was moved into place
    leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == [], f"temporary files left behind: {leftovers}"


def test_failed_json_write_leaves_no_file(tmp_path):
    """A report that fails half-way through serialization leaves nothing behind,
    neither the report nor its temporary file."""
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(str(path), {"a": list(range(1000)), "z": object()})
    assert list(tmp_path.iterdir()) == []


def test_run_with_orbits_writes_the_precession_report(tmp_path, capsys):
    """--orbits adds the dumbbell, the averaged model's orbit and the
    precession report to the manifest, each digest the file on disk; the
    point-mass control does not precess."""
    out = tmp_path / "orbits"
    assert cli.main(["run", "spinning_satellite", "--eps", "0.02", "--t-end", "0.05",
                     "--orbits", "3", "--out-dir", str(out)]) == 0
    report = json.loads((out / "spinning_satellite_precession.json").read_text())
    assert report["same_sign"] is True
    assert abs(report["kepler_control"]["mean_advance"]) < 1e-4
    assert report["dumbbell"]["n_orbits"] >= 3 and report["averaged_model"]["n_orbits"] >= 3
    man = _manifest(out)
    assert man["reports"] == ["precession"]
    written = {f"spinning_satellite_{stem}" for stem in (
        "dumbbell.csv", "dumbbell.json", "model_orbit.csv", "model_orbit.json", "precession.json")}
    assert written <= set(man["files"])
    for name, digest in man["files"].items():
        assert _sha256(out / name) == digest, f"digest mismatch for {name}"


def test_runs_are_byte_identical(tmp_path, capsys):
    args = ["run", "rotating_saddle", "--eps", "1/64", "--t-end", "0.5"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    files1 = _manifest(out1)["files"]
    files2 = _manifest(out2)["files"]
    assert files1 == files2, "repeated runs should produce identical digests"
    for name in files1:
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                f"{name} differs between identical runs"


def test_run_writes_what_compare_returns(tmp_path, capsys):
    """The command line runs the library's pipeline: its CSVs hold compare's
    three trajectories exactly."""
    out = tmp_path / "parity"
    assert cli.main(["run", "quartic_drive", "--eps", "1/64", "--t-end", "0.1",
                     "--out-dir", str(out)]) == 0
    rung = compare(get_scenario("quartic_drive"), 1 / 64, t_end=0.1)
    for kind in ("full", "guided", "averaged"):
        want = getattr(rung, kind)
        got = load_trajectory(out / f"quartic_drive_eps0.015625_{kind}.csv")
        for field in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), \
                f"{kind} {field} differ from compare"


def test_run_reports_no_gap_when_a_run_leaves_its_region(tmp_path, capsys, monkeypatch,
                                                         exit_probe):
    monkeypatch.setitem(oscavg.scenarios.CATALOG, "exit_probe", lambda: exit_probe)
    out = tmp_path / "exit"
    assert cli.main(["run", "exit_probe", "--eps", "1/16", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "sup gap=n/a  (a run left the trusted region; gap not comparable)" in stdout
    man = _manifest(out)
    assert man["reports"] == []
    assert len([n for n in man["files"] if n.endswith(".csv")]) == 3


def test_ladder_run_fits_a_slope(tmp_path, capsys):
    out = tmp_path / "ladder"
    code = cli.main(["run", "rotating_saddle", "--eps", "1/32,1/64",
                     "--t-end", "0.5", "--out-dir", str(out)])
    assert code == 0
    conv = json.loads((out / "rotating_saddle_convergence.json").read_text())
    assert len(conv["eps"]) == 2
    # short horizon, coarse ladder: still cleanly fourth order or better
    assert conv["slope"] > 3.5, f"ladder slope {conv['slope']}"
    assert "convergence" in _manifest(out)["reports"]
    stdout = capsys.readouterr().out
    assert "fitted log-log slope" in stdout


@pytest.mark.parametrize("jobs, rungs, cores, want", [
    (1, 4, 8, 1), (8, 4, 16, 4), (8, 4, 2, 2), (3, 4, 8, 3), (4, 4, None, 1)])
def test_worker_count_is_bounded_by_rungs_and_cores(jobs, rungs, cores, want, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    assert cli._worker_count(jobs, rungs) == want


def test_parallel_jobs_match_serial(tmp_path, capsys):
    """Workers run the full flows and transforms while the parent steps the
    averaged flows in lockstep; the files match a run in one process."""
    for name, ladder, t_end in (("quartic_drive", "1/32,1/64", "0.3"),
                                ("spinning_satellite", "1/64,1/128,1/256", "0.0625")):
        base = ["run", name, "--eps", ladder, "--t-end", t_end]
        ser = tmp_path / f"{name}_serial"
        par = tmp_path / f"{name}_parallel"
        assert cli.main(base + ["--out-dir", str(ser), "--jobs", "1"]) == 0
        assert cli.main(base + ["--out-dir", str(par), "--jobs", "2"]) == 0
        files = _manifest(ser)["files"]
        assert len(files) == 6 * len(ladder.split(",")) + 1  # 3 CSVs and sidecars a rung
        assert files == _manifest(par)["files"], \
            f"{name}: parallel and serial runs should write identical artifacts"


def test_config_file_drives_a_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = quartic_drive\neps = 1/64\nt_end = 0.4\n")
    out = tmp_path / "cfgrun"
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    man = _manifest(out)
    assert man["scenario"] == "quartic_drive"
    assert man["config"]["t_end"] == pytest.approx(0.4)


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = quartic_drive\neps = 1/64\nt_end = 0.4\n")
    out = tmp_path / "cfgrun2"
    assert cli.main(["run", "--config", str(cfg), "--t-end", "0.2",
                     "--out-dir", str(out)]) == 0
    assert _manifest(out)["config"]["t_end"] == pytest.approx(0.2)


def test_out_dir_precedence_flag_config_environment(tmp_path, capsys, monkeypatch):
    """--out-dir beats the config's out_dir, which beats $OSCAVG_OUT_DIR."""
    monkeypatch.setenv("OSCAVG_OUT_DIR", str(tmp_path / "env"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = quartic_drive\neps = 1/64\nt_end = 0.1\n"
                   f"out_dir = {tmp_path / 'cfg'}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert _manifest(tmp_path / "cfg")["config"]["out_dir"] == str(tmp_path / "cfg")
    assert not (tmp_path / "env").exists()
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "manifest.json").exists()
    assert cli.main(["run", "quartic_drive", "--eps", "1/64", "--t-end", "0.1"]) == 0
    assert (tmp_path / "env" / "manifest.json").exists()


def test_scenario_alias_resolves(tmp_path, capsys):
    out = tmp_path / "alias"
    assert cli.main(["run", "quartic", "--eps", "1/64", "--t-end", "0.2",
                     "--out-dir", str(out)]) == 0
    assert _manifest(out)["scenario"] == "quartic_drive"


# One sha256 over the sorted files map (every CSV and sidecar with its
# sha256) of `oscavg run <scenario> --t-end 0.3`, recorded when the full
# flow took the Runge-Kutta-Nystrom step and the cosine drives their exact
# bins, and pinned since; the quartic's outputs are pinned by digest in the
# CI workflow.
PINNED_RUNS = {"kapitza_pendulum": "6ccee00666b937481ab5dad7e45440f8e35aa11ffeabf2914654de96da8c33ab",
               "rotating_saddle": "b2a19aaba4eb3d7ac85ee5c19075deece25acdb2415c9efce8ee3fb7c1cbc99c"}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_outputs_are_byte_identical_to_the_pinned_ones(name, tmp_path, capsys):
    assert cli.main(["run", name, "--t-end", "0.3", "--out-dir", str(tmp_path)]) == 0
    files = _manifest(tmp_path)["files"]
    digest = hashlib.sha256(json.dumps(sorted(files.items())).encode()).hexdigest()
    assert digest == PINNED_RUNS[name], f"{name}: outputs moved, files {files}"


# ---- validate ----

def test_validate_invariants_quick_passes(tmp_path, capsys):
    out = tmp_path / "val"
    code = cli.main(["validate", "invariants", "--quick", "--out-dir", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0, f"invariants failed:\n{stdout}"
    summary = json.loads((out / "validate_invariants.json").read_text())
    assert summary["passed"] is True
    assert summary["python"] == platform.python_version()
    assert summary["numpy"] == np.__version__
    assert summary["n_failed"] == 0
    assert len(summary["checks"]) == 7
    assert stdout.count("PASS") == 7


def test_validate_oracles_quick_passes(tmp_path, capsys):
    out = tmp_path / "val"
    code = cli.main(["validate", "oracles", "--quick", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().out
    summary = json.loads((out / "validate_oracles.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert names == {"scenario_closed_forms", "satellite_trio"}


def test_validate_convergence_quick_passes(tmp_path, capsys):
    out = tmp_path / "val"
    code = cli.main(["validate", "convergence", "--quick", "--out-dir", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0, f"convergence failed:\n{stdout}"
    summary = json.loads((out / "validate_convergence.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    assert set(checks) == {"guiding_order_standard", "guiding_order_one_down"}
    assert all(c["passed"] for c in checks.values())
    for name, scenarios in (("guiding_order_standard", ("rotating_saddle", "quartic_drive")),
                            ("guiding_order_one_down", ("spinning_satellite",))):
        for scenario in scenarios:
            assert re.search(rf"{scenario} slope \d+\.\d{{3}} \(floor \d", checks[name]["detail"]), \
                checks[name]["detail"]


def test_a_check_that_raises_is_a_failed_check(tmp_path, capsys, monkeypatch):
    """A check that raises fails by name with its exception, and the suite
    goes on to report and exit 1."""
    def broken(rng, quick):
        raise RuntimeError("boom")

    monkeypatch.setitem(oscavg.checks.SUITES, "oracles", [("broken", broken)])
    out = tmp_path / "val"
    assert cli.main(["validate", "oracles", "--quick", "--out-dir", str(out)]) == 1
    assert re.search(r"FAIL\s+broken\s+raised RuntimeError: boom", capsys.readouterr().out)
    summary = json.loads((out / "validate_oracles.json").read_text())
    assert summary["n_failed"] == 1 and summary["passed"] is False


def test_an_unexpected_error_exits_1_with_its_type(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_list", broken)
    assert cli.main(["list"]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_validate_catches_a_corrupted_closed_form(tmp_path, capsys, monkeypatch):
    """Flipping the sign of one bundled field must fail the oracle suite."""
    real = oscavg.checks.get_scenario

    def tampered(name, **kwargs):
        sc = real(name, **kwargs)
        if name == "rotating_saddle":
            forms = dict(sc.closed_forms)
            orig = forms["b"]
            forms["b"] = lambda x: -orig(x)
            sc.closed_forms = forms
        return sc

    monkeypatch.setattr(oscavg.checks, "get_scenario", tampered)
    out = tmp_path / "val"
    code = cli.main(["validate", "oracles", "--quick", "--out-dir", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1, "a corrupted closed form must fail validation"
    summary = json.loads((out / "validate_oracles.json").read_text())
    failed = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert "scenario_closed_forms" in failed, f"wrong check failed: {summary['checks']}"
    assert "rotating_saddle:b" in stdout, "failure should name the offending field"


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    """A negative --seed exits 2 with its message before any check runs or
    the output directory exists."""
    out = tmp_path / "val"
    code = cli.main(["validate", "invariants", "--quick", "--seed", "-1", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--seed: must be non-negative, got -1" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not out.exists()


def test_validate_unknown_suite_exits_2(capsys):
    assert cli.main(["validate", "everything"]) == 2
