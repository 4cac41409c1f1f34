"""The CI workflow file itself: if it does not parse, no CI step runs, so no
CI step can report it."""
import shlex
from pathlib import Path

import pytest

from oscavg import cli

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_parses_and_every_step_runs_or_uses():
    """A plain scalar holding ': ' (as a grep pattern for JSON may) makes the
    whole file fail to parse; every step must come out with a string run
    command or a uses action."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("run"), str) or isinstance(step.get("uses"), str), step


def test_every_oscavg_command_in_the_workflow_parses():
    """A renamed or removed flag fails here, not only on the hosted runner:
    each oscavg command line, cut at '||', parses with the CLI's own parser."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    commands = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            for line in step.get("run", "").splitlines():
                words = shlex.split(line.split("||")[0])
                if words[:1] == ["oscavg"]:
                    commands.append(words[1:])
    assert len(commands) == 16, commands
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)
