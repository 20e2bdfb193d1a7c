"""The study scripts run end to end on tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, expect", [
    ("efficiency_sweep", ["--iterations", "2000"], "max |analytic - simulated|"),
    ("hop_law_stationarity", ["--reps", "200", "--hops", "2"], "chain efficiency"),
    ("walk_slowdown", ["--levels", "2000"], "plain restart efficiency"),
])
def test_script_main_runs(name, argv, expect, capsys):
    assert load(name).main(argv) == 0
    assert expect in capsys.readouterr().out
