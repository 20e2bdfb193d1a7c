"""Per-replication trace files of every simulating model.

Cells are written from plain Python values, so a float cell is a bare
number such as ``2.0`` and never a numpy repr like ``np.float64(2.0)``.
"""

import csv
import re
from pathlib import Path

import pytest
import yaml

from failsim.cli import run_scenario
from failsim.scenario import apply_overrides, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NUMBER = re.compile(r"-?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?")

RESTART_HEADER = ["n", "ideal", "failures", "actual", "state", "regime"]
# scenario file, overrides, trace header
CASES = {
    "restart": ("restart_exp", ["N=300", "R=2"], RESTART_HEADER),
    "markov": ("mrp_alternating", ["N=300", "R=2"], RESTART_HEADER),
    "mixture": ("mixture_regimes", ["N=300", "R=3"], RESTART_HEADER),
    "checkpoint": ("checkpoint_exp", ["N=300", "R=2", "run.burn_in=20"],
                   ["n", "start_index", "end_index", "attempts", "ideal", "actual",
                    "overshoot"]),
    "universal": ("universal_exp", ["N=400", "run.lookback=50"], ["n", "kappa", "N"]),
    "rwalk": ("rwalk_exp", ["N=300"], ["step", "position", "task_index", "visit_time"]),
}


def scenario(name, overrides):
    doc = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    return load_scenario(apply_overrides(doc, overrides))


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_files_hold_plain_numbers(case, tmp_path):
    name, overrides, header = CASES[case]
    sc = scenario(name, overrides + ["output.traces=true"])
    run_scenario(sc, tmp_path)
    labels = set(sc.mrp_spec.states) if sc.mrp_spec is not None else set()
    traces = sorted(p.name for p in tmp_path.glob("rep_*_trace.csv"))
    assert traces == [f"rep_{r}_trace.csv" for r in range(sc.replications)]
    for r in range(sc.replications):
        with open(tmp_path / f"rep_{r}_trace.csv", newline="") as fh:
            head, *rows = list(csv.reader(fh))
        assert head == header
        if case == "rwalk":
            # one row per step, until the walk first reaches level N
            assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
            assert len(rows) >= sc.iterations and int(rows[-1][1]) == sc.iterations
        else:
            assert len(rows) == sc.iterations
        for row in rows:
            assert len(row) == len(header)
            for column, cell in zip(header, row):
                if column == "state" and labels:
                    assert cell in labels
                else:
                    assert cell == "" or NUMBER.fullmatch(cell), (column, cell)
        if header == RESTART_HEADER:
            assert all(row[2].endswith(".0") for row in rows)  # failures stay floats


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_trace_files_when_traces_are_off(case, tmp_path):
    name, overrides, _ = CASES[case]
    sc = scenario(name, overrides + ["output.traces=false"])
    run_scenario(sc, tmp_path)
    assert (tmp_path / "summary.json").exists()
    assert not list(tmp_path.glob("rep_*_trace.csv"))
