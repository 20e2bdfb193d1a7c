"""Tests of the benchmark itself.  From the root of the repository:

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's own test run.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from failsim import cli, dist, restart, scenario  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def out_dir():
    path = HERE / ".out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


DOCUMENTS = workloads.load_documents(ROOT)


def _stream(workload, seed):
    return workloads.Stream(workload, seed, DOCUMENTS)


def _docs(workload, seed, n):
    stream = _stream(workload, seed)
    return [json.dumps([stream.request(i).op, stream.request(i).doc], sort_keys=True)
            for i in range(n)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_stream_is_a_pure_function_of_the_seed(workload):
    n = 2 * _stream(workload, 7).cycle
    here = _docs(workload, 7, n)
    assert here == _docs(workload, 7, n)
    assert here != _docs(workload, 8, n)
    code = ("import json, pathlib, workloads; "
            f"s = workloads.Stream({workload!r}, 7, workloads.load_documents("
            f"pathlib.Path({str(ROOT)!r}))); "
            "print(json.dumps([json.dumps([s.request(i).op, s.request(i).doc], "
            f"sort_keys=True) for i in range({n})]))")
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=str(HERE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == here


def test_scenario_requests_are_the_examples_with_new_seed_and_length():
    stream = _stream("scenario_requests", 3)
    reqs = [stream.request(i) for i in range(stream.cycle)]
    assert {r.kind.split(".")[0] for r in reqs} == set(workloads.SCENARIO_FILES)
    assert {r.doc["model"] for r in reqs} == set(scenario.MODELS)
    assert {r.doc["process"]["kind"] for r in reqs} == set(scenario.PROCESS_KINDS)
    assert {r.op for r in reqs} == {"run", "compare"}

    def fixed(doc):
        run = {k: v for k, v in doc["run"].items() if k not in ("seed", "iterations")}
        return {**doc, "run": run}

    for r in reqs:
        example = DOCUMENTS[r.kind.split(".")[0]]
        assert fixed(r.doc) == fixed(example)
        assert 1 <= r.doc["run"]["iterations"] <= example["run"]["iterations"]


def _outputs(req, out_dir):
    sc = scenario.load_scenario(req.doc)
    if req.op == "compare":
        return repr(cli.compare_report(sc)).encode()
    cli.run_scenario(sc, out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _sample_requests():
    stream = _stream("scenario_requests", 5)
    reqs = [stream.request(i) for i in range(stream.cycle)]
    reqs = [r for r in reqs if r.kind != "universal_exp.compare"]  # one slow request
    return reqs + [_stream("restart_heavy", 5).request(0)]


def test_outputs_are_byte_identical_with_tracing(out_dir):
    originals = (cli.run_scenario, restart.run_restart, dist.Exponential.quantile)
    tracer = Tracer()
    for req in _sample_requests():
        plain = _outputs(req, out_dir / f"plain{req.index}{req.kind}")
        with tracer:
            traced = _outputs(req, out_dir / f"traced{req.index}{req.kind}")
        assert plain == traced, req
    assert (cli.run_scenario, restart.run_restart, dist.Exponential.quantile) == originals
    assert tracer.n_spans > 0 and tracer.counts["dist.quantile.values"] > 0


def test_restart_helpers_are_named_after_the_calling_model(out_dir):
    stream = _stream("scenario_requests", 5)
    reqs = [stream.request(i) for i in range(stream.cycle)]
    tracer = Tracer()
    with tracer:
        for req in reqs:
            if req.kind in ("checkpoint_exp.run", "rwalk_exp.run"):
                _outputs(req, out_dir / req.kind)
    assert tracer.self_s["checkpoint.efficiency"] > 0
    assert tracer.self_s["rwalk.simulate"] > 0
    assert "restart.efficiency" not in tracer.self_s
    assert "restart.simulate" not in tracer.self_s
    assert tracer.counts["restart.tasks"] == 0


@pytest.mark.parametrize("kind", ["restart_exp.run", "checkpoint_exp.run"])
def test_replay_checks_pass_on_scenario_requests_and_catch_a_changed_summary(kind, out_dir):
    stream = _stream("scenario_requests", 5)
    reqs = [r for r in (stream.request(i) for i in range(3 * stream.cycle)) if r.kind == kind]
    done = [(r, cli.run_scenario(scenario.load_scenario(r.doc), out_dir / f"r{r.index}"))
            for r in reqs]
    assert checks.REPLAY_CHECKS[kind](done, 5) == []
    for _, summary in done:
        summary["per_replication"][0]["ratio"] += 1e-9
        summary["estimates"]["efficiency"]["per_rep"][0] += 1e-9
    assert checks.REPLAY_CHECKS[kind](done, 5)


def test_self_times_add_up_to_root_spans(out_dir):
    tracer = Tracer()
    with tracer:
        for req in _sample_requests()[:10]:
            tracer.request_id = req.index
            _outputs(req, out_dir / f"r{req.index}")
    roots = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent is None)
    assert len(tracer.spans) == tracer.n_spans  # nothing dropped at this size
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert all(request is not None for *_, request in tracer.spans)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
