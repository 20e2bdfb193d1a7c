"""One workload in one fresh, single-threaded interpreter.

`run.py` starts this file; it is not meant to be run by hand.  It sets up
(imports failsim, loads the summary schema, reads the example scenarios,
validates the documents of the workload's first request cycle) and notes
how long that took since it was spawned.  Unless ``--setup-only`` is given,
it then serves one request cycle untimed as a warm-up, serves the rest of
the workload's request stream as a closed loop with one client and no
think time, checks every output outside the timed region, and prints one
JSON line with what it measured.

With ``--spans`` every request is also served with the tracer installed,
so per-layer numbers and the tracing overhead come from one interpreter
and one request list.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import numpy
import scipy

from failsim import cli, scenario  # the setup cost: numpy, scipy, jsonschema, yaml

import checks
import workloads
from tracing import Tracer

# Enough requests that at least ten latencies lie beyond the 95th percentile.
MIN_REQUESTS = 200


def load_schema() -> dict:
    ref = importlib.resources.files("failsim") / "schemas" / "summary.schema.json"
    return json.loads(ref.read_text())


def serve(req, out_root: Path, schema: dict, tracer: Tracer | None = None):
    """Serve one request; returns (latency, problems, output, result).

    Only the call into failsim is timed.  The checks, and removing the
    request's output directory, happen after the clock stops.
    """
    out_dir = out_root / f"r{req.index}"
    if tracer is not None:
        tracer.request_id = req.index
    error = result = None
    t0 = perf_counter()
    try:
        sc = scenario.load_scenario(req.doc)
        result = cli.run_scenario(sc, out_dir) if req.op == "run" else cli.compare_report(sc)
    except Exception as exc:  # a request that raises is a failed request
        error = "".join(traceback.format_exception_only(exc)).strip()
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.request_id = None
    if error is not None:
        problems, output = [error], None
    elif req.op == "run":
        problems = checks.check_summary(result, out_dir, schema)
        output = (out_dir / "summary.json").read_bytes() if not problems else None
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in out_dir.iterdir())
    else:
        problems = checks.check_compare(result)
        output = repr(result).encode()
    shutil.rmtree(out_dir, ignore_errors=True)
    return latency, problems, output, result


def _outcomes():
    return {"requests": [], "latencies": [], "iterations": [], "failures": [],
            "outputs": [], "done": []}


def _record(res, req, latency, problems, output, result):
    res["requests"].append(req)
    res["latencies"].append(latency)
    res["iterations"].append(req.iterations)
    res["outputs"].append(output)
    if problems:
        res["failures"].append({"request": req.index, "kind": req.kind,
                                "problems": problems[:3]})
    elif req.op == "run":
        res["done"].append((req, result))


def warm_up(stream, out_root, schema):
    """Serve the stream's first request cycle untimed; returns its outcomes.

    The first calls into a fresh interpreter pay for lazy imports and cold
    caches, which no later request of the stream pays again.
    """
    res = _outcomes()
    for i in range(stream.cycle):
        req = stream.request(i)
        _record(res, req, *serve(req, out_root, schema))
    return res


def run_pass(stream, seconds, max_busy, out_root, schema, tracer=None):
    """Serve the stream after its first cycle until `measured_enough` says
    stop.

    With a tracer every request is served twice, untraced and traced, the
    order alternating between requests so that neither side always runs
    on caches the other warmed.  Returns the untraced and traced outcomes.
    """
    plain, traced = _outcomes(), _outcomes()
    stop = measured_enough(seconds, max_busy, stream.cycle, tracer is not None)
    while not stop(plain["latencies"], traced["latencies"]):
        req = stream.request(stream.cycle + len(plain["latencies"]))
        sides = (plain,) if tracer is None else \
            (plain, traced) if req.index % 2 == 0 else (traced, plain)
        for res in sides:
            if res is traced:
                with tracer:
                    outcome = serve(req, out_root, schema, tracer)
            else:
                outcome = serve(req, out_root, schema)
            _record(res, req, *outcome)
    return plain, traced


def measured_enough(seconds, max_busy, cycle, tracing):
    """Stop after whole request cycles, so every run serves the workload's
    mix, once the untraced busy time and the request count are reached;
    when tracing, once the traced and untraced busy time together reach
    ``seconds`` (no latency quantile is reported then).  Stop anyway once
    they reach ``max_busy``."""
    def stop(plain, traced):
        busy = sum(plain) + sum(traced)
        n = len(plain)
        if tracing:
            enough = busy >= seconds
        else:
            enough = busy >= seconds and n >= MIN_REQUESTS
        return (enough and n % cycle == 0) or busy >= max_busy
    return stop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, help="busy time to measure")
    ap.add_argument("--max-busy", type=float,
                    help="stop serving after this much busy time, traced and untraced")
    ap.add_argument("--out", help="directory for request outputs")
    ap.add_argument("--spans", help="with tracing: file the spans are written to")
    args = ap.parse_args(argv)

    schema = load_schema()
    stream = workloads.Stream(args.workload, args.seed, workloads.load_documents(Path.cwd()))
    for i in range(stream.cycle):
        scenario.load_scenario(stream.request(i).doc)
    setup_s = monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.spans else None
    warm = warm_up(stream, out_root, schema)
    plain, traced = run_pass(stream, args.seconds, args.max_busy, out_root, schema, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "setup_s": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "latencies": plain["latencies"],
        "iterations": plain["iterations"],
        "failures": warm["failures"] + plain["failures"],
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(warm["latencies"]) + len(plain["latencies"]),
    }

    if tracer is not None:
        tracer.write_spans(args.spans)
        report["failures"] += traced["failures"] + [
            {"request": req.index, "kind": req.kind, "problems": ["output differs with tracing"]}
            for req, a, b in zip(plain["requests"], plain["outputs"], traced["outputs"])
            if a != b]
        report["trace"] = {
            "untraced_s": sum(plain["latencies"]),
            "traced_s": sum(traced["latencies"]),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "spans": tracer.n_spans,
        }

    for kind, check in checks.REPLAY_CHECKS.items():
        done = [(req, result) for req, result in warm["done"] + plain["done"]
                if req.kind == kind]
        problems = check(done, args.seed) if done else []
        if problems:
            report["failures"].append({"request": None, "kind": f"{kind} replay",
                                       "problems": problems[:3]})
    failed_requests = {f["request"] for f in report["failures"] if f["request"] is not None}
    report["failed"] = len(failed_requests) + sum(
        f["request"] is None for f in report["failures"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
