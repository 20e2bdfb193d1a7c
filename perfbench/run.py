"""failsim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  Each workload runs in a fresh,
single-threaded interpreter (`worker.py`) that drives failsim only through
``scenario.load_scenario``, ``cli.run_scenario`` and ``cli.compare_report``.
With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass over the same requests.  Workloads, metrics and the seed
baseline are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Fresh interpreters timed from spawn to "ready"; the measuring worker is one.
SETUP_SAMPLES = 5
# Every child must be done this long after the benchmark starts.
DEADLINE_S = 170
# The measuring worker stops serving after this many times --seconds of
# busy time, traced and untraced together, even short of its request
# count, so that a slow program still reports its figures in time ...
MAX_BUSY_FACTOR = 3
# ... and, whatever --seconds is, this long before the deadline, which
# leaves time for its set-up, its output checks and writing spans.
WRAP_UP_S = 25
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_POOL_VARS})
    env["PYTHONPATH"] = str(root / "src")  # the checkout's failsim, nothing else
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root, args, deadline, stderr_path):
    """Start worker.py, wait for it, return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after {DEADLINE_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def end_to_end(report, setup_samples):
    lat = report["latencies"]
    busy = sum(lat)
    return {
        "setup_s": statistics.median(setup_samples),
        "iterations_per_s": sum(report["iterations"]) / busy,
        "requests_per_s": len(lat) / busy,
        "request_ms_p50": statistics.median(lat) * 1e3,
        "request_ms_p95": statistics.quantiles(lat, n=20, method="inclusive")[18] * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def per_layer(trace, names):
    """Per-layer values by name: ``<span>.self_s`` is that span name's self
    time, a name listed in the table below is derived, any other name is a
    counter.  Layers a run never called read 0."""
    self_s, counts = trace["self_s"], trace["counts"]

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    derived = {
        "procgen.point_reuse_ratio": lambda: ratio("procgen.new_points", "procgen.points"),
        "restart.scan_useful_ratio": lambda: ratio("restart.attempts", "restart.marks_drawn"),
        "checkpoint.scan_useful_ratio":
            lambda: ratio("checkpoint.attempts", "checkpoint.marks_drawn"),
        "trace.overhead_frac": lambda: trace["traced_s"] / trace["untraced_s"] - 1.0,
        "trace.spans": lambda: trace["spans"],
    }
    suffix = ".self_s"
    return {name: derived[name]() if name in derived
            else self_s.get(name[:-len(suffix)], 0.0) if name.endswith(suffix)
            else counts.get(name, 0)
            for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "failsim" / "__init__.py").is_file():
        print("error: src/failsim not found; run from the root of a failsim checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    out_root = HERE / ".out"
    run_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    stderr_path = run_dir / "worker.stderr"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(root, [*common, "--setup-only"], deadline,
                                         stderr_path)["setup_s"])
        max_busy = min(MAX_BUSY_FACTOR * args.seconds,
                       deadline - time.monotonic() - WRAP_UP_S)
        report = run_worker(root, [*common, "--seconds", str(args.seconds),
                                   "--max-busy", repr(max_busy),
                                   "--out", str(run_dir / "requests"),
                                   *(["--spans", str(out_root / f"spans-{args.workload}-"
                                                     f"{args.seed}.jsonl")]
                                     if args.trace else [])],
                            deadline, stderr_path)
        setups.append(report["setup_s"])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if stderr_path.exists():
            sys.stderr.write(stderr_path.read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = report["attempted"]
    failed = report["failed"]
    for failure in report["failures"][:5]:
        print(f"failed: {json.dumps(failure)}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    values = per_layer(report["trace"], names) if args.trace else end_to_end(report, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": attempted, "failed_frac": failed / attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **report["versions"],
    }))
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
