"""Scenario-driven experiment runner.

    failsim run <scenario> [--seed S] [--override k=v ...] [--out DIR]
    failsim compare <scenario> [--seed S] [--override k=v ...]
    failsim validate <scenario>

Exit codes: 0 ok, 2 validation error, 3 engine pathology.

All outputs are pure functions of (scenario, seed): summaries carry the
scenario hash, aggregation order is fixed by replication id, and no
timestamps are emitted, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.resources
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from . import checkpoint as cp
from . import restart as rs
from . import rwalk as rw
from . import universal as un
from .analytic import expected_checkpoint_time, expected_restart_time
from .dist import Exponential, format_distribution
from .procgen import ProcessError, generate_markov_renewal, generate_mixture, generate_renewal
from .restart import PathologicalIterationError
from .scenario import Scenario, ScenarioError, apply_overrides, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENGINE = 3


@functools.cache
def _summary_validator():
    """The summary schema's validator, read and checked on first use only."""
    ref = importlib.resources.files("failsim") / "schemas" / "summary.schema.json"
    schema = json.loads(ref.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_summary(summary: dict):
    """Raise what ``jsonschema.validate(summary, schema)`` raises, if anything."""
    error = jsonschema.exceptions.best_match(_summary_validator().iter_errors(summary))
    if error is not None:
        raise error


def _make_window(sc: Scenario, rep: int):
    if sc.process_kind == "renewal":
        return generate_renewal(sc.size_law, 1, sc.seed, rep, mark_law=sc.mark_law)
    if sc.process_kind == "mixture":
        return generate_mixture(
            sc.size_law, sc.mixture["marks0"], sc.mixture["marks1"],
            sc.mixture["p0"], sc.seed, rep,
        )
    return generate_markov_renewal(sc.mrp_spec, sc.iterations, sc.seed, rep)


def _curve_grid(n: int, points: int):
    """The N of a run's curve over n iterations; every replication of a run
    has the same n, so a runner makes the grid once."""
    return np.unique(np.geomspace(1, n, points).astype(int))


def _ratio_curve(records, grid):
    """(N, running efficiency) pairs on the curve grid."""
    return list(zip(grid.tolist(), rs.running_ratio(records.ideal, records.actual, grid)))


def _mean_se(xs):
    xs = np.asarray(xs, dtype=float)
    se = float(np.std(xs) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
    return float(np.mean(xs)), se


def _estimate(xs: list):
    """Mean, standard error and per-replication values: one summary estimate."""
    mean, se = _mean_se(xs)
    return {"mean": mean, "se": se, "per_rep": xs}


def _est_dict(e: rs.EfficiencyEstimate):
    return {
        "ratio": e.ratio,
        "window_ratios": list(e.window_ratios),
        "converged": e.converged,
        "trend": e.trend,
        "n_iterations": e.n_iterations,
    }


# ---------------------------------------------------------------------------
# Per-model runners: each returns (per_rep, estimates, diagnostics, traces,
# curves) where traces[rep] = (header, columns), each column an array or a
# list with one value per trace row, and curves[rep] = list of (N, value)
# pairs.


def _run_restart(sc: Scenario):
    """Every replication's tasks share the scans of `restart.run_replications`."""
    per_rep, traces, curves = [], [], []
    windows = [_make_window(sc, rep) for rep in range(sc.replications)]
    runs = rs.run_replications(windows, sc.iterations, attempt_cap=sc.attempt_cap)
    grid = _curve_grid(sc.iterations, sc.curve_points)
    for window, records in zip(windows, runs):
        est = rs.efficiency(records, sc.tolerance)
        entry = _est_dict(est)
        if window.regime is not None:
            entry["regime"] = window.regime
        per_rep.append(entry)
        n = len(records)
        states = ([""] * n if window.mrp_spec is None else
                  np.array(window.mrp_spec.states, dtype=object)[window.state_labels[:n]])
        regime = "" if window.regime is None else window.regime
        traces.append((
            ("n", "ideal", "failures", "actual", "state", "regime"),
            [records.n, records.ideal, records.failures, records.actual, states, [regime] * n],
        ))
        curves.append(_ratio_curve(records, grid))
    estimates = {"efficiency": _estimate([p["ratio"] for p in per_rep])}
    diagnostics = {"trends": [p["trend"] for p in per_rep],
                   "converged": [p["converged"] for p in per_rep]}
    return per_rep, estimates, diagnostics, traces, curves


def _run_checkpoint(sc: Scenario):
    """Every replication's chain moves in the lockstep of `checkpoint.run_chains`."""
    per_rep, traces, curves = [], [], []
    companions = []
    windows = [_make_window(sc, rep) for rep in range(sc.replications)]
    grid = _curve_grid(sc.iterations, sc.curve_points)
    for records in cp.run_chains(windows, sc.iterations, attempt_cap=sc.attempt_cap,
                                 scan_cap=sc.scan_cap):
        burn = sc.burn_in if sc.burn_in < sc.iterations else None
        if burn is not None:
            est, companion = cp.checkpoint_efficiency(records, sc.tolerance, burn_in=burn)
            companions.append(companion)
        else:
            est = cp.checkpoint_efficiency(records, sc.tolerance)
        entry = _est_dict(est)
        per_rep.append(entry)
        traces.append((records.dtype.names, [records[f] for f in records.dtype.names]))
        curves.append(_ratio_curve(records, grid))
    estimates = {"efficiency": _estimate([p["ratio"] for p in per_rep])}
    if companions:
        estimates["burn_in_companion"] = _estimate(companions)
    diagnostics = {"trends": [p["trend"] for p in per_rep],
                   "converged": [p["converged"] for p in per_rep]}
    return per_rep, estimates, diagnostics, traces, curves


def _run_universal(sc: Scenario):
    per_rep, traces, curves = [], [], []
    lam = sc.mark_law.rate
    kernel_rows = {
        k: un.kernel_row(sc.size_law, lam, k).tolist() for k in range(4)
    }
    grid = _curve_grid(sc.iterations - sc.lookback, sc.curve_points)  # the N process's span
    for rep in range(sc.replications):
        window = _make_window(sc, rep)
        kappa = un.compute_all_kappas(window, sc.iterations, attempt_cap=sc.attempt_cap,
                                      scan_cap=sc.scan_cap)
        nproc = un.compute_n_process(window, sc.iterations, sc.lookback, kappa=kappa)
        vals = nproc.values
        empirical = {}
        for k in range(4):
            sel = np.nonzero(vals[:-1] == k)[0]
            if len(sel):
                freq = np.bincount(vals[sel + 1], minlength=k + 2)[: k + 2] / len(sel)
                empirical[k] = {"n": int(len(sel)), "freq": freq.tolist()}
        density = float((vals == 0).mean())
        per_rep.append({
            "universal_density": density,
            "n_universal": int(len(nproc.universal_indices)),
            "max_hop": nproc.max_hop,
            "boundary_ok": nproc.boundary_ok,
            "empirical_kernel": empirical,
        })
        blank = min(sc.lookback, sc.iterations)
        traces.append((
            ("n", "kappa", "N"),
            [np.arange(sc.iterations), kappa[:sc.iterations],
             [""] * blank + vals[: sc.iterations - blank].tolist()],
        ))
        cum = np.cumsum(vals == 0)
        curves.append([(int(k), int(cum[k - 1])) for k in grid])
    estimates = {"universal_density": _estimate([p["universal_density"] for p in per_rep])}
    diagnostics = {
        "analytic_kernel": kernel_rows,
        "boundary_ok": [p["boundary_ok"] for p in per_rep],
        "max_hop": [p["max_hop"] for p in per_rep],
    }
    return per_rep, estimates, diagnostics, traces, curves


def _run_rwalk(sc: Scenario):
    per_rep, traces, curves = [], [], []
    grid = _curve_grid(sc.iterations, sc.curve_points)
    for rep in range(sc.replications):
        window = _make_window(sc, rep)
        run = rw.simulate_walk_restart(window, sc.walk_p, sc.iterations,
                                       attempt_cap=sc.attempt_cap)
        epochs, censored = rw.find_regenerations(run.trace)
        entry = {"censored_epochs": censored, "n_epochs": int(len(epochs))}
        try:
            rep_report = rw.walk_efficiency(run, epochs, min_blocks=10,
                                            tolerance=sc.tolerance)
            entry.update({
                "direct": _est_dict(rep_report.direct),
                "formula_ratio": rep_report.formula_ratio,
                "mean_block_time": rep_report.mean_block_time,
                "wald_block_time": rep_report.wald_block_time,
                "lag1_autocorr": rep_report.lag1_autocorr,
                "mean_epoch_spacing": rep_report.mean_epoch_spacing,
                "mean_level_gain": rep_report.mean_level_gain,
                "n_blocks": rep_report.n_blocks,
            })
        except ValueError as exc:
            entry["block_error"] = str(exc)
        per_rep.append(entry)
        steps = len(run.task_index)
        traces.append((
            ("step", "position", "task_index", "visit_time"),
            [np.arange(1, steps + 1), run.trace.positions[1:], run.task_index,
             run.visit_times],
        ))
        curves.append(_ratio_curve(run.records, grid))
    consts = rw.walk_constants(sc.walk_p)
    direct = [p["direct"]["ratio"] for p in per_rep if "direct" in p]
    formula = [p["formula_ratio"] for p in per_rep if "formula_ratio" in p]
    estimates = {}
    if direct:
        estimates["direct_efficiency"] = _estimate(direct)
        estimates["formula_efficiency"] = _estimate(formula)
    estimates["gamma"] = {"mean": consts["gamma"][0], "se": consts["gamma"][1]}
    estimates["rho"] = {"mean": consts["rho"][0], "se": consts["rho"][1]}
    diagnostics = {
        "lag1_autocorr": [p.get("lag1_autocorr") for p in per_rep],
        "censored_epochs": [p["censored_epochs"] for p in per_rep],
    }
    return per_rep, estimates, diagnostics, traces, curves


def _expected_time_dict(et):
    return {
        "value": et.value if math.isfinite(et.value) else "Infinity",
        "classification": et.classification.value,
        "abs_error_bound": et.abs_error_bound,
    }


def _run_analytic(sc: Scenario):
    etr = expected_restart_time(sc.size_law, sc.mark_law)
    etc = expected_checkpoint_time(sc.size_law, sc.mark_law)
    estimates = {
        "expected_restart_time": _expected_time_dict(etr),
        "expected_checkpoint_time": _expected_time_dict(etc),
        "mean_size": sc.size_law.mean(),
    }
    if etr.finite:
        estimates["restart_efficiency"] = sc.size_law.mean() / etr.value
    diagnostics = {"size": format_distribution(sc.size_law),
                   "marks": format_distribution(sc.mark_law)}
    return [], estimates, diagnostics, [], []


_RUNNERS = {
    "restart": _run_restart,
    "checkpoint": _run_checkpoint,
    "universal": _run_universal,
    "rwalk": _run_rwalk,
    "analytic": _run_analytic,
}


def run_scenario(sc: Scenario, out_dir: Path) -> dict:
    per_rep, estimates, diagnostics, traces, curves = _RUNNERS[sc.model](sc)
    summary = {
        "model": sc.model,
        "seed": sc.seed,
        "scenario_hash": sc.hash(),
        "n_iterations": sc.iterations,
        "replications": sc.replications,
        "estimates": estimates,
        "diagnostics": diagnostics,
        "per_replication": per_rep,
    }
    validate_summary(summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    with open(out_dir / "curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("rep", "N", "value"))
        for rep, curve in enumerate(curves):
            for n, v in curve:
                w.writerow((rep, n, repr(v) if isinstance(v, float) else v))
    if sc.write_traces:
        for rep, (header, columns) in enumerate(traces):
            columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
            with open(out_dir / f"rep_{rep}_trace.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                for row in zip(*columns):
                    w.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return summary


# ---------------------------------------------------------------------------
# compare


def _fmt(x):
    if isinstance(x, str):
        return x
    if x is None:
        return "-"
    return f"{x:.6g}"


def compare_report(sc: Scenario):
    """Rows of (quantity, analytic, simulated, se, agrees)."""
    rows = []
    if sc.model == "restart" and sc.process_kind == "renewal":
        et = expected_restart_time(sc.size_law, sc.mark_law)
        window = _make_window(sc, 0)
        records = rs.run_restart(window, sc.iterations, attempt_cap=sc.attempt_cap)
        actual = records.actual
        mean_a, se_a = _mean_se(actual)
        if et.finite:
            rows.append(("E[actual time]", et.value, mean_a, se_a,
                         abs(mean_a - et.value) <= 3 * se_a))
            e_analytic = sc.size_law.mean() / et.value
            est = rs.efficiency(records, sc.tolerance)
            se_r = est.ratio * se_a / mean_a if mean_a > 0 else 0.0
            rows.append(("efficiency", e_analytic, est.ratio, se_r,
                         abs(est.ratio - e_analytic) <= max(3 * se_r, sc.tolerance)))
        else:
            n = len(actual)
            means = [actual[: n // 4].mean(), actual[: n // 2].mean(), actual.mean()]
            growing = means[0] < means[1] < means[2]
            rows.append(("E[actual time]", f"Infinity ({et.classification.value})",
                         "growing" if growing else "not growing", None, growing))
    elif sc.model == "restart" and sc.process_kind == "markov":
        mrp = rs.mrp_efficiency(sc.mrp_spec)
        window = _make_window(sc, 0)
        records = rs.run_restart(window, sc.iterations, attempt_cap=sc.attempt_cap)
        est = rs.efficiency(records, sc.tolerance)
        rows.append(("efficiency", mrp.ratio, est.ratio, None,
                     abs(est.ratio - mrp.ratio) <= max(0.01, 3 * sc.tolerance)))
    elif sc.model == "checkpoint":
        _, estimates, _, _, _ = _run_checkpoint(sc)
        sim = estimates["efficiency"]["mean"]
        comp = estimates.get("burn_in_companion", {}).get("mean")
        rows.append(("efficiency (running vs burn-in)", comp, sim,
                     estimates["efficiency"]["se"],
                     comp is not None and abs(sim - comp) <= max(0.01, 3 * estimates["efficiency"]["se"])))
    elif sc.model == "universal":
        lam = sc.mark_law.rate
        pi = un.stationary_n_distribution(sc.size_law, lam, truncation=80)
        _, estimates, _, _, _ = _run_universal(sc)
        dens = estimates["universal_density"]["mean"]
        rows.append(("P[N = 0]", float(pi[0]), dens, estimates["universal_density"]["se"],
                     abs(dens - pi[0]) <= 0.02))
    elif sc.model == "rwalk":
        _, estimates, _, _, _ = _run_rwalk(sc)
        if "direct_efficiency" in estimates:
            d = estimates["direct_efficiency"]["mean"]
            f = estimates["formula_efficiency"]["mean"]
            rows.append(("efficiency (direct vs block formula)", f, d,
                         estimates["direct_efficiency"]["se"],
                         abs(d - f) <= max(0.02 * max(d, 1e-12), 3 * estimates["direct_efficiency"]["se"])))
        # the exact walk constants against their Monte Carlo estimate, with
        # the horizon's bias allowed for by a fixed margin
        mc = rw.estimate_walk_constants(sc.walk_p, sc.seed, n_walks=1000, horizon=5000)
        for name, margin in (("gamma", 0.01), ("rho", 0.02)):
            exact = estimates[name]["mean"]
            value, se = mc[name]
            rows.append((name, exact, value, se, abs(value - exact) <= 4 * se + margin))
    elif sc.model == "analytic":
        etr = expected_restart_time(sc.size_law, sc.mark_law)
        etc = expected_checkpoint_time(sc.size_law, sc.mark_law)
        rows.append(("E[restart time]", _expected_time_dict(etr)["value"],
                     etr.classification.value, None, True))
        rows.append(("E[checkpoint time]", _expected_time_dict(etc)["value"],
                     etc.classification.value, None, True))
    else:
        raise ScenarioError("model", f"no analytic counterpart for {sc.model!r} "
                                     f"on a {sc.process_kind!r} process")
    return rows


def _print_compare(rows):
    widths = (34, 22, 22, 12, 8)
    header = ("quantity", "analytic", "simulated", "se", "agrees")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for q, a, s, se, ok in rows:
        cells = (q, _fmt(a), _fmt(s), _fmt(se), "yes" if ok else "NO")
        print("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))


# ---------------------------------------------------------------------------
# entry point


def _load(args) -> Scenario:
    with open(args.scenario) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("<document>", "scenario must be a mapping")
    overrides = list(getattr(args, "override", []) or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"run.seed={args.seed}")
    if overrides:
        doc = apply_overrides(doc, overrides)
    return load_scenario(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="failsim",
                                     description="failure-recovery simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--override", action="append", default=[], metavar="k=v")
    p_run.add_argument("--out", default="out")

    p_cmp = sub.add_parser("compare", help="analytic vs simulated table")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--override", action="append", default=[], metavar="k=v")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")

    args = parser.parse_args(argv)
    try:
        sc = _load(args)
    except (ScenarioError, OSError, yaml.YAMLError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "validate":
        print(f"ok: model={sc.model} hash={sc.hash()}")
        return EXIT_OK

    try:
        if args.command == "run":
            summary = run_scenario(sc, Path(args.out))
            print(f"wrote {args.out}/summary.json (hash {summary['scenario_hash']})")
            return EXIT_OK
        rows = compare_report(sc)
        _print_compare(rows)
        return EXIT_OK
    except (PathologicalIterationError, cp.ScanCapError, ProcessError) as exc:
        print(f"engine pathology: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ScenarioError as exc:  # e.g. compare on a model with no analytic counterpart
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # e.g. --out names an existing file
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
