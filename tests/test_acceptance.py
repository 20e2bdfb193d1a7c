"""End-to-end acceptance checks, one per headline behavior.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts survive pytest's capture in batch logs.  Stochastic checks run
at fixed seeds; where a property is almost-sure (not guaranteed in any
finite realization) the pinned seed is part of the contract.
"""

import json
import math
import sys
import time

import numpy as np
from scipy import stats

from failsim import analytic, checkpoint, restart, rwalk, universal
from failsim.analytic import TimeClass
from failsim.dist import Exponential, Pareto, Weibull
from failsim.procgen import (
    MarkovRenewalSpec,
    generate_mixture,
    generate_renewal,
    generate_markov_renewal,
)
from failsim.rng import CounterStream


def report(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_1_expected_time_closed_form(capfd):
    worst = 0.0
    for b in (1.5, 2.0, 4.0):
        for a in (0.5, 1.0):
            et = analytic.expected_restart_time(Exponential(b), Exponential(a))
            worst = max(worst, abs(et.value - 1.0 / (b - a)))
    t0 = time.monotonic()
    w = generate_renewal(Exponential(2.0), 10**6, seed=7, mark_law=Exponential(1.0))
    recs = restart.run_restart(w, 10**6)
    mc_mean = float(np.mean([r.actual for r in recs]))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and abs(mc_mean - 1.0) < 0.01 and elapsed < 30.0
    report(capfd, 1, ok,
           f"quadrature sweep max err {worst:.2e}, MC mean {mc_mean:.4f} "
           f"(target 1.0 within 1%), {elapsed:.1f}s")


def test_criterion_2_infinite_expectation_regime(capfd):
    et = analytic.expected_restart_time(Exponential(1.0), Exponential(1.0))
    classified = et.classification is TimeClass.INFINITE_PROVED
    w = generate_renewal(Exponential(1.0), 10**6, seed=6, mark_law=Exponential(1.0))
    recs = restart.run_restart(w, 10**6)
    cum = np.cumsum([r.actual for r in recs])
    means = [cum[k - 1] / k for k in (10**3, 10**4, 10**5, 10**6)]
    increasing = all(m1 < m2 for m1, m2 in zip(means, means[1:]))
    ok = classified and increasing
    report(capfd, 2, ok,
           "InfiniteProved, running means "
           + " -> ".join(f"{m:.1f}" for m in means))


def test_criterion_3_efficiency_limits(capfd):
    w = generate_renewal(Exponential(2.0), 10**6, seed=7, mark_law=Exponential(1.0))
    est = restart.efficiency(restart.run_restart(w, 10**6))
    light_ok = abs(est.ratio - 0.5) < 0.01

    wp = generate_renewal(Pareto(1.0, 2.0), 10**6, seed=153, mark_law=Exponential(1.0))
    recs = restart.run_restart(wp, 10**6, attempt_cap=None)
    ideal = np.cumsum([r.ideal for r in recs])
    actual = np.cumsum([r.actual for r in recs])
    e4 = ideal[10**4 - 1] / actual[10**4 - 1]
    e6 = ideal[-1] / actual[-1]
    heavy = restart.efficiency(recs)
    heavy_ok = heavy.trend == "Decreasing" and e6 < e4 / 2
    ok = light_ok and heavy_ok
    report(capfd, 3, ok,
           f"exp pair e={est.ratio:.4f} (0.5 +/- 0.01); heavy trend {heavy.trend}, "
           f"e(1e6)={e6:.2e} < e(1e4)/2={e4 / 2:.2e}")


def test_criterion_4_nonergodic_mixture(capfd):
    reg1 = []
    reg0_curves = []
    for rep in range(50):
        w = generate_mixture(Exponential(1.0), Exponential(1.0), Exponential(0.5),
                             0.5, seed=2026, replication=rep)
        recs = restart.run_restart(w, 10**5)
        if w.regime == 1:
            reg1.append(restart.efficiency(recs).ratio)
        else:
            ideal = np.cumsum([r.ideal for r in recs])
            actual = np.cumsum([r.actual for r in recs])
            reg0_curves.append(
                [ideal[k - 1] / actual[k - 1] for k in (10**3, 10**4, 10**5)]
            )
    m1 = float(np.mean(reg1))
    curve = np.mean(reg0_curves, axis=0)
    decreasing = bool(curve[0] > curve[1] > curve[2])
    ok = abs(m1 - 0.5) / 0.5 < 0.02 and decreasing and len(reg1) and len(reg0_curves)
    report(capfd, 4, ok,
           f"regime-1 mean {m1:.4f} (0.5 within 2%, {len(reg1)} reps); regime-0 mean "
           f"curve {curve[0]:.3f} -> {curve[1]:.3f} -> {curve[2]:.3f} decreasing")


def test_criterion_5_hop_stationarity_and_dominance(capfd):
    d = l = Exponential(1.0)
    n = 10**5
    hop1 = checkpoint.simulate_hops(d, l, 1, seed=41, n_reps=n)["d_end"]
    hop5 = checkpoint.simulate_hops(d, l, 5, seed=42, n_reps=n)["d_end"]
    ks = stats.ks_2samp(hop1, hop5)
    qs = (np.arange(1, 51)) / 51.0
    ref = np.asarray(d.quantile(qs), dtype=float)
    dom1 = np.all(np.quantile(hop1, qs) >= ref - 1e-9)
    dom5 = np.all(np.quantile(hop5, qs) >= ref - 1e-9)
    ok = ks.pvalue > 0.01 and dom1 and dom5
    report(capfd, 5, ok,
           f"hop1 vs hop5 KS p={ks.pvalue:.3f} (>0.01), dominance on 50-point grid: "
           f"hop1 {bool(dom1)}, hop5 {bool(dom5)}")


def test_criterion_6_landed_interval_oracle(capfd):
    d = l = Exponential(1.0)
    n = 10**5
    engine = checkpoint.simulate_hops(d, l, 1, seed=43, n_reps=n)["d_end"]
    stream = CounterStream(seed=430)
    zs = Exponential(l.rate).sample_n(stream, n)
    oracle, _ = checkpoint.sample_beta_n(d, zs, stream)
    ks = stats.ks_2samp(engine, oracle)
    ok = ks.pvalue > 0.01
    report(capfd, 6, ok, f"engine vs total-lifetime oracle KS p={ks.pvalue:.3f} (>0.01)")


def test_criterion_7_universal_checkpoints(capfd):
    d = Exponential(1.0)
    lam = 1.0
    row_err = max(abs(universal.kernel_row(d, lam, k).sum() - 1.0) for k in range(11))

    n_pts = 10**5
    lookback = 200
    w = generate_renewal(d, n_pts, seed=21, mark_law=Exponential(lam))
    kappa = universal.compute_all_kappas(w, n_pts)
    proc = universal.compute_n_process(w, n_pts, lookback, kappa=kappa)
    vals = np.asarray(proc.values)

    bands_ok = True
    z99 = 2.576
    for k in range(4):
        idx = np.flatnonzero(vals[:-1] == k)
        nk = len(idx)
        if nk == 0:
            continue
        row = universal.kernel_row(d, lam, k)
        nxt = vals[idx + 1]
        for j, p in enumerate(row):
            exp_count = nk * p
            if exp_count < 25:
                continue
            freq = np.mean(nxt == j)
            if abs(freq - p) > z99 * math.sqrt(p * (1 - p) / nk):
                bands_ok = False

    flagged_ok = all(
        universal.verify_universal(kappa, int(n), lookback)
        for n in proc.universal_indices
    )
    slope, intercept, r2, _, _ = universal.universal_growth(proc)
    ok = row_err < 1e-8 and bands_ok and flagged_ok and r2 > 0.99
    report(capfd, 7, ok,
           f"kernel row err {row_err:.1e}, 99% bands k<=3 {bands_ok}, "
           f"{len(proc.universal_indices)} flagged all verified {flagged_ok}, "
           f"growth R^2={r2:.5f}")


def _truncated_spec(K):
    # uniform K-state chain; identical light-tailed size law per transition,
    # mark rate calibrated so each state contributes K*E[D] to the mean
    # actual time, so the efficiency is exactly 1/K and diverges as K grows
    from scipy import optimize

    d = Weibull(1.0, 2.0)
    target = K * d.mean()
    alpha = optimize.brentq(
        lambda a: analytic.expected_restart_time(d, Exponential(a)).value - target,
        0.05, 20.0, xtol=1e-12,
    )
    trans = np.full((K, K), 1.0 / K)
    pairs = [(i, j) for i in range(K) for j in range(K)]
    return MarkovRenewalSpec(
        states=tuple(f"s{i}" for i in range(K)),
        transition=trans,
        size_laws={p: d for p in pairs},
        mark_laws={p: Exponential(alpha) for p in pairs},
    )


def test_criterion_8_markov_renewal(capfd):
    spec = MarkovRenewalSpec(
        states=("a", "b"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        size_laws={(0, 1): Exponential(2.0), (1, 0): Exponential(3.0)},
        mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
    )
    ana = restart.mrp_efficiency(spec).ratio
    w = generate_markov_renewal(spec, 10**6, seed=3)
    sim = restart.efficiency(restart.run_restart(w, 10**6)).ratio
    alt_ok = abs(ana - 5.0 / 9.0) < 1e-6 and abs(sim - 5.0 / 9.0) / (5.0 / 9.0) < 0.01

    scaled = []
    for K in (2, 4, 8):
        sp = _truncated_spec(K)
        wk = generate_markov_renewal(sp, 2 * 10**5, seed=4)
        ek = restart.efficiency(restart.run_restart(wk, 2 * 10**5)).ratio
        scaled.append(K * ek)
    trunc_ok = all(abs(s - 1.0) < 0.10 for s in scaled)
    ok = alt_ok and trunc_ok
    report(capfd, 8, ok,
           f"alternating analytic {ana:.6f} sim {sim:.4f} (5/9 within 1%); "
           f"truncated K*e(K) = " + ", ".join(f"{s:.3f}" for s in scaled)
           + " (1 within 10%)")


def test_criterion_9_random_walk(capfd):
    p = 0.25
    n_tasks = 10**5
    w = generate_renewal(Exponential(2.0), n_tasks, seed=13, mark_law=Exponential(1.0))
    run = rwalk.simulate_walk_restart(w, p, n_tasks)
    epochs, _ = rwalk.find_regenerations(run.trace)
    rep = rwalk.walk_efficiency(run, epochs, min_blocks=10)
    direct = rep.direct.ratio
    agree = abs(direct - rep.formula_ratio) / direct < 0.02
    lag_ok = abs(rep.lag1_autocorr) < 4 * rep.lag1_se

    base = generate_renewal(Exponential(2.0), 2 * 10**4, seed=13,
                            mark_law=Exponential(1.0))
    e0 = restart.efficiency(restart.run_restart(base, 2 * 10**4)).ratio
    consts = rwalk.estimate_walk_constants(p, seed=5, n_walks=1000, horizon=5000)
    g, gse = consts["gamma"]
    r, rse = consts["rho"]
    se_prop = e0 * math.hypot(gse / r, g * rse / (r * r))
    bound_ok = direct >= (g / r) * e0 - 3 * se_prop

    run0 = rwalk.simulate_walk_restart(base, 0.0, 2 * 10**4)
    plain = restart.run_restart(base, 2 * 10**4)
    exact0 = (
        run0.records.actual.tolist() == plain.actual.tolist()
        and run0.records.ideal.tolist() == plain.ideal.tolist()
    )
    ok = agree and lag_ok and bound_ok and exact0
    report(capfd, 9, ok,
           f"direct {direct:.4f} vs formula {rep.formula_ratio:.4f} (2%), "
           f"lag1 {rep.lag1_autocorr:+.3f} (4SE={4 * rep.lag1_se:.3f}), "
           f"bound {direct:.4f} >= {(g / r) * e0 - 3 * se_prop:.4f}, "
           f"p=0 bit-exact {exact0}")


def test_criterion_10_deterministic_reruns(capfd, tmp_path):
    from failsim.cli import main

    scenario = str(
        __import__("pathlib").Path(__file__).resolve().parent.parent
        / "scenarios" / "restart_exp.yaml"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", scenario, "--override", "N=5000", "--out", str(out)])
        assert rc == 0
        outs.append((out / "summary.json").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    digest = json.loads(outs[0])["scenario_hash"]
    report(capfd, 10, ok, f"rerun byte-identical summary (hash {digest})")
