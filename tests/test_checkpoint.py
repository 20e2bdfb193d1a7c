import math

import numpy as np
import pytest
from scipy import stats

from failsim import checkpoint
from failsim.checkpoint import (
    CheckpointIterationRecord,
    ScanCapError,
    checkpoint_efficiency,
    estimate_limit_moments,
    run_checkpoint_iteration,
    run_checkpointing,
    sample_beta_n,
    simulate_hops,
)
from failsim.dist import Exponential, Pareto
from failsim.procgen import generate_renewal
from failsim.rng import CounterStream


def window(n=4000, seed=5, b=1.0, a=1.0):
    return generate_renewal(Exponential(b), n, seed=seed, mark_law=Exponential(a))


def test_record_invariants():
    with pytest.raises(ValueError):
        CheckpointIterationRecord(
            n=0, start_index=3, end_index=3, attempts=1,
            ideal=1.0, actual=1.0, overshoot=0.5,
        )
    with pytest.raises(ValueError):
        CheckpointIterationRecord(
            n=0, start_index=0, end_index=1, attempts=1,
            ideal=1.0, actual=1.0, overshoot=0.0,
        )


def test_chain_checks_hop_invariants(monkeypatch):
    def stuck(d, seed, replication, start, d_start, win, inclusive, scan_cap):
        n = len(start)
        return np.asarray(start), np.array(d_start, dtype=float), np.zeros(n, dtype=bool)

    monkeypatch.setattr(checkpoint, "covered_checkpoints", stuck)
    with pytest.raises(ValueError, match="advance"):
        run_checkpointing(window(), 10)


def test_chain_covers_window_monotonically():
    w = window()
    recs, _ = run_checkpointing(w, 200)
    assert len(recs) == 200
    prev_end = 0
    for i, r in enumerate(recs):
        assert r.start_index == prev_end
        assert r.end_index >= r.start_index + 1
        assert r.attempts >= 1
        assert r.actual >= r.ideal > 0
        assert r.overshoot > 0
        prev_end = r.end_index


def test_chain_matches_scalar_reference():
    w = window()
    recs, _ = run_checkpointing(w, 60)
    start = 0
    for n, r in enumerate(recs):
        ref, w = run_checkpoint_iteration(w, start, n=n)
        assert ref.end_index == r.end_index
        assert ref.actual == r.actual
        assert ref.overshoot == r.overshoot
        start = ref.end_index


def test_simulate_hops_agrees_with_chain():
    w = window(seed=31)
    recs, _ = run_checkpointing(w, 5)
    out = simulate_hops(Exponential(1.0), Exponential(1.0), 5, seed=31, n_reps=1)
    assert out["end_index"][0] == recs[-1].end_index
    assert out["attempts"][0] == recs[-1].attempts
    assert out["actual"][0] == recs[-1].actual
    assert out["ideal"][0] == recs[-1].ideal
    assert out["overshoot"][0] == recs[-1].overshoot


def test_simulate_hops_hashes_each_landed_size_once(monkeypatch):
    # the start sizes of hops 2-5 are the landed sizes of hops 1-4, and the
    # last hop's landed sizes are hashed once, as d_end
    hashed = []

    def recording(d, seed, replication, points, out=None):
        if np.ndim(points) == 1:  # the coverage scan hashes (tasks, chunk) tiles
            hashed.append(tuple(points))
        return keyed_sizes(d, seed, replication, points, out=out)

    keyed_sizes = checkpoint.keyed_sizes
    monkeypatch.setattr(checkpoint, "keyed_sizes", recording)
    out = simulate_hops(Exponential(1.0), Exponential(1.0), 5, seed=31, n_reps=1000)
    assert len(hashed) == 6 and len(set(hashed)) == 6
    assert hashed[-1] == tuple(out["end_index"])


def test_simulate_hops_needs_a_hop():
    with pytest.raises(ValueError):
        simulate_hops(Exponential(1.0), Exponential(1.0), 0, seed=31, n_reps=10)


def test_scan_cap_raises():
    # tiny sizes vs huge winning marks force very long coverage scans
    w = generate_renewal(
        Exponential(200.0), 64, seed=2, mark_law=Exponential(0.02)
    )
    with pytest.raises(ScanCapError):
        run_checkpointing(w, 10, scan_cap=50)


def test_beta_sampler_matches_length_biased_limit():
    # far from the origin, the covering interval of a Poisson process is
    # the length-biased interval: Gamma(shape 2)
    stream = CounterStream(seed=44)
    xs, _ = sample_beta_n(Exponential(1.0), np.full(20_000, 50.0), stream)
    res = stats.kstest(xs, stats.gamma(2).cdf)
    assert res.pvalue > 0.01


def cover_reference(d, t, stream):
    """One fresh renewal sequence over ``t``, one draw at a time: the
    covering inter-arrival and how many came before it."""
    s, before = 0.0, 0
    while True:
        x = d.sample(stream)
        if s + x >= t:
            return x, before
        s += x
        before += 1


@pytest.mark.parametrize("d", [Exponential(1.0), Pareto(1.0, 2.5)], ids=str)
def test_cover_walk_matches_one_draw_at_a_time(d):
    ts = [0.01, 0.5, 3.0, 40.0]
    for seed, t in enumerate(ts):
        got, before = sample_beta_n(d, [t], CounterStream(seed=seed))
        assert (got[0], before[0]) == cover_reference(d, t, CounterStream(seed=seed))
    with pytest.raises(ValueError):
        sample_beta_n(d, [1.0, 0.0], CounterStream(seed=8))


def test_landed_interval_engine_vs_oracle():
    d, l = Exponential(1.0), Exponential(1.0)
    n = 20_000
    eng = simulate_hops(d, l, 1, seed=9, n_reps=n)["d_end"]
    # the landed interval is the one covering an exp(rate) overshoot
    stream = CounterStream(seed=90)
    orc, _ = sample_beta_n(d, Exponential(l.rate).sample_n(stream, n), stream)
    res = stats.ks_2samp(eng, orc)
    assert res.pvalue > 0.01


def test_landed_interval_follows_its_exact_law():
    # an exp(1) overshoot lands in the inter-arrival that covers it, whose
    # law for exp(1) sizes is P(D <= y) = (1 - e^-y)^2
    d_end = simulate_hops(Exponential(1.0), Exponential(1.0), 1, seed=43, n_reps=10**5)["d_end"]
    res = stats.kstest(d_end, lambda y: np.expm1(-y) ** 2)
    assert res.pvalue > 0.01


def test_landed_interval_dominates_base_law():
    out = simulate_hops(Exponential(1.0), Exponential(1.0), 1, seed=9, n_reps=20_000)
    d_end = out["d_end"]
    base = Exponential(1.0)
    qs = np.linspace(0.05, 0.95, 19)
    emp = np.quantile(d_end, qs)
    ref = np.asarray(base.quantile(qs), dtype=float)
    assert np.all(emp >= ref - 1e-9)


def test_efficiency_estimate_shape():
    w = window(n=20_000, seed=13, b=2.0, a=1.0)
    recs, _ = run_checkpointing(w, 2000)
    est = checkpoint_efficiency(recs)
    assert 0.0 <= est.ratio <= 1.0
    est2, companion = checkpoint_efficiency(recs, burn_in=100)
    assert 0.0 <= est2.ratio <= 1.0
    assert companion is not None


def test_limit_moments_exponential_marks():
    stream = CounterStream(seed=77)
    out = estimate_limit_moments(Exponential(1.0), Exponential(1.0), 20_000, stream)
    d_mean, d_se = out["E_D_infinity"]
    # limit landed interval = total lifetime at exp(1) overshoot: mean 2 - something
    assert d_mean > Exponential(1.0).mean()  # inspection paradox
    assert d_se < 0.05


def test_heavy_marks_make_long_hops():
    # heavier marks secure more checkpoints per hop on average
    w_light = window(seed=3, a=2.0)
    w_heavy = window(seed=3, a=0.5)
    hops_light, _ = run_checkpointing(w_light, 300)
    hops_heavy, _ = run_checkpointing(w_heavy, 300)
    span = lambda recs: np.mean(recs.end_index - recs.start_index)
    assert span(hops_heavy) > span(hops_light)
