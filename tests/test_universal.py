import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from failsim import universal
from failsim.checkpoint import run_checkpoint_iteration
from failsim.dist import Deterministic, Exponential, Pareto, Weibull
from failsim.procgen import generate_renewal
from failsim.universal import (
    MarkLawError,
    analytic_n_kernel,
    compute_all_kappas,
    compute_n_process,
    kernel_row,
    stationary_n_distribution,
    universal_growth,
    verify_universal,
)


def window(n=3000, seed=5):
    return generate_renewal(Exponential(1.0), n, seed=seed, mark_law=Exponential(1.0))


def test_kappa_matches_scalar_checkpoint_reference():
    w = window(500)
    kappa = compute_all_kappas(w, 400)
    for n in range(400):
        ref, w = run_checkpoint_iteration(w, n, inclusive=True)
        assert ref.end_index == kappa[n]


def test_kappa_exceeds_start():
    w = window(500)
    kappa = compute_all_kappas(w, 400)
    assert np.all(kappa > np.arange(400))


def test_nonexponential_marks_rejected():
    w = generate_renewal(Exponential(1.0), 100, seed=1, mark_law=Weibull(1.0, 2.0))
    with pytest.raises(MarkLawError):
        compute_all_kappas(w, 50)


def test_n_process_counts_match_bruteforce():
    w = window(400)
    n_pts = 300
    kappa = compute_all_kappas(w, n_pts)
    lb = 150
    proc = compute_n_process(w, n_pts, lookback=lb, kappa=kappa)
    # brute force: N_n = #{m in [n - lookback, n) : kappa_m > n}
    for n in range(proc.first_index, n_pts):
        brute = int(np.sum(kappa[n - lb:n] > n))
        assert proc.values[n - proc.first_index] == brute


def test_universal_indices_are_zeros_of_n():
    w = window(800)
    kappa = compute_all_kappas(w, 600)
    proc = compute_n_process(w, 600, lookback=200, kappa=kappa)
    zeros = proc.first_index + np.flatnonzero(np.asarray(proc.values) == 0)
    assert np.array_equal(np.asarray(proc.universal_indices), zeros)
    for n in proc.universal_indices:
        assert verify_universal(kappa, int(n), 200)


def test_verify_universal_rejects_non_universal():
    w = window(800)
    kappa = compute_all_kappas(w, 600)
    proc = compute_n_process(w, 600, lookback=200, kappa=kappa)
    flagged = set(int(x) for x in proc.universal_indices)
    non_flagged = [n for n in range(proc.first_index, 600) if n not in flagged]
    assert any(not verify_universal(kappa, n, 200) for n in non_flagged[:50])


def test_kernel_rows_sum_to_one():
    d = Exponential(1.0)
    for k in range(11):
        row = kernel_row(d, 1.0, k)
        assert abs(row.sum() - 1.0) < 1e-8
        assert np.all(row >= -1e-15)


def test_kernel_out_of_range_is_zero():
    assert analytic_n_kernel(Exponential(1.0), 1.0, 2, 5) == 0.0


def test_kernel_closed_form_entries():
    # exp(1) sizes, rate-1 marks: entry (k=1 -> j=2) is E[e^{-2D}] = 1/3
    d = Exponential(1.0)
    assert analytic_n_kernel(d, 1.0, 1, 2) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # k=0 -> j=1: E[e^{-D}] = 1/2
    assert analytic_n_kernel(d, 1.0, 0, 1) == pytest.approx(0.5, abs=1e-10)
    # direct quadrature cross-check of a middle entry
    val, _ = integrate.quad(
        lambda t: 3 * math.exp(-t) * (1 - math.exp(-t)) ** 2 * math.exp(-t), 0, 50
    )
    assert analytic_n_kernel(d, 1.0, 2, 1) == pytest.approx(val, abs=1e-9)


def test_kernel_entries_in_an_endpoint_layer():
    # Weibull(2, 4) sizes and mark rate 4: s**(k+1) = exp(-4 (k+1) Q(w)) puts
    # the last entry of each row in a layer at w = 0 spanning many decades,
    # where quad in w reported roundoff and returned 2.64e-7 at k = 11
    d, lam = Weibull(2.0, 4.0), 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [kernel_row(d, lam, k) for k in range(12)]
    for row in rows:
        assert row.sum() == pytest.approx(1.0, abs=1e-10)

    # the same entry as E[exp(-48 T)] over the Weibull density of T
    def density_term(t):
        return math.exp(-12 * lam * t) * 2.0 * (t / 2.0) ** 3 * math.exp(-((t / 2.0) ** 4))

    val, _ = integrate.quad(density_term, 0.0, math.inf, epsabs=0.0, epsrel=1e-13)
    assert rows[11][12] == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("lam", (0.3, 1.0, 4.0))
@pytest.mark.parametrize("mu", (0.2, 1.0, 2.5))
def test_exponential_kernel_is_the_quadrature(mu, lam):
    # exp(mu) sizes take the closed form; analytic_n_kernel integrates
    d = Exponential(mu)
    for k in (0, 1, 3, 9):
        ref = [analytic_n_kernel(d, lam, k, j) for j in range(k + 2)]
        assert np.max(np.abs(kernel_row(d, lam, k) - ref)) <= 1e-12


def test_kernel_rows_sum_to_one_with_an_endpoint_layer():
    # Weibull(3, 4) sizes at mark rate 5: quad in w missed a layer at an
    # end of (0, 1) without a warning, and these rows summed to
    # 1 - 4.7e-8, 1 - 4.1e-6 and 1 - 1.7e-5
    d = Weibull(3.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (9, 21, 39):
            assert abs(kernel_row(d, 5.0, k).sum() - 1.0) <= 1e-12


def test_stationary_distribution_is_a_fixed_point():
    d = Exponential(1.0)
    pi = stationary_n_distribution(d, 1.0, truncation=80)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pi >= 0)
    # residual of one kernel application
    applied = np.zeros_like(pi)
    for k in range(60):
        row = kernel_row(d, 1.0, k)
        applied[: len(row)] += pi[k] * row
    assert np.max(np.abs(applied[:50] - pi[:50])) < 1e-6


def scalar_stationary(d, lam, truncation):
    """Reference law: the kernel entry by entry from analytic_n_kernel, and
    the Perron eigenvector of its transpose."""
    p = np.zeros((truncation, truncation))
    for k in range(truncation):
        for j in range(min(k + 2, truncation)):
            p[k, j] = analytic_n_kernel(d, lam, k, j)
    p /= p.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(p.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return pi / pi.sum()


pos = st.floats(min_value=0.2, max_value=5.0)
size_laws = st.one_of(
    st.builds(Exponential, pos),
    st.builds(Pareto, pos, st.floats(min_value=1.2, max_value=5.0)),
    st.builds(Weibull, pos, st.floats(min_value=0.4, max_value=4.0)),
    st.builds(Deterministic, pos),
)


@settings(max_examples=25, deadline=None)
@given(size_laws, pos, st.integers(min_value=8, max_value=40))
def test_stationary_matches_scalar_reference(d, lam, truncation):
    pi = stationary_n_distribution(d, lam, truncation=truncation)
    ref = scalar_stationary(d, lam, truncation)
    assert np.max(np.abs(pi - ref)) <= 1e-10


def test_zero_tolerance_takes_the_scalar_path(monkeypatch):
    rows = []

    def counted_row(d, lam, k):
        rows.append(k)
        return kernel_row(d, lam, k)

    monkeypatch.setattr(universal, "kernel_row", counted_row)
    d = Weibull(1.0, 2.0)
    fast = stationary_n_distribution(d, 1.0, truncation=20)
    assert rows == []
    monkeypatch.setattr(universal, "STATIONARY_TOL", 0.0)
    slow = stationary_n_distribution(d, 1.0, truncation=20)
    assert rows == list(range(20))
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_exponential_zero_state_is_inverse_e():
    # exp(1) sizes with rate-1 marks: P[N = 0] = e^{-1}
    pi = stationary_n_distribution(Exponential(1.0), 1.0, truncation=80)
    assert abs(pi[0] - math.exp(-1.0)) <= 1e-12


def test_empirical_zero_frequency_matches_stationary():
    w = window(40_000, seed=9)
    proc = compute_n_process(w, 40_000, lookback=200)
    freq0 = np.mean(np.asarray(proc.values) == 0)
    pi = stationary_n_distribution(Exponential(1.0), 1.0)
    assert abs(freq0 - pi[0]) < 0.02


def test_universal_growth_is_linear():
    w = window(40_000, seed=9)
    proc = compute_n_process(w, 40_000, lookback=200)
    slope, intercept, r2, xs, counts = universal_growth(proc)
    assert slope > 0
    assert r2 > 0.99
