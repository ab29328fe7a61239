"""Closed forms: trivia, derived values from independent oracles, invariants."""

import math

import numpy as np
import pytest

from admitlab.oracles import (
    OracleContext,
    accept_any_veto,
    f_majority,
    f_veto,
    gap_functions,
    majority_context,
    phi1_bound,
    tau,
    triangle_cdf,
    triangle_pdf,
    truncated_triangle_cdf,
    veto_context,
)
from admitlab.rng import Rng


# ---------------------------------------------------------------- f_majority

def test_f_majority_trivia():
    assert f_majority(0.5) == 0.5
    assert f_majority(0.0) == 0.0
    assert f_majority(1.0) == 1.0
    assert f_majority(0.25) == 0.375
    with pytest.raises(ValueError):
        f_majority(1.1)


def test_f_majority_monte_carlo():
    # independent oracle: simulate the majority step with the median pinned
    # at q and count admissions below q
    rng = Rng(11)
    n = 10 ** 6
    u = rng.uniform_block(2 * n)
    a, b = u[0::2], u[1::2]
    for q in (0.25, 0.5, 0.7):
        admitted = np.where(np.abs(q - a) <= np.abs(q - b), a, b)
        est = np.mean(admitted < q)
        f = f_majority(q)
        assert abs(est - f) < 3.0 * math.sqrt(f * (1 - f) / n)


# ------------------------------------------------------------ veto formulas

def test_accept_any_veto_trivia():
    assert accept_any_veto(0.5) == 0.5
    assert accept_any_veto(0.5 + 1e-15) == pytest.approx(0.5)
    assert accept_any_veto(0.0) == 0.0
    assert accept_any_veto(1.0) == 1.0


def test_accept_any_veto_monte_carlo():
    rng = Rng(12)
    n = 10 ** 6
    u = rng.uniform_block(2 * n)
    mid = 0.5 * (u[0::2] + u[1::2])
    for q in (0.3, 0.8):
        est = np.mean(mid < q)
        f = accept_any_veto(q)
        assert abs(est - f) < 3.0 * math.sqrt(f * (1 - f) / n)


def test_f_veto_values():
    assert f_veto(1.0) == 1.0
    assert f_veto(0.75) == pytest.approx(0.5625 / 0.875, abs=1e-15)
    with pytest.raises(ValueError):
        f_veto(0.5)
    with pytest.raises(ValueError):
        f_veto(0.3)


def test_f_veto_conditional_monte_carlo():
    # among accepted veto steps with the quantile pinned at q, the fraction
    # of admissions below q
    rng = Rng(13)
    n = 10 ** 6
    u = rng.uniform_block(2 * n)
    a, b = u[0::2], u[1::2]
    q = 0.75
    accepted = (a + b) * 0.5 < q
    admitted = np.maximum(a, b)[accepted]
    est = np.mean(admitted < q)
    f = f_veto(q)
    assert abs(est - f) < 3.0 * math.sqrt(f * (1 - f) / admitted.size)


def test_tau_trivia_and_bisection():
    assert tau(1.0) == pytest.approx(1.0, abs=1e-15)
    assert tau(0.5 + 1e-9) == pytest.approx(0.5, abs=1e-4)
    # derived: bisection solving f_veto(q) = p on (1/2, 1]
    for p in (0.6, 0.75, 0.9):
        lo, hi = 0.5 + 1e-9, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f_veto(mid) < p:
                lo = mid
            else:
                hi = mid
        assert abs(tau(p) - 0.5 * (lo + hi)) < 1e-12
    assert tau(0.75) == pytest.approx(0.8449489743, abs=1e-10)
    with pytest.raises(ValueError):
        tau(0.5)


def test_fixed_point_identity_grid():
    for i in range(1, 101):
        p = 0.5 + 0.5 * i / 100
        assert abs(f_veto(tau(p)) - p) <= 1e-12


# ----------------------------------------------------------- distributions

def test_triangle_cdf_values():
    assert triangle_cdf(0.5) == 0.5
    assert triangle_cdf(0.0) == 0.0
    assert triangle_cdf(1.0) == 1.0
    # derived by numeric integration of the density
    xs = np.linspace(0, 0.25, 20001)
    assert triangle_cdf(0.25) == pytest.approx(np.trapezoid([triangle_pdf(x) for x in xs], xs), abs=1e-9)
    assert triangle_cdf(0.25) == 0.125


def test_triangle_cdf_monotone():
    grid = np.linspace(0, 1, 10 ** 4)
    vals = [triangle_cdf(x) for x in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cdfs_on_arrays_match_floats_bit_for_bit():
    # an array is evaluated with the float's rounding, entry by entry; a
    # plain `** 2` squares with one multiply and differs in the last bit
    # for about one value in a thousand, which a KS maximum can land on
    u = Rng(12).uniform_block(200_000)
    xs = np.concatenate([u, u * 2.0 ** -40, [0.0, 0.5, 1.0,
                                            math.nextafter(0.5, 1.0)]])
    assert triangle_cdf(xs).tolist() == [triangle_cdf(x) for x in xs.tolist()]
    for q in (0.55, tau(0.75), 1.0):
        assert truncated_triangle_cdf(xs, q).tolist() == \
            [truncated_triangle_cdf(x, q) for x in xs.tolist()]
    assert type(triangle_cdf(0.3)) is float
    assert type(truncated_triangle_cdf(0.3, 0.75)) is float
    # the range check covers every entry
    for bad in (math.nan, 1.5, -1e-300):
        arr = np.array([0.2, bad, 0.7])
        with pytest.raises(ValueError, match="outside"):
            triangle_cdf(arr)
        with pytest.raises(ValueError, match="outside"):
            truncated_triangle_cdf(arr, 0.75)


def test_truncated_triangle_consistency():
    for q in (0.55, 0.75, 0.9, 1.0):
        assert truncated_triangle_cdf(q, q) == pytest.approx(f_veto(q), abs=1e-12)
        assert truncated_triangle_cdf(1.0, q) == pytest.approx(1.0, abs=1e-12)
    p = 0.75
    t = tau(p)
    assert truncated_triangle_cdf(t, t) == pytest.approx(p, abs=1e-9)


def test_truncated_triangle_cdf_is_a_law_on_grid():
    # on a q grid the CDF runs from 0 at 0 to 1 at 1 and never decreases,
    # the kink at q included
    xs = np.linspace(0, 1, 20001)
    for q in np.linspace(0.51, 1.0, 25):
        assert truncated_triangle_cdf(0.0, q) == 0.0
        assert truncated_triangle_cdf(1.0, q) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(truncated_triangle_cdf(xs, q)) >= 0.0)


def test_densities_integrate_to_one():
    xs = np.linspace(0, 1, 200001)
    tri = np.trapezoid([triangle_pdf(x) for x in xs], xs)
    assert abs(tri - 1.0) < 1e-9


# ------------------------------------------------------------ gap functions

def test_gap_functions_zero():
    ctx = majority_context()
    g = gap_functions(ctx, 0.0)
    assert g.g_r == 0.0 and g.g_l == 0.0
    with pytest.raises(ValueError):
        gap_functions(ctx, -0.1)


def test_gap_functions_majority_quadratic():
    # algebra: 1/2 - f_majority(1/2 - d) = 2d^2
    ctx = majority_context()
    for d in (0.05, 0.1, 0.2):
        g = gap_functions(ctx, d)
        assert g.g_r == pytest.approx(2 * d * d, abs=1e-15)
        assert g.g_l == pytest.approx(2 * d * d, abs=1e-15)
    assert gap_functions(ctx, 0.1).g_r == pytest.approx(0.02, abs=1e-15)


def test_gap_functions_veto_slope():
    # finite-difference derivative of f_veto at tau
    ctx = veto_context(0.75)
    h = 1e-7
    slope = (f_veto(ctx.tau + h) - f_veto(ctx.tau - h)) / (2 * h)
    assert slope == pytest.approx(1.29, abs=0.01)
    d = 1e-6
    g = gap_functions(ctx, d)
    assert g.g_r / d == pytest.approx(slope, rel=1e-3)
    assert g.g_l / d == pytest.approx(slope, rel=1e-3)


def test_gap_functions_increasing():
    for ctx in (majority_context(), veto_context(0.75)):
        deltas = np.linspace(0, min(ctx.tau - ctx.domain[0], 1 - ctx.tau) - 1e-6, 200)
        rs = [gap_functions(ctx, d).g_r for d in deltas]
        ls = [gap_functions(ctx, d).g_l for d in deltas]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert all(a < b for a, b in zip(ls, ls[1:]))
        assert all(v >= 0 for v in rs + ls)


def test_gap_functions_clamp():
    ctx = veto_context(0.75)
    g = gap_functions(ctx, ctx.tau)  # tau - delta hits the open boundary
    assert g.g_r == pytest.approx(0.25, abs=1e-12)  # p - limit(f) = p - 1/2


# -------------------------------------------------------------- phi1 bound

def test_phi1_values():
    ceiling = math.sqrt(0.375) + 0.5 - 0.75
    assert ceiling == pytest.approx(0.3624, abs=5e-5)
    assert phi1_bound(0.75) == pytest.approx(ceiling / 2, abs=1e-15)
    assert phi1_bound(0.75) == pytest.approx(0.1812, abs=5e-5)
    assert phi1_bound(0.5 + 1e-12) < 1e-6
    with pytest.raises(ValueError):
        phi1_bound(0.5)
    with pytest.raises(ValueError):
        phi1_bound(1.0)


def test_phi1_linear_gap_inequality_grid():
    # f_veto(tau - d) <= p - phi1*d over the whole admissible d range
    for p in (0.6, 0.75, 0.9):
        t = tau(p)
        phi1 = phi1_bound(p)
        for d in np.linspace(1e-9, t - 0.5 - 1e-9, 1000):
            assert f_veto(t - d) <= p - phi1 * d + 1e-12
    # spec spot check at p=0.9, d = (tau-1/2)/2
    p = 0.9
    d = (tau(p) - 0.5) / 2
    assert f_veto(tau(p) - d) <= p - phi1_bound(p) * d


def test_phi2_linear_gap_inequality_grid():
    # the symmetric constant: f'(tau) exceeds phi1 on both sides, so the
    # same margin certifies the right-hand linear gap on its range
    for p in (0.6, 0.75, 0.9):
        t = tau(p)
        for d in np.linspace(1e-9, 1 - t - 1e-12, 500):
            assert f_veto(t + d) >= p + phi1_bound(p) * d - 1e-12


# ----------------------------------------------------------- monotonicity

def test_f_monotone_grids():
    grid = np.linspace(0, 1, 10 ** 4)
    fm = [f_majority(x) for x in grid]
    assert all(a < b for a, b in zip(fm, fm[1:]))
    vgrid = np.linspace(0.5 + 1e-9, 1, 10 ** 4)
    fv = [f_veto(x) for x in vgrid]
    assert all(a < b for a, b in zip(fv, fv[1:]))


def test_oracle_context_validation():
    with pytest.raises(ValueError):
        OracleContext(p=0.5, tau=0.4, f=f_majority, domain=(0.0, 1.0))
    ctx = veto_context(0.75)
    assert (ctx.p, ctx.tau, ctx.f) == (0.75, tau(0.75), f_veto)
