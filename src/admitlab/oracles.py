"""Closed-form limit quantities the simulations are validated against.

Covers the acceptance-probability curves of the majority and veto rules,
their fixed points, the limiting (truncated) triangle distributions, the
gap functions used by the quantile-progress analysis, and the linear-gap
constant for veto rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .records import FrozenRecord


def _check_unit(x, name: str = "x") -> None:
    """Raise unless x, a float or every entry of an array, lies in [0, 1]."""
    if isinstance(x, np.ndarray):
        bad = x[~((x >= 0.0) & (x <= 1.0))]  # NaN fails both
        if bad.size:
            raise ValueError(f"{name}={bad.item(0)!r} outside [0, 1]")
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"{name}={x!r} outside [0, 1]")


def _branch(cond, left, right):
    """left where cond holds, else right: elementwise over arrays."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, left, right)
    return left if cond else right


def _square(t):
    """t ** 2 rounded as Python's float power rounds it, elementwise over
    arrays: `np.float_power` calls the same libm pow, while numpy's `**`
    squares with one multiply and differs in the last bit for about one
    value in a thousand."""
    return np.float_power(t, 2.0) if isinstance(t, np.ndarray) else t ** 2


def f_majority(q: float) -> float:
    """Probability the next admitted member lies below q when the median
    sits at q: 2q - 2q^2 for q <= 1/2, 1 - 2q + 2q^2 above."""
    _check_unit(q, "q")
    if q <= 0.5:
        return 2.0 * q - 2.0 * q * q
    return 1.0 - 2.0 * q + 2.0 * q * q


def accept_any_veto(q: float) -> float:
    """Probability a veto step admits anyone, given the driving quantile q."""
    _check_unit(q, "q")
    if q <= 0.5:
        return 2.0 * q * q
    return 1.0 - 2.0 * (1.0 - q) ** 2


def f_veto(q: float) -> float:
    """Conditional probability the next admitted member lies below q for a
    veto rule, defined only for q > 1/2."""
    if not 0.5 < q <= 1.0:
        raise ValueError(f"f_veto defined on (1/2, 1], got q={q!r}")
    return q * q / (1.0 - 2.0 * (1.0 - q) ** 2)


def tau(p: float) -> float:
    """Fixed point of f_veto: (2p + sqrt(2p^2 - p)) / (1 + 2p), p > 1/2."""
    if not 0.5 < p <= 1.0:
        raise ValueError(f"tau defined on (1/2, 1], got p={p!r}")
    return (2.0 * p + math.sqrt(2.0 * p * p - p)) / (1.0 + 2.0 * p)


def triangle_pdf(x: float) -> float:
    """Limit density of the majority process: 4x then 4 - 4x."""
    _check_unit(x)
    return 4.0 * x if x <= 0.5 else 4.0 - 4.0 * x


def triangle_cdf(x):
    """CDF of the triangle law at x: a float, or a numpy array evaluated
    elementwise with the same rounding as the float."""
    _check_unit(x)
    return _branch(x <= 0.5, 2.0 * x * x, 1.0 - 2.0 * _square(1.0 - x))


def truncated_triangle_cdf(x, q: float):
    """CDF of the truncated triangle law at x (a float, or a numpy array
    evaluated elementwise) for the quantile parameter q > 1/2."""
    _check_unit(x)
    if not 0.5 < q <= 1.0:
        raise ValueError(f"truncated triangle needs q in (1/2, 1], got {q!r}")
    norm = 1.0 - 2.0 * (1.0 - q) ** 2
    return _branch(x <= q, x * x / norm,
                   (4.0 * q * x - 2.0 * q * q - x * x) / norm)


def phi1_bound(p: float) -> float:
    """A valid linear-gap constant for the veto rule at parameter p.

    Half the admissible ceiling sqrt(2p^2 - p) + 1/2 - p, so the inequality
    f_veto(tau_p - d) <= p - phi1 * d holds with margin for all
    d in (0, tau_p - 1/2).
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"phi1_bound defined on (1/2, 1), got p={p!r}")
    return 0.5 * (math.sqrt(2.0 * p * p - p) + 0.5 - p)


@dataclass(frozen=True, repr=False, eq=False)
class OracleContext(FrozenRecord):
    """Closed-form bundle for one quantile-driven rule."""

    p: float
    tau: float
    f: Callable[[float], float]
    domain: tuple   # closed domain of f, as (lo, hi); lo is open for veto

    def __post_init__(self):
        if abs(self.f(self.tau) - self.p) > 1e-12:
            raise ValueError("fixed-point identity f(tau) = p fails")


@dataclass(frozen=True, repr=False, eq=False)
class GapValues(FrozenRecord):
    g_r: float
    g_l: float


def majority_context() -> OracleContext:
    return OracleContext(p=0.5, tau=0.5, f=f_majority, domain=(0.0, 1.0))


def veto_context(p: float) -> OracleContext:
    """Context for a veto rule with driving quantile p = 1 - r > 1/2."""
    return OracleContext(p=p, tau=tau(p), f=f_veto, domain=(0.5, 1.0))


def gap_functions(ctx: OracleContext, delta: float) -> GapValues:
    """g_r(d) = p - f(tau - d) and g_l(d) = f(tau + d) - p.

    Arguments falling outside f's domain are clamped to the boundary (for
    veto the left boundary value is the q -> 1/2 limit).
    """
    if delta < 0.0:
        raise ValueError(f"gap distance must be non-negative, got {delta!r}")
    lo, hi = ctx.domain
    left_arg = ctx.tau - delta
    if left_arg <= lo:
        g_r = ctx.p - 0.5 if ctx.f is f_veto else ctx.p - ctx.f(lo)
    else:
        g_r = ctx.p - ctx.f(left_arg)
    g_l = ctx.f(min(ctx.tau + delta, hi)) - ctx.p
    # the fixed-point residual |f(tau) - p| <= 1e-12 can leave a negative
    # speck at delta ~ 0; the functions are non-negative by definition
    return GapValues(max(0.0, g_r), max(0.0, g_l))
