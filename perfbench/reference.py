"""Reference computations the benchmark checks admitlab's outputs against.

Nothing here imports admitlab.  Each piece is written from a definition,
not from the program's code:

* the generator: splitmix64-seeded xoshiro256** (Blackman & Vigna,
  arXiv:1805.01407), as spelled out in the docstring of admitlab's rng
  module, self-checked against the published splitmix64 outputs;
* a plain sorted-list growing-group simulator whose admission decisions
  are the paper's rules;
* a brute-force exact committee vote counter;
* the closed forms the statistical checks compare against.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# splitmix64 from state 0: the first two outputs as published by Vigna
SPLITMIX64_STATE0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: (next state, output)."""
    state = (state + GAMMA) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def self_check() -> None:
    """Raise if splitmix64 does not reproduce its published outputs."""
    state, a = splitmix64(0)
    _, b = splitmix64(state)
    if (a, b) != SPLITMIX64_STATE0:
        raise RuntimeError(f"splitmix64 self-check failed: {a:#x}, {b:#x}")


class Xoshiro:
    """xoshiro256** seeded by four splitmix64 outputs."""

    def __init__(self, seed: int):
        state = seed & MASK
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self.s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s1 * 5) & MASK, 7) * 9) & MASK
        t = (s1 << 17) & MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, _rotl(s3, 45)]
        return result

    def uniform(self) -> float:
        """Top 53 bits of the output times 2^-53."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK


# ------------------------------------------------------------ closed forms

def tau(p: float) -> float:
    """Veto fixed point (2p + sqrt(2p^2 - p)) / (1 + 2p), for p > 1/2."""
    return (2.0 * p + math.sqrt(2.0 * p * p - p)) / (1.0 + 2.0 * p)


def triangle_cdf(x: float) -> float:
    """Majority limit law: 2x^2 up to 1/2, 1 - 2(1-x)^2 above."""
    return 2.0 * x * x if x <= 0.5 else 1.0 - 2.0 * (1.0 - x) ** 2


def f_majority(q: float) -> float:
    """P(next admitted member < q) with the median frozen at q."""
    return 2.0 * q - 2.0 * q * q if q <= 0.5 else 1.0 - 2.0 * q + 2.0 * q * q


def f_veto(q: float) -> float:
    """P(admitted < q | admitted) with the driving quantile frozen at q > 1/2."""
    return q * q / (1.0 - 2.0 * (1.0 - q) ** 2)


def ks_distance(samples, cdf) -> float:
    """sup |F_n - F| over the sample, both one-sided gaps at each jump."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        worst = max(worst, (i + 1) / n - f, f - i / n)
    return worst


# ------------------------------------------------ growing-group simulator

def quantile_rank(p: float, k: int) -> int:
    """Rank of the smallest member with at least p*k members at or below it."""
    return max(1, math.ceil(Fraction(p) * k))


def _fmt(x) -> str:
    return "" if x is None else format(x, ".17g")


class SortedGroup:
    """The group as one sorted Python list."""

    def __init__(self, values):
        self.xs = sorted(values)

    def insert(self, x: float) -> None:
        insort(self.xs, x)

    def quantile(self, p: float) -> float:
        return self.xs[quantile_rank(p, len(self.xs)) - 1]


def _decide(rule: str, group: SortedGroup, p, y1: float, y2: float):
    """The admitted candidate (or None) for a sorted pair y1 <= y2.

    A member x weakly prefers y1 when it is no farther from y1 than from
    y2; ties go to y1.  Majority: the candidate the median member prefers
    wins a majority.  Unanimity (consensus): y1 joins when every member,
    hence the largest, is at or below the midpoint; y2 when every member is
    strictly above it.  Veto: y2 joins when fewer than an r share of the
    members would veto it, i.e. the midpoint lies strictly below the
    (1-r)-quantile; y1 never joins.  Distances and midpoints are evaluated
    in the same floating-point form as admitlab states them, so a replay is
    bit for bit.
    """
    xs = group.xs
    if rule == "majority":
        m = xs[(len(xs) + 1) // 2 - 1]
        return y1 if abs(m - y1) <= abs(m - y2) else y2
    mid = 0.5 * (y1 + y2)
    if rule == "consensus":
        if mid >= xs[-1]:
            return y1
        return y2 if mid < xs[0] else None
    return y2 if mid < group.quantile(p) else None


def simulate(rule: str, p, initial, seed: int, accepted=None, raw_budget=None,
             tau_p=None, max_k=None) -> list[str]:
    """Trajectory rows 'k,steps,q_p,gap,x1,xk' of a steps-mode run.

    Checkpoints follow the trajectory schedule: the initial group, then
    every admission that brings k to at least max(k+1, ceil(21k/20)) of the
    previous checkpoint, then the final group if it was not recorded.  The
    run stops at `accepted` admissions or `raw_budget` raw steps; rows with
    k above `max_k` are not simulated.
    """
    group = SortedGroup(initial)
    rng = Xoshiro(seed)
    goal = None if accepted is None else len(initial) + accepted
    rows = []
    raw = 0

    def record():
        xs = group.xs
        q = None if p is None else group.quantile(p)
        gap = None if q is None or tau_p is None else abs(q - tau_p)
        rows.append(f"{len(xs)},{raw},{_fmt(q)},{_fmt(gap)},"
                    f"{_fmt(xs[0])},{_fmt(xs[-1])}")

    record()
    next_ck = max(len(group.xs) + 1, -(-21 * len(group.xs) // 20))
    while (goal is None or len(group.xs) < goal) and \
            (raw_budget is None or raw < raw_budget):
        a, b = rng.uniform(), rng.uniform()
        y1, y2 = (a, b) if a <= b else (b, a)
        raw += 1
        y = _decide(rule, group, p, y1, y2)
        if y is None:
            continue
        group.insert(y)
        k = len(group.xs)
        if max_k is not None and k > max_k:
            return rows
        if k >= next_ck:
            record()
            next_ck = max(k + 1, -(-21 * k // 20))
    if int(rows[-1].split(",", 1)[0]) != len(group.xs):
        record()
    return rows


# ---------------------------------------------------------- committees

def vote_count(values, i: int, y) -> int:
    """Members j != i (1-based) with |x_j - y| <= |x_j - x_i|, exactly."""
    y = Fraction(y)
    xi = Fraction(values[i - 1])
    return sum(1 for j, xj in enumerate(values, start=1)
               if j != i and abs(Fraction(xj) - y) <= abs(Fraction(xj) - xi))


def replay_profile(values, steps):
    """Brute-force replay: per-step vote counts and the final sorted profile.

    Step (i, y) removes the i-th smallest member and inserts y.
    """
    cur = sorted(Fraction(v) for v in values)
    counts = []
    for i, y in steps:
        counts.append(vote_count(cur, i, y))
        del cur[i - 1]
        insort(cur, Fraction(y))
    return counts, cur


def max_votes_against(values, i: int) -> int:
    """Most votes any candidate other than x_i gets to replace member i.

    The count only changes where a voter becomes indifferent, at the
    reflections 2x_j - x_i, so the breakpoints, the midpoints between them
    and a point beyond each end cover every candidate.
    """
    vals = [Fraction(v) for v in values]
    xi = vals[i - 1]
    bps = sorted({2 * xj - xi for j, xj in enumerate(vals, start=1) if j != i}
                 | {xi})
    cands = set(bps) | {bps[0] - 1, bps[-1] + 1}
    cands |= {(a + b) / 2 for a, b in zip(bps, bps[1:])}
    cands.discard(xi)
    return max(vote_count(vals, i, y) for y in cands)
