"""Adversarial committee constructions and exact certificates.

Each construction emits a :class:`ReplacementSchedule` whose legality is
re-verified by replaying it through the committee engine, never assumed.
Constructions emit exact rationals (a removal stage computes in ints over
one denominator).  Replay checks every step in one pass, then runs the
committee's vote-and-place loop in ints, scaled by the lcm of all its
denominators, with the outputs of a rational replay.  The geometric
tightness construction uses a dyadic grid: its votes stay integer-exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .committee import (Committee, _check_index, _check_rational,
                        drift_bound_check, shift_lemma_check)
from .records import Record
from .rng import Rng

# global dyadic scale used by the geometric construction: every gap is
# quantized to an integer multiple of 2^-96, which leaves at least 53
# significant bits even in the smallest gap the run keeps (>= 2^-40)
_GEOM_SCALE_BITS = 96
_GEOM_STOP_BITS = 40  # stop once the next gap falls below 2^-40

# random replacements: fuzz profiles are distinct 24-bit integers, epochs
# hold at most 400 accepted steps, and a stuck epoch is rescaled by 2^24 up
# to 512 bits in total (criterion 12's k=1 immunity run needs 360)
_VALUE_BITS = 24
_EPOCH_CAP = 400
_RESCALE_BITS = 24
_SCALE_BUDGET_BITS = 512


def _check_int(name: str, value, least: int, most=math.inf) -> None:
    if type(value) is not int or not least <= value <= most:
        raise ValueError(f"{name}={value!r} is not an int in {least}..{most}")


@dataclass(repr=False, eq=False)
class ReplacementSchedule(Record):
    """Ordered replacement steps, each (1-based position index, candidate)."""

    steps: list
    provenance: str


@dataclass(repr=False, eq=False)
class ReplayResult(Record):
    committee: Committee
    accepted_all: bool
    failed_at: Optional[int] = None
    vote_counts: list = field(default_factory=list)


def replay(committee: Committee, schedule: ReplacementSchedule,
           require_votes: Optional[int] = None) -> ReplayResult:
    """Replay a schedule, verifying every step is accepted by the engine.

    `require_votes` additionally asserts a minimum exact vote count at
    every step (used by constructions that promise more support than the
    bare threshold).  One pass checks every step and takes L, the lcm of
    every denominator; `Committee`'s vote-and-place loop then runs on
    `committee.scaled(L)`, reading each step times L once, and the result
    is divided back by L."""
    if require_votes is not None:
        _check_int("require_votes", require_votes, 0)
    need = max(committee.threshold, require_votes or 0)
    dens = {v.denominator for v in committee.values}
    for i, y in schedule.steps:
        _check_index(i, committee.n)
        dens.add(_check_rational(y, "candidate").denominator)
    L = math.lcm(*dens)
    c, counts = committee.scaled(L)._run(
        ((i, y.numerator * (L // y.denominator)) for i, y in schedule.steps),
        need)
    failed_at = len(counts) - 1 if counts and counts[-1] < need else None
    return ReplayResult(c._unscaled(L) if L > 1 else c, failed_at is None,
                        failed_at, counts)


# ------------------------------------------------- unbounded drift (ell=0)

def arithmetic_drift_schedule(initial: Committee,
                              target_displacement) -> ReplacementSchedule:
    """Majority-rule (ell=0) schedule moving the median arbitrarily far.

    Phase 1 compresses the profile into an arithmetic progression around
    the median; phase 2 marches the progression right by repeatedly
    replacing the smallest point with one step past the largest, moving
    the median one progression-step per replacement.
    """
    if initial.ell != 0:
        raise ValueError("unbounded drift construction requires ell = 0")
    n = initial.n
    if n % 2 == 0 or n < 3:
        raise ValueError("construction stated for odd n >= 3")
    vals = list(initial.values)
    if len(set(vals)) != n:
        raise ValueError("construction requires all opinions distinct")
    if _check_rational(target_displacement, "target_displacement") < 0:
        raise ValueError("target displacement must be non-negative")
    k = (n - 1) // 2
    M = vals[k]
    eps = Fraction(min(M - vals[k - 1], vals[k + 1] - M), 2 * k)
    steps = []
    if target_displacement > 0:
        # phase 1a: replace the current smallest with M - eps*i, i = 1..k
        for i in range(1, k + 1):
            steps.append((1, M - eps * i))
        # phase 1b: replace position k+1+i with M + eps*i, i = 1..k
        for i in range(1, k + 1):
            steps.append((k + 1 + i, M + eps * i))
        # phase 2: slide the progression right one eps per step
        n_slides = math.ceil(Fraction(target_displacement) / eps)
        top = M + eps * k
        for j in range(1, n_slides + 1):
            steps.append((1, top + eps * j))
    return ReplacementSchedule(steps, "arithmetic-drift")


# ------------------------------------- geometric tightness of the bound

def solve_geometric_delta(k: int, ell: int) -> float:
    """Shrink rate making x_{k-l+2} equidistant from x_1 and x_{2k+2} in the
    geometric profile with gaps (1-delta)^(i-1).

    Bisection on 1 - 2(1-d)^(k-l+1) + (1-d)^(2k+1) = 0 over d in (0, 1);
    residual of the gap-sum equation at the root is at most 1e-12.
    """
    _check_int("k", k, 1)
    _check_int("ell", ell, 1, k)

    def h(d: float) -> float:
        return 1.0 - 2.0 * (1.0 - d) ** (k - ell + 1) + (1.0 - d) ** (2 * k + 1)

    lo, hi = 1e-15, 1.0 - 1e-15
    if not h(lo) < 0.0 < h(hi):
        raise ArithmeticError(f"no root bracket in (0, 1) for k={k}, ell={ell}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    left = sum((1.0 - d) ** i for i in range(0, k - ell + 1))
    right = sum((1.0 - d) ** i for i in range(k - ell + 1, 2 * k + 1))
    if abs(left - right) > 1e-12 * max(left, right):
        raise ArithmeticError(
            f"equidistance residual {abs(left - right):g} exceeds 1e-12")
    return d


@dataclass(repr=False, eq=False)
class TightnessRun(Record):
    delta: float
    schedule: ReplacementSchedule
    displacement: Fraction   # final x_{k-l+2} minus the initial maximum
    bound_ratio: Fraction    # displacement over D*k/(2*ell - 1)
    initial: Committee
    final: Committee
    min_margin: Fraction     # smallest nonzero vote-comparison margin seen


def geometric_tightness_run(k: int, ell: int) -> TightnessRun:
    """Run the geometric drift profile and measure how close the indexed
    position x_{k-l+2} comes to the D*k/(2l-1) drift bound.

    The ideal shrink rate is bumped up by a relative 2^-16 so the critical
    voter (exactly indifferent at the ideal rate) strictly prefers every
    candidate; gaps are then quantized to the 2^-96 dyadic grid, and the
    accumulated quantization is asserted to be far below the smallest vote
    margin, so no comparison can have flipped against the ideal profile.
    """
    d = solve_geometric_delta(k, ell) * (1.0 + 2.0 ** -16)
    scale = 1 << _GEOM_SCALE_BITS
    stop = 1 << (_GEOM_SCALE_BITS - _GEOM_STOP_BITS)
    n = 2 * k + 1

    # integer multiply-shift keeps the whole profile deterministic: the
    # effective shrink ratio is ratio/2^53 and each gap floors once, so the
    # accumulated error against exact ratio powers stays below 1/d units
    ratio = round((1.0 - d) * (1 << 53))
    gaps = [scale]
    while True:
        q = (gaps[-1] * ratio) >> 53
        if q < stop:
            break
        gaps.append(q)
    if len(gaps) < n:
        raise ArithmeticError("profile exhausted before n points; k too large")

    positions = [0]
    for q in gaps:
        positions.append(positions[-1] + q)
    initial = Committee([Fraction(x, scale) for x in positions[:n]], ell)
    # every step replaces x_1 by one gap past the maximum
    schedule = ReplacementSchedule(
        [(1, Fraction(x, scale)) for x in positions[n:]],
        f"geometric-tightness k={k} ell={ell}")
    res = replay(initial, schedule)
    if not res.accepted_all:
        idx = res.failed_at
        raise ArithmeticError(
            f"geometric construction step {idx} illegal: "
            f"{res.vote_counts[idx]} < {initial.threshold}")

    # Before step idx the profile is positions[idx:idx+n] and y is
    # positions[idx+n], so voter j's margin |x_j - x_1| - |x_j - y| is
    # 2*x_j - s with s = x_1 + y: it grows with j, and the smallest nonzero
    # ones belong to the nearest members strictly below and strictly above
    # s/2 (member 1 itself never votes; exact ties have margin 0 and are
    # skipped).  Margins are counted in grid units, 1/scale each.
    margins = []
    for idx in range(len(positions) - n):
        s = positions[idx] + positions[idx + n]
        below = bisect_left(positions, (s + 1) // 2, idx, idx + n) - 1
        above = bisect_right(positions, s // 2, idx, idx + n)
        if below > idx:
            margins.append(s - 2 * positions[below])
        if above < idx + n:
            margins.append(2 * positions[above] - s)
    min_margin = Fraction(min(margins), scale) if margins else None
    # each gap drifts at most 1/d grid units from the exact ratio power, so
    # any position (a gap sum) is within len(gaps)/d units of ideal; a vote
    # comparison combines four positions
    slack = Fraction(4 * len(gaps) * math.ceil(1.0 / d), scale)
    if min_margin is not None and min_margin <= slack:
        raise ArithmeticError(
            "quantization slack reaches the smallest vote margin; "
            "the dyadic profile may not represent the ideal construction")

    tracked = res.committee.values[k - ell + 2 - 1]
    displacement = tracked - initial.values[-1]
    bound = Fraction(initial.diameter * k, 2 * ell - 1)
    return TightnessRun(d, schedule, displacement, displacement / bound,
                        initial, res.committee, min_margin)


# --------------------------------------------------- immunity construction

def immunity_config(k: int, ell: int, d, D) -> Committee:
    """Two-cluster committee of size 4k+3 whose median cannot be displaced
    when the required majority is 3k+2+ell.

    Left cluster: 2k+1 points spanning width d.  Right cluster: 2k+1 points
    spanning width D.  The median sits alone between them, farther than
    max(d, D)*k/(2*ell-1) from both clusters, which keeps each cluster's
    internal drift bound away from the median.
    """
    _check_int("k", k, 1)
    _check_int("ell", ell, 1, k)
    d = Fraction(_check_rational(d, "d"))
    D = Fraction(_check_rational(D, "D"))
    if d <= 0 or D <= 0:
        raise ValueError("cluster widths must be positive")
    w = max(d, D)
    gap = Fraction(w * k, 2 * ell - 1) + w
    left = [Fraction(i) * d / (2 * k) for i in range(2 * k + 1)]
    median = left[-1] + gap
    right_start = median + gap
    right = [right_start + Fraction(i) * D / (2 * k) for i in range(2 * k + 1)]
    # required majority 3k+2+ell on n = 4k+3 means ceil((n-1)/2) = 2k+1
    # votes plus a surplus of k+1+ell
    return Committee(left + [median] + right, ell=k + 1 + ell)


def one_step_irreplaceable(committee: Committee, i: int):
    """Exact maximum, over every candidate y != x_i, of the votes to
    replace member i.

    By the midpoint rule of `Committee.vote_count`, a candidate below x_i
    gets the members with 2*x_j <= x_i + y: never more than the members
    strictly below x_i, and all of them at the reflection 2*o - x_i of the
    nearest such member o.  Candidates above x_i mirror this, so the best
    vote is the larger of the two counts, two bisections in O(log n).  A
    candidate at exactly x_i would re-elect the same opinion (gathering n-1
    tie votes without displacing anything), so it is not counted against
    irreplaceability.

    Returns (irreplaceable, max_votes, witness_candidate): the witness is
    that reflection on the larger side, or x_i - 1 when no member differs
    from x_i.
    """
    xi = committee.opinion(i)
    vals = committee.values
    below = bisect_left(vals, xi)
    above = committee.n - bisect_right(vals, xi)
    best = max(below, above)
    if best == 0:
        witness = xi - 1
    elif below >= above:
        witness = 2 * vals[below - 1] - xi
    else:
        witness = 2 * vals[-above] - xi
    return best < committee.threshold, best, witness


# ----------------------------------------------------- removal schedule

def _removal_stages(points, n_stages: int):
    """The candidates of stages 1..n_stages on the sorted `points`, each
    replacing the smallest member, and the last stage's step.  Stage j
    rebuilds the smallest j members as a progression below c = points[j-1]
    whose step divides the gap to points[j], then walks it up that gap, so
    only its top j points stay below points[j] and stage j+1 again reads
    its two points off `points`.  The step must shrink below the previous
    one over j, or the compression would move points away from the voters.
    A stage counts in ints over D, the lcm of c's and its step's
    denominators: each candidate is one Fraction built from its numerator.
    """
    out, delta = [], None
    for j in range(1, n_stages + 1):
        c = points[j - 1]
        gap = points[j] - c
        parts = j + 2
        if delta is not None:
            parts = max(parts, (gap * j * delta.denominator)
                        // delta.numerator + 1)
        delta = Fraction(gap, parts)
        D = math.lcm(c.denominator, delta.denominator)
        cn = c.numerator * (D // c.denominator)
        dn = delta.numerator * (D // delta.denominator)
        # compress below c, then march up the gap
        out += [Fraction(cn - m * dn, D) for m in range(1, j)]
        out += [Fraction(cn + m * dn, D) for m in range(1, parts)]
    return out, delta


def removal_schedule(initial: Committee) -> ReplacementSchedule:
    """Schedule removing every original member when the threshold is low.

    Valid for committees of size n = 4k+3 requiring at most 3k+2 votes.
    The 2k+2 left stages replace the smallest member up to and including
    the median; stage j reads only x_j and x_{j+1} of the starting profile.
    The 2k+1 mirrored stages replace the largest member, as left stages on
    -x_n, ..., -x_{2k+3}, delta_L - x_{2k+3}: the last one reads
    x_{2k+3} - delta_L, delta_L being the last left stage's step.
    """
    n = initial.n
    if n < 7 or n % 4 != 3:
        raise ValueError(f"construction stated for n = 4k+3, got n={n}")
    k = (n - 3) // 4
    if initial.threshold > 3 * k + 2:
        raise ValueError(
            f"threshold {initial.threshold} > {3 * k + 2}: this is the "
            "immunity phase, no removal schedule exists")
    if len(set(initial.values)) != n:
        raise ValueError("construction requires all opinions distinct")

    vals = initial.values
    left, delta_l = _removal_stages(vals, 2 * k + 2)
    top = vals[2 * k + 2:]  # x_{2k+3}, ..., x_n
    mirror = [-v for v in reversed(top)] + [delta_l - top[0]]
    right, _ = _removal_stages(mirror, 2 * k + 1)
    steps = [(1, y) for y in left] + [(n, -y) for y in right]
    return ReplacementSchedule(steps, "no-immunity-removal")


def removal_run(k: int):
    """The removal construction at threshold 3k+2: the committee 1..4k+3
    with ell = k+1, its removal schedule, and that schedule replayed
    requiring 3k+2 votes.  Returns (committee, schedule, replay result)."""
    _check_int("k", k, 1)
    committee = Committee(list(range(1, 4 * k + 4)), ell=k + 1)
    schedule = removal_schedule(committee)
    return committee, schedule, replay(committee, schedule,
                                       require_votes=3 * k + 2)


# ------------------------------------------------ random legal replacements

def legal_intervals(committee: Committee, i: int) -> list:
    """The candidates y whose replacement of member i meets the threshold t,
    as a list holding one closed interval (lo, hi).

    Let o_1 <= ... <= o_{n-1} be the members other than i.  By the
    midpoint rule of `Committee.vote_count`, a candidate y < x_i gets the
    votes of the o_j with 2*o_j <= x_i + y, so it passes exactly when
    y >= 2*o_t - x_i; a candidate y > x_i passes exactly when
    y <= 2*o_{n-t} - x_i; and x_i itself gets n-1 >= t votes.  The legal
    set is therefore [min(x_i, 2*o_t - x_i), max(x_i, 2*o_{n-t} - x_i)],
    read from the sorted profile in O(1).  A one-member committee (t = 0)
    accepts every candidate, which no closed interval holds: ValueError.
    """
    xi = committee.opinion(i)
    n, t = committee.n, committee.threshold
    if n == 1:
        raise ValueError("a one-member committee accepts every candidate")
    vals = committee.values
    # o_m is vals[m-1] below member i's position and vals[m] from it on
    low_voter = vals[t - 1] if t < i else vals[t]
    high_voter = vals[n - t - 1] if n - t < i else vals[n - t]
    return [(min(xi, 2 * low_voter - xi), max(xi, 2 * high_voter - xi))]


@dataclass(repr=False, eq=False)
class FuzzReport(Record):
    accepted: int
    epochs: int
    median_moves: int
    drift_violations: int = 0
    shift_violations: int = 0
    monotone_violations: int = 0
    range_violations: int = 0

    @property
    def violations(self) -> int:
        return (self.drift_violations + self.shift_violations
                + self.monotone_violations + self.range_violations)

    @property
    def clean(self) -> bool:
        return self.violations == 0


def _uniforms(rng: Rng):
    """`rng`'s uniforms, read from `uniform_block` buffers of 4,096 draws,
    doubling to 32,768.  Closing hands the unread draws back: `rng` ends
    where as many `rng.uniform()` calls leave it."""
    size = 4096
    try:
        while True:
            back = rng.state()
            for used, u in enumerate(rng.uniform_block(size).tolist(), 1):
                yield u
            size = min(2 * size, 32768)
    finally:  # only a close ends the stream
        rng.set_state(back)
        rng.uniform_block(used)


def _sample_int_replacement(committee: Committee, draw):
    """A uniform integer candidate from a member's legal interval, or None.

    Half the picks go to the two extreme positions: under large ell the
    interior members admit no legal move, and the extremes are where the
    drift and potential dynamics live.
    """
    n = committee.n
    u = draw()
    if u < 0.5:
        i = 1 if u < 0.25 else n
    else:
        i = int((u - 0.5) * 2 * n) % n + 1
    (lo, hi), = legal_intervals(committee, i)
    a, b = -((-lo) // 1), hi // 1
    if b < a:
        return None
    total = b - a + 1
    y = a + int(draw() * total) % total
    # candidates colliding with any member value are skipped: exact
    # re-election displaces nothing, and duplicate opinions would freeze a
    # zero-width cluster that no rescaling can reopen
    return None if y in committee.values else (i, y)


def fuzz_epoch(start: Committee, accepted_target: int, rng: Rng,
               report: FuzzReport, consensus_checks: bool = False) -> Committee:
    """One epoch of random accepted replacements from `start`, ids kept.

    Values are brought to a common integer scale first, then rescaled by
    2^24 whenever contraction pushes legal regions below integer
    resolution: vote comparisons and every check are invariant under
    positive scaling, and integer values keep the exact arithmetic fast.
    The epoch ends after `accepted_target` accepted steps, or early once
    the accumulated rescaling passes `_SCALE_BUDGET_BITS`.  A sampled pick
    the committee rejects raises ArithmeticError.

    Checks per accepted step, counted into `report`: the indexed drift
    bound against the epoch's start and the potential-drop lemma whenever
    the median moved (ell >= 1, odd n); or, with `consensus_checks`, the
    exact admitted-value range and both monotone quantities.  Returns the
    final committee; `rng` ends where per-call uniform() draws leave it.
    """
    with closing(_uniforms(rng)) as draws:
        return _fuzz_epoch(start, accepted_target, draws.__next__, report,
                           consensus_checks)


def _fuzz_epoch(start, accepted_target, draw, report, consensus_checks):
    """`fuzz_epoch` on the uniforms that `draw()` returns."""
    initial = start.scaled(math.lcm(*[v.denominator for v in start.values]))
    n = initial.n
    k = (n - 1) // 2
    drift_checks = initial.ell >= 1 and n % 2 == 1
    report.epochs += 1
    cur = initial
    stop = report.accepted + accepted_target
    misses = 0
    scale_bits = 0
    while report.accepted < stop:
        pick = _sample_int_replacement(cur, draw)
        if pick is None:
            misses += 1
            if misses >= 4 * n:
                scale_bits += _RESCALE_BITS
                if scale_bits > _SCALE_BUDGET_BITS:
                    break
                cur = cur.scaled(1 << _RESCALE_BITS)
                initial = initial.scaled(1 << _RESCALE_BITS)
                misses = 0
            continue
        misses = 0
        i, y = pick
        prev = cur
        ok, cur = cur.replace_attempt(i, y)
        if not ok:
            raise ArithmeticError(
                f"sampled replacement ({i}, {y}) rejected at accepted step "
                f"{report.accepted}")
        report.accepted += 1
        if consensus_checks:
            d = initial.diameter
            if not initial.values[0] - d <= y <= initial.values[-1] + d:
                report.range_violations += 1
            if cur.consensus_monotone() > prev.consensus_monotone():
                report.monotone_violations += 1
            if (cur.consensus_monotone_mirror()
                    < prev.consensus_monotone_mirror()):
                report.monotone_violations += 1
        elif drift_checks:
            holds, _, _ = drift_bound_check(initial, cur)
            if not holds:
                report.drift_violations += 1
            if cur.values[k] != prev.values[k]:
                report.median_moves += 1
                s_holds, _, _ = shift_lemma_check(prev, cur)
                if not s_holds:
                    report.shift_violations += 1
    return cur


def committee_fuzz(n: int, ell: int, accepted_target: int, rng: Rng,
                   consensus_checks: bool = False) -> FuzzReport:
    """Randomized accepted replacements with every exact invariant checked.

    Committees under ell >= 1 contract geometrically, so the fuzz runs in
    epochs of `fuzz_epoch`, each from a fresh random profile of distinct
    `_VALUE_BITS`-bit integers and at most `_EPOCH_CAP` accepted steps,
    until `accepted_target` accepted replacements have been checked.
    """
    _check_int("n", n, 2)
    _check_int("ell", ell, 0)
    _check_int("accepted_target", accepted_target, 1)
    hull = 1 << _VALUE_BITS
    if n > hull:
        raise ValueError(f"n={n} exceeds the {hull} distinct profile values")
    report = FuzzReport(0, 0, 0)
    with closing(_uniforms(rng)) as draws:
        while report.accepted < accepted_target:
            vals: set = set()
            while len(vals) < n:
                vals.add(int(next(draws) * hull))
            _fuzz_epoch(Committee(sorted(vals), ell=ell),
                        min(_EPOCH_CAP, accepted_target - report.accepted),
                        draws.__next__, report, consensus_checks)
    return report
