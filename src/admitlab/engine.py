"""Discrete-time growth engine: seeded draws, windowed blocks, checkpointing.

A run is fully determined by (initial group, rule, targets, seed).  Raw
steps and accepted members are counted separately because veto and
consensus rules reject candidates in many steps.  The group (`GroupState`,
a sorted array) grows a block at a time.  Every block returns its
admissions in step order with the raw count of each; they join in one
`insert_many` merge, split at each geometric checkpoint size they reach,
which is recorded with that admission's raw count, so `record()` sees what
a member-by-member run would.  A checkpoint never ends a block.

Both modes share one loop in `run`.  Its draws come from `Rng.uniform_block`
buffers of `2 * min(_CHUNK_PAIRS, goal - size, budget - raw)` draws (an
absent limit is `math.inf`): every mode takes exactly two draws per step
or member and at least one raw step per member, so a buffer holds no more
than the rest of the goal or the budget can use, and a run that reaches
its goal uses every draw.  The loop saves `rng.state()` before each
buffer and hands the unused draws back when a run stops mid-buffer, so the
stream ends where the per-call references in the tests (`_step_loop`,
`_jump_loop`) leave it.  Every block takes `(group, rule, u, raw, budget)`
and returns its admissions in step order, the raw count after each and
after the block, the draws it used and whether the run ends there.

* ``steps`` (default, every rule): each raw step sorts a candidate pair
  and decides it on the exact pair sum against the thresholds of the
  rule's summary.  A step admits at most one member, so the budget never
  stops a block, and a steps buffer is used up unless the run is stuck: a
  block's start summary that no pair passes (left >= 1 and right <= 0:
  veto at q <= 0, consensus extremes (0, 1)) ends the run and hands the
  draws back.
  A quantile rule's block admits at most B = 8 * isqrt(k) members, so its
  summary stays inside the window [L, H] = [select(r0 - B), select(r0 +
  B)] of the block's start group (cut at the group's ends, so a small
  group's window is all of it), over as many pairs as those admissions
  need at the start summary's acceptance rate.  `rules.block_decisions`
  decides every pair at L and at H in numpy, and a pair decided alike at
  both is sure, since the exact decision is monotone in the summary.  The
  block ends, before any walk, at the first step where the sure
  admissions and the pairs decided differently reach B, since only those
  can admit.  Python walks, in step order, only the pairs decided
  differently and the admissions landing inside [L, H], reading the
  summary from the window as a sorted list, offset by the admissions
  below L.  Consensus needs no window: its min only falls and its max
  only rises, so a pair rejected at the block's start stays rejected.
* ``jump`` (veto rules only): the number of consecutive rejected steps is
  sampled from the geometric law implied by the total acceptance
  probability `oracles.accept_any_veto`, and the admitted value from the
  exact conditional distribution of the accepted candidate: the same
  process law, cheap when acceptance collapses (r > 1/2 runs need ~k^2 raw
  steps for k members).  A block of B members reads each quantile from the
  window list.  A budget or a stuck process (q = 0) may stop a run
  mid-buffer, even between a member's two draws.
"""

from __future__ import annotations

import math
import sys
from bisect import insort
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .group import GroupState, quantile_rank
from .records import Record
from .rng import Rng
from .rules import RuleSpec, admit, admit_block, block_decisions, kernel

_CHUNK_PAIRS = 32768  # most pairs (steps or members) `run` draws at once
_CONSENSUS_PAIRS = 4096  # a consensus block's pairs; bounds the lists it walks


@dataclass(repr=False, eq=False)
class Checkpoint(Record):
    k: int                      # group size
    steps: int                  # raw steps so far
    q_p: Optional[float]        # driving quantile (None for consensus)
    gap: Optional[float]        # |q_p - tau_p| when tau_p is defined
    x1: float
    xk: float
    extra: dict = field(default_factory=dict)   # extra tracked quantiles


@dataclass(repr=False, eq=False)
class Trajectory(Record):
    checkpoints: list
    raw_steps: int
    accepted: int
    admitted: Optional[list] = None   # admitted opinions, when logged
    exhausted: bool = False           # raw budget ran out before target


def _next_checkpoint(k: int) -> int:
    # geometric schedule: multiplicative 5% increments, at least +1
    return max(k + 1, -(-21 * k // 20))


def _accepted_veto_value(q: float, p_acc: float, v: float) -> float:
    """Inverse CDF of the admitted opinion given acceptance at quantile q.

    From the geometry of the acceptance region {(y1, y2): (y1+y2)/2 < q}:
    the admitted candidate is the pair maximum m, with P(m <= x) equal to
    x^2 below q and x^2 - 2(x-q)^2 above, normalized by the total
    acceptance probability p_acc.  Once p_acc = 2q^2 is subnormal or zero,
    the same inverse is taken in its scale-free form.
    """
    if p_acc < sys.float_info.min:
        return q * math.sqrt(2.0 * v) if v <= 0.5 else \
            2.0 * q - q * math.sqrt(2.0 - 2.0 * v)
    vp = v * p_acc
    if vp <= q * q:
        return math.sqrt(vp)
    return 2.0 * q - math.sqrt(max(0.0, 2.0 * q * q - vp))


def _rejections(q: float, p_acc: float, u: float) -> int:
    """Rejected steps before an acceptance of probability p_acc, by
    inversion of 1 - u.  Past the float range (p_acc = 2q^2 tiny) the count
    is taken from its base-2 logarithm and stays an exact int."""
    if p_acc >= sys.float_info.min:
        # failures before the first success (uniform() < 1: the log is finite)
        skipped = math.log(1.0 - u) / math.log1p(-p_acc)
        if skipped < math.inf:
            return int(skipped)
    e = -math.log(1.0 - u)
    if e == 0.0:
        return 0
    bits = math.log2(e) - 1.0 - 2.0 * math.log2(q)  # log2(e / (2 q^2))
    shift = max(int(bits) - 60, 0)
    return int(2.0 ** (bits - shift)) << shift


def sorted_pairs(u: np.ndarray) -> tuple:
    """The candidate pairs of the draws `u`, as arrays of lower and upper
    ends."""
    return np.minimum(u[0::2], u[1::2]), np.maximum(u[0::2], u[1::2])


def _stuck(left: float, right: float) -> bool:
    """Whether no pair of draws, in [0, 1), passes the thresholds."""
    return left >= 1.0 and right <= 0.0


def _window(group: GroupState, p: float) -> tuple:
    """The block's span B and its rank window [r0 - B, r0 + B] around the
    p-quantile, cut at the group's ends.

    Returns (B, lo, window, lo_c, hi_c): the members of ranks lo..hi as a
    sorted list, and the values that split an admission into below the
    window, inside it (lo_c <= y <= hi_c) or above it.  A window that
    reaches an end of the group takes every admission on that side.
    """
    k = group.size
    span = 8 * math.isqrt(k)
    r0 = quantile_rank(p, k)
    lo, hi = max(1, r0 - span), min(k, r0 + span)
    window = group.members(lo, hi)
    lo_c = -math.inf if lo == 1 else window[0]
    hi_c = math.inf if hi == k else window[-1]
    return span, lo, window, lo_c, hi_c


def _quantile_block(group: GroupState, rule: RuleSpec, u: np.ndarray,
                    raw: int, budget) -> tuple:
    """Steps of a quantile-driven rule over the draws `u`, a pair each, in
    order: as many pairs as B admissions need at the start summary's
    acceptance rate, cut before the walk at the first step where the sure
    admissions and the undecided steps reach B, so fewer than B members
    have joined before any walked step.  A summary that no pair passes
    (veto at q <= 0) ends the run.  The buffer of `run` bounds the goal and
    the budget: no `budget` read."""
    k0 = group.size
    num, den = rule.p.as_integer_ratio()
    bounds, accept_prob = kernel(rule)
    q = group.quantile(rule.p)
    if _stuck(*bounds(q)):
        return np.empty(0), (), raw, 0, True
    span, lo, window, lo_c, hi_c = _window(group, rule.p)
    p_acc = accept_prob(q)
    n = u.size // 2
    if p_acc * n > span:
        n = math.ceil(span / p_acc)
    a, b = sorted_pairs(u[:2 * n])
    ys, sure = block_decisions(rule, max(lo_c, 0.0), min(hi_c, 1.0), a, b)
    res = np.where(sure, ys, math.nan)  # the sure admissions; NaN elsewhere
    # a step admits at most one member, and only a sure admission or an
    # undecided step can: the block ends where those reach B
    stop = min(n, int(np.cumsum(~sure | (res == res)).searchsorted(span)) + 1)
    a, b, res, sure = a[:stop], b[:stop], res[:stop], sure[:stop]
    below = res < lo_c
    walk = np.flatnonzero(~sure | ((res >= lo_c) & (res <= hi_c)))
    # sure admissions outside the window join without being walked; their
    # counts before each walked step (none is one of them) give the group's
    # size, and those below the window shift its ranks
    ev_out = np.cumsum(below | (res > hi_c))[walk].tolist()
    ev_below = np.cumsum(below)[walk].tolist()
    ev_y = res[walk].tolist()
    ev_a, ev_b = a[walk].tolist(), b[walk].tolist()

    joined = below_n = 0     # walked admissions, and those below the window
    out_i, out_y = [], []
    for i, y1, y2, y, n_out, n_below in zip(walk.tolist(), ev_a, ev_b, ev_y,
                                            ev_out, ev_below):
        if y != y:  # NaN: not decided at both ends of the window
            k = k0 + n_out + joined
            left, right = bounds(window[-(-num * k // den) - lo - n_below
                                        - below_n])
            y = admit(left, right, y1, y2)
            if y is None:  # 0.0 is a legal opinion
                continue
            out_i.append(i)
            out_y.append(y)
            if y < lo_c:
                below_n += 1
            elif y <= hi_c:
                insort(window, y)
        else:
            insort(window, y)
        joined += 1
    res[out_i] = out_y
    at = np.flatnonzero(res == res)
    return res[at], raw + 1 + at, raw + stop, 2 * stop, False


def _consensus_block(group: GroupState, rule: RuleSpec, u: np.ndarray,
                     raw: int, budget) -> tuple:
    """Consensus steps over the draws `u`, a pair each, in order, for at
    most _CONSENSUS_PAIRS pairs.  Extremes (0, 1), which no pair passes,
    end the run.  The buffer of `run` bounds the goal and the budget: no
    `budget` read."""
    bounds = kernel(rule)[0]
    lo, hi = group.min(), group.max()
    left, right = bounds((lo, hi))
    if _stuck(left, right):
        return np.empty(0), (), raw, 0, True
    a, b = sorted_pairs(u[:2 * _CONSENSUS_PAIRS])
    ys = admit_block(left, right, a, b)
    walk = np.flatnonzero(ys == ys)  # NaN: rejected at the start extremes
    out, at = [], []
    for i, y1, y2 in zip(walk.tolist(), a[walk].tolist(), b[walk].tolist()):
        y = admit(left, right, y1, y2)
        if y is None:
            continue
        out.append(y)
        at.append(i)
        lo, hi = min(lo, y), max(hi, y)
        left, right = bounds((lo, hi))
    return (np.array(out, dtype=np.float64), raw + 1 + np.array(at, dtype=int),
            raw + a.size, 2 * a.size, False)


def _jump_block(group: GroupState, rule: RuleSpec, u: np.ndarray, raw: int,
                budget) -> tuple:
    """Up to B jump-mode members from the draws `u`, two each, stopping when
    `u` runs out and at `budget` raw steps (maybe math.inf); the run ends
    here when the budget is spent or the process is stuck."""
    k0 = group.size
    num, den = rule.p.as_integer_ratio()
    accept_prob = kernel(rule)[1]
    span, lo, window, lo_c, hi_c = _window(group, rule.p)
    n = min(span, u.size // 2)
    out, raws = [], []
    below = 0
    used, done = 2 * n, False
    for k, u1, u2 in zip(range(k0, k0 + n), u[0:2 * n:2].tolist(),
                         u[1:2 * n:2].tolist()):
        q = window[-(-num * k // den) - lo - below]
        if raw >= budget or q <= 0.0:  # (inf, q) passes no pair: stuck
            used, done = 2 * (k - k0), True
            break
        p_acc = accept_prob(q)
        if p_acc < 1.0:
            # rejections, then the acceptance itself
            skipped = _rejections(q, p_acc, u1)
            if raw + skipped + 1 > budget:
                used, done, raw = 2 * (k - k0) + 1, True, budget
                break
            raw += skipped + 1
        else:
            raw += 1
        y = _accepted_veto_value(q, p_acc, u2)
        out.append(y)
        raws.append(raw)
        if y < lo_c:
            below += 1
        elif y <= hi_c:
            insort(window, y)
    return np.array(out, dtype=np.float64), raws, raw, used, done


def run(initial: GroupState, rule: RuleSpec, rng: Rng,
        accepted_target: Optional[int] = None,
        raw_budget: Optional[int] = None,
        log_admitted: bool = False,
        extra_quantiles: tuple = (),
        mode: str = "steps") -> Trajectory:
    """Run the admission process and record a checkpointed trajectory.

    Stops when `accepted_target` members have been admitted or `raw_budget`
    raw steps have elapsed, whichever comes first.  The gap column is
    measured against `rule.tau` (None when the rule has no closed-form
    fixed point).  `extra_quantiles` lists additional p values recorded at
    every checkpoint.
    """
    if initial.size == 0:
        raise ValueError("initial group must be non-empty")
    if accepted_target is None and raw_budget is None:
        raise ValueError("need an accepted target or a raw-step budget")
    for name, limit in (("accepted_target", accepted_target),
                        ("raw_budget", raw_budget)):
        if limit is not None and (type(limit) is not int or limit <= 0):
            raise ValueError(f"{name} must be a positive int, got {limit!r}")
    if mode not in ("steps", "jump"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "jump" and rule.kind != "veto":
        raise ValueError("jump mode is defined for veto rules only")

    group = initial
    k0 = group.size
    goal = math.inf if accepted_target is None else k0 + accepted_target
    budget = math.inf if raw_budget is None else raw_budget
    checkpoints: list[Checkpoint] = []
    admitted: Optional[list] = [] if log_admitted else None
    raw = 0

    p, tau = rule.p, rule.tau
    quantile = group.quantile

    def record(steps: int):
        q = None if p is None else quantile(p)
        gap = None if (q is None or tau is None) else abs(q - tau)
        extra = {ep: quantile(ep) for ep in extra_quantiles}
        checkpoints.append(Checkpoint(group.size, steps, q, gap,
                                      group.min(), group.max(), extra))

    record(0)  # the initial state is checkpoint 0
    next_ck = _next_checkpoint(group.size)

    def merge(new: np.ndarray, raws) -> None:
        # a block's admissions join in step order, split at each checkpoint
        # size, which is recorded with the raw count of the admission that
        # reaches it
        nonlocal next_ck
        start = 0
        while new.size - start >= next_ck - group.size:
            end = start + next_ck - group.size
            group.insert_many(new[start:end])
            record(int(raws[end - 1]))
            next_ck = _next_checkpoint(group.size)
            start = end
        group.insert_many(new[start:])
        if admitted is not None:
            admitted.extend(new.tolist())

    block = _jump_block if mode == "jump" else \
        _consensus_block if p is None else _quantile_block
    u = np.empty(0)  # the buffer's draws, used up to `pos`
    pos = 0
    done = False
    while not done and group.size < goal and raw < budget:
        if pos == u.size:
            u = None  # free the spent buffer before drawing anew
            back = rng.state()
            u = rng.uniform_block(2 * min(_CHUNK_PAIRS, goal - group.size,
                                          budget - raw))
            pos = 0
        new, raws, raw, used, done = block(group, rule, u[pos:], raw, budget)
        merge(new, raws)
        pos += used
    if pos < u.size:  # a run stopped mid-buffer hands the rest back
        rng.set_state(back)
        rng.uniform_block(pos)

    if checkpoints[-1].k != group.size:  # k strictly increasing per checkpoint
        record(raw)
    exhausted = accepted_target is not None and group.size < goal
    return Trajectory(checkpoints, raw, group.size - k0, admitted, exhausted)
