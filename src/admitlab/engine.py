"""Discrete-time growth engine: seeded draws, rule kernels, checkpointing.

A run is fully determined by (initial group, rule, targets, seed).  Raw
steps and accepted members are counted separately because veto and
consensus rules reject candidates in many steps.

Two sampling modes are available:

* ``steps`` (default, every rule): one driver draws a sorted candidate pair
  per raw step and applies the rule's kernel from `rules.kernel`, its
  decision on the cached summary (median, extremes or a quantile), which is
  re-read only after a member joins.  The decision returns the opinion it
  admits, or None when nobody joins.  It takes the same draws and decisions
  as the per-call reference in the tests (`tests/test_engine.py`
  `_step_loop`: two `uniform()` calls per step, a plain sorted list).  The
  draws come in buffers from
  `Rng.uniform_block`, `need = min(_CHUNK_PAIRS, goal - size, budget - raw)`
  pairs at a time.  A step takes exactly two draws and admits at most one
  member, so the run is certain to last at least `need` more steps and every
  buffer is used up: the stream ends exactly where 2 * raw `uniform()`
  calls would leave it, and runs chained on one `Rng` see the same draws.
* ``jump`` (veto rules only): the number of consecutive rejected steps is
  sampled from the geometric law implied by the total acceptance
  probability `oracles.accept_any_veto`, and the admitted value is drawn
  from the exact conditional distribution of the accepted candidate.  Same
  process law, radically cheaper when the acceptance probability collapses
  (r > 1/2 runs need ~k^2 raw steps for k accepted members, which is
  unreachable step by step).  Trajectories from the two modes are
  different sample paths of the same distribution.  Jump mode draws one
  `uniform()` at a time: it may stop between the two draws of a member
  (budget) or before any (stuck process), so a buffer could overshoot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .group import GroupState
from .oracles import accept_any_veto
from .rng import Rng
from .rules import RuleSpec, kernel

_CHUNK_PAIRS = 32768  # most candidate pairs the steps driver draws at once


@dataclass
class Checkpoint:
    k: int                      # group size
    steps: int                  # raw steps so far
    q_p: Optional[float]        # driving quantile (None for consensus)
    gap: Optional[float]        # |q_p - tau_p| when tau_p is defined
    x1: float
    xk: float
    extra: dict = field(default_factory=dict)   # extra tracked quantiles


@dataclass
class Trajectory:
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
    if accepted_target is not None and accepted_target <= 0:
        raise ValueError("accepted target must be positive")
    if mode not in ("steps", "jump"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "jump" and rule.kind != "veto":
        raise ValueError("jump mode is defined for veto rules only")

    group = initial
    k0 = group.size
    goal = None if accepted_target is None else k0 + accepted_target
    checkpoints: list[Checkpoint] = []
    admitted: Optional[list] = [] if log_admitted else None
    raw = 0

    p, tau = rule.p, rule.tau
    insert = group.insert
    quantile = group.quantile

    def record():
        q = None if p is None else quantile(p)
        gap = None if (q is None or tau is None) else abs(q - tau)
        extra = {ep: quantile(ep) for ep in extra_quantiles}
        checkpoints.append(Checkpoint(group.size, raw, q, gap,
                                      group.min(), group.max(), extra))

    record()  # the initial state is checkpoint 0
    next_ck = _next_checkpoint(group.size)

    if mode == "jump":
        uniform = rng.uniform
        while (goal is None or group.size < goal) and \
              (raw_budget is None or raw < raw_budget):
            q = quantile(p)
            if q <= 0.0:
                break  # stuck process: report exhaustion below
            p_acc = accept_any_veto(q)
            u = uniform()
            if p_acc < 1.0:
                # rejections, then the acceptance itself
                skipped = _rejections(q, p_acc, u)
                if raw_budget is not None and raw + skipped + 1 > raw_budget:
                    raw = raw_budget
                    break
                raw += skipped + 1
            else:
                raw += 1
            y = _accepted_veto_value(q, p_acc, uniform())
            insert(y)
            if admitted is not None:
                admitted.append(y)
            if group.size >= next_ck:
                record()
                next_ck = _next_checkpoint(group.size)
    else:
        summary, decision = kernel(rule, group)
        s = summary()
        while (goal is None or group.size < goal) and \
              (raw_budget is None or raw < raw_budget):
            # a step admits at most one member, so a chunk of `need` pairs
            # cannot overshoot either limit and every draw in it is used;
            # the exhausted iterator then frees its list before the next
            # chunk is drawn
            need = _CHUNK_PAIRS
            if goal is not None:
                need = min(need, goal - group.size)
            if raw_budget is not None:
                need = min(need, raw_budget - raw)
            draws = iter(rng.uniform_block(2 * need).tolist())
            for u1, u2 in zip(draws, draws):
                if u2 < u1:
                    u1, u2 = u2, u1
                raw += 1
                y = decision(s, u1, u2)
                if y is None:  # 0.0 is a legal opinion
                    continue
                insert(y)
                s = summary()  # every summary moves only when a member joins
                if admitted is not None:
                    admitted.append(y)
                if group.size >= next_ck:
                    record()
                    next_ck = _next_checkpoint(group.size)

    if checkpoints[-1].k != group.size:  # k strictly increasing per checkpoint
        record()
    exhausted = goal is not None and group.size < goal
    return Trajectory(checkpoints, raw, group.size - k0, admitted, exhausted)
