"""Rule decisions against brute-force vote counting."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.group import GroupState
from admitlab.rng import Rng
from admitlab.rules import (
    CandidatePair,
    RuleSpec,
    block_decisions,
    block_kernel,
    consensus_decide,
    decide,
    majority_decide,
    veto_decide,
)


def test_majority_examples():
    assert majority_decide(0.4, 0.3, 0.6) == 0.3
    assert majority_decide(0.5, 0.4, 0.6) == 0.4  # tie
    assert majority_decide(0.1, 0.5, 0.9) == 0.5
    assert majority_decide(0.8, 0.1, 0.7) == 0.7


def test_consensus_examples():
    assert consensus_decide((0.4, 0.6), 0.1, 0.15) == 0.15
    assert consensus_decide((0.4, 0.6), 0.3, 0.7) is None
    assert consensus_decide((0.4, 0.6), 0.7, 0.9) == 0.7


def test_veto_examples():
    assert veto_decide(0.6, 0.3, 0.7) == 0.7
    assert veto_decide(0.6, 0.5, 0.9) is None
    assert veto_decide(0.6, 0.6, 0.6) is None  # strict


def test_pair_normalizes():
    p = CandidatePair(0.9, 0.2)
    assert (p.y1, p.y2) == (0.2, 0.9)


def test_dispatch_examples():
    g = GroupState([0.1, 0.5, 0.9])
    assert decide(RuleSpec("majority"), g, CandidatePair(0.45, 0.95)) == 0.45

    gv = GroupState([0.1, 0.3, 0.7, 0.7])  # q_{0.75} = 0.7
    rule = RuleSpec("veto", r=0.25)
    assert gv.quantile(0.75) == 0.7
    assert decide(rule, gv, CandidatePair(0.2, 0.9)) == 0.9

    gc = GroupState([0.5])
    assert decide(RuleSpec("consensus"), gc, CandidatePair(0.1, 0.2)) == 0.2


def test_dispatch_empty_group():
    with pytest.raises(ValueError):
        decide(RuleSpec("majority"), GroupState(), CandidatePair(0.1, 0.2))


def test_rulespec_validation():
    with pytest.raises(ValueError):
        RuleSpec("veto", r=1.5)
    with pytest.raises(ValueError):
        RuleSpec("veto")
    with pytest.raises(ValueError):
        RuleSpec("nonsense")
    with pytest.raises(ValueError):
        RuleSpec("quantile")  # custom kinds are gone
    with pytest.raises(TypeError):
        RuleSpec("majority", p=0.5)  # p is read from the kind, not set
    assert RuleSpec("majority").p == 0.5
    assert RuleSpec("veto", r=0.25).p == 0.75
    assert RuleSpec("veto", r=0.25).c2 == 4.0
    for kind in ("majority", "consensus"):  # r belongs to veto alone
        for r in (0.3, 0.0):
            with pytest.raises(ValueError, match=kind):
                RuleSpec(kind, r=r)
    assert block_kernel(RuleSpec("consensus"))[1] is None  # no chance


def _vote_left(member, y1, y2):
    # member votes for the closer candidate, ties vote left
    return abs(member - y1) <= abs(member - y2)


def _random_group(rnd, max_size=201):
    k = rnd.randrange(1, max_size + 1)
    return [rnd.random() for _ in range(k)]


def test_majority_matches_vote_count():
    rnd = random.Random(101)
    for _ in range(300):
        members = _random_group(rnd)
        g = GroupState(members)
        pair = CandidatePair(rnd.random(), rnd.random())
        left_votes = sum(_vote_left(m, pair.y1, pair.y2) for m in members)
        expected = pair.y1 if 2 * left_votes >= len(members) else pair.y2
        assert majority_decide(g.median(), pair.y1, pair.y2) == expected


def test_consensus_matches_unanimity():
    rnd = random.Random(202)
    for _ in range(300):
        members = _random_group(rnd)
        g = GroupState(members)
        # mix in near-extreme pairs so all three outcomes occur
        if rnd.random() < 0.5:
            base = rnd.choice([0.0, 1.0])
            y1 = abs(base - rnd.random() * 0.2)
            y2 = abs(base - rnd.random() * 0.2)
            pair = CandidatePair(min(y1, y2), max(y1, y2))
        else:
            pair = CandidatePair(rnd.random(), rnd.random())
        votes_left = [_vote_left(m, pair.y1, pair.y2) for m in members]
        if all(votes_left):
            expected = pair.y1
        elif not any(votes_left):
            expected = pair.y2
        else:
            expected = None
        assert consensus_decide((g.min(), g.max()), pair.y1, pair.y2) == expected


def test_veto_matches_fraction_count():
    # right candidate joins iff at least (1-p)*k members sit weakly right of
    # the midpoint; the exact-tie boundary (weak support == r*k) resolves by
    # the strict midpoint-vs-quantile comparison of the rule definition
    from fractions import Fraction

    rnd = random.Random(303)
    for _ in range(400):
        members = _random_group(rnd)
        g = GroupState(members)
        r = rnd.choice([0.25, 0.4, 0.5, 0.6, 0.75])
        p = 1.0 - r
        pair = CandidatePair(rnd.random(), rnd.random())
        mid = 0.5 * (pair.y1 + pair.y2)
        k = len(members)
        right_voters = sum(m >= mid for m in members)
        need = Fraction(r) * k
        got = veto_decide(g.quantile(p), pair.y1, pair.y2)
        if Fraction(right_voters) > need:
            assert got == pair.y2
        elif Fraction(right_voters) < need:
            assert got is None
        else:
            expected = pair.y2 if mid < g.quantile(p) else None
            assert got == expected


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_decisions_are_pure(m, a, b):
    y1, y2 = min(a, b), max(a, b)
    assert majority_decide(m, y1, y2) == majority_decide(m, y1, y2)
    assert veto_decide(m, y1, y2) == veto_decide(m, y1, y2)


def test_block_decisions_match_scalar_decisions():
    # the block decision admits exactly what the scalar decision admits
    # from each sorted pair, pair by pair (NaN where nobody joins), exact
    # ties included: at summary 0.5 the pair (0.25, 0.75) admits the left
    # candidate, 0.25
    u = Rng(41).uniform_block(4000).tolist()
    seeded = list(zip(u[0::2], u[1::2]))
    for s in (0.5, 0.375, 0.8125):
        ties = [(s + d, s - d) for d in (0.125, 2.0 ** -20, 0.0)] + \
               [(s - d, s + d) for d in (0.125, 2.0 ** -20)]
        pairs = [(min(a, b), max(a, b)) for a, b in seeded + ties]
        y1, y2 = (np.array(col) for col in zip(*pairs))
        for rule, scalar in ((RuleSpec("majority"), majority_decide),
                             (RuleSpec("veto", r=0.25), veto_decide)):
            block, accept_prob = block_kernel(rule)
            want = [scalar(s, a, b) for a, b in pairs]
            got = block(s, y1, y2).tolist()
            assert [None if y != y else y for y in got] == want
            assert 0.0 < accept_prob(s) <= 1.0


@pytest.mark.parametrize("rule", [RuleSpec("majority"), RuleSpec("veto", r=0.25),
                                  RuleSpec("consensus")],
                         ids=["majority", "veto", "consensus"])
def test_block_decisions_sure_for_every_summary_between(rule):
    # a pair marked sure is decided the same way by the scalar decision at
    # every summary between the two ends; ends and pairs crowd together so
    # that rounding ties and narrow pairs come up
    rnd = random.Random(f"sure-{rule.kind}")
    tiny = [0.0, 1e-20, 2e-20, 1.9e-20, 2.0 ** -51, 2.0 ** -50]
    for _ in range(60):
        lo = rnd.choice([rnd.random(), rnd.choice(tiny)])
        hi = rnd.choice([lo, min(1.0, lo + rnd.random() * 0.05),
                         rnd.random() * (1.0 - lo) + lo, 0.3])
        lo, hi = min(lo, hi), max(lo, hi)
        grid = sorted({lo, hi, *(lo + (hi - lo) * rnd.random()
                                 for _ in range(20)), *[t for t in tiny
                                                        if lo <= t <= hi]})
        raw = [(rnd.random(), rnd.random()) for _ in range(300)]
        raw += [(t, rnd.choice(tiny)) for t in tiny]
        raw += [(x, x + d) for x in grid[:5] for d in (0.0, 2.0 ** -52,
                                                       1e-20) if x + d < 1.0]
        pairs = [(min(a, b), max(a, b)) for a, b in raw]
        a, b = (np.array(col) for col in zip(*pairs))
        if rule.p is None:  # consensus (no engine caller): wider spans
            ends = ((lo, hi), (0.0, 1.0))
            spans = [(lo - (lo - 0.0) * t, hi + (1.0 - hi) * t)
                     for t in (0.0, 0.25, 0.5, 1.0)]
        else:
            ends, spans = (lo, hi), grid
        y, sure = block_decisions(rule, *ends, a, b)
        scalar = {"majority": majority_decide, "veto": veto_decide,
                  "consensus": consensus_decide}[rule.kind]
        for (p1, p2), yi, si in zip(pairs, y.tolist(), sure.tolist()):
            first = scalar(ends[0], p1, p2)
            assert (None if yi != yi else yi) == first
            if si:
                assert all(scalar(s, p1, p2) == first for s in spans)
