"""Fixed-size committee engine with exact rational arithmetic.

Opinions are exact rationals (python ints or fractions.Fraction; anything
registered as numbers.Rational).  Floats are rejected at the door: every
vote comparison, potential evaluation and drift bound in this module is
exact, which is what makes the adversarial certificates meaningful.

Members carry stable integer ids so that claims about removing or
protecting *original* members are about identities, not coincidental
values.  A committee is an immutable snapshot; replacements return a new
one.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence


def _check_rational(x, what: str):
    if isinstance(x, (float, bool)) or not isinstance(x, numbers.Rational):
        raise TypeError(f"{what} must be an exact rational, got {type(x).__name__}")
    return x


def _check_index(i, n: int) -> int:
    if type(i) is not int:
        raise TypeError(f"member index must be an int, got {type(i).__name__}")
    if not 1 <= i <= n:
        raise IndexError(f"member index {i} out of range 1..{n}")
    return i


def _double(v):
    return 2 * v


def _votes(vals, xi, y) -> int:
    """`Committee.vote_count` against xi in the sorted `vals`, y checked."""
    if y == xi:
        return len(vals) - 1
    s = xi + y
    if y > xi:
        return len(vals) - bisect_left(vals, s, key=_double)
    return bisect_right(vals, s, key=_double)


class Committee:
    """Sorted fixed-size profile of exact opinions with member identities."""

    __slots__ = ("values", "ids", "n", "ell", "threshold", "_next_id")

    def __init__(self, opinions: Sequence, ell: int):
        vals = sorted(_check_rational(v, "opinion") for v in opinions)
        n = len(vals)
        if n < 1:
            raise ValueError("committee must have at least one member")
        if type(ell) is not int or not 0 <= ell <= (n - 1) // 2:
            raise ValueError(f"ell={ell!r} is not an int in 0..{(n - 1) // 2}"
                             f" for n={n}")
        self.values = tuple(vals)
        self.ids = tuple(range(1, n + 1))
        self.n = n
        self.ell = ell
        self.threshold = -((1 - n) // 2) + ell  # ceil((n-1)/2) + ell
        self._next_id = n + 1

    @classmethod
    def _of(cls, values: tuple, ids: tuple, like: "Committee",
            next_id: int) -> "Committee":
        """Sorted `values` with their `ids` under `like`'s size and rule."""
        c = cls.__new__(cls)
        c.values = values
        c.ids = ids
        c.n = like.n
        c.ell = like.ell
        c.threshold = like.threshold
        c._next_id = next_id
        return c

    @property
    def diameter(self):
        """x_n - x_1 of the current profile."""
        return self.values[-1] - self.values[0]

    def scaled(self, mul: int) -> "Committee":
        """The same members with every opinion times the positive int `mul`,
        as ints; vote counts are invariant under the scaling.  Each product
        must be an integer."""
        if isinstance(mul, bool) or not isinstance(mul, int) or mul < 1:
            raise ValueError(f"scale must be a positive int, got {mul!r}")
        products = [v * mul for v in self.values]
        if any(p.denominator != 1 for p in products):
            raise ValueError(f"opinions times {mul} are not all integers")
        return Committee._of(tuple(int(p) for p in products), self.ids,
                             self, self._next_id)

    def _unscaled(self, div: int) -> "Committee":
        """Every opinion over the positive int `div`, undoing `scaled`."""
        return Committee._of(tuple(Fraction(v, div) for v in self.values),
                             self.ids, self, self._next_id)

    def opinion(self, i: int):
        """Opinion of the i-th member in sorted order, 1-based."""
        return self.values[_check_index(i, self.n) - 1]

    def vote_count(self, i: int, y) -> int:
        """Members j != i with |x_j - y| <= |x_j - x_i| (weak preference).

        Squaring both sides gives 2*x_j*(x_i - y) <= x_i^2 - y^2, so for
        y != x_i voter j weakly prefers y exactly when x_j lies on y's side
        of the midpoint (x_i + y)/2, the midpoint itself included: for
        y > x_i the voters are the members with 2*x_j >= x_i + y, for
        y < x_i those with 2*x_j <= x_i + y.  Member i is never on y's
        side, and at y == x_i every other member ties.  One bisection of
        the sorted profile thus counts the votes in O(log n) exact
        comparisons.  The same rule gives closed forms in the adversaries
        module: the legal candidates for member i are one interval whose
        ends reflect x_i through two order statistics of the other members
        (`legal_intervals`, O(1)), and the best vote for any y != x_i
        counts the members strictly on one side of x_i
        (`one_step_irreplaceable`, O(log n)).
        """
        return _votes(self.values, self.values[_check_index(i, self.n) - 1],
                      _check_rational(y, "candidate"))

    def replace_attempt(self, i: int, y) -> tuple[bool, "Committee"]:
        """Swap member i for candidate y if the vote meets the threshold.

        Returns (accepted, committee); the committee is unchanged when the
        vote fails, and a re-sorted profile with a fresh member id when it
        succeeds.
        """
        c, (votes,) = self._run([(_check_index(i, self.n),
                                  _check_rational(y, "candidate"))],
                                self.threshold)
        return (True, c) if votes >= self.threshold else (False, self)

    def _run(self, steps, need: int) -> tuple["Committee", list]:
        """Take the checked steps (i, y) in order, reading each once: count
        its votes, stop at the first count below `need`, else put y in
        member i's place under a fresh id.  Returns the committee after the
        last accepted step and every count taken."""
        vals, ids = list(self.values), list(self.ids)
        next_id, counts = self._next_id, []
        for i, y in steps:
            votes = _votes(vals, vals[i - 1], y)
            counts.append(votes)
            if votes < need:
                break
            del vals[i - 1], ids[i - 1]
            pos = bisect_right(vals, y)
            vals.insert(pos, y)
            ids.insert(pos, next_id)
            next_id += 1
        return Committee._of(tuple(vals), tuple(ids), self, next_id), counts

    def median(self):
        if self.n % 2 == 0:
            raise ValueError("median index requires odd committee size")
        return self.values[(self.n - 1) // 2]

    def potential(self):
        """Exact sum of member distances to the median (odd n only)."""
        if self.n % 2 == 0:
            raise ValueError("potential requires odd committee size")
        m = self.values[(self.n - 1) // 2]
        return sum(abs(v - m) for v in self.values)

    def consensus_monotone(self):
        """x_n + x_2 - x_1; never increases under accepted consensus steps."""
        if self.n < 3:
            raise ValueError("monotone quantity needs n >= 3")
        return self.values[-1] + self.values[1] - self.values[0]

    def consensus_monotone_mirror(self):
        """x_1 + x_{n-1} - x_n; never decreases (reflection of the above)."""
        if self.n < 3:
            raise ValueError("monotone quantity needs n >= 3")
        return self.values[0] + self.values[-2] - self.values[-1]

    def to_json_profile(self) -> list[str]:
        return [f"{v.numerator}/{v.denominator}" for v in self.values]

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values[:6])
        more = ", ..." if self.n > 6 else ""
        return f"Committee(n={self.n}, ell={self.ell}, [{vals}{more}])"


def shift_lemma_check(before: Committee, after: Committee) -> tuple[bool, object, object]:
    """Exact check of the potential-drop inequality for one accepted step.

    When the median moved right, the sum of distances to the median must
    drop by at least 2 * sum_{j=k-ell+2}^{k} d(x_j, x'_j) + d(x_{k+1},
    x'_{k+1}); when it moved left, the sum runs over j = k+2..k+ell.
    Returns (holds, decrease, required_decrease).
    """
    n = before.n
    if n != after.n or n % 2 == 0:
        raise ValueError("check needs two odd same-size configurations")
    if before.ell != after.ell:
        raise ValueError("configurations disagree on ell")
    if len(set(before.ids) - set(after.ids)) != 1:
        raise ValueError("after is not one replacement away from before")
    k = (n - 1) // 2
    med_before = before.values[k]
    med_after = after.values[k]
    decrease = before.potential() - after.potential()
    if med_after == med_before:
        return True, decrease, 0
    ell = before.ell
    side = range(k - ell + 1, k) if med_after > med_before \
        else range(k + 1, k + ell)
    required = abs(med_after - med_before) + 2 * sum(
        abs(after.values[j] - before.values[j]) for j in side)
    return decrease >= required, decrease, required


def drift_bound_check(initial: Committee, current: Committee) -> tuple[bool, object, object]:
    """Exact check that indexed positions never drift past D*k/(2*ell-1).

    Verifies x'_{k-ell+2} <= x_n(0) + Dk/(2l-1) and the mirror bound
    x'_{k+ell} >= x_1(0) - Dk/(2l-1).  Only claimed for ell >= 1 and odd n.
    Returns (holds, right_slack, left_slack).
    """
    n = initial.n
    if n != current.n or n % 2 == 0:
        raise ValueError("check needs two odd same-size configurations")
    if initial.ell != current.ell:
        raise ValueError("configurations disagree on ell")
    if initial.ell < 1:
        raise ValueError("drift bound only applies for ell >= 1")
    k = (n - 1) // 2
    ell = initial.ell
    # both bounds multiplied through by 2*ell - 1, so integer profiles are
    # decided in integers; a slack is its scaled value over 2*ell - 1
    m = 2 * ell - 1
    dk = initial.diameter * k
    right = m * (initial.values[-1] - current.values[k - ell + 2 - 1]) + dk
    left = m * (current.values[k + ell - 1] - initial.values[0]) + dk
    return (right >= 0 and left >= 0,
            Fraction(right, m), Fraction(left, m))
