"""Acceptance suite: one test per registered criterion, one printed verdict
line each.  The criteria, with their seeds and frozen thresholds, live in
`admitlab.experiments`; the heavy seed sweeps fan out over a small
process pool.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from admitlab.experiments import CRITERIA

POOL_WORKERS = 2


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as p:
        yield p


def _acceptance_test(criterion):
    def test(pool):
        v = criterion.run(pool.map)
        print(v.line)
        assert v.passed, v.line
    return test


for _c in CRITERIA:
    globals()[f"test_criterion_{_c.num:02d}_{_c.slug}"] = _acceptance_test(_c)
