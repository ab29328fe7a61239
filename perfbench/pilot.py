"""Pilot runs behind the benchmark's frozen statistical tolerances.

    python3 perfbench/pilot.py

Uses run seeds 900-939 (the benchmark is run with small seeds), derives the
task seeds as the benchmark does, and prints the spread of each statistic
the checks bound.  Takes about three minutes on a 2-core box.  The
tolerances in workloads.py were set from this output; see README.md.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from admitlab import cli, oracles, stats  # noqa: E402
from admitlab.rng import Rng  # noqa: E402
from admitlab.rules import RuleSpec  # noqa: E402

from workloads import GROW, PROGRESS_ARGS, _seed  # noqa: E402

PILOT_SEEDS = range(900, 940)
PROGRESS_PILOT_TRIALS = 300


def _summary(name: str, size: int, seed: int) -> dict:
    doc, size_key, _, _ = GROW[name]
    text = json.dumps({"kind": "grow", **doc, size_key: size,
                       "seed": _seed(seed, list(GROW).index(name))})
    return cli.run_experiment(cli.parse_config(text)).summary


def main() -> None:
    for name, field in (("majority", "ks_triangle_second_half"),
                        ("veto", "final_gap"), ("jump", "final_q_p")):
        for size in GROW[name][2]:
            vals = sorted(_summary(name, size, s)[field] for s in PILOT_SEEDS)
            print(f"{name} {size}: {field} median {vals[len(vals) // 2]:.4g}"
                  f" max {vals[-1]:.4g} over {len(vals)} seeds")
    for side, i in (("right", 12), ("left", 13)):
        res = stats.quantile_progress_test(
            RuleSpec("majority"), oracles.majority_context(),
            PROGRESS_ARGS["start_gap"], PROGRESS_ARGS["sigma"],
            PROGRESS_ARGS["t"], PROGRESS_PILOT_TRIALS,
            Rng(_seed(PILOT_SEEDS[0], i)), side=side)
        print(f"progress {side}: {res.pass_fraction:.4f} of "
              f"{res.trials} trials pass")


if __name__ == "__main__":
    main()
