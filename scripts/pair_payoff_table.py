#!/usr/bin/env python3
"""Print the long-run pairwise payoff table for the strategy catalog.

Each cell E(row, col) is the analytic mean per-round payoff the row strategy
earns against the column strategy, cross-checked by simulation when --check
is given.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netgames.experiments import derive_seed
from netgames.pairchain import expected_payoffs, monte_carlo_payoffs
from netgames.strategies import CATALOG_NAMES, DEFAULT_MATRIX, named_strategy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true", help="Monte Carlo cross-check (slower)")
    ap.add_argument("--rounds", type=int, default=200_000)
    args = ap.parse_args()

    names = CATALOG_NAMES
    width = max(len(n) for n in names) + 2
    print("".rjust(width) + "".join(n.rjust(width) for n in names))
    worst = 0.0
    for ia, na in enumerate(names):
        row = na.rjust(width)
        for ib, nb in enumerate(names):
            e = expected_payoffs(named_strategy(na), named_strategy(nb), DEFAULT_MATRIX)
            row += f"{e.e_ab:.3f}".rjust(width)
            if args.check:
                mc = monte_carlo_payoffs(
                    named_strategy(na), named_strategy(nb), DEFAULT_MATRIX,
                    args.rounds, seed=derive_seed(ia, ib),
                )
                worst = max(worst, abs(mc.e_ab - e.e_ab), abs(mc.e_ba - e.e_ba))
        print(row)
    if args.check:
        print(f"\nworst |simulated - analytic| at {args.rounds} rounds: {worst:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
