#!/usr/bin/env python3
"""Run every scenario preset end to end and drop one CSV bundle per scenario.

The full profile matches the headline protocols (n=1000, 150k steps) and takes
minutes on two cores (the acceptance criteria's share of it runs in about 7);
--profile reduced (n=200, 30k steps) shows the same qualitative outcomes
faster.

Examples:
    python scripts/reproduce_figures.py --profile reduced --parallel 2
    python scripts/reproduce_figures.py --only fig4 --out results/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netgames.experiments import PRESET_NAMES, preset, reduced_profile, run_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output root (one subdir per scenario)")
    ap.add_argument("--profile", choices=("full", "reduced"), default="full")
    ap.add_argument("--only", default=None, help="substring filter on preset names")
    ap.add_argument("--parallel", type=int, default=1)
    args = ap.parse_args()

    names = [n for n in PRESET_NAMES if not args.only or args.only in n]
    if not names:
        print(f"no preset matches {args.only!r}", file=sys.stderr)
        return 1
    root = Path(args.out)
    for name in names:
        s = preset(name)
        if args.profile == "reduced":
            s = reduced_profile(s)
        t0 = time.time()
        result = run_scenario(s, parallelism=args.parallel, out_dir=root / name)
        line = (
            f"{name}: mean final {s.strategy_a} fraction "
            f"{result.mean_final:.3f} +- {result.std_final:.3f}"
        )
        if result.correlation is not None:
            line += f", pearson(rho, final) = {result.correlation:.3f}"
        print(f"{line}  [{time.time() - t0:.0f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
