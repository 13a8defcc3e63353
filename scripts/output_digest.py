#!/usr/bin/env python3
"""Print one sha256 per output directory, over its files' relative paths and bytes.

Two directories print the same digest exactly when they hold the same files,
by relative path, with the same bytes, so comparing two commits' outputs is
one command on each:

    python scripts/reproduce_figures.py --profile reduced --out out/
    python scripts/output_digest.py out/*
"""

import argparse
import hashlib
import sys
from pathlib import Path


def digest(root: Path) -> str:
    """sha256 over each file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        # length prefixes keep one file's end from passing for the next's start
        for part in (rel, data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    args = ap.parse_args()
    for root in args.dirs:
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 1
        print(f"{digest(root)}  {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
