#!/usr/bin/env python3
"""Census of small partition lattices: Bell numbers, cover edges, ordered pairs."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logent.partitions import bell_number, lattice_cover_edges


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()

    print(f"{'n':>3} {'partitions':>12} {'cover edges':>12} {'ordered pairs':>14}")
    for n in range(1, args.max_n + 1):
        bell = bell_number(n)
        edges = len(lattice_cover_edges(n))
        print(f"{n:>3} {bell:>12d} {edges:>12d} {bell * bell:>14d}")


if __name__ == "__main__":
    main()
