"""Count isomorphism classes of n-ary groups over small catalog orders.

Usage: python scripts/census_report.py [--orders 1,2,3,4] [--arities 3,4]

For each (order, arity) cell: the classes, how many are reduced, and how
many are simple in each of the paper's senses: UAS (no congruences but
equality and the full relation), GTS (no normal polyadic subgroups but
singletons and the whole) and GTS* (no proper normal polyadic subgroup).
"""

import argparse
import sys

from pglab.simplicity import census


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="1,2,3,4")
    parser.add_argument("--arities", default="3,4")
    args = parser.parse_args(argv)

    print(f"{'order':>5} {'arity':>5} {'classes':>8} {'reduced':>8} {'UAS':>5} {'GTS':>5} "
          f"{'GTS*':>5}")
    for order in (int(x) for x in args.orders.split(",")):
        for arity in (int(x) for x in args.arities.split(",")):
            entries = census(order, arity, "derived")
            reduced, uas, gts, star = (
                sum(getattr(e.report, flag) for e in entries)
                for flag in ("reduced", "uas", "gts", "gts_star")
            )
            print(f"{order:>5} {arity:>5} {len(entries):>8} {reduced:>8} {uas:>5} {gts:>5} "
                  f"{star:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
