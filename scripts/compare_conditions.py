#!/usr/bin/env python3
"""Report which packing conditions apply in the sparse-star / dense regime.

For a range of n, builds the pair "one hub of degree n/(100 ln n) plus
pendant edges" versus "everything has degree ceil(n/2)" and prints, per
checker, whether its hypothesis is satisfied.  This is the regime where the
classical degree-product conditions go silent while the randomized embedding
pipeline still succeeds on dense hosts.

Example:
    python3 scripts/compare_conditions.py --powers 8 10 12 14
"""

import argparse
import math

from bipack.conditions import compare_theorems
from bipack.graphs import BigraphicSequence


def regime_pair(n):
    d1 = max(1, int(n / (100 * math.log(n))))
    seq1 = BigraphicSequence((d1,) + (1,) * (n - 1), (1,) * n)
    d2 = -(-n // 2)
    seq2 = BigraphicSequence((d2,) * n, (d2,) * n)
    return seq1, seq2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--powers", type=int, nargs="+", default=[8, 10, 12, 14],
                        help="report at n = 2**k for each k given")
    args = parser.parse_args(argv)

    header = f"{'n':>8}  {'checker':<20} {'verdict':<18} notes"
    print(header)
    print("-" * len(header))
    for k in args.powers:
        n = 2**k
        seq1, seq2 = regime_pair(n)
        for report in compare_theorems(seq1, seq2):
            print(f"{n:>8}  {report.theorem:<20} {report.verdict:<18} {report.notes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
