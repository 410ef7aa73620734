#!/usr/bin/env python3
"""Compare the naive and meet-in-the-middle enumeration strategies as the
search space grows, checking they agree while timing both.  Both solve the
entries a row's -Id condition forces: naive scans q^(n-3) prefixes and solves
the last three entries, mitm scans q^(n//2) left halves against a table of
q^(n-1-n//2) middles and solves the last entry.  About q^(n-3) rows come out
either way, so both timings track the output size (and the orbit catalog
built from it) rather than the q^n search space."""

import argparse

from friezes import SearchConfig, enumerate_friezes
from friezes.gf import FieldSpec

FIELDS = {2: FieldSpec(2), 3: FieldSpec(3), 4: FieldSpec(2, 2), 5: FieldSpec(5)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space-limit", type=float, default=10**7,
                        help="skip cases with q^n above this")
    parser.add_argument("--naive-limit", type=float, default=10**6,
                        help="skip the naive run when q^(n-3) is above this")
    args = parser.parse_args()
    config = SearchConfig(keep_tuples_below=10**6)
    print(f"{'q':>3} {'w':>3} {'n':>3} {'count':>8} {'naive [s]':>10} {'mitm [s]':>10}")
    for q, spec in FIELDS.items():
        w = 1
        while q ** (w + 3) <= args.space_limit:
            n = w + 3
            mitm = enumerate_friezes(spec, w, "mitm", config)
            if q ** (n - 3) <= args.naive_limit:
                naive = enumerate_friezes(spec, w, "naive", config)
                assert naive.total_count == mitm.total_count
                assert naive.tuples == mitm.tuples
                naive_s = f"{naive.elapsed:10.4f}"
            else:
                naive_s = "   skipped"
            print(
                f"{q:>3} {w:>3} {n:>3} {mitm.total_count:>8} "
                f"{naive_s} {mitm.elapsed:10.4f}"
            )
            w += 1


if __name__ == "__main__":
    main()
