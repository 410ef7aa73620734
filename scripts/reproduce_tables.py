#!/usr/bin/env python3
"""Regenerate the headline number tables by exhaustive enumeration, checked
against the closed forms: frieze counts by width, orbit catalogs of the small
widths, moduli point counts, and the restricted-partition triangle.

Every table is one `friezes` command, printed after a `$ friezes ...` line.
The script exits with the largest exit code of those commands, so 0 means
every check matched (3 a mismatch, 2 a budget refusal) and it can drive CI.
"""

import argparse
import sys

from friezes.cli import main as friezes

FIELDS = ("2", "3", "2^2", "5")
CATALOGS = (("2", 2), ("3", 2), ("5", 2), ("2", 3), ("3", 3), ("2^2", 2))


def commands(args):
    for field in FIELDS:
        yield f"verify --field {field} --which friezes --max-width {args.max_width}"
    for field, width in CATALOGS:
        yield f"enumerate --field {field} --width {width}"
    for field in ("2", "3"):
        yield f"verify --field {field} --which moduli --max-n {args.max_n}"
    yield f"verify --field 2 --which partitions --max-n {args.max_partition_n}"
    yield f"partitions --max-n {args.max_partition_n}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-width", type=int, default=6)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--max-partition-n", type=int, default=14)
    args = parser.parse_args()
    worst = 0
    for command in commands(args):
        print(f"$ friezes {command}")
        worst = max(worst, friezes(command.split()))
        print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
