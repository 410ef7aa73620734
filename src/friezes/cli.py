"""Command line front end: enumerate, count, verify, map, print, partitions.

Exit codes: 0 success, 1 invalid input (usage errors included), 2 work
budget exceeded, 3 a verification found a mismatch.  The FRIEZES_BUDGET
environment variable overrides the default work budget; --budget overrides
both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formulas, moduli, partitions, search
from .errors import DEFAULT_BUDGET, BudgetExceeded, FriezeError
from .frieze import (
    FirstRow,
    NotAFrieze,
    check_tame,
    frieze_from_first_row,
    render_frieze,
)
from .gf import parse_field_descriptor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


def _parse_row(spec, text: str) -> FirstRow:
    try:
        codes = [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise FriezeError(f"bad row {text!r}: entries are element codes") from exc
    return FirstRow.from_codes(spec, map(spec.checked_code, codes))


def _emit(args, payload, text: str):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def cmd_enumerate(args) -> int:
    spec = parse_field_descriptor(args.field)
    config = search.SearchConfig(budget=args.budget)
    result = search.enumerate_friezes(spec, args.width, args.strategy, config)
    if args.format == "json":
        print(json.dumps(search.enumeration_to_json_dict(result)))
    else:
        print(f"count: {result.total_count}")
        print(search.catalog_orbits(result))
    return EXIT_OK


def cmd_count(args) -> int:
    spec = parse_field_descriptor(args.field)
    q = spec.q
    if args.kind == "friezes":
        rows = [
            {"width": w, "count": formulas.count_friezes(q, spec.char_is_2, w)}
            for w in range(1, args.max_width + 1)
        ]
        text = "w  f_w\n" + "\n".join(f"{r['width']}  {r['count']}" for r in rows)
        _emit(args, {"field": spec.descriptor, "friezes": rows}, text)
    else:
        rows = []
        for n in range(2, args.max_n + 1):
            row = {
                "n": n,
                "configurations": formulas.count_configurations(q, n),
                "moduli": formulas.count_moduli(q, n),
            }
            if n % 2 == 0:
                signed = formulas.count_signed_configurations(q, spec.char_is_2, n)
                row["plus"] = signed.plus
                row["minus"] = signed.minus
                row["moduli_plus"] = formulas.count_moduli_plus(
                    q, spec.char_is_2, n // 2
                )
            rows.append(row)
        lines = ["n  c_n  c_n+  c_n-  moduli  moduli+"]
        for r in rows:
            lines.append(
                f"{r['n']}  {r['configurations']}  {r.get('plus', '-')}  "
                f"{r.get('minus', '-')}  {r['moduli']}  {r.get('moduli_plus', '-')}"
            )
        _emit(args, {"field": spec.descriptor, "moduli": rows}, "\n".join(lines))
    return EXIT_OK


def _verify_friezes(spec, args, report):
    config = search.SearchConfig(budget=args.budget)
    ok = True
    for check in search.verify_count_formula(spec, args.max_width, config=config):
        report.append(
            {
                "check": "friezes",
                "width": check.width,
                "enumerated": check.enumerated,
                "closed_form": check.closed_form,
                "match": check.match,
            }
        )
        ok = ok and check.match
    return ok


def _verify_moduli(spec, args, report):
    q = spec.q
    ok = True
    for n in range(2, args.max_n + 1):
        enumerated = sum(
            1 for _ in moduli.configuration_index_tuples(spec, n, "all", args.budget)
        )
        expected = formulas.count_configurations(q, n)
        report.append(
            {
                "check": "configurations",
                "n": n,
                "enumerated": enumerated,
                "closed_form": expected,
                "match": enumerated == expected,
            }
        )
        ok = ok and enumerated == expected

        orbits = moduli.pgl2_orbit_count(spec, n, "all", args.budget).count
        expected = formulas.count_moduli(q, n)
        report.append(
            {
                "check": "moduli",
                "n": n,
                "enumerated": orbits,
                "closed_form": expected,
                "match": orbits == expected,
            }
        )
        ok = ok and orbits == expected

        if n % 2 == 0:
            signed = formulas.count_signed_configurations(q, spec.char_is_2, n)
            for sign, expected_count in (("plus", signed.plus), ("minus", signed.minus)):
                enumerated = sum(
                    1
                    for _ in moduli.configuration_index_tuples(
                        spec, n, sign, args.budget
                    )
                )
                report.append(
                    {
                        "check": f"configurations_{sign}",
                        "n": n,
                        "enumerated": enumerated,
                        "closed_form": expected_count,
                        "match": enumerated == expected_count,
                    }
                )
                ok = ok and enumerated == expected_count
            plus_orbits = moduli.pgl2_orbit_count(spec, n, "plus", args.budget).count
            expected = formulas.count_moduli_plus(q, spec.char_is_2, n // 2)
            report.append(
                {
                    "check": "moduli_plus",
                    "n": n,
                    "enumerated": plus_orbits,
                    "closed_form": expected,
                    "match": plus_orbits == expected,
                }
            )
            ok = ok and plus_orbits == expected
    return ok


def _verify_partitions(spec, args, report):
    ok = True
    for n in range(2, args.max_n + 1):
        counts = partitions.cyclic_partition_counts(n)
        closed_ok = all(
            counts[k] == partitions.a_kn_closed_form(k, n) for k in range(2, n + 1)
        )
        rhs = partitions.partition_identity_rhs(spec.q, n, counts)
        lhs = formulas.count_configurations(spec.q, n)
        report.append(
            {
                "check": "partitions",
                "n": n,
                "enumerated": rhs,
                "closed_form": lhs,
                "match": closed_ok and rhs == lhs,
            }
        )
        ok = ok and closed_ok and rhs == lhs
    return ok


def cmd_verify(args) -> int:
    spec = parse_field_descriptor(args.field)
    report: list[dict] = []
    ok = True
    if args.which in ("friezes", "all"):
        ok = _verify_friezes(spec, args, report) and ok
    if args.which in ("moduli", "all"):
        ok = _verify_moduli(spec, args, report) and ok
    if args.which in ("partitions", "all"):
        ok = _verify_partitions(spec, args, report) and ok
    lines = []
    for row in report:
        status = "ok" if row["match"] else "MISMATCH"
        where = f"w={row['width']}" if "width" in row else f"n={row['n']}"
        lines.append(
            f"{row['check']:22s} {where:6s} enumerated {row['enumerated']} "
            f"closed form {row['closed_form']}  {status}"
        )
    _emit(args, {"field": spec.descriptor, "ok": ok, "rows": report}, "\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_map(args) -> int:
    spec = parse_field_descriptor(args.field)
    if args.to == "config":
        if not args.row:
            raise FriezeError("--to config needs --row")
        row = _parse_row(spec, args.row)
        config = moduli.frieze_to_configuration(row)
        back = moduli.configuration_to_frieze(config)
        if isinstance(back, moduli.FirstRowClass):
            round_trip = row in back
        else:
            round_trip = back == row
        _emit(
            args,
            {
                "field": spec.descriptor,
                "points": config.labels(),
                "round_trip": round_trip,
            },
            f"configuration: {config}\nround trip: {'ok' if round_trip else 'FAILED'}",
        )
        return EXIT_OK if round_trip else EXIT_MISMATCH
    if not args.points:
        raise FriezeError("--to frieze needs --points")
    config = moduli.parse_points(spec, args.points.split(","))
    result = moduli.configuration_to_frieze(config)
    row = result.rep if isinstance(result, moduli.FirstRowClass) else result
    back = moduli.frieze_to_configuration(row)
    round_trip = moduli.orbit_of(back) == moduli.orbit_of(config)
    label = "row class rep" if isinstance(result, moduli.FirstRowClass) else "row"
    _emit(
        args,
        {
            "field": spec.descriptor,
            "row": list(row.codes),
            "class": isinstance(result, moduli.FirstRowClass),
            "round_trip": round_trip,
        },
        f"{label}: {row}\nround trip: {'ok' if round_trip else 'FAILED'}",
    )
    return EXIT_OK if round_trip else EXIT_MISMATCH


def cmd_print(args) -> int:
    spec = parse_field_descriptor(args.field)
    row = _parse_row(spec, args.row)
    built = frieze_from_first_row(row)
    if isinstance(built, NotAFrieze):
        print(
            f"not a frieze: product of {row} is {built.product!r}, not -Id",
            file=sys.stderr,
        )
        return EXIT_INPUT
    tame = check_tame(built)
    assert tame.ok, "friezes built from the recursion are tame"
    print(render_frieze(built, args.format))
    return EXIT_OK


def cmd_partitions(args) -> int:
    rows = []
    for n in range(2, args.max_n + 1):
        rows.append(
            {"n": n, "counts": [partitions.a_kn_closed_form(k, n) for k in range(2, n + 1)]}
        )
    lines = ["n \\ k: 2.." + str(args.max_n)]
    for r in rows:
        lines.append(f"{r['n']:2d}  " + " ".join(str(c) for c in r["counts"]))
    _emit(args, {"triangle": rows}, "\n".join(lines))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FriezeError, so they exit 1 like any invalid input;
    subparsers are built with the same class."""

    def error(self, message):
        raise FriezeError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="friezes",
        description="Tame friezes over finite fields: enumeration, closed-form "
        "counts, moduli-space orbits, and cross-checks.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (>= 1); enumeration runs in one thread",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="work budget override (default: FRIEZES_BUDGET or 10^8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate all tame friezes of a width")
    p.add_argument("--field", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--strategy", choices=("naive", "mitm"), default="mitm")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form count tables")
    p.add_argument("--field", required=True)
    p.add_argument("--kind", choices=("friezes", "moduli"), default="friezes")
    p.add_argument("--max-width", type=int, default=8)
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="enumeration vs closed forms")
    p.add_argument("--field", required=True)
    p.add_argument(
        "--which", choices=("friezes", "moduli", "partitions", "all"), default="all"
    )
    p.add_argument("--max-width", type=int, default=4)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("map", help="map between first rows and configurations")
    p.add_argument("--field", required=True)
    p.add_argument("--to", choices=("config", "frieze"), required=True)
    p.add_argument("--row", help="comma-separated element codes")
    p.add_argument("--points", help="comma-separated point labels (codes or inf)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("print", help="render the frieze generated by a first row")
    p.add_argument("--field", required=True)
    p.add_argument("--row", required=True)
    p.set_defaults(func=cmd_print)

    p = sub.add_parser("partitions", help="triangle of restricted cyclic partition counts")
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(func=cmd_partitions)

    return parser


def _check_flags(args):
    """Raise FriezeError at the first flag outside its range, and resolve the
    budget from FRIEZES_BUDGET when --budget is absent.  An empty --max-width
    or --max-n range is an error, so that exit 0 always means something ran."""
    if args.workers < 1:
        raise FriezeError(f"--workers must be >= 1, got {args.workers}")
    if args.budget is not None and args.budget < 0:
        raise FriezeError(f"--budget must be >= 0, got {args.budget}")
    if args.command in ("count", "verify") and args.max_width < 1:
        raise FriezeError(f"--max-width must be >= 1, got {args.max_width}")
    if args.command in ("count", "verify", "partitions") and args.max_n < 2:
        raise FriezeError(f"--max-n must be >= 2, got {args.max_n}")
    if args.budget is None:
        env = os.environ.get("FRIEZES_BUDGET", str(DEFAULT_BUDGET))
        try:
            args.budget = int(env)
        except ValueError:
            raise FriezeError(f"FRIEZES_BUDGET must be an integer, got {env!r}") from None
        if args.budget < 0:
            raise FriezeError(f"FRIEZES_BUDGET must be >= 0, got {args.budget}")


_parser = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()  # on first use: importing the module stays cheap
        args = _parser.parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FriezeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
