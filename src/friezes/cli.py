"""Command line front end: enumerate, count, verify, map, print, partitions.

`verify` prints one row per check, enumeration against closed form: `friezes`
by width w; `configurations`, `moduli`, `configurations_plus`,
`configurations_minus` and `moduli_plus` by n (the last three for even n
only); `partitions` by n.  The moduli rows read the same closed forms that
`count --kind moduli` prints.

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
        print(search.catalog_orbits(result, "json"))
    else:
        print(f"count: {result.total_count}")
        print(search.catalog_orbits(result))
    return EXIT_OK


def _moduli_closed_forms(spec, n: int) -> dict:
    """The closed forms `count --kind moduli` prints for n, in print order: the
    signed counts and the orbits of C_n^+ exist for even n only."""
    q = spec.q
    forms = {
        "configurations": formulas.count_configurations(q, n),
        "moduli": formulas.count_moduli(q, n),
    }
    if n % 2 == 0:
        signed = formulas.count_signed_configurations(q, spec.char_is_2, n)
        forms["plus"] = signed.plus
        forms["minus"] = signed.minus
        forms["moduli_plus"] = formulas.count_moduli_plus(q, spec.char_is_2, n // 2)
    return forms


def cmd_count(args) -> int:
    spec = parse_field_descriptor(args.field)
    if args.kind == "friezes":
        rows = [
            {"width": w, "count": formulas.count_friezes(spec.q, spec.char_is_2, w)}
            for w in range(1, args.max_width + 1)
        ]
        text = "w  f_w\n" + "\n".join(f"{r['width']}  {r['count']}" for r in rows)
        _emit(args, {"field": spec.descriptor, "friezes": rows}, text)
    else:
        rows = [
            {"n": n, **_moduli_closed_forms(spec, n)} for n in range(2, args.max_n + 1)
        ]
        lines = ["n  c_n  c_n+  c_n-  moduli  moduli+"]
        for r in rows:
            lines.append(
                f"{r['n']}  {r['configurations']}  {r.get('plus', '-')}  "
                f"{r.get('minus', '-')}  {r['moduli']}  {r.get('moduli_plus', '-')}"
            )
        _emit(args, {"field": spec.descriptor, "moduli": rows}, "\n".join(lines))
    return EXIT_OK


# One row per moduli check: (check, closed-form key, sign class, whether it
# counts PGL2 orbits rather than configurations).  A row runs for n only when
# its key is among n's closed forms.
MODULI_CHECKS = (
    ("configurations", "configurations", "all", False),
    ("moduli", "moduli", "all", True),
    ("configurations_plus", "plus", "plus", False),
    ("configurations_minus", "minus", "minus", False),
    ("moduli_plus", "moduli_plus", "plus", True),
)


def _verify_rows(spec, args):
    """Yield (check, (index name, index), enumerated, closed form, match) for
    every check that --which selects, in print order."""
    if args.which in ("friezes", "all"):
        config = search.SearchConfig(budget=args.budget)
        for c in search.verify_count_formula(spec, args.max_width, config=config):
            yield "friezes", ("width", c.width), c.enumerated, c.closed_form, c.match
    if args.which in ("moduli", "all"):
        for n in range(2, args.max_n + 1):
            forms = _moduli_closed_forms(spec, n)
            for check, key, sign, orbits in MODULI_CHECKS:
                if key not in forms:
                    continue
                count = moduli.count_pgl2_orbits if orbits else moduli.count_configuration_tuples
                got = count(spec, n, sign, args.budget)
                yield check, ("n", n), got, forms[key], got == forms[key]
    if args.which in ("partitions", "all"):
        for n in range(2, args.max_n + 1):
            counts = partitions.cyclic_partition_counts(n, args.budget)
            closed_ok = all(
                counts[k] == partitions.a_kn_closed_form(k, n) for k in range(2, n + 1)
            )
            rhs = partitions.partition_identity_rhs(spec.q, n, counts)
            lhs = formulas.count_configurations(spec.q, n)
            yield "partitions", ("n", n), rhs, lhs, closed_ok and rhs == lhs


def cmd_verify(args) -> int:
    spec = parse_field_descriptor(args.field)
    report, lines = [], []
    for check, (index, i), enumerated, closed_form, match in _verify_rows(spec, args):
        report.append(
            {
                "check": check,
                index: i,
                "enumerated": enumerated,
                "closed_form": closed_form,
                "match": match,
            }
        )
        where = f"{'w' if index == 'width' else 'n'}={i}"
        lines.append(
            f"{check:22s} {where:6s} enumerated {enumerated} "
            f"closed form {closed_form}  {'ok' if match else 'MISMATCH'}"
        )
    ok = all(row["match"] for row in report)
    _emit(args, {"field": spec.descriptor, "ok": ok, "rows": report}, "\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_map(args) -> int:
    spec = parse_field_descriptor(args.field)
    if args.to == "config":
        if args.row is None:
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
    if args.points is None:
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
    rows = [
        {"n": n, "counts": counts[2:]}
        for n, counts in enumerate(partitions.cyclic_partition_rows(args.max_n), start=2)
    ]
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
    p.add_argument(
        "--strategy",
        choices=("naive", "mitm"),
        default="mitm",
        help="search strategy, charged its own work estimate (default: mitm); "
        "mitm solves a middle of <= 2 entries in closed form, so both run "
        "the same search at width <= 3",
    )
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
