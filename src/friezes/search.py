"""Exhaustive enumeration of tame friezes of a given width over GF(q).

A width-w frieze is an n-tuple (n = w + 3) whose matrices M(a) = [[a, -1],
[1, 0]] multiply to M(a_n)...M(a_1) = -Id.  That is three independent
equations on SL2(F_q), so about q^(n-3) of the q^n tuples solve it and three
entries of a row follow from the others.  Two strategies:

  naive  depth-first over a_1..a_{n-3}, carrying the prefix product P; then
         M(a_n) M(a_{n-1}) M(a_{n-2}) = -P^(-1) forces a_{n-1} = p00 and
         determines a_{n-2} and a_n (one completion when p00 != 0, q or none
         when p00 = 0), so the work is ~q^(n-3) states in all.

  mitm   split n = nl + nr + 1 with nl = n // 2; tabulate the q^nr middle
         products R = M(a_{n-1})...M(a_{nl+1}) keyed by R's first row, then
         for each left product L = M(a_nl)...M(a_1) the equation
         R L = -M(a_n)^(-1) = [[0, -1], [1, -a_n]] fixes that first row as
         (l10, -l00) and every entry of its bucket fixes a_n, so the work is
         q^nl left leaves plus the q^nr table.

Both walk prefixes with _prefix_products, the search's copy of the SL2 step
(frieze.row_products is the single-row one).  Rows stay code tuples; only
orbit representatives become FirstRows.

Both return identical, lexicographically sorted results, with the chunks of
each first code concatenated in code order.  The search runs in one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded
from .formulas import count_friezes
from .frieze import FirstRow, dihedral_orbit_codes
from .gf import FieldSpec


@dataclass(frozen=True)
class SearchConfig:
    """Search limits.  ``workers`` is accepted for compatibility and
    ignored: the search runs in one thread, whatever its value."""

    budget: int = DEFAULT_BUDGET
    workers: int = 1
    keep_tuples_below: int = 1_000_000


@dataclass
class EnumerationResult:
    spec: FieldSpec
    width: int
    total_count: int
    orbits: list[tuple[FirstRow, int]]
    elapsed: float
    strategy: str
    tuples: list[tuple[int, ...]] | None = None

    @property
    def orbit_sizes(self) -> list[int]:
        return sorted(size for _, size in self.orbits)


def _estimated_work(q: int, n: int, strategy: str) -> int:
    if strategy == "naive":
        return sum(q**d for d in range(1, n))
    nl = (n + 1) // 2
    return 2 * (q**nl + q ** (n - nl))


def _prefix_products(spec: FieldSpec, length: int, firsts) -> list[tuple]:
    """Every prefix (a_1, ..., a_length) with a_1 in firsts, in lex order, as
    (prefix, p00, p01, p10, p11) with P = M(a_length)...M(a_1): a flat walk
    that steps P -> M(a) P for a whole level at a time."""
    mul, sub = spec.mul_code, spec.sub_code
    codes = range(spec.q)
    neg1 = spec.neg_code(1)
    level = [((x,), x, neg1, 1, 0) for x in firsts]
    for _ in range(length - 1):
        level = [
            (prefix + (x,), sub(mul(x, p00), p10), sub(mul(x, p01), p11), p00, p01)
            for prefix, p00, p01, p10, p11 in level
            for x in codes
        ]
    return level


def _naive_chunk(spec: FieldSpec, n: int, first: int) -> list[tuple[int, ...]]:
    """Rows with a_1 = first, in lex order: a_2..a_{n-3} are scanned and the
    last three entries solved from the prefix product."""
    mul, add, sub, inv = spec.mul_code, spec.add_code, spec.sub_code, spec.inv_code
    codes = range(spec.q)
    neg1 = spec.neg_code(1)
    out = []
    for prefix, p00, p01, p10, p11 in _prefix_products(spec, n - 3, (first,)):
        # M(z) M(p00) M(y) = -P^(-1) = [[-p11, p01], [p10, -p00]] needs
        # y p00 = 1 + p10 and gives z = p11 - y p01; det P = 1 does the rest
        if p00:
            y = mul(add(1, p10), inv(p00))
            out.append(prefix + (y, p00, sub(p11, mul(y, p01))))
        elif p10 == neg1:
            out += [prefix + (y, 0, sub(p11, mul(y, p01))) for y in codes]
    return out


def _mitm_table(spec: FieldSpec, nr: int):
    """Middle products R = M(a_{n-1})...M(a_{nl+1}) keyed by R's first row
    (r00, r01).  Each bucket lists (mid, r10, r11) with mid = (a_{nl+1}, ...,
    a_{n-1}), in lex order of mid."""
    table = defaultdict(list)
    for mid, r00, r01, r10, r11 in _prefix_products(spec, nr, range(spec.q)):
        table[(r00, r01)].append((mid, r10, r11))
    return dict(table)


def _mitm_chunk(spec: FieldSpec, nl: int, first: int, table) -> list[tuple[int, ...]]:
    """Rows with a_1 = first, in lex order: each left product L is completed
    by the table bucket at R's forced first row, and a_n is solved."""
    mul, add, neg = spec.mul_code, spec.add_code, spec.neg_code
    out = []
    empty = ()
    for prefix, p00, p01, p10, p11 in _prefix_products(spec, nl, (first,)):
        # R L = [[0, -1], [1, -a_n]]: R's first row is (p10, -p00), the
        # (1, 0) entry follows from det R = det L = 1
        for mid, r10, r11 in table.get((p10, neg(p00)), empty):
            out.append(prefix + mid + (neg(add(mul(r10, p01), mul(r11, p11))),))
    return out


def enumerate_friezes(
    spec: FieldSpec,
    width: int,
    strategy: str = "mitm",
    config: SearchConfig = SearchConfig(),
) -> EnumerationResult:
    """All first rows of tame friezes of the given width, with dihedral
    orbit catalog.  Solutions are retained as sorted tuples of element codes
    while their number stays below config.keep_tuples_below.

    The catalog is one walk over the sorted solutions, which relies on the
    solution set being closed under rotation and reversal of rows, as the
    frieze condition is.  The first solution still unmarked is the smallest
    member of its orbit; its orbit is built once and each member is removed
    from the unmarked set."""
    if width < 1:
        raise ValueError("enumeration needs width >= 1")
    if strategy not in ("naive", "mitm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = width + 3
    work = _estimated_work(spec.q, n, strategy)
    if work > config.budget:
        raise BudgetExceeded(
            f"estimated {work} matrix operations exceed budget {config.budget}"
        )
    start = time.perf_counter()
    # chunks are concatenated in first-code order, each sorted, so this is sorted
    solutions = []
    if strategy == "naive":
        for first in range(spec.q):
            solutions += _naive_chunk(spec, n, first)
    else:
        nl = n // 2
        table = _mitm_table(spec, n - 1 - nl)
        for first in range(spec.q):
            solutions += _mitm_chunk(spec, nl, first, table)
        del table
    total = len(solutions)
    unmarked = dict.fromkeys(solutions)
    orbits = []
    for t in solutions:
        if t not in unmarked:
            continue
        # every earlier member of t's orbit would have removed it: t is the
        # orbit's smallest member
        orbit = dihedral_orbit_codes(t)
        for member in orbit:
            try:
                unmarked.pop(member)
            except KeyError:
                raise AssertionError("solutions not dihedral-closed") from None
        orbits.append((FirstRow(spec, t), len(orbit)))
    tuples = solutions if total <= config.keep_tuples_below else None
    elapsed = time.perf_counter() - start
    return EnumerationResult(spec, width, total, orbits, elapsed, strategy, tuples)


@dataclass(frozen=True)
class CountCheck:
    width: int
    enumerated: int
    closed_form: int

    @property
    def match(self) -> bool:
        return self.enumerated == self.closed_form


def verify_count_formula(
    spec: FieldSpec,
    max_width: int,
    strategy: str = "mitm",
    config: SearchConfig = SearchConfig(),
) -> list[CountCheck]:
    """Enumerated count vs the closed form for every width up to max_width."""
    rows = []
    for w in range(1, max_width + 1):
        result = enumerate_friezes(spec, w, strategy, config)
        rows.append(
            CountCheck(w, result.total_count, count_friezes(spec.q, spec.char_is_2, w))
        )
    return rows


def catalog_orbits(result: EnumerationResult, fmt: str = "text") -> str:
    """Orbit catalog sorted by canonical representative."""
    if fmt == "json":
        return json.dumps(enumeration_to_json_dict(result))
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        f"field {result.spec.descriptor}  width {result.width}  "
        f"count {result.total_count}  orbits {len(result.orbits)}"
    ]
    for rep, size in result.orbits:
        lines.append(f"{rep}  size {size}")
    return "\n".join(lines)


def enumeration_to_json_dict(result: EnumerationResult) -> dict:
    return {
        "field": result.spec.descriptor,
        "width": result.width,
        "count": result.total_count,
        "orbits": [
            {"rep": list(rep.codes), "size": size} for rep, size in result.orbits
        ],
    }
