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
         q^nl left leaves plus the q^nr table.  Buckets are keyed by
         (r00, -r01) and hold (mid, -r10, -r11), so a leaf looks up
         (l10, l00) and a_n = (-r10) l01 + (-r11) l11 needs no negation.

Both walk prefixes with _prefix_products, the search's copy of the SL2 step
(frieze.row_products is the single-row one).  It steps all q children of a
prefix at once: their new first row (x p00 - p10, x p01 - p11) is two rows of
FieldSpec.line_codes, read from the op tables where the field has them.  The
completions read table rows too (_mul[p01], _add[1], ...), with a code-op
branch for fields above gf.TABLE_LIMIT.  Rows stay code tuples; only orbit
representatives become FirstRows.

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
    that steps P -> M(a) P for a whole level at a time.  The children of one
    parent read their new first row (a p00 - p10, a p01 - p11) from two
    line_codes rows."""
    line = spec.line_codes
    codes = range(spec.q)
    neg1 = spec.neg_code(1)
    level = [((x,), x, neg1, 1, 0) for x in firsts]
    for _ in range(length - 1):
        level = [
            (prefix + (x,), y0, y1, p00, p01)
            for prefix, p00, p01, p10, p11 in level
            for x, y0, y1 in zip(codes, line(p00, p10), line(p01, p11))
        ]
    return level


def _naive_chunk(spec: FieldSpec, n: int, first: int) -> list[tuple[int, ...]]:
    """Rows with a_1 = first, in lex order: a_2..a_{n-3} are scanned and the
    last three entries solved from the prefix product."""
    codes = range(spec.q)
    neg = spec.neg_code
    neg1 = neg(1)
    leaves = _prefix_products(spec, n - 3, (first,))
    out = []
    # M(z) M(p00) M(y) = -P^(-1) = [[-p11, p01], [p10, -p00]] needs
    # y p00 = 1 + p10 and gives z = p11 - y p01; det P = 1 does the rest.
    # When p00 = 0 every y works and the z are the row -p01 y + p11.
    if spec._mul is not None:
        mul, sub, inv, inc = spec._mul, spec._sub, spec._inv, spec._add[1]
        for prefix, p00, p01, p10, p11 in leaves:
            if p00:
                y = mul[inc[p10]][inv[p00]]
                out.append(prefix + (y, p00, sub[p11][mul[y][p01]]))
            elif p10 == neg1:
                out += [
                    prefix + (y, 0, z)
                    for y, z in zip(codes, spec.line_codes(neg(p01), neg(p11)))
                ]
        return out
    mul, add, sub, inv = spec.mul_code, spec.add_code, spec.sub_code, spec.inv_code
    for prefix, p00, p01, p10, p11 in leaves:
        if p00:
            y = mul(add(1, p10), inv(p00))
            out.append(prefix + (y, p00, sub(p11, mul(y, p01))))
        elif p10 == neg1:
            out += [
                prefix + (y, 0, z)
                for y, z in zip(codes, spec.line_codes(neg(p01), neg(p11)))
            ]
    return out


def _mitm_table(spec: FieldSpec, nr: int):
    """Middle products R = M(a_{n-1})...M(a_{nl+1}) keyed by (r00, -r01), R's
    first row with its second entry negated.  Each bucket lists
    (mid, -r10, -r11) with mid = (a_{nl+1}, ..., a_{n-1}), in lex order of
    mid.  The signs are those _mitm_chunk needs, so it negates nothing."""
    neg = [spec.neg_code(x) for x in range(spec.q)]
    table = defaultdict(list)
    for mid, r00, r01, r10, r11 in _prefix_products(spec, nr, range(spec.q)):
        table[(r00, neg[r01])].append((mid, neg[r10], neg[r11]))
    return dict(table)


def _mitm_chunk(spec: FieldSpec, nl: int, first: int, table) -> list[tuple[int, ...]]:
    """Rows with a_1 = first, in lex order: each left product L is completed
    by the table bucket at R's forced first row, and a_n is solved."""
    out = []
    empty = ()
    get = table.get
    # R L = [[0, -1], [1, -a_n]]: R's first row is (p10, -p00), so the key
    # (r00, -r01) is (p10, p00); the (1, 0) entry follows from
    # det R = det L = 1 and gives a_n = (-r10) p01 + (-r11) p11
    leaves = _prefix_products(spec, nl, (first,))
    if spec._mul is not None:
        mul, add = spec._mul, spec._add
        for prefix, p00, p01, p10, p11 in leaves:
            bucket = get((p10, p00), empty)
            if bucket:
                m01, m11 = mul[p01], mul[p11]
                for mid, s10, s11 in bucket:
                    out.append(prefix + mid + (add[m01[s10]][m11[s11]],))
        return out
    mul, add = spec.mul_code, spec.add_code
    for prefix, p00, p01, p10, p11 in leaves:
        for mid, s10, s11 in get((p10, p00), empty):
            out.append(prefix + mid + (add(mul(s10, p01), mul(s11, p11)),))
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
