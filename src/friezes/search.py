"""Exhaustive enumeration of tame friezes of a given width over GF(q).

A width-w frieze is an n-tuple (n = w + 3) whose matrices M(a_i) multiply to
-Id, so the search space is q^n.  Two strategies:

  naive  depth-first over the first n-1 coordinates, carrying the prefix
         product; the last coordinate is forced (the prefix must have the
         shape [[0, -1], [1, d]], and then a_n = -d), so the work is ~q^(n-1).

  mitm   split n = nl + nr with nl = ceil(n/2); index the q^nr right-half
         products in a hash table keyed by their entries, then for each
         left-half product L look up -L^(-1).

Both return identical, lexicographically sorted results.  Enumeration over
the first coordinate is embarrassingly parallel; chunks are merged in code
order so the output is byte-stable for any worker count.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded
from .formulas import count_friezes
from .frieze import FirstRow, dihedral_orbit_codes
from .gf import FieldSpec


@dataclass(frozen=True)
class SearchConfig:
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


def _naive_chunk(spec: FieldSpec, n: int, first: int) -> list[tuple[int, ...]]:
    mul, sub, neg = spec.mul_code, spec.sub_code, spec.neg_code
    codes = range(spec.q)
    neg1 = neg(1)
    out = []

    def go(depth, p00, p01, p10, p11, prefix):
        if depth == n - 1:
            # remaining factor must be M(x) = -P^(-1): forces the shape below
            if p00 == 0 and p01 == neg1 and p10 == 1:
                out.append(prefix + (neg(p11),))
            return
        for x in codes:
            go(depth + 1, sub(mul(x, p00), p10), sub(mul(x, p01), p11), p00, p01, prefix + (x,))

    go(1, first, neg1, 1, 0, (first,))
    return out


def _mitm_table(spec: FieldSpec, nr: int):
    """Right-half products M(a_n)...M(a_{nl+1}) keyed by their four entries."""
    mul, add, neg = spec.mul_code, spec.add_code, spec.neg_code
    codes = range(spec.q)
    neg1 = neg(1)
    table = defaultdict(list)

    def go(depth, p00, p01, p10, p11, suffix):
        if depth == nr:
            table[(p00, p01, p10, p11)].append(suffix)
            return
        for x in codes:
            # extend one position to the left: P <- P @ M(x)
            go(depth + 1, add(mul(p00, x), p01), neg(p00), add(mul(p10, x), p11), neg(p10), (x,) + suffix)

    for x in codes:
        go(1, x, neg1, 1, 0, (x,))
    for bucket in table.values():
        bucket.sort()
    return dict(table)


def _mitm_chunk(spec: FieldSpec, nl: int, first: int, table) -> list[tuple[int, ...]]:
    mul, sub, neg = spec.mul_code, spec.sub_code, spec.neg_code
    codes = range(spec.q)
    neg1 = neg(1)
    out = []
    empty = ()

    def go(depth, p00, p01, p10, p11, prefix):
        if depth == nl:
            need = (neg(p11), p01, p10, neg(p00))  # -L^(-1), det L = 1
            for suffix in table.get(need, empty):
                out.append(prefix + suffix)
            return
        for x in codes:
            go(depth + 1, sub(mul(x, p00), p10), sub(mul(x, p01), p11), p00, p01, prefix + (x,))

    go(1, first, neg1, 1, 0, (first,))
    return out


def _run_chunks(worker, firsts, workers: int):
    if workers <= 1:
        return [worker(f) for f in firsts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, firsts))


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
    frieze condition is.  The first unmarked solution is the smallest member
    of its orbit; its orbit is built once and each member is marked at its
    sorted position."""
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
    firsts = list(range(spec.q))
    if strategy == "naive":
        chunks = _run_chunks(lambda f: _naive_chunk(spec, n, f), firsts, config.workers)
    else:
        nl = (n + 1) // 2
        table = _mitm_table(spec, n - nl)
        chunks = _run_chunks(
            lambda f: _mitm_chunk(spec, nl, f, table), firsts, config.workers
        )

    # chunks arrive in first-code order, each sorted, so this is sorted
    solutions = [t for chunk in chunks for t in chunk]
    del chunks
    total = len(solutions)
    marked = bytearray(total)
    orbits = []
    for pos, t in enumerate(solutions):
        if marked[pos]:
            continue
        # every earlier member of t's orbit would have marked it: t is the
        # orbit's smallest member
        orbit = dihedral_orbit_codes(t)
        for member in orbit:
            slot = bisect_left(solutions, member)
            assert slot < total and solutions[slot] == member, "solutions not dihedral-closed"
            marked[slot] = 1
        orbits.append((FirstRow.from_codes(spec, t), len(orbit)))
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
