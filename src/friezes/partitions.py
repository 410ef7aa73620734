"""Partitions of n cyclically ordered points into blocks with no two
consecutive points together: enumeration, counts by a walk over states,
the alternating-sum closed form, and the change of basis into falling
factorials that links the partition numbers to the configuration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import add
from typing import Iterator, Sequence

from .errors import DEFAULT_BUDGET, NonIntegralResult, check_budget
from .formulas import count_configurations
from .gf import FieldSpec
from .moduli import configuration_index_tuples  # unused here; perfbench/spans.py wraps it
from .moduli import count_by_distinct_points


@dataclass(frozen=True)
class CyclicPartition:
    """A partition of the cycle 1..n with no block containing i and i+1 (mod n).

    Blocks are frozensets ordered by least element.
    """

    n: int
    blocks: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    def __str__(self):
        return " | ".join(
            "{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks
        )


def _rgs_chunks(
    n: int,
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]], list[int]]]:
    """The restricted-growth strings of length n >= 2 with b_i != b_{i-1} and
    b_{n-1} != b_0, in lex order, as (prefix, tails, blocks) for every prefix
    b_0..b_{m-1}, m = max(1, n - 2), where blocks[j] is the block count of
    prefix + tails[j].

    One step, grow, extends each (string, blocks used, last block) by every
    block allowed at position i, in order.  The prefixes are grow chained
    lazily from (0,) over positions 1..m-1, so no level is a list and the
    chain holds O(n) state.  The tails b_m..b_{n-1} are read from a table
    keyed by (blocks used, last block); an entry is built on first visit by
    growing ((), used, last) over positions m..n-1 with the same grow."""

    def grow(level, i):
        """Each (string, used, last) extended by every b <= used with b != last,
        and b != b_0 = 0 at the last position, in order and lazily."""
        return (
            (s + (b,), max(used, b + 1), b)
            for s, used, last in level
            for b in range(used + 1)
            if b != last and (b or i < n - 1)
        )

    m = max(1, n - 2)
    table = {}
    for prefix, used, last in reduce(grow, range(1, m), [((0,), 1, 0)]):
        entry = table.get((used, last))
        if entry is None:
            done = list(reduce(grow, range(m, n), [((), used, last)]))
            entry = table[used, last] = ([t for t, _, _ in done], [u for _, u, _ in done])
        yield prefix, *entry


def enumerate_cyclic_partitions(n: int, k: int) -> Iterator[CyclicPartition]:
    """Every valid partition of the n-cycle into exactly k blocks, once each,
    in the lex order of their restricted-growth strings."""
    if n < 2 or not 1 <= k <= n:
        raise ValueError(f"need n >= 2 and 1 <= k <= n, got n={n}, k={k}")
    for prefix, tails, counts in _rgs_chunks(n):
        for tail in compress(tails, map(k.__eq__, counts)):
            blocks = [[] for _ in range(k)]
            for point, b in enumerate(prefix + tail, start=1):
                blocks[b].append(point)
            yield CyclicPartition(n, tuple(frozenset(b) for b in blocks))


def count_cyclic_partitions(n: int, k: int) -> int:
    if n < 2 or not 1 <= k <= n:
        raise ValueError(f"need n >= 2 and 1 <= k <= n, got n={n}, k={k}")
    return cyclic_partition_counts(n)[k]


def cyclic_partition_counts(n: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Counts for every block count at once: entry k is the number of valid
    partitions of the n-cycle into k blocks, read off their restricted-growth
    strings b_0 = 0, b_i <= max(b_<i) + 1, b_i != b_{i-1}, b_{n-1} != 0.  The
    completions of a prefix depend only on (u, z): the blocks it uses and
    whether its last entry is 0.  So the walk counts the prefixes in each
    state, position by position (_step), in O(n^2) steps, and builds no
    string; after the last position no prefix ends in 0 (Stanley,
    Enumerative Combinatorics I, 4.7, the transfer-matrix method).
    Raises BudgetExceeded before walking if the walk would stand for more
    than budget strings, sum_k A_{k,n} by the closed form.  A_{3,n} =
    (2^n + 2(-1)^n)/6 >= 2^(n-3) for n >= 3, so when n - 3 >
    budget.bit_length() it is charged as the pair (2, n - 3): check_budget
    refuses that without building 2^n, as it would refuse the exact term."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    huge = n - 3 > budget.bit_length()
    strings = (
        (2, n - 3) if huge and k == 3 else a_kn_closed_form(k, n) for k in range(2, n + 1)
    )
    check_budget(strings, budget, "cyclic partition strings")
    zero, other = [0, 1], [0, 0]
    for i in range(1, n):
        zero, other = _step(zero, other, i == n - 1)
    return other


def cyclic_partition_rows(max_n: int) -> Iterator[list[int]]:
    """cyclic_partition_counts(n) for n = 2..max_n, in order, from one pass
    of its walk: every row shares the states after its first inner
    positions, so one pass advances them an inner position at a time and
    takes each row's last-position step from them.  Two steps a row,
    O(max_n^2) work in all.  No budget check."""
    zero, other = [0, 1], [0, 0]
    for _ in range(2, max_n + 1):
        yield _step(zero, other, True)[1]
        zero, other = _step(zero, other, False)


def _step(zero: list[int], other: list[int], last: bool) -> tuple[list[int], list[int]]:
    """One position of the state walk, on zero[u] and other[u], the numbers
    of prefixes using u blocks whose last entry is 0 and is not: a prefix
    goes on to other[u + 1] by a new block, to zero[u] by 0 unless its last
    entry is 0 or the position is the last, and to other[u] by each nonzero
    block but its last entry's, u - 1 of them after a 0 and u - 2 otherwise
    (other[1] is 0, as one block is block 0)."""
    grown = [0, *map(add, zero, other)]
    stay = [z * (u - 1) + o * (u - 2) for u, (z, o) in enumerate(zip(zero, other))]
    stay.append(0)
    return [0] * len(grown) if last else [*other, 0], list(map(add, grown, stay))


def a_kn_closed_form(k: int, n: int) -> int:
    """(-1)^k sum_{j=2}^{k} (-1)^j / (j!(k-j)!) * ((j-1)^n + (-1)^n (j-1)),
    evaluated as exact integers by multiplying through by k!."""
    if n < 2 or not 2 <= k <= n:
        raise ValueError(f"need n >= 2 and 2 <= k <= n, got n={n}, k={k}")
    total = 0
    sign_n = (-1) ** n
    for j in range(2, k + 1):
        term = math.comb(k, j) * ((j - 1) ** n + sign_n * (j - 1))
        total += term if j % 2 == 0 else -term
    total *= (-1) ** k
    quo, rem = divmod(total, math.factorial(k))
    if rem:
        raise NonIntegralResult(f"A({k},{n}): {total} not divisible by {k}!")
    return quo


@dataclass(frozen=True)
class FallingFactorialExpansion:
    """Coefficients B_0..B_n of a polynomial in the basis (q)_k = q(q-1)...(q-k+1)."""

    coefficients: tuple[Fraction, ...]

    def evaluate(self, q: int) -> Fraction:
        total = Fraction(0)
        falling = 1
        for k, b in enumerate(self.coefficients):
            if k > 0:
                falling *= q - (k - 1)
            total += b * falling
        return total


def falling_factorial_expand(values: Sequence) -> FallingFactorialExpansion:
    """Expansion of the degree <= n polynomial with the given values at
    q = 0..n: B_k = (-1)^k sum_j (-1)^j / (j!(k-j)!) P(j)."""
    vals = [Fraction(v) for v in values]
    n = len(vals) - 1
    coeffs = []
    for k in range(n + 1):
        total = Fraction(0)
        for j in range(k + 1):
            term = vals[j] / (math.factorial(j) * math.factorial(k - j))
            total += term if j % 2 == 0 else -term
        coeffs.append(total if k % 2 == 0 else -total)
    return FallingFactorialExpansion(tuple(coeffs))


def partition_identity_rhs(q: int, n: int, counts: Sequence[int] | None = None) -> int:
    """q(q+1) * sum_k A_{k,n} * (q-1)(q-2)...(q-k+2), with brute-force counts
    unless a precomputed row is supplied."""
    if counts is None:
        counts = cyclic_partition_counts(n)
    total = 0
    for k in range(2, n + 1):
        product = 1
        for j in range(1, k - 1):
            product *= q - j
        total += counts[k] * product
    return q * (q + 1) * total


@dataclass(frozen=True)
class PartitionIdentityReport:
    ok: bool
    configurations: int
    identity_rhs: int
    per_block_ok: bool


def verify_partition_identity(
    spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET
) -> PartitionIdentityReport:
    """Check c_n = q(q+1) sum_k A_{k,n} prod (q-j) at q = |F_q|, and cross-check
    by classifying every configuration by its point-equality pattern: the
    configurations whose pattern has k blocks, that is k distinct points
    (moduli.count_by_distinct_points), must number A_{k,n} times the number
    of ordered choices of k distinct points of P^1."""
    q = spec.q
    counts = cyclic_partition_counts(n, budget)
    rhs = partition_identity_rhs(q, n, counts)
    lhs = count_configurations(q, n)

    per_k = count_by_distinct_points(spec, n, budget)
    per_block_ok = True
    for k in range(1, n + 1):
        ordered_choices = math.perm(q + 1, k)
        if per_k[k] != counts[k] * ordered_choices:
            per_block_ok = False
    return PartitionIdentityReport(
        ok=(lhs == rhs) and per_block_ok,
        configurations=lhs,
        identity_rhs=rhs,
        per_block_ok=per_block_ok,
    )
