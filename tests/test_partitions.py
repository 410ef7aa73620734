import itertools
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import ne
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import FieldSpec, moduli, partitions
from friezes.errors import BudgetExceeded
from friezes.formulas import count_configurations
from friezes.partitions import (
    CyclicPartition,
    a_kn_closed_form,
    count_cyclic_partitions,
    cyclic_partition_counts,
    cyclic_partition_rows,
    enumerate_cyclic_partitions,
    falling_factorial_expand,
    partition_identity_rhs,
    verify_partition_identity,
)

from helpers import distinct_point_counts, field_by_q, rgs_walk

# Reference triangle A_{k,n} for n <= 6, from the worked examples in the
# source material (n <= 5) and from hand enumeration of the n = 6 row
# (blocks of the 6-cycle with no adjacent pair: 4 + 6 pairings for k = 3,
# 2 + 18 for k = 4, the 9 non-adjacent pairs for k = 5).  Transcribed by
# hand, independent of both implementations under test.
REFERENCE_TRIANGLE = {
    3: {1: 0, 2: 0, 3: 1},
    4: {1: 0, 2: 1, 3: 2, 4: 1},
    5: {1: 0, 2: 0, 3: 5, 4: 5, 5: 1},
    6: {1: 0, 2: 1, 3: 10, 4: 20, 5: 9, 6: 1},
}


def test_reference_triangle_brute_force():
    for n, row in REFERENCE_TRIANGLE.items():
        counts = cyclic_partition_counts(n)
        for k, expected in row.items():
            assert counts[k] == expected
            assert count_cyclic_partitions(n, k) == expected


def test_reference_triangle_closed_form():
    for n, row in REFERENCE_TRIANGLE.items():
        for k, expected in row.items():
            if k >= 2:
                assert a_kn_closed_form(k, n) == expected


def test_unique_two_block_partition_of_square():
    parts = list(enumerate_cyclic_partitions(4, 2))
    assert parts == [
        CyclicPartition(4, (frozenset({1, 3}), frozenset({2, 4})))
    ]


def test_three_block_partitions_of_pentagon():
    parts = list(enumerate_cyclic_partitions(5, 3))
    assert len(parts) == 5
    assert len(set(parts)) == 5
    for part in parts:
        assert part.k == 3
        for block in part.blocks:
            pairs = {(i, i % 5 + 1) for i in block}
            assert all(j not in block or (i, j) not in pairs for i, j in pairs)


def test_no_single_block_partitions():
    for n in range(2, 8):
        assert count_cyclic_partitions(n, 1) == 0
        assert a_kn_closed_form(n, n) == 1


def test_partition_blocks_avoid_adjacent_points():
    for part in enumerate_cyclic_partitions(7, 3):
        for block in part.blocks:
            for i in block:
                assert (i % 7) + 1 not in block


def test_closed_form_equals_brute_force_up_to_9():
    for n in range(2, 10):
        counts = cyclic_partition_counts(n)
        for k in range(2, n + 1):
            assert a_kn_closed_form(k, n) == counts[k]


def _cyclic_rgs_brute_force(n):
    """Every restricted-growth string of length n (b_0 = 0, each entry at
    most one above the running maximum) with b_i != b_{i-1} and
    b_{n-1} != b_0, in lex order, filtered from a product of ranges."""
    out = []
    for t in itertools.product(*(range(i + 1) for i in range(n))):
        if t[-1] == t[0] or not all(map(ne, t, t[1:])):
            continue
        top = 0
        for b in t:
            if b > top + 1:
                break
            top = max(top, b)
        else:
            out.append(t)
    return out


def _partition_of(n, t):
    """The partition of 1..n whose restricted-growth string is t."""
    k = len(set(t))
    return CyclicPartition(
        n, tuple(frozenset(i + 1 for i, b in enumerate(t) if b == j) for j in range(k))
    )


def test_walk_matches_filtered_product():
    for n in range(2, 11):
        strings = _cyclic_rgs_brute_force(n)
        assert list(rgs_walk(n)) == strings
        for k in range(1, n + 1):
            expected = [_partition_of(n, t) for t in strings if len(set(t)) == k]
            assert list(enumerate_cyclic_partitions(n, k)) == expected
            assert count_cyclic_partitions(n, k) == len(expected)
        blocks = [len(set(t)) for t in strings]
        assert cyclic_partition_counts(n) == [blocks.count(k) for k in range(n + 1)]


def test_walk_counts_for_eleven_and_twelve_points():
    # rows recorded from the earlier recursive walk, which visited every string
    assert cyclic_partition_counts(11) == [
        0, 0, 0, 341, 7040, 27742, 36498, 20427, 5445, 715, 44, 1
    ]
    assert cyclic_partition_counts(12) == [
        0, 0, 1, 682, 21461, 118008, 210232, 159060, 58542, 11165, 1111, 54, 1
    ]


def test_weighted_tally_equals_the_per_string_tally():
    # cyclic_partition_counts counts prefixes by state; the oracle reads the
    # block count off every string of the walk
    tally = Counter(max(s) + 1 for s in rgs_walk(11))
    assert cyclic_partition_counts(11) == [tally[k] for k in range(12)]


def test_counts_match_the_closed_form_far_beyond_enumeration():
    # sum_k A(k, 80) is more than 10^85 strings; the walk over states builds
    # none, and the triangle's one pass gives the same rows
    rows = list(cyclic_partition_rows(80))
    assert len(rows) == 79
    for n in range(2, 81):
        counts = cyclic_partition_counts(n, budget=10**100)
        assert counts[:2] == [0, 0]
        assert counts[2:] == [a_kn_closed_form(k, n) for k in range(2, n + 1)], n
        assert rows[n - 2] == counts
    assert list(cyclic_partition_rows(2)) == [[0, 0, 1]]


def test_walk_memory_stays_small():
    # the walk holds one count per (blocks used, last entry is 0) state
    tracemalloc.start()
    try:
        counts = cyclic_partition_counts(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 580317
    assert peak < 0.25 * 2**20, peak


def test_walk_budget_is_checked_before_walking():
    # sum_k A_{k,n} strings: 715 at n = 8, 3425 at n = 9, 580317 at n = 12
    assert sum(cyclic_partition_counts(8, budget=715)) == 715
    with pytest.raises(BudgetExceeded):
        cyclic_partition_counts(9, budget=3424)
    with pytest.raises(BudgetExceeded):
        cyclic_partition_counts(40, budget=10**8)
    # C_12 over GF(2) fits in this budget ((q+1)^n = 531441); the walk does not
    with pytest.raises(BudgetExceeded, match="partition"):
        verify_partition_identity(FieldSpec(2), 12, budget=550000)


def test_budget_refuses_large_n_from_the_first_terms():
    # A(3, n) alone is about 2^n / 6: the check stops there and does not sum
    # the other A(k, n) or print the total
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="partition") as info:
        cyclic_partition_counts(1000)
    assert time.perf_counter() - start < 0.1
    assert len(str(info.value)) < 200


def test_huge_n_is_refused_without_building_2_to_the_n():
    # 2^(10^8) alone would trace 12.5 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="partition"):
            cyclic_partition_counts(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_budget_refuses_exactly_when_the_closed_form_sum_exceeds_it():
    # A(3, n) is charged as 2^(n-3) only when that is above the budget
    # already; an accepted n = 40 runs the walk over states, which is quick
    for n in range(2, 41):
        total = sum(a_kn_closed_form(k, n) for k in range(2, n + 1))
        for budget in (0, 1, 2 ** max(0, n - 5), total - 1, total, total + 1):
            try:
                cyclic_partition_counts(n, budget)
                refused = False
            except BudgetExceeded:
                refused = True
            assert refused == (total > budget), (n, budget)


def test_falling_factorial_basis_elements():
    # (q)_3 sampled at 0..3
    expansion = falling_factorial_expand([0, 0, 0, 6])
    assert expansion.coefficients == (0, 0, 0, 1)
    # q^2 = (q)_1 + (q)_2
    expansion = falling_factorial_expand([0, 1, 4])
    assert expansion.coefficients == (0, 1, 1)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=11))
def test_falling_factorial_reconstruction(values):
    expansion = falling_factorial_expand(values)
    for q, value in enumerate(values):
        assert expansion.evaluate(q) == Fraction(value)


def test_configuration_polynomial_recovers_partition_numbers():
    # expanding c_n(q+1) / ((q+1)(q+2)) in falling factorials gives the
    # A_{k,n} row shifted by two
    for n in range(3, 9):
        values = []
        for j in range(n - 1):
            q = j + 1
            c = count_configurations(q, n)
            assert c % (q * (q + 1)) == 0
            values.append(c // (q * (q + 1)))
        expansion = falling_factorial_expand(values)
        counts = cyclic_partition_counts(n)
        for shift, coeff in enumerate(expansion.coefficients):
            assert coeff == counts[shift + 2]


def test_identity_rhs_by_hand_f2_n4():
    # c_4 = 18 = q(q+1) * (A_24 + A_34 * 1 + A_44 * 0) at q = 2
    assert partition_identity_rhs(2, 4) == 18
    assert count_configurations(2, 4) == 18


def test_identity_n3_terms():
    # A_23 = 0 and A_33 = 1: c_3 = q(q+1)(q-1)
    for q in range(2, 10):
        assert partition_identity_rhs(q, 3) == q * (q + 1) * (q - 1)


def test_identity_against_closed_form_grid():
    for q in range(2, 10):
        for n in range(2, 11):
            assert partition_identity_rhs(q, n) == count_configurations(q, n)


def test_verify_partition_identity_exhaustive_small_fields():
    for spec, n in ((FieldSpec(2), 4), (FieldSpec(2), 6), (FieldSpec(3), 5)):
        report = verify_partition_identity(spec, n)
        assert report.ok
        assert report.per_block_ok
        assert report.configurations == report.identity_rhs


@pytest.mark.parametrize("q, max_n", [(2, 12), (3, 8), (4, 6), (5, 6), (7, 5)])
def test_per_block_tally_matches_the_per_tuple_count(q, max_n):
    spec = field_by_q(q)
    for n in range(2, max_n + 1):
        assert moduli.count_by_distinct_points(spec, n, 10**9) == distinct_point_counts(
            spec, n, 10**9
        ), n


def test_identity_reports_a_wrong_partition_row():
    # A(2, 4) = 1 and A(3, 4) = 2 swapped: at q = 2, k = 2 and k = 3 are
    # both weighted by 6 = q(q + 1) = q(q + 1)(q - 1), so the sides of the
    # identity still agree and only the per-block check can see the wrong row
    wrong = [0, 0, 2, 1, 1]
    with mock.patch.object(partitions, "cyclic_partition_counts", return_value=wrong):
        report = verify_partition_identity(FieldSpec(2), 4)
    assert report.configurations == report.identity_rhs == 18
    assert not report.per_block_ok
    assert not report.ok


def test_input_validation():
    with pytest.raises(ValueError):
        a_kn_closed_form(1, 5)
    with pytest.raises(ValueError):
        a_kn_closed_form(6, 5)
    with pytest.raises(ValueError):
        count_cyclic_partitions(1, 1)
    for n in (1, 0, -1):
        with pytest.raises(ValueError):
            cyclic_partition_counts(n)
