"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come; plain `pytest` shows one PASSED/FAILED row per criterion instead.

Criterion 1 note: the published numeric table value for (q=4, width 7) is
17696, but the published closed form, its printed polynomial expansion
(q^7+q^5+q^4-q^2-1 = 17647 at q=4) and exhaustive enumeration by two
independent strategies all give 17647.  The q=2 and q=3 rows of the same
table match the closed form exactly, so the 17696 cell is a typo at the
source.  test_criterion_01_published_table_q4_w7 keeps the published value
and therefore fails by design; every other cell is covered, and the
enumerated truth for that cell is asserted in the main criterion 1 test.
"""

import itertools

from friezes import FirstRow, FirstRowClass, SearchConfig
from friezes.formulas import (
    count_configurations,
    count_friezes,
    count_moduli,
    count_moduli_plus,
)
from friezes.frieze import (
    check_tame,
    dihedral_orbit_codes,
    frieze_from_first_row,
    matrix_criterion,
)
from friezes.moduli import (
    configuration_index_tuples,
    configuration_to_frieze,
    frieze_to_configuration,
    orbit_of,
    pgl2_orbit_count,
)
from friezes.partitions import (
    a_kn_closed_form,
    cyclic_partition_counts,
    partition_identity_rhs,
)
from friezes.search import enumerate_friezes

from helpers import PRIME_POWERS_LE_9, assert_field_axioms, field_by_q

PUBLISHED_TABLE = {
    2: (3, 5, 11, 21, 43, 85, 171),
    3: (2, 10, 35, 91, 260, 820, 2501),
    4: (7, 17, 79, 273, 1135, 4369, 17696),  # last cell: see module docstring
}

PUBLISHED_CATALOGS = {
    (2, 2): [5],
    (3, 2): [5, 5],  # two orbits summing to 10
    (4, 2): [1, 1, 5, 10],
    (2, 3): [1, 1, 3, 6],
    (3, 3): [1, 2, 2, 6, 6, 6, 12],
}


def report(criterion: int, ok: bool, summary: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status} - {summary}")
    assert ok, f"criterion {criterion} failed: {summary}"


def test_criterion_01_frieze_count_tables():
    enumerated = {
        q: tuple(
            enumerate_friezes(field_by_q(q), w).total_count for w in range(1, 8)
        )
        for q in (2, 3, 4)
    }
    mismatches = []
    for q, row in PUBLISHED_TABLE.items():
        for w, expected in enumerate(row, start=1):
            if (q, w) == (4, 7):
                continue  # typo cell, handled by the companion test
            if enumerated[q][w - 1] != expected:
                mismatches.append((q, w, enumerated[q][w - 1], expected))
    # the defective cell: enumeration must still agree with the closed form
    consistent_17647 = (
        enumerated[4][6] == 17647 == count_friezes(4, True, 7)
    )
    report(
        1,
        not mismatches and consistent_17647,
        "frieze counts match the published table for q=2,3,4 and w<=7 "
        "(q=4, w=7 cell corrected to the closed form, see docstring); "
        f"mismatches={mismatches}",
    )


def test_criterion_01_published_table_q4_w7():
    # Kept exactly as published.  Fails: the published table cell 17696
    # disagrees with the published closed form and with enumeration (17647).
    enumerated = enumerate_friezes(field_by_q(4), 7).total_count
    report(
        1,
        enumerated == PUBLISHED_TABLE[4][6],
        f"published value {PUBLISHED_TABLE[4][6]} for q=4, w=7; enumerated "
        f"{enumerated} (= closed form {count_friezes(4, True, 7)})",
    )


def test_criterion_02_closed_form_agreement():
    bad = []
    for q in PRIME_POWERS_LE_9:
        spec = field_by_q(q)
        for w in range(1, 6):
            enumerated = enumerate_friezes(spec, w).total_count
            closed = count_friezes(q, spec.char_is_2, w)
            if enumerated != closed:
                bad.append((q, w, enumerated, closed))
    report(2, not bad, f"enumerated = closed form for q <= 9, w <= 5; bad={bad}")


def test_criterion_03_configuration_counts():
    bad = []
    for q in (2, 3, 4, 5):
        spec = field_by_q(q)
        for n in range(2, 8):
            got = sum(1 for _ in configuration_index_tuples(spec, n))
            if got != count_configurations(q, n):
                bad.append((q, n, got))
    report(3, not bad, f"|C_n| = q^n + (-1)^n q for q in 2..5, n <= 7; bad={bad}")


def test_criterion_04_moduli_orbit_counts():
    bad = []
    for q in (2, 3):
        spec = field_by_q(q)
        for n in range(2, 8):
            got = pgl2_orbit_count(spec, n).count
            if got != count_moduli(q, n):
                bad.append((q, n, got))
    report(4, not bad, f"orbit counts match the moduli formula for q=2,3, n <= 7; bad={bad}")


def test_criterion_05_plus_moduli_orbit_counts():
    bad = []
    branches = set()
    for q in (2, 3, 4, 5):
        spec = field_by_q(q)
        for m in (1, 2, 3):
            got = pgl2_orbit_count(spec, 2 * m, "plus").count
            expected = count_moduli_plus(q, spec.char_is_2, m)
            branches.add((spec.char_is_2, m % 2 == 0))
            if got != expected:
                bad.append((q, m, got, expected))
    report(
        5,
        not bad and len(branches) == 4,
        f"plus-class orbit counts match in all four branches; bad={bad}",
    )


def test_criterion_06_bijection_round_trips():
    bad = []
    for q in (2, 3):
        spec = field_by_q(q)
        for w in (1, 2, 3):
            n = w + 3
            for t in enumerate_friezes(spec, w).tuples:
                row = FirstRow.from_codes(spec, t)
                back = configuration_to_frieze(frieze_to_configuration(row))
                if n % 2:
                    ok = back == row
                else:
                    ok = isinstance(back, FirstRowClass) and row in back
                if not ok:
                    bad.append((q, t))
            sign = "plus" if n % 2 == 0 else "all"
            for rep in pgl2_orbit_count(spec, n, sign).representatives:
                out = configuration_to_frieze(rep)
                row = out.rep if isinstance(out, FirstRowClass) else out
                if orbit_of(frieze_to_configuration(row)) != orbit_of(rep):
                    bad.append((q, rep.indices))
    report(6, not bad, f"both round trips exact for q <= 3, w <= 3; bad={bad}")


def test_criterion_07_catalog_reproduction():
    bad = []
    for (q, w), expected in PUBLISHED_CATALOGS.items():
        sizes = enumerate_friezes(field_by_q(q), w).orbit_sizes
        if sizes != expected:
            bad.append((q, w, sizes, expected))
    report(7, not bad, f"orbit-size multisets match the published catalogs; bad={bad}")


def test_criterion_08_partition_counts_and_identity():
    bad = []
    for n in range(2, 13):
        counts = cyclic_partition_counts(n)
        for k in range(2, n + 1):
            if a_kn_closed_form(k, n) != counts[k]:
                bad.append(("count", n, k))
    for q in range(2, 10):
        for n in range(2, 11):
            if partition_identity_rhs(q, n) != count_configurations(q, n):
                bad.append(("identity", q, n))
    report(
        8,
        not bad,
        f"closed form = brute force for k <= n <= 12 and the configuration "
        f"identity holds for q <= 9, n <= 10; bad={bad}",
    )


def test_criterion_09_jacobsthal():
    spec = field_by_q(2)
    counts = {w: enumerate_friezes(spec, w).total_count for w in range(1, 8)}
    bad = [w for w in range(3, 8) if counts[w] != counts[w - 1] + 2 * counts[w - 2]]
    report(9, not bad, f"f_w = f_(w-1) + 2 f_(w-2) at q=2 for w=3..7; bad={bad}")


def test_criterion_10_property_suites():
    problems = []

    # field axioms, exhaustively, for every prime power q <= 9
    for q in PRIME_POWERS_LE_9:
        assert_field_axioms(field_by_q(q))

    # glide reflection, the unimodular rule and tameness on every enumerated frieze
    for q in (2, 3, 4):
        spec = field_by_q(q)
        for w in range(1, 5):
            for t in enumerate_friezes(spec, w).tuples:
                built = frieze_from_first_row(FirstRow.from_codes(spec, t))
                if not (
                    built.satisfies_glide_reflection()
                    and built.satisfies_unimodular_rule()
                    and check_tame(built).ok
                ):
                    problems.append(("frieze", q, t))

    # dihedral invariance of the criterion, exhaustively over F_2
    for n in (5, 6):
        for codes in itertools.product(range(2), repeat=n):
            value = matrix_criterion(FirstRow.from_codes(field_by_q(2), codes))[0]
            for variant in dihedral_orbit_codes(codes):
                if matrix_criterion(FirstRow.from_codes(field_by_q(2), variant))[0] != value:
                    problems.append(("dihedral", codes))

    # strategy equivalence wherever q^n <= 10^6
    config = SearchConfig()
    for q in PRIME_POWERS_LE_9:
        spec = field_by_q(q)
        w = 1
        while q ** (w + 3) <= 10**6:
            naive = enumerate_friezes(spec, w, "naive", config)
            mitm = enumerate_friezes(spec, w, "mitm", config)
            if naive.tuples != mitm.tuples or naive.total_count != mitm.total_count:
                problems.append(("strategy", q, w))
            w += 1

    report(
        10,
        not problems,
        f"field axioms, per-frieze symmetries, dihedral invariance and "
        f"naive/mitm equivalence all hold; problems={problems}",
    )
