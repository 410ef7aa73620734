import itertools
import json
import tracemalloc
from collections import Counter
from unittest import mock

import pytest

from friezes import (
    BudgetExceeded,
    FieldSpec,
    FirstRow,
    SearchConfig,
    catalog_orbits,
    check_tame,
    dihedral_canonical,
    enumerate_friezes,
    frieze_from_first_row,
    matrix_criterion,
    verify_count_formula,
)
from friezes import search
from friezes.formulas import count_friezes
from friezes.frieze import dihedral_orbit_codes, row_products
from friezes.gf import parse_field_descriptor
from friezes.search import (
    _families,
    _min_first_images,
    _mitm_chunk,
    _mitm_table,
    _naive_chunk,
)

from helpers import (
    PRIME_POWERS_LE_9,
    decode,
    field_by_q,
    flat_mitm_table,
    full_rows,
    holds_square_tables,
    naive_chunk_per_leaf,
    per_code_catalog_text,
    without_op_tables,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


def decoded_families(families):
    """_families with its prefixes and child chars decoded to codes and its
    children listed."""
    return [
        (tuple(map(ord, prefix)), p00, p01, [(ord(c), *row) for c, *row in children])
        for prefix, p00, p01, children in families
    ]


def families_by_row_products(spec, depth, firsts, low=0):
    """The families of _families(spec, depth, firsts, low) built on their
    own: prefixes from itertools.product, each family's first row and every
    child's read off row_products of the prefix and of the prefix + (x,)."""
    children = firsts if depth == 0 else range(low, spec.q)
    prefixes = [()] if depth == 0 else [
        (a, *tail) for a in firsts for tail in itertools.product(range(low, spec.q), repeat=depth - 1)
    ]
    return [
        (
            prefix,
            *(row_products(spec, prefix)[-1][:2] if prefix else (1, 0)),
            [(x, *row_products(spec, prefix + (x,))[-1][:2]) for x in children],
        )
        for prefix in prefixes
    ]


def test_published_counts():
    assert enumerate_friezes(F2, 2).total_count == 5
    assert enumerate_friezes(F3, 3).total_count == 35
    assert enumerate_friezes(F4, 2).total_count == 17


def test_width1_catalog_odd_characteristic():
    # width-1 rows are exactly (x, 2/x, x, 2/x) for x != 0
    f5 = field_by_q(5)
    two = f5.element(2)
    expected = set()
    for x in map(f5.element, range(1, 5)):
        y = two / x
        expected.add((x.code, y.code, x.code, y.code))
    assert set(enumerate_friezes(f5, 1).tuples) == expected


def test_width1_catalog_characteristic_2():
    # width-1 rows are the alternating (0, x) patterns, one frieze for
    # x = 0 and two for each x != 0
    result = enumerate_friezes(F4, 1)
    expected = {(0, 0, 0, 0)}
    for x in range(1, 4):
        expected.add((0, x, 0, x))
        expected.add((x, 0, x, 0))
    assert set(result.tuples) == expected
    assert result.total_count == 2 * 4 - 1


def test_strategies_agree_small():
    for spec in (F2, F3, F4):
        for w in (1, 2, 3):
            a = enumerate_friezes(spec, w, "naive")
            b = enumerate_friezes(spec, w, "mitm")
            assert a.total_count == b.total_count
            assert a.tuples == b.tuples
            assert a.orbits == b.orbits


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_strategies_match_brute_force(q):
    # the strategies solve the last entries of a row; here every tuple is
    # tested against the -Id criterion directly
    spec = field_by_q(q)
    elements = spec.elements()
    zero_before_last = False
    n = 4
    while q**n <= 2 * 10**4:
        expected = sorted(
            tuple(e.code for e in row)
            for row in itertools.product(elements, repeat=n)
            if matrix_criterion(row)[0]
        )
        for strategy in ("naive", "mitm"):
            assert enumerate_friezes(spec, n - 3, strategy).tuples == expected
        zero_before_last = zero_before_last or any(row[-2] == 0 for row in expected)
        n += 1
    # rows with a_{n-1} = 0 are the completions of prefix products with p00 = 0
    assert zero_before_last


def test_strategies_agree_without_op_tables(monkeypatch):
    # GF(257) as if above gf.LAZY_TABLE_LIMIT: both chunks read raw rows.  A
    # width-1 mitm search runs the naive chunks, so the mitm chunk and table
    # are compared with them directly, chunk by chunk
    without_op_tables(monkeypatch, 256)
    spec = FieldSpec(257)
    table = _mitm_table(spec, 1)
    for first in range(spec.q):
        assert _mitm_chunk(spec, 2, first, table) == _naive_chunk(spec, 4, first)
    assert not holds_square_tables(spec)
    assert enumerate_friezes(spec, 1).total_count == count_friezes(257, False, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fused_naive_chunk_matches_the_per_leaf_completion(q):
    # the fields and widths of test_strategies_match_brute_force, chunk by
    # chunk; chunk 0 completes prefixes with p00 = 0 by all q values of
    # a_{n-2}, the rows with a_{n-1} = 0
    spec = field_by_q(q)
    zero_before_last = False
    n = 4
    while q**n <= 2 * 10**4:
        for first in range(q):
            rows = _naive_chunk(spec, n, first)
            assert rows == naive_chunk_per_leaf(spec, n, first), (n, first)
            zero_before_last = zero_before_last or any(row[-2] == "\0" for row in rows)
        n += 1
    assert zero_before_last


def test_fused_naive_chunk_matches_the_per_leaf_completion_without_op_tables(monkeypatch):
    # GF(257) as if above gf.LAZY_TABLE_LIMIT, on raw rows and progression
    # line rows: every chunk at widths 1 and 2, and at width 3 chunk 0, whose
    # p00 = 0 prefixes fan out over all q values of a_4, and chunk q - 1
    without_op_tables(monkeypatch, 256)
    spec = FieldSpec(257)
    chunks = [(n, first) for n in (4, 5) for first in range(spec.q)] + [(6, 0), (6, 256)]
    for n, first in chunks:
        assert _naive_chunk(spec, n, first) == naive_chunk_per_leaf(spec, n, first), (n, first)
    assert not holds_square_tables(spec)


def test_mitm_tabulates_only_a_middle_of_three_or_more(monkeypatch):
    # mitm solves a middle of nr = n - 1 - n // 2 <= 2 entries (width <= 3)
    # in closed form, with the naive chunks; from width 4 (nr = 3) it builds
    # its one table
    original = search._mitm_table
    calls = []

    def counted(spec, nr):
        calls.append(nr)
        return original(spec, nr)

    monkeypatch.setattr(search, "_mitm_table", counted)
    config = SearchConfig(budget=10**10)  # naive on GF(257) w2 is charged 4.4e9
    cases = [(q, w) for q in (2, 5) for w in range(1, 5)] + [(257, 1), (257, 2)]
    for q, w in cases:
        spec = FieldSpec(q)
        calls.clear()
        mitm = enumerate_friezes(spec, w, "mitm", config)
        assert calls == ([3] if w == 4 else []), (q, w)
        assert mitm == enumerate_friezes(spec, w, "naive", config)
        assert mitm.tuples == full_rows(spec, w, "naive")
    # GF(257) at width 3 would walk about q^3 / 3 prefixes: with its chunks
    # stubbed out the split is still seen
    monkeypatch.setattr(search, "_naive_chunk", lambda spec, n, first: [])
    calls.clear()
    assert enumerate_friezes(FieldSpec(257), 3, "mitm").total_count == 0
    assert calls == []


def test_a_mitm_request_keeps_the_mitm_charge():
    # at width 3 mitm runs the naive chunks but is still charged its own
    # estimate, 4 q^3 = 1372 here, not the naive q + q^2 + ... + q^5
    spec = FieldSpec(7)
    config = SearchConfig(budget=2000)
    result = enumerate_friezes(spec, 3, "mitm", config)
    assert result.total_count == count_friezes(7, False, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_friezes(spec, 3, "naive", config)


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_search_without_op_tables_matches_the_tables(q, monkeypatch):
    tabled = field_by_q(q)
    expected = {w: enumerate_friezes(tabled, w) for w in (1, 2, 3)}
    without_op_tables(monkeypatch)
    spec = FieldSpec(tabled.p, tabled.k)
    for w, result in expected.items():
        for strategy in ("naive", "mitm"):
            got = enumerate_friezes(spec, w, strategy)
            assert got.tuples == result.tuples
            assert got.total_count == result.total_count
    assert not holds_square_tables(spec)


def test_search_above_the_lazy_limit_takes_o_q_memory():
    # GF(1009) lies above gf.LAZY_TABLE_LIMIT: 3 q^2 op-table entries would
    # trace about 70 MiB, and the width-1 search itself needs O(q)
    spec = FieldSpec(1009)
    for strategy in ("mitm", "naive"):
        tracemalloc.start()
        try:
            result = enumerate_friezes(spec, 1, strategy, SearchConfig(budget=10**10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.total_count == count_friezes(1009, False, 1)
        assert peak < 4 * 2**20, (strategy, peak)
    assert not holds_square_tables(spec)


def test_search_builds_op_tables_once_above_the_table_limit():
    spec = FieldSpec(257)
    assert not holds_square_tables(spec)
    first = enumerate_friezes(spec, 1)
    assert holds_square_tables(spec)
    builds, build = [], FieldSpec._op_tables

    def counting(self):
        builds.append(self._mul is None)
        return build(self)

    with mock.patch.object(FieldSpec, "_op_tables", autospec=True, side_effect=counting):
        again = enumerate_friezes(spec, 1, "naive")
    assert builds and not any(builds)
    assert again.orbits == first.orbits


def test_tuples_are_sorted_and_unique():
    # the full search finds every row once, in lex order, and the result
    # rebuilds the same list from its orbits
    for strategy in ("naive", "mitm"):
        rows = full_rows(F3, 3, strategy)
        assert rows == sorted(set(rows))
        result = enumerate_friezes(F3, 3, strategy)
        assert result.tuples == rows
        assert len(rows) == result.total_count


def test_result_invariants():
    for spec, w in ((F2, 3), (F3, 2), (F4, 2), (field_by_q(5), 2)):
        result = enumerate_friezes(spec, w)
        n = w + 3
        assert result.total_count == sum(size for _, size in result.orbits)
        for rep, size in result.orbits:
            assert matrix_criterion(rep)[0]
            built = frieze_from_first_row(rep)
            assert check_tame(built).ok
            assert (2 * n) % size == 0
            canon, orbit_size = dihedral_canonical(rep)
            assert canon == rep and orbit_size == size


def test_solution_set_closed_under_dihedral_action():
    for spec, w in ((F2, 3), (F3, 2), (F3, 4)):
        for strategy in ("naive", "mitm"):
            solutions = set(full_rows(spec, w, strategy))
            for t in solutions:
                assert dihedral_orbit_codes(t) <= solutions


def test_orbit_walk_matches_per_tuple_canonicalization():
    # rows with rotational or reflective symmetry have orbits smaller than
    # 2n, which the walk must size from the orbit it builds.  Over GF(2) and
    # GF(3) most representatives repeat their smallest code; over the larger
    # fields most do not, and the walk takes its path for a unique minimum
    # (GF(257) w1 is the exception: its rows (x, 2/x, x, 2/x) all repeat x)
    large = [(field_by_q(13), 3), (FieldSpec(3, 3), 2), (FieldSpec(53), 2), (FieldSpec(257), 1)]
    cases = [(F2, w) for w in range(1, 11)] + [(F3, w) for w in range(1, 6)] + large
    unique = Counter()
    for spec, w in cases:
        result = enumerate_friezes(spec, w)
        per_tuple = Counter(min(dihedral_orbit_codes(t)) for t in full_rows(spec, w, "mitm"))
        assert [(rep.codes, size) for rep, size in result.orbits] == sorted(per_tuple.items())
        assert any(size < 2 * (w + 3) for _, size in result.orbits)
        if (spec, w) in large:
            unique.update(t.count(t[0]) == 1 for t in result.rep_rows)
    assert unique[True] > unique[False] > 0


def test_published_orbit_catalogs():
    assert enumerate_friezes(F2, 3).orbit_sizes == [1, 1, 3, 6]
    assert enumerate_friezes(F3, 2).orbit_sizes == [5, 5]
    assert enumerate_friezes(F4, 2).orbit_sizes == [1, 1, 5, 10]
    assert enumerate_friezes(F3, 3).orbit_sizes == [1, 2, 2, 6, 6, 6, 12]


def test_f3_width2_catalog_cycles():
    # the 10 width-2 rows over F_3 are the cyclic classes of (2,1,0,1,2)
    # and (0,2,2,2,0)
    result = enumerate_friezes(F3, 2)
    reps = {rep.codes for rep, _ in result.orbits}
    assert reps == {
        min(dihedral_orbit_codes((2, 1, 0, 1, 2))),
        min(dihedral_orbit_codes((0, 2, 2, 2, 0))),
    }


def test_f5_width2_catalog_cycles():
    result = enumerate_friezes(field_by_q(5), 2)
    assert result.total_count == 26
    listed = ((2, 1, 3, 1, 2), (4, 4, 4, 0, 0), (4, 2, 0, 2, 4), (1, 4, 4, 3, 0), (3, 3, 3, 3, 3))
    assert {rep.codes for rep, _ in result.orbits} == {
        min(dihedral_orbit_codes(c)) for c in listed
    }
    assert result.orbit_sizes == [1, 5, 5, 5, 10]


def test_verify_count_formula():
    for spec in (F2, F3, F4):
        checks = verify_count_formula(spec, 4)
        assert [c.width for c in checks] == [1, 2, 3, 4]
        assert all(c.match for c in checks)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_friezes(F3, 40)
    with pytest.raises(BudgetExceeded):
        enumerate_friezes(F3, 5, config=SearchConfig(budget=10))


def test_tuple_retention_threshold():
    result = enumerate_friezes(F3, 3)
    assert len(result.tuples) == result.total_count == 35
    assert result.orbit_sizes == [1, 2, 2, 6, 6, 6, 12]


def test_catalog_output_formats():
    result = enumerate_friezes(F2, 2)
    text = catalog_orbits(result)
    assert "count 5" in text and "(0,0,1,1,1)  size 5" in text
    doc = json.loads(catalog_orbits(result, "json"))
    assert doc == {
        "field": "2",
        "width": 2,
        "count": 5,
        "orbits": [{"rep": [0, 0, 1, 1, 1], "size": 5}],
    }


def test_jacobsthal_recursion_small():
    counts = {w: enumerate_friezes(F2, w).total_count for w in range(1, 6)}
    for w in range(3, 6):
        assert counts[w] == counts[w - 1] + 2 * counts[w - 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_families_match_row_products(q):
    # families and order: the lex product of prefixes, each with its
    # product's first row and its children's; depth 0 is Id, whose children
    # are firsts, and low > 0 bounds every code after a_1
    spec = field_by_q(q)
    for depth in range(5):
        for firsts, low in ((range(q), 0), ((q - 1,), 0), ((1,), 1), ((0, q - 1), q - 1)):
            got = decoded_families(_families(spec, depth, firsts, low))
            assert got == families_by_row_products(spec, depth, firsts, low), (depth, firsts, low)
            assert len(got) == (len(firsts) * (q - low) ** (depth - 1) if depth else 1)


@pytest.mark.parametrize("p, k", [(257, 1), (17, 2)])
def test_families_without_op_tables(p, k, monkeypatch):
    # as if above gf.LAZY_TABLE_LIMIT: a progression mod p, or raw rows
    without_op_tables(monkeypatch, 256)
    spec = FieldSpec(p, k)
    firsts = (0, 5, spec.q - 1)
    for depth, low in ((1, 0), (2, spec.q - 3)):
        expected = families_by_row_products(spec, depth, firsts, low)
        assert decoded_families(_families(spec, depth, firsts, low)) == expected
    assert not holds_square_tables(spec)


def test_mitm_chunk_on_an_untabled_extension():
    # GF(17^2) has no op tables at construction, so the table builds them on
    # first use; the naive chunk, which shares no completion step with the
    # mitm chunk, is the reference
    spec = FieldSpec(17, 2)
    assert not holds_square_tables(spec)
    table = _mitm_table(spec, 1)
    firsts = (0, 1, 2, 17, 200, 288)
    found = []
    for first in firsts:
        rows = _mitm_chunk(spec, 2, first, table)
        assert rows == _naive_chunk(spec, 4, first)
        assert all(matrix_criterion(FirstRow(spec, r))[0] for r in decode(rows))
        found += decode(rows)
    # width-1 rows are (x, 2/x, x, 2/x), one per nonzero first entry, and
    # chunk x keeps the one whose smallest code is x
    halves = [(x, spec.mul_code(2, spec.inv_code(x))) for x in firsts[1:]]
    assert found == [(x, y, x, y) for x, y in halves if y >= x]
    assert len(found) == 3


@pytest.mark.parametrize(
    "p, k, lengths",
    [(2, 1, (1, 2, 3)), (5, 1, (1, 2, 3)), (2, 2, (1, 2, 3)), (257, 1, (1, 2)), (17, 2, (1, 2))],
)
def test_mitm_table_matches_the_flat_construction(p, k, lengths):
    # nr = 1 builds from the empty parent, P = Id; GF(257) and GF(17^2) have
    # codes above 255, and GF(17^2) no op tables until the table asks
    spec = FieldSpec(p, k)
    assert holds_square_tables(spec) == (spec.q <= 256)
    for nr in lengths:
        table = _mitm_table(spec, nr)
        assert table == flat_mitm_table(spec, nr)
        assert sum(map(len, table.values())) == spec.q**nr


def test_mitm_table_matches_the_flat_construction_on_raw_rows(monkeypatch):
    # as if above gf.LAZY_TABLE_LIMIT: _op_tables hands out raw rows
    without_op_tables(monkeypatch, 256)
    spec = FieldSpec(17, 2)
    for nr in (1, 2):
        assert _mitm_table(spec, nr) == flat_mitm_table(spec, nr)
    assert not holds_square_tables(spec)


def test_chunks_agree_on_an_untabled_prime_at_width_2():
    # on GF(257) each chunk holds the rows of the full search whose first
    # code is their smallest; the full search's first = -1 gives p00 = 0
    # after a_2 = -1, where its completions take all q values of a_3, and
    # those rows have a smaller code than their first
    spec = FieldSpec(257)
    full = full_rows(spec, 2, "naive")
    assert sum(row[0] == 256 and row[3] == 0 for row in full) == 257
    table = _mitm_table(spec, 2)
    for first in (0, 1, 128, 256):
        rows = _mitm_chunk(spec, 2, first, table)
        assert rows == _naive_chunk(spec, 5, first)
        assert decode(rows) == [row for row in full if row[0] == first == min(row)]


def test_chunk_zero_completes_p00_zero_on_an_untabled_prime():
    # a_1 = 0 and a_3 = 0 give p00 = 0, and the naive chunk completes those
    # prefixes with all q values of a_4: the q^2 rows (0, b, 0, y, 0, z), the
    # only rows of chunk 0 with a_5 = 0
    spec = FieldSpec(257)
    rows = _naive_chunk(spec, 6, 0)
    assert rows == _mitm_chunk(spec, 3, 0, _mitm_table(spec, 2))
    assert sum(row[4] == 0 for row in decode(rows)) == 257**2


@pytest.mark.parametrize("q, w", [(2, 7), (3, 4), (4, 3), (5, 3), (7, 2), (16, 1)])
def test_chunks_hold_the_min_first_rows(q, w):
    spec = field_by_q(q)
    n = w + 3
    full = full_rows(spec, w, "naive")
    table = _mitm_table(spec, n - 1 - n // 2)
    for first in range(q):
        expected = [row for row in full if row[0] == first == min(row)]
        assert decode(_naive_chunk(spec, n, first)) == expected
        assert decode(_mitm_chunk(spec, n // 2, first, table)) == expected


# (field, widths): from GF(2) at w <= 11 to the untabled GF(257), GF(17^2)
# and GF(3^5); 41 cases, 82 with both strategies
CATALOG_MENU = [
    ("2", range(1, 12)),
    ("3", range(1, 7)),
    ("2^2", range(1, 6)),
    ("5", range(1, 5)),
    ("7", range(1, 4)),
    ("2^3", range(1, 3)),
    ("3^2", range(1, 3)),
    ("11", range(1, 3)),
    ("13", range(1, 3)),
    ("2^4", range(1, 3)),
    ("257", (1,)),
    ("17^2", (1,)),
    ("3^5", (1,)),
]


@pytest.mark.parametrize("descriptor, widths", CATALOG_MENU)
def test_min_first_catalog_matches_the_full_rows(descriptor, widths):
    spec = parse_field_descriptor(descriptor)
    for w in widths:
        for strategy in ("naive", "mitm"):
            # the search builds the op tables of the untabled fields first,
            # and the code ops of full_rows read them
            result = enumerate_friezes(spec, w, strategy)
            rows = full_rows(spec, w, strategy)
            per_tuple = Counter(min(dihedral_orbit_codes(t)) for t in rows)
            assert [(rep.codes, size) for rep, size in result.orbits] == sorted(
                per_tuple.items()
            )
            assert result.total_count == len(rows)
            # the representatives are built without the FirstRow checks
            assert all(FirstRow(spec, rep.codes) == rep for rep, _ in result.orbits)


@pytest.mark.parametrize("descriptor, widths", CATALOG_MENU + [("3^2:2,2,1", range(1, 4))])
def test_json_catalog_is_the_dumped_json_dict(descriptor, widths):
    # GF(257) and GF(17^2) have codes above 255, so their rows are UCS-2 strs
    spec = parse_field_descriptor(descriptor)
    for w in widths:
        for strategy in ("naive", "mitm"):
            result = enumerate_friezes(spec, w, strategy)
            assert catalog_orbits(result, "json") == json.dumps(
                search.enumeration_to_json_dict(result)
            )


def test_search_refuses_fields_whose_codes_have_no_chr():
    # chr stops at 0x10FFFF, so q = 0x110000 is the largest searchable field
    spec = FieldSpec(1114117)
    chr(search.MAX_CHR_FIELD - 1)
    with pytest.raises(ValueError):
        chr(search.MAX_CHR_FIELD)
    with pytest.raises(BudgetExceeded):
        enumerate_friezes(spec, 1)
    # the mitm estimate is 4 q^2 < 10^13, the naive one q + q^2 + q^3 < 10^19
    for strategy, budget in (("mitm", 10**13), ("naive", 10**19)):
        with pytest.raises(ValueError, match="0x10FFFF"):
            enumerate_friezes(spec, 1, strategy, SearchConfig(budget=budget))
    assert spec._mul is None


@pytest.mark.parametrize("descriptor, width", [("2", 6), ("3^2", 2), ("257", 1), ("17^2", 1)])
def test_the_catalog_path_decodes_no_representative(descriptor, width):
    # the representatives stay strs of chr(code) through both catalogs, and
    # .orbits decodes them only when read
    spec = parse_field_descriptor(descriptor)
    for strategy in ("naive", "mitm"):
        result = enumerate_friezes(spec, width, strategy)
        catalog_orbits(result, "text")
        catalog_orbits(result, "json")
        assert sum(result.orbit_sizes) == result.total_count
        assert "orbits" not in vars(result) and "tuples" not in vars(result)
        assert "rep_rows" not in repr(result)
        assert result.orbits == [
            (FirstRow(spec, tuple(map(ord, t))), size)
            for t, size in zip(result.rep_rows, result.sizes)
        ]


@pytest.mark.parametrize(
    "descriptor, widths",
    [
        ("2^2", range(1, 5)),
        ("3^2", range(1, 4)),
        ("2^3", range(1, 4)),
        ("3^3", range(1, 3)),
        ("5^2", range(1, 3)),
        ("3^2:2,2,1", range(1, 4)),
        ("257", (1,)),
    ],
)
def test_catalog_text_matches_the_per_code_rendering(descriptor, widths):
    spec = parse_field_descriptor(descriptor)
    assert (spec.k > 1) == any(spec.element_str(c) != str(c) for c in range(spec.q))
    for w in widths:
        result = enumerate_friezes(spec, w)
        assert catalog_orbits(result) == per_code_catalog_text(result)


@pytest.mark.parametrize("strategy, chunk", [("naive", "_naive_chunk"), ("mitm", "_mitm_chunk")])
@pytest.mark.parametrize(
    "pick, unique_min",
    [
        pytest.param(0, False, id="0"),
        pytest.param(-1, False, id="-1"),
        pytest.param(0, True, id="0-unique-min"),
        pytest.param(-1, True, id="-1-unique-min"),
    ],
)
def test_a_missing_min_first_row_breaks_dihedral_closure(
    monkeypatch, strategy, chunk, pick, unique_min
):
    # drop the first (an orbit's smallest member) or the last row of a chunk
    # whose orbit has another min-first image: the walk meets that image
    # and misses the dropped row.  The dropped row's smallest code occurs
    # once (the walk's reversal-only path) or more often (its image-set
    # path).  mitm runs its own chunks from width 4, and over GF(3) every
    # such row of width 3 repeats its smallest code
    width = 4 if strategy == "mitm" or unique_min else 3
    original = getattr(search, chunk)
    dropped = []

    def drop_one(*args):
        rows = original(*args)
        shared = [
            row
            for row in rows
            if len(_min_first_images(row)[0]) > 1 and (row.count(row[0]) == 1) == unique_min
        ]
        if shared and not dropped:
            dropped.append(shared[pick])
            rows.remove(shared[pick])
        return rows

    monkeypatch.setattr(search, chunk, drop_one)
    with pytest.raises(AssertionError, match="not dihedral-closed"):
        enumerate_friezes(F3, width, strategy)
    assert len(dropped) == 1
