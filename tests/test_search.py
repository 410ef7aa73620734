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
    _min_first_images,
    _mitm_chunk,
    _mitm_table,
    _naive_chunk,
    _prefix_products,
)

from helpers import (
    PRIME_POWERS_LE_9,
    decode,
    field_by_q,
    flat_mitm_table,
    full_rows,
    holds_square_tables,
    per_code_catalog_text,
    without_op_tables,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


def decoded_states(states):
    """_prefix_products states with their prefixes decoded to code tuples."""
    prefixes = decode(state[0] for state in states)
    return [(prefix, *state[1:]) for prefix, state in zip(prefixes, states)]


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
    # 2n, which the walk must size from the orbit it builds
    cases = [(F2, w) for w in range(1, 11)] + [(F3, w) for w in range(1, 6)]
    for spec, w in cases:
        result = enumerate_friezes(spec, w)
        per_tuple = Counter(min(dihedral_orbit_codes(t)) for t in full_rows(spec, w, "mitm"))
        assert [(rep.codes, size) for rep, size in result.orbits] == sorted(per_tuple.items())
        assert any(size < 2 * (w + 3) for _, size in result.orbits)


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
def test_prefix_products_match_row_products(q):
    # states and order: the lex product of prefixes, each with its product
    spec = field_by_q(q)
    for length in range(1, 5):
        prefixes = list(itertools.product(range(q), repeat=length))
        expected = [(t, *row_products(spec, t)[-1]) for t in prefixes]
        assert decoded_states(_prefix_products(spec, length, range(q))) == expected
        first = q - 1
        assert decoded_states(_prefix_products(spec, length, (first,))) == [
            state for state in expected if state[0][0] == first
        ]


@pytest.mark.parametrize("p, k", [(257, 1), (17, 2)])
def test_prefix_products_without_op_tables(p, k, monkeypatch):
    # as if above gf.LAZY_TABLE_LIMIT: a progression mod p, or raw rows
    without_op_tables(monkeypatch, 256)
    spec = FieldSpec(p, k)
    firsts = (0, 5, spec.q - 1)
    expected = [
        ((a, b), *row_products(spec, (a, b))[-1])
        for a in firsts
        for b in range(spec.q)
    ]
    assert decoded_states(_prefix_products(spec, 2, firsts)) == expected
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
@pytest.mark.parametrize("pick", [0, -1])
def test_a_missing_min_first_row_breaks_dihedral_closure(monkeypatch, strategy, chunk, pick):
    # drop the first (an orbit's smallest member) or the last row of a chunk
    # whose orbit has another min-first image: the walk meets that image
    # and misses the dropped row.  mitm runs its own chunks from width 4
    width = 4 if strategy == "mitm" else 3
    original = getattr(search, chunk)
    dropped = []

    def drop_one(*args):
        rows = original(*args)
        shared = [row for row in rows if len(_min_first_images(row)[0]) > 1]
        if shared and not dropped:
            dropped.append(shared[pick])
            rows.remove(shared[pick])
        return rows

    monkeypatch.setattr(search, chunk, drop_one)
    with pytest.raises(AssertionError, match="not dihedral-closed"):
        enumerate_friezes(F3, width, strategy)
    assert len(dropped) == 1
