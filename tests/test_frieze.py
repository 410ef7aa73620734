import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    FieldElement,
    FieldSpec,
    FirstRow,
    Frieze,
    NotAFrieze,
    check_tame,
    dihedral_canonical,
    frieze_from_first_row,
    matrix_criterion,
    parse_frieze_json,
    render_frieze,
)
from friezes import frieze as frieze_module
from friezes.frieze import dihedral_orbit_codes, frieze_to_json_dict, row_products
from friezes.search import _min_first_images

from helpers import (
    extended_diamond,
    extended_entry,
    field_by_q,
    frieze_by_diagonals,
    mat_mul_codes,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)


def row(spec, codes):
    return FirstRow.from_codes(spec, codes)


def test_criterion_published_rows():
    assert matrix_criterion(row(F2, (1, 1, 1, 0, 0)))[0]
    assert matrix_criterion(row(F3, (2, 1, 0, 1, 2)))[0]
    # the all-zero 6-cycle works over every field: M(0) has order 4 in SL2
    for spec in (F2, F3, F4, F5):
        assert matrix_criterion(row(spec, (0,) * 6))[0]
    # (1,1,1) closes at width 0 over any field
    for spec in (F2, F3, F4, F5):
        assert matrix_criterion(row(spec, (1, 1, 1)))[0]


def test_criterion_rejects_with_witness():
    ok, product = matrix_criterion(row(F3, (1, 1, 1, 1)))
    assert not ok
    assert product.codes == (2, 1, 2, 0)  # M(1)^4 over F_3, by hand


def test_f5_width2_catalog_rows_pass():
    for cycle in ((2, 1, 3, 1, 2), (4, 4, 4, 0, 0), (4, 2, 0, 2, 4), (1, 4, 4, 3, 0), (3, 3, 3, 3, 3)):
        assert matrix_criterion(row(F5, cycle))[0]


def test_frieze_from_first_row_published_width2():
    built = frieze_from_first_row(row(F2, (1, 1, 1, 0, 0)))
    assert built.width == 2
    assert [e.code for e in built.row(1)] == [1, 1, 1, 0, 0]
    assert [e.code for e in built.row(2)] == [0, 0, 1, 1, 1]
    assert all(e.code == 1 for e in built.row(0))
    assert all(e.code == 1 for e in built.row(3))
    assert all(e.code == 0 for e in built.row(-1))
    assert all(e.code == 0 for e in built.row(4))


def test_width_zero_frieze():
    built = frieze_from_first_row(row(F3, (1, 1, 1)))
    assert built.width == 0
    assert built.row_range == (-1, 2)
    assert [e.code for e in built.row(1)] == [1, 1, 1]


def test_rejection_is_a_value_not_an_exception():
    rejected = frieze_from_first_row(row(F3, (1, 1, 1, 1)))
    assert isinstance(rejected, NotAFrieze)
    assert rejected.product.codes == (2, 1, 2, 0)


def test_classic_width4_example_mod_5_and_7():
    # the classic positive-integer width-4 frieze reduced mod p; interior
    # rows below were computed by hand from the diagonal recursion over Z
    first = (4, 2, 1, 3, 2, 2, 1)
    rows_over_z = {
        2: (7, 1, 2, 5, 3, 1, 3),
        3: (3, 1, 3, 7, 1, 2, 5),
        4: (2, 1, 4, 2, 1, 3, 2),
    }
    for p in (5, 7):
        spec = FieldSpec(p)
        built = frieze_from_first_row(row(spec, tuple(c % p for c in first)))
        assert not isinstance(built, NotAFrieze)
        for r, values in rows_over_z.items():
            assert [e.code for e in built.row(r)] == [v % p for v in values]
        assert built.satisfies_unimodular_rule()
        assert built.satisfies_glide_reflection()


def test_acceptance_matches_criterion_exhaustively_q2():
    for n in range(3, 7):
        for codes in itertools.product(range(2), repeat=n):
            r = row(F2, codes)
            built = frieze_from_first_row(r)
            assert isinstance(built, NotAFrieze) != matrix_criterion(r)[0]


def test_glide_and_unimodular_on_all_small_friezes():
    for spec in (F2, F3):
        for n in (4, 5, 6):
            for codes in itertools.product(range(spec.q), repeat=n):
                r = row(spec, codes)
                built = frieze_from_first_row(r)
                if isinstance(built, NotAFrieze):
                    continue
                assert built.satisfies_unimodular_rule()
                assert built.satisfies_glide_reflection()


def test_tameness_char2_zero_rows():
    # width-1 friezes in characteristic 2 have the alternating (0, x) row
    for codes in ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)):
        built = frieze_from_first_row(row(F2, codes))
        assert not isinstance(built, NotAFrieze)
        report = check_tame(built)
        assert report.ok and report.witness is None
    for x in range(4):
        built = frieze_from_first_row(row(F4, (0, x, 0, x)))
        assert not isinstance(built, NotAFrieze)
        assert check_tame(built).ok


def test_tameness_zero_cycle_width3():
    built = frieze_from_first_row(row(F3, (0,) * 6))
    assert check_tame(built).ok
    assert check_tame(built, all_diamonds=True).ok


def test_tameness_no_zero_entries_is_vacuous():
    built = frieze_from_first_row(row(F5, (3, 3, 3, 3, 3)))
    assert all(e.code != 0 for r in range(1, 3) for e in built.row(r))
    assert check_tame(built).ok


def test_all_diamonds_debug_mode_small_sweep():
    # validates the zero-centre shortcut and the two forced border rows
    for spec in (F2, F3):
        for n in (4, 5, 6):
            for codes in itertools.product(range(spec.q), repeat=n):
                built = frieze_from_first_row(row(spec, codes))
                if isinstance(built, NotAFrieze):
                    continue
                assert check_tame(built, all_diamonds=True).ok


def _oracle_sweep():
    """Every row of length 3-7 over GF(2), 3-5 over GF(3) and GF(4) and 3-4
    over GF(5), with what the per-diagonal construction makes of it."""
    for spec, lengths in ((F2, range(3, 8)), (F3, range(3, 6)), (F4, range(3, 6)), (F5, (3, 4))):
        for n in lengths:
            for codes in itertools.product(range(spec.q), repeat=n):
                first = FirstRow(spec, codes)
                yield first, frieze_by_diagonals(first)


def test_rows_match_the_per_diagonal_construction():
    outcomes = []
    for first, expected in _oracle_sweep():
        built = frieze_from_first_row(first)
        assert type(built) is type(expected)
        if isinstance(expected, NotAFrieze):
            assert built.row == first and built.product == expected.product
        else:
            assert built._rows == expected._rows and built == expected
        outcomes.append(type(built))
    assert 0 < outcomes.count(Frieze) < outcomes.count(NotAFrieze)


def test_extended_entry_formulas_continue_the_recursion():
    # the forced rows -3, -2, w+3 and w+4 obey entry(r+1, c) = a_{c+r}
    # entry(r, c) - entry(r-1, c) with the stored ones
    for first, f in _oracle_sweep():
        if isinstance(f, NotAFrieze):
            continue
        s, codes, n = f.spec, first.codes, f.n
        for r in range(-2, f.width + 4):
            for c in range(n):
                step = s.mul_code(codes[(c + r) % n], extended_entry(f, r, c))
                assert extended_entry(f, r + 1, c) == s.sub_code(step, extended_entry(f, r - 1, c))


def test_tame_diamonds_match_the_extended_entry_formulas(monkeypatch):
    # every matrix the rank test sees, in both modes, is the diamond the
    # extended-entry formulas give, so a wrong forced row fails here even
    # where its diamond would still have rank 2
    seen = []
    rank_is_2 = frieze_module._rank_is_2
    monkeypatch.setattr(
        frieze_module, "_rank_is_2", lambda spec, m: seen.append(m) or rank_is_2(spec, m)
    )
    for first, f in _oracle_sweep():
        if isinstance(f, NotAFrieze):
            continue
        w, n = f.width, f.n
        zeros = [(r, c) for r in range(1, w + 1) for c in range(n) if f.entry_code(r, c) == 0]
        every = [(r, c) for r in range(-1, w + 3) for c in range(n)]
        for all_diamonds, centres in ((False, zeros), (True, every)):
            seen.clear()
            assert check_tame(frieze_from_first_row(first), all_diamonds).ok
            assert seen == [extended_diamond(f, r, c) for r, c in centres]


def test_dihedral_canonical_orbit_sizes():
    assert dihedral_canonical(row(F2, (1, 1, 1, 0, 0)))[1] == 5
    assert dihedral_canonical(row(F4, (2, 0, 3, 1, 1)))[1] == 10
    assert dihedral_canonical(row(F3, (0,) * 6))[1] == 1
    canon, size = dihedral_canonical(row(F3, (1, 0, 1, 0, 1, 0)))
    assert size == 2
    assert canon.codes == (0, 1, 0, 1, 0, 1)


def test_criterion_dihedral_invariance_exhaustive_q2():
    for n in (5, 6):
        for codes in itertools.product(range(2), repeat=n):
            r = row(F2, codes)
            value = matrix_criterion(r)[0]
            for variant in dihedral_orbit_codes(codes):
                assert matrix_criterion(row(F2, variant))[0] == value


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_criterion_dihedral_invariance_random(data):
    spec = data.draw(st.sampled_from([F3, F4, F5, field_by_q(7)]))
    n = data.draw(st.integers(3, 8))
    codes = tuple(
        data.draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n))
    )
    r = row(spec, codes)
    value = matrix_criterion(r)[0]
    rot = data.draw(st.integers(0, n - 1))
    rotated = codes[rot:] + codes[:rot]
    assert matrix_criterion(row(spec, rotated))[0] == value
    assert matrix_criterion(row(spec, codes[::-1]))[0] == value


def test_render_text_published_triangle():
    built = frieze_from_first_row(row(F2, (1, 1, 1, 0, 0)))
    assert render_frieze(built) == "1 1 1 1\n 1 1 1\n  0 0\n   1"


def test_render_width_zero_is_two_rows_of_ones():
    built = frieze_from_first_row(row(F3, (1, 1, 1)))
    assert render_frieze(built) == "1 1\n 1"


def test_render_json_round_trip():
    for spec, codes in ((F2, (1, 1, 1, 0, 0)), (F4, (2, 0, 3, 1, 1)), (F3, (0,) * 6)):
        built = frieze_from_first_row(row(spec, codes))
        text = render_frieze(built, "json")
        doc = json.loads(text)
        assert doc["field"] == spec.descriptor
        assert doc["first_row"] == list(codes)
        assert parse_frieze_json(text) == built


def test_parse_json_rejects_tampered_rows():
    built = frieze_from_first_row(row(F2, (1, 1, 1, 0, 0)))
    doc = frieze_to_json_dict(built)
    doc["rows"][2][0] ^= 1
    with pytest.raises(ValueError):
        parse_frieze_json(json.dumps(doc))


def test_parse_json_rejects_codes_outside_the_field():
    # (3, 1, 1, 2, 2) over GF(2) used to be read as (1, 1, 1, 0, 0)
    built = frieze_from_first_row(row(F2, (1, 1, 1, 0, 0)))
    doc = frieze_to_json_dict(built)
    doc["first_row"] = [3, 1, 1, 2, 2]
    with pytest.raises(ValueError, match="out of range"):
        parse_frieze_json(json.dumps(doc))
    # JSON true/false are not codes, in the first row or in the stored rows
    for key in ("first_row", "rows"):
        doc = frieze_to_json_dict(built)
        text = json.dumps(doc[key]).replace("0", "false").replace("1", "true")
        doc[key] = json.loads(text)
        with pytest.raises(ValueError, match="out of range"):
            parse_frieze_json(json.dumps(doc))
    # the width is an int: true stands for 1 and 2.0 for 2, which these rows have
    for codes, width in (((0, 1, 0, 1), True), ((1, 1, 1, 0, 0), 2.0)):
        doc = frieze_to_json_dict(frieze_from_first_row(row(F2, codes)))
        doc["width"] = width
        with pytest.raises(ValueError, match="width"):
            parse_frieze_json(json.dumps(doc))


def test_parse_json_rejects_malformed_documents():
    good = frieze_to_json_dict(frieze_from_first_row(row(F2, (1, 1, 1, 0, 0))))
    docs = ["{}", '{"field": "3"}', "[]", '{"field": 3}', '{"field": "4"}', "5"]
    docs += [json.dumps({**good, key: 5}) for key in ("rows", "first_row")]
    for text in docs:
        with pytest.raises(ValueError, match="malformed frieze document"):
            parse_frieze_json(text)


def test_first_row_needs_three_entries():
    with pytest.raises(ValueError):
        FirstRow.from_codes(F2, (1, 1))


def test_row_products_match_a_matrix_fold():
    for spec in (F2, F3, F4):
        n1 = spec.neg_code(1)
        for length in range(1, 6):
            for codes in itertools.product(range(spec.q), repeat=length):
                product, expected = (1, 0, 0, 1), []
                for x in codes:
                    product = mat_mul_codes(spec, (x, n1, 1, 0), product)
                    expected.append(product)
                assert row_products(spec, codes) == expected


def test_first_row_rejects_codes_outside_the_field():
    for spec, codes in (
        (F5, (5, 1, 1)), (F5, (-1, 1, 1)), (F4, (4, 0, 0)),
        (F5, (True, 0, 1)), (F5, (1.0, 0, 1)),
    ):
        with pytest.raises(ValueError, match="out of range"):
            FirstRow(spec, codes)
    with pytest.raises(ValueError, match="out of range"):
        FirstRow(F5, (F5.one, F5.one, F5.one))
    # from_codes keeps spec.element's rule: ints are reduced mod p in a prime
    # field and range-checked in an extension
    assert FirstRow.from_codes(F5, (6, 1, 1)).codes == (1, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        FirstRow.from_codes(F4, (4, 1, 1))


def test_code_rows_wrap_into_field_elements():
    # the element-valued API returns what the FieldElement recursion gives
    for spec in (F2, F3, F4, F5):
        for w in (1, 2):
            for codes in itertools.product(range(spec.q), repeat=w + 3):
                first = FirstRow(spec, codes)
                built = frieze_from_first_row(first)
                if isinstance(built, NotAFrieze):
                    continue
                elems = tuple(spec.element(c) for c in codes)
                assert first.elements == elems
                n = len(codes)
                for c in range(n):
                    prev2, prev = spec.zero, spec.one
                    for r in range(1, w + 3):
                        prev2, prev = prev, elems[(c + r - 1) % n] * prev - prev2
                        assert built.entry(r, c) == built.entry(r, c + n) == prev
                        assert built.entry_code(r, c) == prev.code
                for r in range(-1, w + 3):
                    assert built.row(r) == tuple(built.entry(r, c) for c in range(n))
                    assert all(isinstance(e, FieldElement) for e in built.row(r))


def _dihedral_images(codes):
    # the definition: the rotations i -> i + s and reflections i -> s - i of
    # the index cycle Z/n
    n = len(codes)
    rotations = {tuple(codes[(i + s) % n] for i in range(n)) for s in range(n)}
    reflections = {tuple(codes[(s - i) % n] for i in range(n)) for s in range(n)}
    return rotations | reflections


@st.composite
def _rows(draw):
    # random rows, rows with a shorter period, and palindromes, 3 to 20 long
    shape = draw(st.sampled_from(["plain", "periodic", "palindrome"]))
    letters = st.integers(0, draw(st.integers(1, 4)))
    if shape == "plain":
        return tuple(draw(st.lists(letters, min_size=3, max_size=20)))
    if shape == "periodic":
        period = tuple(draw(st.lists(letters, min_size=1, max_size=6)))
        reps = draw(st.integers(-(-3 // len(period)), 20 // len(period)))
        return period * reps
    half = tuple(draw(st.lists(letters, min_size=1, max_size=9)))
    middle = tuple(draw(st.lists(letters, min_size=len(half) == 1, max_size=1)))
    return half + middle + half[::-1]


@settings(deadline=None, max_examples=300)
@given(_rows())
def test_dihedral_orbit_codes_match_the_definition(codes):
    orbit = dihedral_orbit_codes(codes)
    assert orbit == _dihedral_images(codes)
    assert 2 * len(codes) % len(orbit) == 0  # it divides the order of D_n


@settings(deadline=None, max_examples=300)
@given(_rows())
def test_min_first_images_are_the_orbit_images_starting_with_t0(codes):
    # the search's orbit walk builds only these images and sizes the orbit
    # from them; small alphabets make the first code repeat
    orbit = dihedral_orbit_codes(codes)
    images, size = _min_first_images(codes)
    assert images == {image for image in orbit if image[0] == codes[0]}
    assert size == len(orbit)


@pytest.mark.parametrize(
    "codes, images, size",
    [
        # constant: one image, which every rotation and reversal fixes
        ((0,) * 6, {(0,) * 6}, 1),
        # palindrome: the reversal through position 0 fixes it
        ((0, 1, 2, 2, 1), {(0, 1, 2, 2, 1)}, 5),
        # the minimum fills all but one position
        ((0, 0, 0, 0, 1), {(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
                           (0, 1, 0, 0, 0)}, 5),
    ],
)
def test_min_first_images_on_fixed_rows(codes, images, size):
    assert _min_first_images(codes) == (images, size)


@pytest.mark.parametrize("spec, codes", [(F2, (1, 1, 1, 0, 0)), (F5, (0, 4, 3, 2, 1, 0))])
def test_trusted_row_is_the_checked_row(spec, codes):
    # the search builds its representatives this way, without the checks
    trusted, checked = FirstRow._trusted(spec, codes), FirstRow(spec, codes)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.codes = (0, 0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del trusted.spec
    assert trusted.codes == codes and trusted.spec is spec
