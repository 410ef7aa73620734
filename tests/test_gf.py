import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    FieldSpec,
    Mat2,
    NonPrimeCharacteristic,
    ProjPoint,
    ReducibleModulus,
    parse_field_descriptor,
)
from friezes.cli import main
from friezes.errors import DescriptorError
from friezes import gf
from friezes.gf import pgl2_point_permutations

from helpers import (
    PRIME_POWERS_LE_9,
    all_small_fields,
    assert_field_axioms,
    field_by_q,
    holds_square_tables,
    moebius_image,
    pgl2_code_matrices,
    trial_division_irreducible,
    without_op_tables,
)


def test_prime_field_elements():
    f3 = FieldSpec(3)
    assert [e.code for e in f3.elements()] == [0, 1, 2]
    assert f3.zero + f3.one == f3.one
    assert f3.element(2) * f3.element(2) == f3.one
    assert f3.element(-1) == f3.element(2)


def test_f4_matches_presentation():
    # GF(4) = {0, 1, a, b} with b = 1 + a = a^(-1)
    f4 = FieldSpec(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert [str(e) for e in f4.elements()] == ["0", "1", "a", "a+1"]
    alpha, beta = f4.element(2), f4.element(3)
    assert beta == f4.one + alpha
    assert beta == alpha.inverse()
    assert alpha * beta == f4.one


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        FieldSpec(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x + 1)^2 over F_2


def test_non_prime_characteristic_rejected():
    for bad in (1, 4, 6, 9):
        with pytest.raises(NonPrimeCharacteristic):
            FieldSpec(bad)


def test_default_moduli_are_the_smallest_irreducible():
    assert FieldSpec(2, 2).modulus == (1, 1, 1)
    assert FieldSpec(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("p, max_k", [(2, 8), (3, 8), (5, 5), (7, 5)])
def test_default_modulus_matches_trial_division(p, max_k):
    # the smallest candidate that trial division finds irreducible, in the
    # candidate order of _default_modulus
    for k in range(1, max_k + 1):
        expected = next(
            m for high_to_low in itertools.product(range(p), repeat=k)
            for m in [tuple(reversed(high_to_low)) + (1,)]
            if trial_division_irreducible(m, p)
        )
        assert gf._default_modulus(p, k) == expected


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (5, 3)])
def test_irreducibility_matches_trial_division(p, k):
    for low in itertools.product(range(p), repeat=k):
        m = low + (1,)
        assert gf._is_irreducible(m, p) == trial_division_irreducible(m, p), m


def test_f9_generator_squares_to_minus_one():
    f9 = FieldSpec(3, 2)
    x = f9.element([0, 1])
    assert x.code == 3
    assert x * x == -f9.one
    assert str(x * x) == "2"


def test_element_order_is_stable_and_complete():
    for spec in all_small_fields():
        elems = spec.elements()
        assert len(elems) == spec.q
        assert len(set(elems)) == spec.q
        assert elems[0] == spec.zero
        assert elems[1] == spec.one
        assert [e.code for e in elems] == list(range(spec.q))


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_field_axioms_exhaustive(q):
    assert_field_axioms(field_by_q(q))


def test_on_the_fly_arithmetic_above_table_limit():
    # primes and extensions past the table threshold share the same API
    f257 = FieldSpec(257)
    assert not holds_square_tables(f257)
    a, b = f257.element(200), f257.element(123)
    assert (a * b).code == 200 * 123 % 257
    assert (a * a.inverse()) == f257.one
    f512 = FieldSpec(2, 9)
    assert not holds_square_tables(f512)
    x = f512.element(300)
    assert x * f512.one == x
    assert (x * x.inverse()) == f512.one
    assert x + x == f512.zero  # characteristic 2


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
def test_on_the_fly_axioms_sampled(a, b, c):
    spec = FieldSpec(2, 9)
    add, mul = spec.add_code, spec.mul_code
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert spec.pow_code(a, spec.q) == a


def test_projpoint_normalization():
    f5 = FieldSpec(5)
    two, three, one = f5.element(2), f5.element(3), f5.one
    assert ProjPoint(two, three) == ProjPoint(two / three, one)
    assert ProjPoint(three, f5.zero) == ProjPoint(one, f5.zero)
    with pytest.raises(ValueError):
        ProjPoint(f5.zero, f5.zero)


def _check_point_primitives(spec, indices, scalars):
    q, mul, el = spec.q, spec.mul_code, spec.element
    with pytest.raises(ValueError):
        spec.point_index(0, 0)
    with pytest.raises(ValueError):
        ProjPoint(spec.zero, spec.zero)
    for i in indices:
        x, y = spec.point_vector(i)
        assert (x, y) == ((1, 0) if i == q else (i, 1))
        assert spec.point_index(x, y) == i
        for lam in scalars:
            assert spec.point_index(mul(lam, x), mul(lam, y)) == i
            assert ProjPoint(el(mul(lam, x)), el(mul(lam, y))).index == i
        pt = ProjPoint.from_index(spec, i)
        assert (pt.x, pt.y) == (x, y)
        assert pt.is_infinity == (i == q)
        assert str(pt) == spec.point_str(i) == ("inf" if i == q else spec.element_str(i))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
def test_point_primitives_exhaustive(q):
    _check_point_primitives(field_by_q(q), range(q + 1), range(1, q))


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_moebius_oracle_gives_the_pgl2_permutations(q):
    # the tests' Möbius oracle over the q^3 - q normalized code matrices,
    # filtered from all q^4 tuples, is the library's group action: the orbit
    # key tests that move points through the oracle rest on this
    spec = field_by_q(q)
    matrices = pgl2_code_matrices(spec)
    assert len(matrices) == q**3 - q
    images = {tuple(moebius_image(spec, m, i) for i in range(q + 1)) for m in matrices}
    assert images == set(pgl2_point_permutations(spec))


@pytest.mark.parametrize("p, k", [(257, 1), (2, 9)])
def test_point_primitives_sampled(p, k):
    # above gf.TABLE_LIMIT: the code ops run without tables
    spec = FieldSpec(p, k)
    q = spec.q
    rng = random.Random(q)
    points = [0, 1, q - 1, q] + rng.sample(range(q), 16)
    _check_point_primitives(spec, points, [1, q - 1] + rng.sample(range(2, q), 4))


def test_pgl2_action_faithful():
    for q in (2, 3, 4, 5):
        spec = field_by_q(q)
        perms = pgl2_point_permutations(spec)
        assert len(set(perms)) == len(perms) == q**3 - q


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_pgl2_sharply_3_transitive(q):
    spec = field_by_q(q)
    triples = list(itertools.permutations(range(q + 1), 3))
    perms = pgl2_point_permutations(spec)
    hits = {}
    for perm in perms:
        for src in triples:
            img = (perm[src[0]], perm[src[1]], perm[src[2]])
            key = (src, img)
            hits[key] = hits.get(key, 0) + 1
    # exactly one group element maps any ordered triple to any other
    assert len(hits) == len(triples) ** 2
    assert set(hits.values()) == {1}


def test_mat2_algebra():
    # what is left of Mat2: the witness matrix_criterion hands back
    f5 = FieldSpec(5)
    m = Mat2.from_codes(f5, (1, 2, 3, 4))
    assert m.det() == f5.element(4 - 6)
    assert Mat2.from_codes(f5, (1, 2, 2, 4)).det().code == 0
    assert m == Mat2.from_codes(f5, [1, 2, 3, 4]) and hash(m) == hash(Mat2.from_codes(f5, m.codes))
    assert m != Mat2.from_codes(FieldSpec(7), m.codes)
    assert repr(Mat2.from_codes(FieldSpec(2, 2), (1, 0, 2, 3))) == "Mat2[[1, 0], [a, a+1]]"


def test_descriptor_round_trips():
    for text in ("5", "2^2", "2^3", "3^2", "2^2:1,1,1"):
        spec = parse_field_descriptor(text)
        assert parse_field_descriptor(spec.descriptor) == spec
    assert parse_field_descriptor("2^2").descriptor == "2^2"
    assert parse_field_descriptor("7").descriptor == "7"
    # an explicit modulus keeps a suffix only when it is not the default one
    assert FieldSpec(2, 3, (1, 1, 0, 1)).descriptor == "2^3"
    assert FieldSpec(2, 3, (1, 0, 1, 1)).descriptor == "2^3:1,0,1,1"


def test_descriptor_errors():
    with pytest.raises(DescriptorError):
        parse_field_descriptor("4")
    with pytest.raises(DescriptorError):
        parse_field_descriptor("banana")
    with pytest.raises(DescriptorError):
        parse_field_descriptor("5:1,1")
    # numbers are ASCII decimal digits, as element codes are: int() would
    # read each of these
    for text in ("1_1", "+5", "\u0661\u0661", "2^+2", "2^-1", "2^2:1,+1,1", "2^2:-1,1,1"):
        with pytest.raises(DescriptorError):
            parse_field_descriptor(text)
    with pytest.raises(ReducibleModulus):
        parse_field_descriptor("2^2:1,0,1")


def test_descriptor_specs_are_shared_per_process():
    assert parse_field_descriptor("3^4") is parse_field_descriptor("3^4")
    assert FieldSpec(3, 4) is not parse_field_descriptor("3^4")
    for _ in range(2):  # failures are not cached
        with pytest.raises(DescriptorError):
            parse_field_descriptor("6^2")


def test_spec_equality_is_structural():
    assert FieldSpec(2, 2) == FieldSpec(2, 2, modulus=[1, 1, 1])
    assert FieldSpec(2, 2) != FieldSpec(2, 1 + 2)
    a = FieldSpec(3).element(2)
    b = FieldSpec(3).element(2)
    assert a == b and hash(a) == hash(b)


def _prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 1
    while p**k < q:
        k += 1
    return (p, k) if p**k == q else None


@pytest.mark.parametrize(
    "q, samples",
    [(q, None) for q in range(2, 82) if _prime_power(q)]
    + [(128, 2000), (169, 2000), (243, 2000), (256, 2000)]
    + [(257, 2000), (289, 2000), (512, 2000), (729, 2000)]
    + [(961, 2000), (1009, 2000), (1024, 2000)],
)
def test_op_tables_match_raw_arithmetic(q, samples):
    # the tables come from a primitive element and digit blocks, at
    # construction up to gf.TABLE_LIMIT and on first use up to
    # gf.LAZY_TABLE_LIMIT; above it add, sub and mul are raw rows and mul
    # reads exp and log.  The raw polynomial operations are the reference
    spec = FieldSpec(*_prime_power(q))
    add, sub, mul, neg, inv = spec._op_tables()
    assert holds_square_tables(spec) == (q <= gf.LAZY_TABLE_LIMIT)
    codes = range(q)
    if samples is None:
        pairs = itertools.product(codes, codes)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(samples)]
    for a, b in pairs:
        assert add[a][b] == spec._add_raw(a, b)
        assert sub[a][b] == spec._add_raw(a, spec._neg_raw(b))
        assert mul[a][b] == spec._mul_raw(a, b)
    for a in (0, 1, q - 1):
        assert list(mul[a]) == [spec._mul_raw(a, b) for b in codes]
    assert neg == [spec._neg_raw(a) for a in codes]
    assert inv[0] is None
    assert all(spec._mul_raw(a, inv[a]) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9 + (16, 25, 27))
def test_raw_rows_match_raw_arithmetic(q, monkeypatch):
    # the O(q) rows of a field above gf.LAZY_TABLE_LIMIT, on small fields:
    # every entry, read one by one and row by row
    without_op_tables(monkeypatch)
    spec = FieldSpec(*_prime_power(q))
    assert not holds_square_tables(spec)
    add, sub, mul, neg, inv = spec._op_tables()
    assert not holds_square_tables(spec)
    codes = range(q)
    for a in codes:
        raw = (
            [spec._add_raw(a, b) for b in codes],
            [spec._add_raw(a, spec._neg_raw(b)) for b in codes],
            [spec._mul_raw(a, b) for b in codes],
        )
        for table, expected in zip((add, sub, mul), raw):
            assert [table[a][b] for b in codes] == list(table[a]) == expected
    assert neg == [spec._neg_raw(a) for a in codes]
    assert inv[0] is None
    assert all(spec._mul_raw(a, inv[a]) == 1 for a in range(1, q))


def test_op_tables_above_the_lazy_limit_take_o_q_memory():
    # 3 q^2 table entries for GF(1009) would trace about 70 MiB
    spec = FieldSpec(1009)
    tracemalloc.start()
    try:
        spec._op_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not holds_square_tables(spec)
    assert peak < 2**20, peak


@pytest.mark.parametrize("p, k", [(1009, 1), (31, 2), (2, 10)])
def test_code_ops_read_the_op_tables_above_the_lazy_limit(p, k):
    # once _op_tables has run, the code ops read its rows and its exp, log
    # and inv lists, and never multiply polynomials; the raw operations,
    # computed beforehand, are the reference
    spec = FieldSpec(p, k)
    q = spec.q
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(300)]

    def raw_pow(a, e):
        # square and multiply: O(log e) raw products, not the e of a fold
        out = 1
        while e:
            if e & 1:
                out = spec._mul_raw(out, a)
            a, e = spec._mul_raw(a, a), e >> 1
        return out

    raw_inv = {b: raw_pow(b, q - 2) for _, b in pairs}
    expected = [
        (
            spec._add_raw(a, b),
            spec._add_raw(a, spec._neg_raw(b)),
            spec._mul_raw(a, b),
            spec._neg_raw(a),
            raw_inv[b],
            raw_pow(a, 5),
            spec._mul_raw(a, raw_inv[b]),
        )
        for a, b in pairs
    ]
    spec._op_tables()
    with mock.patch.object(FieldSpec, "_mul_raw", side_effect=AssertionError):
        got = [
            (
                spec.add_code(a, b),
                spec.sub_code(a, b),
                spec.mul_code(a, b),
                spec.neg_code(a),
                spec.inv_code(b),
                spec.pow_code(a, 5),
                spec.point_index(a, b),
            )
            for a, b in pairs
        ]
    assert got == expected


def test_print_and_map_build_no_op_tables_on_a_large_field(capsys):
    spec = parse_field_descriptor("2^16")
    assert main(["print", "--field", "2^16", "--row", "1,1,1"]) == 0
    assert main(["map", "--field", "2^16", "--to", "frieze", "--points", "0,1,inf"]) == 0
    x = spec.element(40000)
    assert x * x.inverse() == spec.one
    assert (spec._add, spec._sub, spec._mul, spec._neg, spec._inv) == (None,) * 5


@pytest.mark.parametrize(
    "p, k", [(2, 2), (3, 4), (2, 8), (257, 1), (17, 2), (1009, 1), (31, 2)]
)
def test_line_codes_match_code_ops(p, k):
    # tabled at construction (GF(4), GF(81), GF(256)) or on first use
    # (GF(257), GF(17^2)): the row a x - b is read from the op tables, so
    # the raw operations, which read no table, are the reference.  Above
    # gf.LAZY_TABLE_LIMIT, GF(1009) steps a progression mod p and GF(31^2)
    # reads raw rows
    spec = FieldSpec(p, k)
    q = spec.q
    rng = random.Random(q)
    pairs = [(0, 0), (0, q - 1), (1, 0), (q - 1, 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(12)]
    for a, b in pairs:
        row = spec.line_codes(a, b)
        assert row == [spec._add_raw(spec._mul_raw(a, x), spec._neg_raw(b)) for x in range(q)]
        # a low bound computes the entries from x = low only
        for low in (1, rng.randrange(q), q - 1, q):
            assert spec.line_codes(a, b, low) == row[low:]
