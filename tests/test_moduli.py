import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from operator import itemgetter
from unittest import mock

import pytest

from friezes import (
    Configuration,
    FieldSpec,
    FirstRow,
    FirstRowClass,
    Mat2,
    NotLiftable,
    OddN,
    ProjPoint,
    SignClass,
    configuration_to_frieze,
    enumerate_configurations,
    frieze_to_configuration,
    lift_configuration,
    matrix_criterion,
    pgl2_orbit_count,
    sign_class,
)
from friezes.errors import BudgetExceeded, CriterionFails, OddNWithSignFilter
from friezes.formulas import (
    count_configurations,
    count_friezes,
    count_moduli,
    count_moduli_plus,
    count_signed_configurations,
)
from friezes import moduli
from friezes.gf import pgl2_point_permutations
from friezes.moduli import (
    _det_table,
    _sign_products,
    configuration_index_tuples,
    count_configuration_tuples,
    count_pgl2_orbits,
    orbit_of,
    parse_points,
)
from friezes.search import enumerate_friezes

from helpers import (
    PRIME_POWERS_LE_9,
    element_configuration_to_frieze,
    field_by_q,
    holds_square_tables,
    keyed_orbit_count,
    without_op_tables,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)


def config(spec, indices):
    return Configuration.from_indices(spec, indices)


def test_configuration_validation():
    config(F2, (0, 1, 2))
    with pytest.raises(ValueError):
        config(F2, (0, 0, 1))
    with pytest.raises(ValueError):
        config(F2, (0, 1, 0, 1, 0))  # wrap-around adjacency, odd n


def test_configuration_counts_small():
    assert sum(1 for _ in enumerate_configurations(F2, 3)) == 6
    assert sum(1 for _ in enumerate_configurations(F2, 4)) == 18


def test_configuration_counts_match_closed_form():
    for spec in (F2, F3, F4):
        for n in range(2, 7):
            got = sum(1 for _ in configuration_index_tuples(spec, n))
            assert got == count_configurations(spec.q, n)


def test_signed_counts_match_recursion():
    for spec in (F2, F3, F4, F5):
        for n in (2, 4, 6):
            expected = count_signed_configurations(spec.q, spec.char_is_2, n)
            plus = sum(1 for _ in configuration_index_tuples(spec, n, "plus"))
            minus = sum(1 for _ in configuration_index_tuples(spec, n, "minus"))
            assert (plus, minus) == expected


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_stream_matches_filtered_product(q):
    # the stream walks a prefix and finishes it from tail tables; the
    # reference is the lex-ordered product filtered tuple by tuple
    spec = field_by_q(q)
    n = 2
    while (q + 1) ** n <= 2 * 10**5:
        reference = [
            t
            for t in itertools.product(range(q + 1), repeat=n)
            if all(t[i] != t[(i + 1) % n] for i in range(n))
        ]
        assert list(configuration_index_tuples(spec, n)) == reference
        if n % 2 == 0:
            products = [_sign_products(spec, t) for t in reference]
            for sign, other in (("plus", lambda p: p), ("minus", spec.neg_code)):
                expected = [
                    t for t, (podd, peven, _) in zip(reference, products)
                    if podd == other(peven)
                ]
                assert list(configuration_index_tuples(spec, n, sign)) == expected
        n += 1


def _random_path(spec, length, rng):
    """length random point indices, each distinct from the one before."""
    q1 = spec.q + 1
    t = [rng.randrange(q1)]
    while len(t) < length:
        t.append((t[-1] + rng.randrange(1, q1)) % q1)
    return t


def test_sign_class_matches_det_table_products():
    # sign_class reads _det once per edge; the reference multiplies entries
    # of the full table, twisting the closing edge by hand.  Each random
    # prefix is closed by every admissible last point, so every class occurs.
    for spec in (FieldSpec(2, 8), FieldSpec(257)):
        dets, mul, neg = _det_table(spec), spec.mul_code, spec.neg_code
        rng = random.Random(spec.q)
        seen = Counter()
        for n in (2, 4, 6, 8):
            for _ in range(5):
                prefix = _random_path(spec, n - 1, rng)
                for last in range(spec.q + 1):
                    t = (*prefix, last)
                    if last in (t[0], t[-2]):
                        continue
                    d = [dets[t[i]][t[i + 1]] for i in range(n - 1)]
                    d.append(neg(dets[t[n - 1]][t[0]]))
                    podd = peven = 1
                    for x in d[::2]:
                        podd = mul(podd, x)
                    for x in d[1::2]:
                        peven = mul(peven, x)
                    assert _sign_products(spec, t) == (podd, peven, d)
                    expected = (
                        SignClass.PLUS if podd == peven
                        else SignClass.MINUS if podd == neg(peven)
                        else SignClass.OTHER
                    )
                    assert sign_class(config(spec, t)) == expected
                    seen[expected] += 1
        assert seen[SignClass.PLUS] and seen[SignClass.OTHER]
        assert bool(seen[SignClass.MINUS]) == (not spec.char_is_2)


def test_stream_counts_on_large_fields():
    # GF(64) n = 3 joins 2-point prefixes, their second point expanded
    # lazily, to 1-point tails; GF(256) n = 2 joins 1-point prefixes to
    # tails grouped by sign ratio, and so does GF(17^2), above
    # gf.TABLE_LIMIT, from op tables built on first use.  Each table entry
    # is built only for the (last, first) keys visited.
    f64 = FieldSpec(2, 6)
    got = sum(1 for _ in configuration_index_tuples(f64, 3))
    assert got == count_configurations(64, 3)
    for spec in (FieldSpec(2, 8), FieldSpec(17, 2)):
        plus = sum(1 for _ in configuration_index_tuples(spec, 2, "plus"))
        minus = sum(1 for _ in configuration_index_tuples(spec, 2, "minus"))
        assert (plus, minus) == count_signed_configurations(spec.q, spec.char_is_2, 2)


def test_unsigned_stream_memory_stays_near_c_n_over_q():
    # the tail table holds about |C_n|/q tails and no list holds every
    # prefix; a table holding all of C_4 over GF(31) would trace about 8 MB
    for spec, n in ((FieldSpec(31), 4), (FieldSpec(13), 5)):
        tracemalloc.start()
        try:
            got = sum(1 for _ in configuration_index_tuples(spec, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == count_configurations(spec.q, n)
        assert peak < 2 * 2**20, (spec.q, n, peak)


def test_stream_errors_wait_for_the_first_next():
    # the call returns a stream; arguments and budget are checked on next()
    for args, kwargs, error in (
        ((F3, 3, "plus"), {}, OddNWithSignFilter),
        ((F3, 1), {}, ValueError),
        ((F3, 4, "none"), {}, ValueError),
        ((F3, 5), {"budget": 100}, BudgetExceeded),
    ):
        stream = configuration_index_tuples(*args, **kwargs)
        with pytest.raises(error):
            next(stream)


def test_sign_filter_requires_even_n():
    with pytest.raises(OddNWithSignFilter):
        list(configuration_index_tuples(F3, 5, "plus"))


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        list(configuration_index_tuples(F3, 5, budget=100))
    # (q+1)^n = 3^100000 is above the budget by its exponent alone; it is
    # neither built nor printed
    for call in (
        lambda: next(configuration_index_tuples(F2, 10**5)),
        lambda: pgl2_orbit_count(F2, 10**5),
    ):
        with pytest.raises(BudgetExceeded) as info:
            call()
        assert len(str(info.value)) < 200


def test_signed_walk_inverts_each_code_once():
    # GF(257) has no op tables at construction, and there each inv_code call
    # is a pow_code; the walk calls none, as it reads the inv table that
    # FieldSpec._op_tables builds on first use, one inverse per code
    spec = FieldSpec(257)
    counts = count_signed_configurations(spec.q, spec.char_is_2, 2)
    for sign, expected in (("plus", counts.plus), ("minus", counts.minus)):
        with mock.patch.object(
            FieldSpec, "inv_code", autospec=True, side_effect=FieldSpec.inv_code
        ) as inv:
            got = sum(1 for _ in configuration_index_tuples(spec, 2, sign))
        assert inv.call_count == 0
        assert got == expected


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_signed_walk_without_op_tables_matches_the_tables(q, monkeypatch):
    # as above gf.LAZY_TABLE_LIMIT: mul is raw rows, and the det tables are
    # built per walk, not kept per spec
    tabled = field_by_q(q)
    walks = [(n, sign) for n in (2, 4) for sign in ("plus", "minus")]
    expected = [list(configuration_index_tuples(tabled, n, sign)) for n, sign in walks]
    orbits = pgl2_orbit_count(tabled, 4, "plus").count
    without_op_tables(monkeypatch)
    moduli._ratio_tables.cache_clear()
    spec = FieldSpec(tabled.p, tabled.k)
    got = [list(configuration_index_tuples(spec, n, sign)) for n, sign in walks]
    assert got == expected
    assert pgl2_orbit_count(spec, 4, "plus").count == orbits
    assert moduli._ratio_tables.cache_info().currsize == 0
    assert not holds_square_tables(spec)


def test_signed_walks_build_the_det_table_once_per_spec():
    moduli._ratio_tables.cache_clear()
    spec = FieldSpec(7)
    with mock.patch.object(moduli, "_det_table", side_effect=moduli._det_table) as build:
        for sign in ("plus", "minus"):
            list(configuration_index_tuples(spec, 4, sign))
        pgl2_orbit_count(FieldSpec(7), 4, "plus")
    assert build.call_count == 1


def test_sign_class_alternating():
    # (v1, v2, v1, v2): n = 4 has m even, excluded from the plus class
    alt4 = config(F3, (0, 1, 0, 1))
    assert sign_class(alt4) == SignClass.MINUS
    # n = 6 has m odd, included
    alt6 = config(F3, (0, 1, 0, 1, 0, 1))
    assert sign_class(alt6) == SignClass.PLUS
    # other ratio values exist once q > 3
    assert any(
        sign_class(Configuration.from_indices(F5, t)) == SignClass.OTHER
        for t in configuration_index_tuples(F5, 4)
    )


def test_sign_class_char2_plus_iff_minus():
    for spec in (F2, F4):
        for t in configuration_index_tuples(spec, 4):
            assert sign_class(Configuration.from_indices(spec, t)) != SignClass.MINUS
        plus = set(configuration_index_tuples(spec, 4, "plus"))
        minus = set(configuration_index_tuples(spec, 4, "minus"))
        assert plus == minus


def test_sign_counts_sum_to_c_n_only_for_tiny_fields():
    # with q <= 3 every unit is +-1, so the det ratio is always +-1 and the
    # two sign classes exhaust C_n; from q = 5 on the "other" class is real
    for spec, n in ((F3, 4), (F3, 6)):
        plus, minus = count_signed_configurations(spec.q, False, n)
        assert plus + minus == count_configurations(spec.q, n)
    plus, minus = count_signed_configurations(5, False, 4)
    assert plus + minus < count_configurations(5, 4)


def test_sign_class_odd_n_rejected():
    with pytest.raises(OddN):
        sign_class(config(F3, (0, 1, 2)))


def test_sign_class_is_pgl2_invariant_exhaustive():
    perms = pgl2_point_permutations(F3)
    for t in configuration_index_tuples(F3, 4):
        value = sign_class(Configuration.from_indices(F3, t))
        for perm in perms:
            image = tuple(perm[i] for i in t)
            assert sign_class(Configuration.from_indices(F3, image)) == value


def test_orbit_counts_match_closed_forms():
    assert pgl2_orbit_count(F2, 5).count == 5
    assert pgl2_orbit_count(F2, 4).count == 3
    assert pgl2_orbit_count(F3, 4, "plus").count == 1
    for spec in (F2, F3):
        for n in range(2, 7):
            assert pgl2_orbit_count(spec, n).count == count_moduli(spec.q, n)
    for spec in (F2, F3, F4):
        for m in (1, 2, 3):
            got = pgl2_orbit_count(spec, 2 * m, "plus").count
            assert got == count_moduli_plus(spec.q, spec.char_is_2, m)
    for q in (4, 5, 7, 8, 9):
        spec = field_by_q(q)
        for n in range(2, 6):
            assert pgl2_orbit_count(spec, n).count == count_moduli(q, n)
        got = pgl2_orbit_count(spec, 4, "plus").count
        assert got == count_moduli_plus(q, spec.char_is_2, 2)


def test_orbit_key_matches_group_scan():
    # the reference is the lexicographically smallest image over the whole
    # group, which the library finds by sharp 3-transitivity instead; the
    # scan's value is the same for every member of an orbit, so it runs once
    # per orbit and is looked up for the other members
    for q, max_n in ((2, 5), (3, 5), (4, 5), (5, 5), (7, 5), (8, 4), (9, 4)):
        spec = field_by_q(q)
        perms = pgl2_point_permutations(spec)
        for n in range(2, max_n + 1):
            scan_min = {}
            two_point = 0
            for t in configuration_index_tuples(spec, n):
                if t not in scan_min:
                    images = {tuple(perm[i] for i in t) for perm in perms}
                    scan_min.update(dict.fromkeys(images, min(images)))
                two_point += len(set(t)) == 2
                assert orbit_of(Configuration.from_indices(spec, t)) == scan_min[t]
            assert two_point == (q + 1) * q * (n % 2 == 0)
            reference = Counter(scan_min.values())
            summary = pgl2_orbit_count(spec, n)
            assert [rep.indices for rep in summary.representatives] == sorted(reference)
            assert list(summary.sizes) == [reference[rep] for rep in sorted(reference)]


def _random_configuration(rng, q, n):
    while True:
        t = [rng.randrange(q + 1)]
        for _ in range(n - 1):
            t.append(rng.choice([v for v in range(q + 1) if v != t[-1]]))
        if t[-1] != t[0]:
            return tuple(t)


def _random_invertible(rng, spec):
    while True:
        g = Mat2.from_codes(spec, [rng.randrange(spec.q) for _ in range(4)])
        if g.det().code:
            return g


@pytest.mark.parametrize("p, k", [(2, 4), (3, 3), (7, 2), (2, 6)])
def test_orbit_key_invariant_on_larger_fields(p, k):
    # beyond the group scan: the key is constant on orbits, with the group
    # acting through Mat2.act rather than the key's own Mobius maps, and it
    # has the shape sharp 3-transitivity forces
    spec = FieldSpec(p, k)
    q = spec.q
    rng = random.Random(1000 * q + 13)
    keys = {}
    for _ in range(60):
        t = _random_configuration(rng, q, rng.randint(3, 8))
        g = _random_invertible(rng, spec)
        moved = tuple(g.act(ProjPoint.from_index(spec, i)).index for i in t)
        key = orbit_of(config(spec, t))
        assert orbit_of(config(spec, moved)) == key
        assert key[:2] == (0, 1)
        assert next((i for i in key if i > 1), 2) == 2
        keys[t] = key
    for t, key in keys.items():  # a second call gives the same key
        assert orbit_of(config(spec, t)) == key


def test_orbit_sizes():
    # every orbit with >= 3 distinct points has size q^3 - q; for even n the
    # unique orbit of two-point configurations has size q(q+1) instead
    # (which coincides with q^3 - q when q = 2)
    for spec in (F2, F3):
        full = spec.q**3 - spec.q
        for n in (4, 5, 6):
            summary = pgl2_orbit_count(spec, n)
            two_point = [
                size
                for rep, size in zip(summary.representatives, summary.sizes)
                if len(set(rep.indices)) == 2
            ]
            generic = [
                size
                for rep, size in zip(summary.representatives, summary.sizes)
                if len(set(rep.indices)) >= 3
            ]
            assert all(size == full for size in generic)
            if n % 2 == 0:
                assert two_point == [spec.q * (spec.q + 1)]
            else:
                assert two_point == []


def test_lift_exists_for_odd_n():
    for spec in (F2, F3, F5):
        for t in itertools.islice(configuration_index_tuples(spec, 5), 50):
            lift = lift_configuration(Configuration.from_indices(spec, t))
            dets = lift.consecutive_determinants()
            assert len(set(dets)) == 1
            assert dets[0].code != 0


def test_lift_specific_triple_projects_back():
    from friezes.gf import ProjPoint

    # points 0, 1, inf over F_3
    cfg = parse_points(F3, ["0", "1", "inf"])
    lift = lift_configuration(cfg)
    dets = lift.consecutive_determinants()
    assert len(set(dets)) == 1 and dets[0].code != 0
    for (x, y), point in zip(lift.vectors, cfg.points):
        assert ProjPoint(x, y) == point


def _same_lift_outcome(spec, t):
    """configuration_to_frieze and the FieldElement oracle give the same row
    or class, or both raise NotLiftable; returns whether t was liftable."""
    try:
        expected = element_configuration_to_frieze(spec, t)
    except NotLiftable:
        with pytest.raises(NotLiftable):
            configuration_to_frieze(config(spec, t))
        return False
    assert configuration_to_frieze(config(spec, t)) == expected
    return True


@pytest.mark.parametrize("q", PRIME_POWERS_LE_9)
def test_code_lift_matches_element_oracle(q):
    spec = field_by_q(q)
    n = 3
    while (q + 1) ** n <= 2 * 10**4:
        lifted = [_same_lift_outcome(spec, t) for t in configuration_index_tuples(spec, n)]
        if n % 2 == 0:
            assert sum(lifted) == sum(1 for _ in configuration_index_tuples(spec, n, "plus"))
        else:
            assert all(lifted)
        n += 1


def test_code_lift_matches_element_oracle_on_large_fields():
    # odd n: random configurations; even n: random prefixes closed by every
    # admissible last point, so the plus class and NotLiftable both occur
    for spec in (FieldSpec(2, 8), FieldSpec(257)):
        rng = random.Random(spec.q)
        for n in (3, 5, 7, 9):
            for _ in range(30):
                t = _random_path(spec, n, rng)
                if t[-1] != t[0]:
                    assert _same_lift_outcome(spec, tuple(t))
        for n in (4, 6, 8):
            prefix = _random_path(spec, n - 1, rng)
            lifted = [
                _same_lift_outcome(spec, (*prefix, last))
                for last in range(spec.q + 1)
                if last not in (prefix[0], prefix[-1])
            ]
            assert any(lifted) and not all(lifted)


def test_even_minus_class_not_liftable():
    with pytest.raises(NotLiftable):
        lift_configuration(config(F3, (0, 1, 0, 1)))


def test_configuration_to_frieze_constant_on_orbits_odd_n():
    for spec in (F2, F3):
        perms = pgl2_point_permutations(spec)
        rows_by_orbit = {}
        for t in configuration_index_tuples(spec, 5):
            row = configuration_to_frieze(Configuration.from_indices(spec, t))
            key = min(tuple(perm[i] for i in t) for perm in perms)
            rows_by_orbit.setdefault(key, set()).add(row.codes)
        assert all(len(v) == 1 for v in rows_by_orbit.values())
        # distinct orbits give distinct rows, and the count matches both
        # the moduli count and the frieze count at width n - 3
        rows = {next(iter(v)) for v in rows_by_orbit.values()}
        assert len(rows) == len(rows_by_orbit) == count_moduli(spec.q, 5)
        assert len(rows) == count_friezes(spec.q, spec.char_is_2, 2)


def test_alternating_configuration_gives_zero_row():
    out = configuration_to_frieze(config(F3, (0, 1, 0, 1, 0, 1)))
    assert isinstance(out, FirstRowClass)
    assert out.rep.codes == (0, 0, 0, 0, 0, 0)


def test_mapped_rows_satisfy_criterion():
    for t in itertools.islice(configuration_index_tuples(F3, 6, "plus"), 100):
        out = configuration_to_frieze(Configuration.from_indices(F3, t))
        assert matrix_criterion(out.rep)[0]


def test_frieze_to_configuration_width0():
    cfg = frieze_to_configuration(FirstRow.from_codes(F2, (1, 1, 1)))
    assert sorted(p.index for p in cfg.points) == [0, 1, 2]


def test_frieze_to_configuration_zero_row():
    cfg = frieze_to_configuration(FirstRow.from_codes(F3, (0,) * 6))
    assert len(set(cfg.indices)) == 2
    assert cfg.indices[0] == cfg.indices[2] == cfg.indices[4]


def test_frieze_to_configuration_rejects_bad_rows():
    with pytest.raises(CriterionFails):
        frieze_to_configuration(FirstRow.from_codes(F3, (1, 1, 1, 1)))


def test_round_trip_all_friezes_q2():
    for w in (1, 2, 3):
        n = w + 3
        for t in enumerate_friezes(F2, w).tuples:
            row = FirstRow.from_codes(F2, t)
            back = configuration_to_frieze(frieze_to_configuration(row))
            if n % 2:
                assert back == row
            else:
                assert isinstance(back, FirstRowClass) and row in back


def test_round_trip_orbit_representatives():
    for spec in (F2, F3):
        for n in (4, 5, 6):
            sign = "plus" if n % 2 == 0 else "all"
            for rep in pgl2_orbit_count(spec, n, sign).representatives:
                out = configuration_to_frieze(rep)
                row = out.rep if isinstance(out, FirstRowClass) else out
                assert orbit_of(frieze_to_configuration(row)) == orbit_of(rep)


def test_even_width_frieze_count_reconstructed_from_orbits():
    # each plus-class orbit contributes q-1 rows, except the zero class
    # which contributes exactly one
    for spec in (F2, F3, F4):
        for n in (4, 6):
            summary = pgl2_orbit_count(spec, n, "plus")
            reps = [configuration_to_frieze(c).rep.codes for c in summary.representatives]
            zero_classes = sum(1 for codes in reps if set(codes) == {0})
            assert len(set(reps)) == summary.count  # distinct classes per orbit
            reconstructed = (spec.q - 1) * (summary.count - zero_classes) + zero_classes
            assert reconstructed == count_friezes(spec.q, spec.char_is_2, n - 3)


def test_rescaling_class_members():
    cls = FirstRowClass.of(FirstRow.from_codes(F5, (1, 4, 4, 3)))
    members = cls.members()
    assert len(members) == 4  # q - 1 distinct rescalings when the row is nonzero
    assert cls.rep == min(members, key=lambda r: r.codes)
    assert all(m in cls for m in members)
    zero_cls = FirstRowClass.of(FirstRow.from_codes(F5, (0, 0, 0, 0)))
    assert len(zero_cls.members()) == 1


def test_parse_points_rejects_codes_outside_the_field():
    # prime fields used to reduce codes modulo p; every field now rejects them
    for spec, label in ((F5, "7"), (F5, "5"), (F5, "-1"), (F4, "4"), (F4, "9")):
        with pytest.raises(ValueError, match="out of range"):
            parse_points(spec, ["0", label, "inf"])
    assert parse_points(F5, ["0", "4", "inf"]).indices == (0, 4, 5)


@pytest.mark.parametrize("label", ["", "INF", "x", "1.0"])
def test_parse_points_names_a_bad_label(label):
    with pytest.raises(ValueError) as info:
        parse_points(F5, ["0", label, "inf"])
    assert str(info.value) == f"bad point label {label!r}: labels are element codes or inf"


def test_configuration_to_frieze_needs_three_points():
    for t in ((0, 1), (1, 3)):
        with pytest.raises(ValueError, match="needs at least 3 points"):
            configuration_to_frieze(Configuration.from_indices(F3, t))


def test_orbit_summary_json():
    import json

    from friezes.moduli import orbit_summary_to_json_dict

    summary = pgl2_orbit_count(F2, 4)
    doc = json.loads(json.dumps(orbit_summary_to_json_dict(summary)))
    assert doc["field"] == "2" and doc["n"] == 4 and doc["count"] == 3
    assert sum(o["size"] for o in doc["orbits"]) == count_configurations(2, 4)
    for orbit in doc["orbits"]:
        parse_points(F2, orbit["rep"])  # labels parse back


def test_configuration_labels_round_trip():
    cfg = config(F4, (0, 2, 4, 1))
    assert cfg.labels() == ["0", "2", "inf", "1"]
    assert str(cfg) == "(0,a,inf,1)"
    assert parse_points(F4, cfg.labels()).indices == (0, 2, 4, 1)


def test_configuration_rejects_indices_outside_the_line():
    for spec, indices in (
        (F5, (0, 6)), (F5, (-1, 0)), (F4, (0, 5, 1)), (F5, (True, 0)), (F5, (1.0, 0))
    ):
        with pytest.raises(ValueError, match="out of range"):
            Configuration(spec, indices)
    with pytest.raises(ValueError, match="out of range"):
        Configuration(F5, (ProjPoint.from_index(F5, 0), ProjPoint.from_index(F5, 1)))
    points = Configuration(F5, (2, 5)).points
    assert points == (ProjPoint(F5.element(2), F5.one), ProjPoint(F5.one, F5.zero))
    assert [str(p) for p in points] == ["2", "inf"]


def test_frieze_points_match_the_vector_recursion():
    # V_i = a_i V_{i-1} - V_{i-2} from V_{-1} = (-1, 0), V_0 = (0, 1), in
    # FieldElement arithmetic, projected by ProjPoint
    for spec in (F2, F3, F4, F5):
        for w in (1, 2, 3):
            for t in enumerate_friezes(spec, w).tuples:
                one, zero = spec.one, spec.zero
                prev2, prev, points = (-one, zero), (zero, one), []
                for a in map(spec.element, t):
                    cur = (a * prev[0] - prev2[0], a * prev[1] - prev2[1])
                    points.append(ProjPoint(*cur))
                    prev2, prev = prev, cur
                cfg = frieze_to_configuration(FirstRow(spec, t))
                assert cfg.points == tuple(points)
                assert cfg.indices == tuple(p.index for p in points)


def test_orbit_key_matches_group_scan_on_gf27():
    # the smallest image over all q^3 - q = 19656 elements of PGL2(27), on
    # random tuples whose triples are almost all distinct
    spec = FieldSpec(3, 3)
    perms = pgl2_point_permutations(spec)
    rng = random.Random(27)
    for _ in range(100):
        t = _random_configuration(rng, 27, rng.randint(3, 7))
        assert orbit_of(config(spec, t)) == min(map(itemgetter(*t), perms))


@pytest.mark.parametrize("p, k", [(2, 8), (257, 1)])
def test_orbit_key_invariant_under_mobius_maps_on_gf256_and_gf257(p, k):
    spec = FieldSpec(p, k)
    rng = random.Random(spec.q)
    for _ in range(40):
        t = _random_configuration(rng, spec.q, rng.randint(3, 8))
        g = _random_invertible(rng, spec)
        moved = tuple(g.act(ProjPoint.from_index(spec, i)).index for i in t)
        key = orbit_of(config(spec, t))
        assert orbit_of(config(spec, moved)) == key
        assert orbit_of(config(spec, key)) == key


ORACLE_CASES = [
    (q, n, sign)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    for n in range(2, 20)
    if (q + 1) ** n <= 2 * 10**5
    for sign in (("all", "plus", "minus") if n % 2 == 0 else ("all",))
]


def test_orbit_walk_matches_the_keyed_count():
    # the keyed count visits all of C_n and keys every configuration
    assert len(ORACLE_CASES) == 103
    for q, n, sign in ORACLE_CASES:
        summary = pgl2_orbit_count(field_by_q(q), n, sign)
        reps, sizes = keyed_orbit_count(field_by_q(q), n, sign)
        assert [rep.indices for rep in summary.representatives] == reps, (q, n, sign)
        assert list(summary.sizes) == sizes, (q, n, sign)
        assert summary.count == len(reps)


def test_key_count_equals_the_orbit_count():
    # verify --which moduli counts the keys without building the summary
    for q, n, sign in ORACLE_CASES:
        spec = field_by_q(q)
        assert count_pgl2_orbits(spec, n, sign) == pgl2_orbit_count(spec, n, sign).count


# each argument list is bad in more than one way, so the first check that
# fires shows the order
REFUSED_COUNTS = (
    ((F3, 1, "none"), {"budget": 1}),
    ((F3, 3, "plus"), {"budget": 1}),
    ((F3, 1), {"budget": 1}),
    ((F3, 5), {"budget": 100}),
    ((F2, 10**5), {}),
)


def test_key_count_refuses_what_the_orbit_count_refuses():
    for args, kwargs in REFUSED_COUNTS:
        errors = []
        for count in (count_pgl2_orbits, pgl2_orbit_count):
            with pytest.raises((ValueError, OddNWithSignFilter, BudgetExceeded)) as info:
                count(*args, **kwargs)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], args


def test_tuple_count_equals_the_stream():
    # verify --which moduli counts C_n and its sign classes without a tuple
    for q, n, sign in ORACLE_CASES:
        spec = field_by_q(q)
        got = count_configuration_tuples(spec, n, sign)
        assert got == sum(1 for _ in configuration_index_tuples(spec, n, sign)), (q, n, sign)
        if sign == "all":
            assert got == count_configurations(q, n)
        else:
            signed = count_signed_configurations(q, spec.char_is_2, n)
            assert got == getattr(signed, sign), (q, n, sign)


def test_tuple_count_reaches_beyond_the_stream():
    # |C_16| over GF(3) is about 4.3 * 10^7 tuples; the count walks 8748
    # prefixes and sums their tail counts
    budget = 10**10
    assert count_configuration_tuples(F3, 16, budget=budget) == count_configurations(3, 16)
    signed = count_signed_configurations(3, False, 16)
    for sign in ("plus", "minus"):
        assert count_configuration_tuples(F3, 16, sign, budget) == getattr(signed, sign)


def test_tuple_count_refuses_what_the_stream_refuses():
    def stream(*args, **kwargs):
        return list(configuration_index_tuples(*args, **kwargs))

    for args, kwargs in REFUSED_COUNTS:
        errors = []
        for count in (count_configuration_tuples, stream):
            with pytest.raises((ValueError, OddNWithSignFilter, BudgetExceeded)) as info:
                count(*args, **kwargs)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], args


def test_walked_configurations_equal_checked_ones():
    # pgl2_orbit_count and enumerate_configurations build their
    # Configurations without the checks
    for q, n, sign in ORACLE_CASES:
        spec = field_by_q(q)
        walked = pgl2_orbit_count(spec, n, sign).representatives
        for c in itertools.chain(walked, enumerate_configurations(spec, n, sign)):
            assert Configuration.from_indices(spec, c.indices) == c, (q, n, sign)


@pytest.mark.parametrize("q, indices", [(3, (0, 1, 3)), (5, (2, 5, 0, 5, 1, 4))])
def test_trusted_configuration_is_the_checked_one(q, indices):
    spec = field_by_q(q)
    trusted = Configuration._trusted(spec, indices)
    checked = Configuration.from_indices(spec, indices)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.indices = (0, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del trusted.spec
    assert trusted.indices == indices and trusted.spec is spec


def test_orbit_representatives_are_their_own_keys():
    # the walked cross-section is made of fixed points of the key that
    # map --to frieze compares, in strictly increasing order
    for q, n, sign in ORACLE_CASES:
        reps = [rep.indices for rep in pgl2_orbit_count(field_by_q(q), n, sign).representatives]
        assert all(a < b for a, b in zip(reps, reps[1:])), (q, n, sign)
        for rep in reps:
            assert orbit_of(config(field_by_q(q), rep)) == rep
