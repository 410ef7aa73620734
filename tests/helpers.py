"""Shared fixtures-in-spirit for the test suite: the small fields everything
runs over, the per-diagonal frieze construction and the extended-entry
formulas that check the row recursion and the tameness diamonds, the
exhaustive field-axiom check reused by the acceptance suite, trial division
that checks the irreducibility test, the Möbius maps and 2x2 code products
that check the point permutations, the row products and the orbit keys, the
keyed PGL2 orbit count that checks the library's cross-section walk, the
full row search that checks the min-first frieze catalog, the per-leaf naive
completion that checks the fused one, the flat mitm table that checks the
per-parent one, the per-code text catalog that checks its rendering, the
FieldElement lift that checks the code-native configuration_to_frieze, the
restricted-growth string walk that checks the cyclic-partition counts, and
the per-tuple point count that checks the per-block tally."""

import itertools
from collections import Counter, defaultdict
from functools import cache

from friezes import FieldSpec, FirstRow, FirstRowClass, Frieze, NotAFrieze, gf, matrix_criterion
from friezes.errors import NotLiftable
from friezes.frieze import row_products
from friezes.gf import Mat2
from friezes.moduli import configuration_index_tuples
from friezes.partitions import _rgs_strings
from friezes.search import _alphabet

PRIME_POWERS_LE_9 = (2, 3, 4, 5, 7, 8, 9)


def without_op_tables(monkeypatch, limit: int = 1) -> None:
    """Make every FieldSpec built afterwards with q > limit do without q x q
    op tables, as the fields above gf.LAZY_TABLE_LIMIT do: its code ops run
    raw, and FieldSpec._op_tables hands out the O(q) raw rows."""
    monkeypatch.setattr(gf, "TABLE_LIMIT", min(limit, gf.TABLE_LIMIT))
    monkeypatch.setattr(gf, "LAZY_TABLE_LIMIT", limit)


def holds_square_tables(spec: FieldSpec) -> bool:
    """Whether the spec holds q x q op-table lists, not yet-unbuilt slots or
    the O(q) rows that FieldSpec._op_tables builds above gf.LAZY_TABLE_LIMIT."""
    return type(spec._mul) is list and type(spec._mul[0]) is list


_SPEC_ARGS = {
    2: (2, 1),
    3: (3, 1),
    4: (2, 2),
    5: (5, 1),
    7: (7, 1),
    8: (2, 3),
    9: (3, 2),
    11: (11, 1),
    13: (13, 1),
    16: (2, 4),
}

_CACHE: dict[int, FieldSpec] = {}


def field_by_q(q: int) -> FieldSpec:
    if q not in _CACHE:
        p, k = _SPEC_ARGS[q]
        _CACHE[q] = FieldSpec(p, k)
    return _CACHE[q]


def all_small_fields() -> list[FieldSpec]:
    return [field_by_q(q) for q in PRIME_POWERS_LE_9]


def assert_field_axioms(spec: FieldSpec):
    """Exhaustive field axioms over all pairs and triples of codes."""
    q = spec.q
    add, mul, neg, inv = spec.add_code, spec.mul_code, spec.neg_code, spec.inv_code
    codes = range(q)
    for a in codes:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert mul(a, 0) == 0
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, inv(a)) == 1
        assert spec.pow_code(a, q) == a  # Frobenius: a^q = a
    for a in codes:
        for b in codes:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a in codes:
        for b in codes:
            for c in codes:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def frieze_by_diagonals(row: FirstRow) -> Frieze | NotAFrieze:
    """The frieze of a first row built one diagonal at a time: diagonal c is
    the p00 column of row_products read from a_c, and a row whose diagonals
    do not close up is rejected with the full product M(a_{n-1}) ... M(a_0).
    frieze_from_first_row builds whole rows by the recursion instead."""
    spec, codes, n = row.spec, row.codes, row.n
    w = n - 3
    diagonals = [
        [0, 1] + [p[0] for p in row_products(spec, (codes[c:] + codes[:c])[:-1])]
        for c in range(n)
    ]
    if any(d[w + 2] != 1 or d[w + 3] != 0 for d in diagonals):
        return NotAFrieze(row, Mat2.from_codes(spec, row_products(spec, codes)[-1]))
    return Frieze(row, {r: tuple(d[r + 1] for d in diagonals) for r in range(-1, w + 3)})


def extended_entry(f: Frieze, r: int, c: int) -> int:
    """Entry code of the doubly extended array, rows -3 .. w+4, one entry at
    a time: rows -2 and w+3 are all -1, and rows -3 and w+4 are the negated
    first row, shifted, as the recursion forces them.  check_tame builds the
    extra rows whole."""
    w, n, spec, codes = f.width, f.n, f.spec, f.first_row.codes
    if -1 <= r <= w + 2:
        return f.entry_code(r, c)
    if r in (-2, w + 3):
        return spec.neg_code(1)
    if r == -3:
        return spec.neg_code(codes[(c - 2) % n])
    if r == w + 4:
        return spec.neg_code(codes[(c + w + 3) % n])
    raise IndexError(f"row {r} outside the extended range")


def extended_diamond(f: Frieze, r: int, c: int) -> tuple[tuple[int, int, int], ...]:
    """The 3x3 diamond centred at (r, c) of the extended array, as matrix
    rows (a b c / d e f / g h i), read entry by entry."""
    e = extended_entry
    return (
        (e(f, r, c - 1), e(f, r - 1, c), e(f, r - 2, c + 1)),
        (e(f, r + 1, c - 1), e(f, r, c), e(f, r - 1, c + 1)),
        (e(f, r + 2, c - 1), e(f, r + 1, c), e(f, r, c + 1)),
    )


def trial_division_irreducible(m, p: int) -> bool:
    """Whether the monic m (constant term first) has no monic divisor of
    degree 1..deg(m)//2 over F_p, trying every one."""
    for d in range(1, (len(m) - 1) // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(gf._poly_rem(m, list(low) + [1], p)):
                return False
    return True


def moebius_image(spec: FieldSpec, codes, i: int) -> int:
    """Point i under [[a, b], [c, d]] on the affine coordinate,
    (a i + b) / (c i + d), with inf -> a / c and a zero denominator -> inf."""
    a, b, c, d = codes
    q, mul, add = spec.q, spec.mul_code, spec.add_code
    num, den = (a, c) if i == q else (add(mul(a, i), b), add(mul(c, i), d))
    return mul(num, spec.inv_code(den)) if den else q


def mat_mul_codes(spec: FieldSpec, m, n) -> tuple[int, int, int, int]:
    """The product m n of two 2x2 matrices given as row-major code 4-tuples."""
    (a, b, c, d), (e, f, g, h) = m, n
    mul, add = spec.mul_code, spec.add_code
    return (
        add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)),
    )


def pgl2_code_matrices(spec: FieldSpec) -> list[tuple[int, int, int, int]]:
    """One invertible code 4-tuple per scalar class, the one whose first
    nonzero entry is 1: q^3 - q of them, filtered from all q^4 tuples."""
    mul, q = spec.mul_code, spec.q
    return [
        m for m in itertools.product(range(q), repeat=4)
        if mul(m[0], m[3]) != mul(m[1], m[2]) and next(filter(None, m)) == 1
    ]


def random_moebius_move(rng, spec: FieldSpec, t):
    """The point indices t moved by one random invertible matrix."""
    while True:
        g = [rng.randrange(spec.q) for _ in range(4)]
        if spec.mul_code(g[0], g[3]) != spec.mul_code(g[1], g[2]):
            return tuple(moebius_image(spec, g, i) for i in t)


@cache
def _permutation_key(spec: FieldSpec):
    """The orbit key of moduli.orbit_of, made another way: the
    point permutation of the Möbius map taking the triple (a, b, c) to the
    indices (0, 1, 2) is built once per triple and field, over all q + 1
    points, and every key with that triple reads the tuple through it."""
    q = spec.q
    mul, add, sub, inv = spec.mul_code, spec.add_code, spec.sub_code, spec.inv_code
    k00, k10, k11 = (2, 1, sub(2, 1)) if q > 2 else (1, 0, 1)
    vec = [(i, 1) for i in range(q)] + [(1, 0)]
    perms = {}

    def det(u, v):
        return sub(mul(u[0], v[1]), mul(u[1], v[0]))

    def permutation(a, b, c):
        # h(v) = (det(v_b, v_c) det(v, v_a) : det(v_b, v_a) det(v, v_c)) sends
        # a, b, c to 0, 1, inf and k = [[z, 0], [1, z - 1]] sends inf to z
        va, vc = vec[a], vec[c]
        lam, mu = det(vec[b], vc), det(vec[b], va)
        x_a, y_a, y_c = mul(k00, lam), mul(k10, lam), mul(k11, mu)
        perm = []
        for v in vec:
            d_a, d_c = det(v, va), det(v, vc)
            y = add(mul(y_a, d_a), mul(y_c, d_c))
            perm.append(mul(mul(x_a, d_a), inv(y)) if y else q)
        return perm

    def key(tup):
        a, b = tup[0], tup[1]
        for c in tup:
            if c != a and c != b:
                perm = perms.get((a, b, c))
                if perm is None:
                    perm = perms[a, b, c] = permutation(a, b, c)
                return tuple([perm[i] for i in tup])
        return tuple([0 if i == a else 1 for i in tup])

    return key


def keyed_orbit_count(spec: FieldSpec, n: int, sign_filter: str = "all"):
    """The PGL2 orbits of C_n (or of a sign class) found by keying every
    configuration and counting the keys: the keys in lex order and the orbit
    sizes.  pgl2_orbit_count walks the keys without visiting the rest of C_n."""
    counter = Counter(
        map(_permutation_key(spec), configuration_index_tuples(spec, n, sign_filter, 10**9))
    )
    reps = sorted(counter)
    return reps, [counter[rep] for rep in reps]


def decode(rows) -> list[tuple[int, ...]]:
    """Search rows, strs of chr(code), as code tuples."""
    return [tuple(map(ord, row)) for row in rows]


def full_rows(spec: FieldSpec, width: int, strategy: str) -> list[tuple[int, ...]]:
    """Every first row of the given width, in lex order, with no min-first
    filter: every first code and every later code, the prefixes taken from
    itertools.product, their products from frieze.row_products and the
    forced entries solved in code ops.  enumerate_friezes searches only the
    rows whose first code is their smallest and rebuilds the rest from its
    orbits; this finds the rest independently, sharing no code with it."""
    n, q = width + 3, spec.q
    mul, add, sub, inv = spec.mul_code, spec.add_code, spec.sub_code, spec.inv_code
    neg = spec.neg_code
    codes = range(q)
    rows = []
    if strategy == "naive":
        # M(z) M(p00) M(y) = -P^(-1): y p00 = 1 + p10 and z = p11 - y p01
        for prefix in itertools.product(codes, repeat=n - 3):
            p00, p01, p10, p11 = row_products(spec, prefix)[-1]
            if p00:
                y = mul(add(1, p10), inv(p00))
                rows.append(prefix + (y, p00, sub(p11, mul(y, p01))))
            elif p10 == neg(1):
                rows += [prefix + (y, 0, sub(p11, mul(y, p01))) for y in codes]
        return rows
    # R L = [[0, -1], [1, -a_n]]: R's first row is (l10, -l00), and
    # a_n = -(r10 l01 + r11 l11)
    nl = n // 2
    table = defaultdict(list)
    for mid in itertools.product(codes, repeat=n - 1 - nl):
        r00, r01, r10, r11 = row_products(spec, mid)[-1]
        table[r00, r01].append((mid, r10, r11))
    for prefix in itertools.product(codes, repeat=nl):
        l00, l01, l10, l11 = row_products(spec, prefix)[-1]
        for mid, r10, r11 in table.get((l10, neg(l00)), ()):
            rows.append(prefix + mid + (neg(add(mul(r10, l01), mul(r11, l11))),))
    return rows


def naive_chunk_per_leaf(spec: FieldSpec, n: int, first: int) -> list[str]:
    """search._naive_chunk completed one leaf at a time: every prefix of
    length n - 3, a_1 = first and the rest from itertools.product over the
    codes >= first, each folded by row_products and solved on its own from
    its product P.  _naive_chunk completes the children of each family of
    length n - 4 in one loop and builds no leaf."""
    alphabet = _alphabet(spec.q)
    add, sub, mul, neg, inv = spec._op_tables()
    inc, neg1 = add[1], neg[1]
    out = []
    # M(z) M(p00) M(y) = -P^(-1) = [[-p11, p01], [p10, -p00]] needs
    # y p00 = 1 + p10 and gives z = p11 - y p01.  When p00 = 0 every y works
    # and the z are the row -p01 y + p11; only chunk 0 keeps those rows.
    for tail in itertools.product(range(first, spec.q), repeat=n - 4):
        codes = (first, *tail)
        p00, p01, p10, p11 = row_products(spec, codes)[-1]
        prefix = "".join(map(alphabet.__getitem__, codes))
        if p00 >= max(first, 1):
            y = mul[inc[p10]][inv[p00]]
            z = sub[p11][mul[y][p01]]
            if y >= first and z >= first:
                out.append(prefix + alphabet[y] + alphabet[p00] + alphabet[z])
        elif p10 == neg1 and not first:
            zs = spec.line_codes(neg[p01], neg[p11])
            out += [prefix + y + "\0" + alphabet[z] for y, z in zip(alphabet, zs)]
    return out


def flat_mitm_table(spec: FieldSpec, nr: int) -> dict:
    """search._mitm_table built one entry at a time: every middle of length
    nr from itertools.product, folded by row_products, keyed by
    r00 q + (-r01), with the entry (mid, -r10, -r11, min(mid)) negated and
    tagged on its own.  _mitm_table builds the q children of a family
    together from the family's rows."""
    q = spec.q
    alphabet = _alphabet(q)
    neg = spec._op_tables()[3]
    table = defaultdict(list)
    for codes in itertools.product(range(q), repeat=nr):
        r00, r01, r10, r11 = row_products(spec, codes)[-1]
        mid = "".join(map(alphabet.__getitem__, codes))
        table[r00 * q + neg[r01]].append((mid, neg[r10], neg[r11], min(codes)))
    return dict(table)


def per_code_catalog_text(result) -> str:
    """The text catalog rendered one representative at a time by
    FirstRow.__str__, one element_str call per code; search.catalog_orbits
    renders from one list of element strings per call instead."""
    lines = [
        f"field {result.spec.descriptor}  width {result.width}  "
        f"count {result.total_count}  orbits {len(result.orbits)}"
    ]
    lines += [f"{rep}  size {size}" for rep, size in result.orbits]
    return "\n".join(lines)


def element_configuration_to_frieze(spec: FieldSpec, tup: tuple[int, ...]):
    """configuration_to_frieze computed on FieldElements throughout: lift the
    canonical vectors (x, 1) and (1, 0) to equal consecutive determinants
    (antiperiodically, det(V_n, -V_1) included), then expand
    V_i = a_i V_{i-1} - V_{i-2} with V_0 = -V_n and V_{-1} = -V_{n-1}.
    Raises NotLiftable for even n outside the plus class."""
    el = spec.element
    one, zero = el(1), el(0)
    n = len(tup)
    raw = [(one, zero) if i == spec.q else (el(i), one) for i in tup]

    def det(u, v):
        return u[0] * v[1] - v[0] * u[1]

    dets = [det(raw[i], raw[i + 1]) for i in range(n - 1)]
    dets.append(det(raw[n - 1], (-raw[0][0], -raw[0][1])))
    podd, peven = one, one
    for i, d in enumerate(dets):
        if i % 2 == 0:
            podd = podd * d
        else:
            peven = peven * d
    if n % 2:
        c = podd / peven
    elif podd != peven:
        raise NotLiftable("even-length configuration outside the plus class")
    else:
        c = one
    lam = [one]
    for i in range(n - 1):
        lam.append(c / (dets[i] * lam[i]))
    vecs = [(l * x, l * y) for l, (x, y) in zip(lam, raw)]
    assert all(
        det(vecs[i], vecs[i + 1] if i < n - 1 else (-vecs[0][0], -vecs[0][1])) == c
        for i in range(n)
    )
    ext = [(-vecs[n - 2][0], -vecs[n - 2][1]), (-vecs[n - 1][0], -vecs[n - 1][1])] + vecs
    codes = []
    for i in range(n):
        v_prev2, v_prev, v = ext[i], ext[i + 1], ext[i + 2]
        a = det(v_prev2, v) / c
        assert v[0] == a * v_prev[0] - v_prev2[0]
        assert v[1] == a * v_prev[1] - v_prev2[1]
        codes.append(a.code)
    row = FirstRow(spec, tuple(codes))
    assert matrix_criterion(row)[0]
    return row if n % 2 else FirstRowClass.of(row)


def rgs_walk(n: int):
    """Restricted-growth strings of length n >= 2 with b_i != b_{i-1} and
    b_{n-1} != b_0, in lexicographic order: the strings of
    partitions._rgs_strings.  cyclic_partition_counts counts the same
    strings by state without building them."""
    return (string for string, _ in _rgs_strings(n))


def distinct_point_counts(spec: FieldSpec, n: int, budget: int) -> Counter:
    """The tuples of C_n counted by their number of distinct points, one set
    per streamed tuple; moduli.count_by_distinct_points ORs point bitmasks
    from the walk's chunks instead."""
    return Counter(map(len, map(set, configuration_index_tuples(spec, n, "all", budget))))
