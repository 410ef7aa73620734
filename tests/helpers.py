"""Shared fixtures-in-spirit for the test suite: the small fields everything
runs over, the exhaustive field-axiom check reused by the acceptance suite,
and the keyed PGL2 orbit count that checks the library's cross-section walk."""

from collections import Counter
from functools import cache

from friezes import FieldSpec
from friezes.moduli import configuration_index_tuples

PRIME_POWERS_LE_9 = (2, 3, 4, 5, 7, 8, 9)

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


@cache
def _permutation_key(spec: FieldSpec):
    """The orbit key of moduli._orbit_key_function, made another way: the
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
