"""Configuration spaces of points on P^1(F_q), their PGL2 orbits, and the
two-way correspondence with tame friezes.

C_n is the set of n-tuples of points with no two cyclically consecutive
points equal.  For even n the sign class of a configuration is read off any
lift V_1..V_n to F_q^2: with D_i = det(V_i, V_{i+1}) and the antiperiodic
twist V_{n+1} = -V_1, the configuration is in the plus class when the
product of the odd-indexed D_i equals the product of the even-indexed ones,
and in the minus class when they differ by a sign.  The plus class is
exactly where an equal-determinant antiperiodic lift exists, which is what
the frieze correspondence needs.  In characteristic 2 the two classes
coincide.

A Configuration stores point indices 0..q and builds ProjPoints only in
Configuration.points; frieze_to_configuration reads them off the SL2 step
frieze.row_products.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CriterionFails,
    NotLiftable,
    OddN,
    OddNWithSignFilter,
)
from .frieze import FirstRow, matrix_criterion, row_products
from .gf import FieldElement, FieldSpec, ProjPoint
from .gf import pgl2_point_permutations  # unused here; perfbench/spans.py wraps it

# Most point permutations a FieldSpec keeps for the orbit keys.  It lies
# above GF(16)'s 17 * 16 * 15 = 4080 ordered triples, so fields up to 16
# elements keep every triple.  On larger ones the table is emptied when full:
# it holds at most this many tuples of q + 1 points (about 3 MiB on GF(27))
# instead of one per ordered triple, a number that grows as q^3.
ORBIT_PERMS_LIMIT = 8192


@dataclass(frozen=True)
class Configuration:
    """n point indices of P^1 (q is (1 : 0)), cyclically adjacent ones distinct."""

    spec: FieldSpec
    indices: tuple[int, ...]

    def __post_init__(self):
        n = len(self.indices)
        if n < 2:
            raise ValueError("a configuration needs at least 2 points")
        q = self.spec.q
        if not all(isinstance(i, int) and 0 <= i <= q for i in self.indices):
            raise ValueError(f"point indices {self.indices} out of range 0..{q}")
        for i in range(n):
            if self.indices[i] == self.indices[(i + 1) % n]:
                raise ValueError(
                    f"cyclically consecutive points {i} and {(i + 1) % n} coincide"
                )

    @classmethod
    def from_indices(cls, spec: FieldSpec, indices: Sequence[int]) -> "Configuration":
        return cls(spec, tuple(indices))

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def points(self) -> tuple[ProjPoint, ...]:
        return tuple(ProjPoint.from_index(self.spec, i) for i in self.indices)

    def labels(self) -> list[str]:
        """Serialized points: the element code of a for (a : 1), "inf" for (1 : 0).

        parse_points is the inverse.
        """
        q = self.spec.q
        return ["inf" if i == q else str(i) for i in self.indices]

    def __str__(self):
        q, name = self.spec.q, self.spec.element_str
        return "(" + ",".join("inf" if i == q else name(i) for i in self.indices) + ")"


class SignClass(Enum):
    PLUS = "plus"
    MINUS = "minus"
    OTHER = "other"


def parse_points(spec: FieldSpec, labels: Sequence[str]) -> Configuration:
    """Inverse of Configuration.labels, reading element codes or "inf"."""
    indices = []
    for lab in labels:
        lab = lab.strip()
        if lab == "inf":
            indices.append(spec.q)
        else:
            indices.append(spec.checked_code(int(lab)))
    return Configuration.from_indices(spec, indices)


def _det_table(spec: FieldSpec) -> list[list[int]]:
    """det of the canonical lifts of each pair of points: (x : 1) -> (x, 1)
    and (1 : 0) -> (1, 0)."""
    q = spec.q
    sub, neg = spec.sub_code, spec.neg_code
    table = [[0] * (q + 1) for _ in range(q + 1)]
    for i in range(q):
        for j in range(q):
            table[i][j] = sub(i, j)
        table[i][q] = neg(1)
        table[q][i] = 1
    return table


def _sign_products(spec: FieldSpec, dets, tup: tuple[int, ...]) -> tuple[int, int]:
    """Products of odd- and even-indexed D_i (1-based), with the twist on D_n."""
    mul, neg = spec.mul_code, spec.neg_code
    n = len(tup)
    podd = peven = 1
    for i in range(n):
        d = dets[tup[i]][tup[(i + 1) % n]]
        if i == n - 1:
            d = neg(d)
        if i % 2 == 0:
            podd = mul(podd, d)
        else:
            peven = mul(peven, d)
    return podd, peven


def _check_budget(spec: FieldSpec, n: int, budget: int):
    space = (spec.q + 1) ** n
    if space > budget:
        raise BudgetExceeded(
            f"(q+1)^n = {space} configuration candidates exceed budget {budget}"
        )


def _tail_tuples(q1: int, s: int) -> list:
    """Every s-tuple of point indices, made once and shared by all tables:
    a list of 1-tuples for s = 1, a matrix of pairs for s = 2."""
    if s == 1:
        return [(y,) for y in range(q1)]
    return [[(y1, y2) for y2 in range(q1)] for y1 in range(q1)]


def _unsigned_tails(q1: int, s: int) -> Callable[[int, int], list]:
    """tails(l, f): the s-tuples (y_1..y_s) in lex order with y_1 != l,
    consecutive entries distinct and y_s != f.

    For s = 1 they are slices of one shared list of 1-tuples; for s = 2 each
    (l, f) list is built on its first visit."""
    shared = _tail_tuples(q1, s)
    if s == 1:

        def tails(l, f):
            a, b = (l, f) if l < f else (f, l)
            if a == b:
                return shared[:a] + shared[a + 1 :]
            return shared[:a] + shared[a + 1 : b] + shared[b + 1 :]

        return tails
    table = {}

    def tails(l, f):
        out = table.get((l, f))
        if out is None:
            out = table[l, f] = [
                pair
                for y1 in range(q1)
                if y1 != l
                for y2, pair in enumerate(shared[y1])
                if y2 != y1 and y2 != f
            ]
        return out

    return tails


def _signed_tails(spec: FieldSpec, s: int, dets, idets) -> Callable[[int, int], dict]:
    """tails(l, f): the tails of _unsigned_tails grouped by the ratio
    podd/peven of the s + 1 edges they close (the edge from l, the edges
    inside the tail, and the twisted edge D_n back to f), for even n.

    Those edges have indices n - s - 1..n - 1, so their parities are fixed:
    the twisted D_n is odd and contributes -det(y_s, f) = det(f, y_s) to the
    denominator.  Each (l, f) dict is built on its first visit."""
    mul = spec.mul_code
    q1 = spec.q + 1
    shared = _tail_tuples(q1, s)
    table = {}

    def tails(l, f):
        out = table.get((l, f))
        if out is None:
            out = table[l, f] = defaultdict(list)
            back = idets[f]
            if s == 1:
                into = dets[l]
                for y in range(q1):
                    if y != l and y != f:
                        out[mul(into[y], back[y])].append(shared[y])
            else:
                into = idets[l]
                for y1 in range(q1):
                    if y1 == l:
                        continue
                    r1, inner, pairs = into[y1], dets[y1], shared[y1]
                    for y2 in range(q1):
                        if y2 != y1 and y2 != f:
                            out[mul(mul(r1, inner[y2]), back[y2])].append(pairs[y2])
        return out

    return tails


def configuration_index_tuples(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Stream the point-index tuples of C_n in lexicographic order, optionally
    restricted to a sign class.  This is the allocation-light path used by
    the orbit and counting code; enumerate_configurations wraps it in
    Configuration objects.

    A loop over an explicit stack walks only the prefixes t_0..t_{m-1},
    m = n - s, with consecutive points distinct; each prefix emits its tails
    t_m..t_{n-1} from a table keyed by (last prefix point, first point) with
    ``yield from map(prefix.__add__, tails)``, so no tuple is built and then
    discarded.  s = 2 for n >= 5, where the tables hold at most (q+1)^2 q^2
    tails, about |C_n|/q, all pointing into one shared matrix of pairs;
    s = 1 for n <= 4, where unsigned tails are slices of one list of
    1-tuples (a table keyed by (l, f) would be as large as C_3).  Every other
    table is built on the first visit of its key.

    A signed walk also carries u = target * r^-1, where r is the ratio
    podd/peven of the prefix edges and target is 1 for plus and -1 for minus
    (the same in characteristic 2).  The tails it keeps are those whose own
    ratio is u: one lookup, no per-tuple product.

    Prefixes are walked in lex order and each tail list is in lex order, so
    the tuples come out in the same order as a lex-ordered product filtered
    by cyclic adjacency and sign class.
    """
    if sign_filter not in ("all", "plus", "minus"):
        raise ValueError(f"unknown sign filter {sign_filter!r}")
    if sign_filter != "all" and n % 2:
        raise OddNWithSignFilter("sign classes only exist for even n")
    if n < 2:
        raise ValueError("configurations need n >= 2")
    _check_budget(spec, n, budget)
    q = spec.q
    s = 2 if n >= 5 else 1
    m = n - s
    down = range(q, -1, -1)  # children are pushed in reverse to pop in lex order
    if sign_filter == "all":
        tails = _unsigned_tails(q + 1, s)
        stack = [(v,) for v in down]
        while stack:
            prefix = stack.pop()
            last = prefix[-1]
            if len(prefix) < m:
                stack += [prefix + (v,) for v in down if v != last]
            else:
                yield from map(prefix.__add__, tails(last, prefix[0]))
        return

    mul, inv = spec.mul_code, spec.inv_code
    dets = _det_table(spec)
    idets = [[inv(d) if d else 0 for d in row] for row in dets]
    # u picks up det^-1 from even (odd-indexed, 1-based) edges and det from odd ones
    u_factors = (idets, dets)
    tails = _signed_tails(spec, s, dets, idets)
    target = 1 if sign_filter == "plus" else spec.neg_code(1)
    stack = [((v,), target) for v in down]
    while stack:
        prefix, u = stack.pop()
        last = prefix[-1]
        i = len(prefix)
        if i < m:
            row = u_factors[(i - 1) % 2][last]
            stack += [(prefix + (v,), mul(u, row[v])) for v in down if v != last]
        else:
            yield from map(prefix.__add__, tails(last, prefix[0]).get(u, ()))


def enumerate_configurations(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Configuration]:
    """Stream C_n (or its plus/minus subspace for even n)."""
    for tup in configuration_index_tuples(spec, n, sign_filter, budget):
        yield Configuration.from_indices(spec, tup)


def sign_class(config: Configuration) -> SignClass:
    """Sign class of an even-length configuration, independent of the lift.

    In characteristic 2 the plus and minus conditions coincide and PLUS is
    returned for configurations satisfying them.
    """
    if config.n % 2:
        raise OddN("sign classes only exist for even n")
    spec = config.spec
    podd, peven = _sign_products(spec, _det_table(spec), config.indices)
    if podd == peven:
        return SignClass.PLUS
    if podd == spec.neg_code(peven):
        return SignClass.MINUS
    return SignClass.OTHER


@dataclass(frozen=True)
class OrbitSummary:
    """PGL2 orbit decomposition of a configuration space."""

    spec: FieldSpec
    n: int
    sign_filter: str
    count: int
    representatives: tuple[Configuration, ...]
    sizes: tuple[int, ...]

    def size_multiset(self) -> list[int]:
        return sorted(self.sizes)


def _orbit_key_function(spec: FieldSpec) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Key function sending a configuration's index tuple to the
    lexicographically smallest tuple in its PGL2 orbit.

    PGL2 acts sharply 3-transitively on P^1 and cyclically adjacent points
    differ, so the smallest image of t starts (0, 1) and sends the first
    point outside {t[0], t[1]} to 2: it is the image of t under the unique
    element taking t[0], t[1] and that point to the indices 0, 1, 2.  A tuple
    with only two distinct points maps to its 0/1 pattern.

    With v_i the canonical vector of point i, the Möbius map
    h(v) = (det(v_b, v_c) det(v, v_a) : det(v_b, v_a) det(v, v_c)) sends
    a, b, c to 0, 1, inf, and k = [[z, 0], [1, z - 1]] sends 0, 1, inf to
    0, 1, z, the point of index 2 (inf for q = 2, where k is the identity).
    The permutation of k h is built in O(q) when its triple is first met
    and kept on the spec, so later keys, in later calls too, cost O(n).  The
    spec keeps at most ORBIT_PERMS_LIMIT of them.
    """
    q = spec.q
    mul, add, sub, inv = spec.mul_code, spec.add_code, spec.sub_code, spec.inv_code
    k00, k10, k11 = (2, 1, sub(2, 1)) if q > 2 else (1, 0, 1)
    perms, limit = spec._orbit_perms, ORBIT_PERMS_LIMIT

    def det(u, v):
        return sub(mul(u[0], v[1]), mul(u[1], v[0]))

    def permutation(a, b, c):
        vec = [_canonical_vector(spec, i) for i in range(q + 1)]
        va, vc = vec[a], vec[c]
        lam, mu = det(vec[b], vc), det(vec[b], va)
        x_a, y_a, y_c = mul(k00, lam), mul(k10, lam), mul(k11, mu)
        perm = []
        for v in vec:
            d_a, d_c = det(v, va), det(v, vc)
            y = add(mul(y_a, d_a), mul(y_c, d_c))
            perm.append(mul(mul(x_a, d_a), inv(y)) if y else q)
        return tuple(perm)

    def key(tup: tuple[int, ...]) -> tuple[int, ...]:
        a, b = tup[0], tup[1]
        for c in tup:
            if c != a and c != b:
                try:
                    perm = perms[a, b, c]
                except KeyError:
                    if len(perms) >= limit:
                        perms.clear()
                    perm = perms[a, b, c] = permutation(a, b, c)
                return tuple([perm[i] for i in tup])
        return tuple([0 if i == a else 1 for i in tup])

    return key


def pgl2_orbit_count(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> OrbitSummary:
    """Partition the configurations into PGL2 orbits by canonical-representative
    hashing: each tuple's orbit key is its lexicographically smallest image,
    computed in O(n) by sharp 3-transitivity (see _orbit_key_function)."""
    key = _orbit_key_function(spec)
    counter = Counter(map(key, configuration_index_tuples(spec, n, sign_filter, budget)))
    reps = sorted(counter)
    return OrbitSummary(
        spec,
        n,
        sign_filter,
        len(reps),
        tuple(Configuration.from_indices(spec, rep) for rep in reps),
        tuple(counter[rep] for rep in reps),
    )


def orbit_summary_to_json_dict(summary: OrbitSummary) -> dict:
    """JSON form of an orbit decomposition, mirroring the enumeration schema;
    representatives are serialized point labels."""
    return {
        "field": summary.spec.descriptor,
        "n": summary.n,
        "sign": summary.sign_filter,
        "count": summary.count,
        "orbits": [
            {"rep": rep.labels(), "size": size}
            for rep, size in zip(summary.representatives, summary.sizes)
        ],
    }


@dataclass(frozen=True)
class Lift:
    """Vectors over F_q^2 lifting a configuration, with all consecutive
    determinants equal (antiperiodically: det(V_n, -V_1) included)."""

    spec: FieldSpec
    vectors: tuple[tuple[FieldElement, FieldElement], ...]
    det_value: FieldElement

    def consecutive_determinants(self) -> list[FieldElement]:
        n = len(self.vectors)
        out = []
        for i in range(n):
            x1, y1 = self.vectors[i]
            if i < n - 1:
                x2, y2 = self.vectors[i + 1]
            else:
                x2, y2 = -self.vectors[0][0], -self.vectors[0][1]
            out.append(x1 * y2 - x2 * y1)
        return out


def _canonical_vector(spec: FieldSpec, point_index: int) -> tuple[int, int]:
    return (1, 0) if point_index == spec.q else (point_index, 1)


def lift_configuration(config: Configuration) -> Lift:
    """Equal-determinant antiperiodic lift of the configuration.

    Exists always for odd n; for even n exactly on the plus class.  The free
    scalar is fixed deterministically: the common determinant is chosen so
    the first rescaling factor is 1 (odd n needs no square root that way),
    and for even n the first factor is simply set to 1.
    """
    spec = config.spec
    n = config.n
    indices = config.indices
    mul, inv, neg = spec.mul_code, spec.inv_code, spec.neg_code
    raw = [_canonical_vector(spec, i) for i in indices]

    def det(u, v):
        return spec.sub_code(mul(u[0], v[1]), mul(v[0], u[1]))

    dets = [det(raw[i], raw[(i + 1) % n]) for i in range(n - 1)]
    dets.append(det(raw[n - 1], (neg(raw[0][0]), neg(raw[0][1]))))
    podd = peven = 1
    for i, d in enumerate(dets):
        if i % 2 == 0:
            podd = mul(podd, d)
        else:
            peven = mul(peven, d)
    if n % 2:
        c = mul(podd, inv(peven))
    else:
        if podd != peven:
            raise NotLiftable(
                "even-length configuration outside the plus class has no "
                "equal-determinant lift"
            )
        c = 1
    lam = [1] * n
    for i in range(n - 1):
        # det(lam_i V_i, lam_{i+1} V_{i+1}) = c
        lam[i + 1] = mul(mul(c, inv(dets[i])), inv(lam[i]))
    assert mul(mul(lam[n - 1], lam[0]), dets[n - 1]) == c
    vectors = tuple(
        (
            spec.element(mul(lam[i], raw[i][0])),
            spec.element(mul(lam[i], raw[i][1])),
        )
        for i in range(n)
    )
    lift = Lift(spec, vectors, spec.element(c))
    assert all(d == lift.det_value for d in lift.consecutive_determinants())
    return lift


@dataclass(frozen=True)
class FirstRowClass:
    """Even-length first rows modulo the rescaling (la_1, a_2/l, la_3, ...),
    represented by the lexicographically smallest member."""

    rep: FirstRow

    @classmethod
    def of(cls, row: FirstRow) -> "FirstRowClass":
        spec = row.spec
        codes = row.codes
        if len(codes) % 2:
            raise OddN("rescaling classes only exist for even n")
        return cls(FirstRow(spec, min(cls._member_codes(spec, codes))))

    @staticmethod
    def _member_codes(spec: FieldSpec, codes: tuple[int, ...]):
        mul, inv = spec.mul_code, spec.inv_code
        for lam in range(1, spec.q):
            li = inv(lam)
            yield tuple(
                mul(lam if i % 2 == 0 else li, c) for i, c in enumerate(codes)
            )

    def members(self) -> list[FirstRow]:
        spec = self.rep.spec
        return [
            FirstRow(spec, codes)
            for codes in sorted(set(self._member_codes(spec, self.rep.codes)))
        ]

    def __contains__(self, row: FirstRow) -> bool:
        return row.codes in set(self._member_codes(row.spec, self.rep.codes))


def configuration_to_frieze(config: Configuration) -> FirstRow | FirstRowClass:
    """Coefficients a_i of the expansion V_i = a_i V_{i-1} - V_{i-2} over an
    equal-determinant lift, with V_0 = -V_n and V_{-1} = -V_{n-1}.

    For odd n the row is independent of the lift and is returned directly;
    for even n the row is only defined up to rescaling and the canonical
    class is returned.
    """
    lift = lift_configuration(config)
    spec = config.spec
    n = config.n
    vecs = list(lift.vectors)
    ext = [
        (-vecs[n - 2][0], -vecs[n - 2][1]),  # V_{-1}
        (-vecs[n - 1][0], -vecs[n - 1][1]),  # V_0
    ] + vecs
    c_inv = lift.det_value.inverse()
    codes = []
    for i in range(n):
        v_prev2, v_prev, v = ext[i], ext[i + 1], ext[i + 2]
        a = (v_prev2[0] * v[1] - v[0] * v_prev2[1]) * c_inv
        assert v[0] == a * v_prev[0] - v_prev2[0]
        assert v[1] == a * v_prev[1] - v_prev2[1]
        codes.append(a.code)
    row = FirstRow(spec, tuple(codes))
    ok, _ = matrix_criterion(row)
    assert ok, "lift coefficients must satisfy the matrix criterion"
    if n % 2:
        return row
    return FirstRowClass.of(row)


def frieze_to_configuration(row: FirstRow) -> Configuration:
    """The configuration of the vector sequence V_i = a_i V_{i-1} - V_{i-2}
    seeded with V_{-1} = (-1, 0), V_0 = (0, 1), projected to P^1.

    V_k = (-p01, p00) for the k-th product of row_products, so the V_i run
    along the first two diagonals of the frieze.  Requires the matrix
    criterion; the result is in C_n, and in the plus class when n is even.
    """
    ok, product = matrix_criterion(row)
    if not ok:
        raise CriterionFails(f"row {row} has product {product!r} != -Id")
    spec = row.spec
    mul, neg, inv = spec.mul_code, spec.neg_code, spec.inv_code
    # (x : y) has index x/y when y != 0; y = p00 = 0 is the point at infinity
    indices = tuple(
        mul(neg(p01), inv(p00)) if p00 else spec.q
        for p00, p01, _, _ in row_products(spec, row.codes)
    )
    return Configuration(spec, indices)


def orbit_of(config: Configuration) -> tuple[int, ...]:
    """Canonical representative (as point indices) of the PGL2 orbit: the
    lexicographically smallest image, by the same key as pgl2_orbit_count.
    Costs O(q) for a triple not yet met on this spec and O(n) after."""
    return _orbit_key_function(config.spec)(config.indices)
