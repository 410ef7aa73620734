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

configuration_index_tuples streams C_n, and pgl2_orbit_count walks the orbit
keys, with one loop (_walk): lex-ordered prefixes, each paired with the tails
that close it, read from a table keyed by the prefix's last and first points
and built on first visit from one list of tail paths.  A signed walk groups
each entry's tails by the sign ratio of the edges they close.  The C_n
stream joins each (prefix, tails) chunk in C, so Python runs once per prefix,
not per tuple; count_configuration_tuples and count_pgl2_orbits sum the
chunks' tail counts and build no tuple, and count_by_distinct_points ORs
point bitmasks of each prefix and its tails.

A Configuration stores point indices 0..q and builds ProjPoints only in
Configuration.points.  Indices and vectors are converted by
FieldSpec.point_vector and point_index alone: v_i = point_vector(i) is
(i, 1), or (1, 0) for i = q.  Every determinant is _det: det(v_i, v_j) in
closed form, read by the signed walk's table, the sign class, the orbit key
and the lift.  Both directions of the correspondence run on codes:
configuration_to_frieze expands the lift's scalars, frieze_to_configuration
projects the SL2 step frieze.row_products with point_index;
lift_configuration is the FieldElement view.  labels and parse_points are
the code serialization of points, with "inf" for (1 : 0).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, repeat
from operator import add, or_
from typing import Iterator, Sequence

from .errors import (
    DEFAULT_BUDGET,
    CriterionFails,
    NotLiftable,
    OddN,
    OddNWithSignFilter,
    check_budget,
)
from .frieze import FirstRow, matrix_criterion, row_products
from .gf import FieldElement, FieldSpec, ProjPoint
from .gf import pgl2_point_permutations  # unused here; perfbench/spans.py wraps it


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
        if not all(type(i) is int and 0 <= i <= q for i in self.indices):
            raise ValueError(f"point indices {self.indices} out of range 0..{q}")
        for i in range(n):
            if self.indices[i] == self.indices[(i + 1) % n]:
                raise ValueError(
                    f"cyclically consecutive positions {i} and {(i + 1) % n} "
                    f"both hold point {self.labels()[i]}"
                )

    @classmethod
    def from_indices(cls, spec: FieldSpec, indices: Sequence[int]) -> "Configuration":
        return cls(spec, tuple(indices))

    @classmethod
    def _trusted(cls, spec: FieldSpec, indices: tuple[int, ...]) -> "Configuration":
        """Configuration from a tuple of C_n that _walk made, without the
        checks, its fields written to the instance __dict__ as in
        FirstRow._trusted."""
        config = object.__new__(cls)
        fields = config.__dict__
        fields["spec"] = spec
        fields["indices"] = indices
        return config

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
        return "(" + ",".join(map(self.spec.point_str, self.indices)) + ")"


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
            continue
        try:
            code = int(lab)
        except ValueError as exc:
            raise ValueError(
                f"bad point label {lab!r}: labels are element codes or inf"
            ) from exc
        indices.append(spec.checked_code(code))
    return Configuration.from_indices(spec, indices)


def _det(spec: FieldSpec, i: int, j: int) -> int:
    """det(v_i, v_j) of the lifts v = spec.point_vector of points i and j, in
    closed form: the one definition of the determinant, from which
    _ratio_tables builds the signed walk's q^2 tables."""
    q = spec.q
    if j == q:
        return 0 if i == q else spec.neg_code(1)
    return 1 if i == q else spec.sub_code(i, j)


def _det_table(spec: FieldSpec) -> list[list[int]]:
    """_det of every pair of points, for the signed walk's tail tables."""
    points = range(spec.q + 1)
    return [[_det(spec, i, j) for j in points] for i in points]


@lru_cache(maxsize=32)
def _ratio_tables(spec: FieldSpec) -> tuple[list[list[int]], list[list[int]]]:
    """The signed walk's edge factors: _det_table and its entrywise inverse,
    built once per spec (at most 32 kept, like gf.parse_field_descriptor)
    when the spec keeps q x q op tables; otherwise (above
    gf.LAZY_TABLE_LIMIT) _walk calls __wrapped__, so their 2 (q+1)^2
    entries last one walk.  The inverse reads the spec's inv table per
    code; det 0 lies only on the diagonal, which no walk reads, and there
    it is inv[0] = None."""
    inv = spec._op_tables()[4]
    dets = _det_table(spec)
    return dets, [[inv[d] for d in row] for row in dets]


def _sign_products(spec: FieldSpec, tup: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """Products of the odd- and even-indexed D_i (1-based) and the n dets
    D_1..D_n themselves, with the twist D_n = det(v_n, -v_1) = det(v_1, v_n)."""
    mul = spec.mul_code
    n = len(tup)
    dets = [_det(spec, tup[i], tup[i + 1]) for i in range(n - 1)]
    dets.append(_det(spec, tup[0], tup[n - 1]))
    podd = peven = 1
    for d in dets[::2]:
        podd = mul(podd, d)
    for d in dets[1::2]:
        peven = mul(peven, d)
    return podd, peven, dets


def configuration_index_tuples(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Stream the point-index tuples of C_n in lexicographic order, optionally
    restricted to a sign class; enumerate_configurations wraps it in
    Configuration objects.  Each prefix is joined to a table of tails keyed
    by its last and first points, so memory stays near |C_n|/q tails.  The
    joins run in C, ``map(add, repeat(prefix), tails)`` chained by
    chain.from_iterable, so Python resumes _walk once per prefix, not once
    per tuple; operator.add takes vectorcall, so map builds no argument
    tuple per join as it does for the method-wrapper prefix.__add__.  The
    stream is lazy: bad arguments and the budget are checked on the first
    next()."""
    chunks = _walk(spec, n, sign_filter, budget, cross_section=False)
    return chain.from_iterable(map(add, repeat(prefix), tails) for prefix, tails in chunks)


def count_configuration_tuples(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> int:
    """The number of tuples configuration_index_tuples streams: the tail
    counts of the walk's chunks summed, with no tuple built.  Bad arguments
    and the budget are refused as there."""
    chunks = _walk(spec, n, sign_filter, budget, cross_section=False)
    return sum(len(tails) for _, tails in chunks)


def count_by_distinct_points(spec: FieldSpec, n: int, budget: int = DEFAULT_BUDGET) -> Counter:
    """The tuples of C_n counted by their number of distinct points, with no
    tuple built: each prefix's points as an int bitmask, ORed in C with the
    masks of its tails.  A tail-table entry's masks are listed once, from
    one mask per distinct tail path.  Bad arguments and the budget are
    refused as in configuration_index_tuples."""
    per_k, entries, path_masks = Counter(), {}, {}
    for prefix, tails in _walk(spec, n, "all", budget, cross_section=False):
        entry = entries.get(id(tails))
        if entry is None:  # the entry holds tails, so an id names one entry
            for t in set(tails).difference(path_masks):
                path_masks[t] = sum({1 << v for v in t})
            entry = entries[id(tails)] = (tails, list(map(path_masks.__getitem__, tails)))
        pmask = sum({1 << v for v in prefix})
        per_k.update(map(int.bit_count, map(or_, repeat(pmask), entry[1])))
    return per_k


def _is_orbit_key(tup: tuple[int, ...]) -> bool:
    """Whether a tuple starting with 0 has 1 next and 2 as its first point
    outside {0, 1}, or no such point: the shape of every orbit key."""
    return tup[1] == 1 and next((i for i in tup if i > 1), 2) == 2


def _walk(
    spec: FieldSpec, n: int, sign_filter: str, budget: int, cross_section: bool
) -> Iterator[tuple[tuple[int, ...], Sequence[tuple[int, ...]]]]:
    """The tuples of C_n, or with cross_section the orbit keys among them (see
    pgl2_orbit_count), in a sign class and in lexicographic order, as
    (prefix, tails) chunks: the tuples are prefix + tail for tail in tails.

    One loop pairs each prefix t_0..t_{m-1}, m = n - s, with tails(t_{m-1},
    t_0): the paths t_m..t_{n-1} with consecutive points distinct, the first
    distinct from t_{m-1} and the last from t_0, in lex order.  A table entry
    is built on the first visit of its key from one list of tail paths, and
    the chunk hands out that list itself, so no tuple is built and then
    discarded; the streams join them, the counts only sum their lengths
    or tally their point masks.
    Prefixes and tail paths grow the same way, one point at a time, as in
    search._prefix_products and partitions._rgs_chunks.

    The full walk takes s = max(1, min(n // 2, n - 3)), so the table holds
    about (q + 1)^2 q^s <= |C_n|/q tails for n >= 4.  Its prefixes are the
    paths of length m - 1, built level by level, each with its last point
    expanded lazily, so no list holds every prefix.  The cross-section walk
    takes s = 2 (s = 1 for n <= 4), and its prefixes, a few per orbit key,
    are made up front: first the alternation 0, 1, 0, ... of length m, the
    one prefix whose tails are filtered by key shape (its chunk is prefix ()
    with the filtered keys as tails), then the paths grown from the roots
    (0, 1, ..., 2) that put the first 2 after the alternation, deepest
    first.  That is lex order as well.

    Signs: edge e_i = det(t_i, t_{i+1}), and e_{n-1} = det(t_0, t_{n-1})
    with the twist, enters the ratio podd/peven as e_i for even i and as
    e_i^-1 for odd i.  A prefix carries u = target * r^-1, where r is the
    ratio of its edges and target is 1 for plus and -1 for minus (the same
    in characteristic 2).  A table entry groups its tails by the ratio of
    the s + 1 edges they close, from the inner-edge ratio each tail path
    carries, so a prefix reads the tails of group u: one lookup, no
    per-tuple product.  Products are read from mul, the spec's op table
    mul[a][b] = a * b (see FieldSpec._op_tables); the budget already
    charges (q + 1)^n >= q^2.  The unsigned walk needs no field
    arithmetic: it reads every determinant as 1, with the table of
    1 * 1 = 1, so every ratio is 1 and one group holds every tail.
    """
    if sign_filter not in ("all", "plus", "minus"):
        raise ValueError(f"unknown sign filter {sign_filter!r}")
    if sign_filter != "all" and n % 2:
        raise OddNWithSignFilter("sign classes only exist for even n")
    if n < 2:
        raise ValueError("configurations need n >= 2")
    check_budget([(spec.q + 1, n)], budget, "(q+1)^n configuration candidates")
    points = range(spec.q + 1)
    if sign_filter == "all":
        ones = [[1] * len(points)] * len(points)
        mul, target, ratio = [[1, 1]] * 2, 1, (ones, ones)  # 1 * 1 = 1
    else:
        mul = spec._op_tables()[2]
        kept = isinstance(mul[0], list)  # q x q tables, not computed rows
        ratio = (_ratio_tables if kept else _ratio_tables.__wrapped__)(spec)
        target = 1 if sign_filter == "plus" else spec.neg_code(1)
    inverse = ratio[::-1]  # u takes e_i^-1 for even i and e_i for odd i
    s = (2 if n >= 5 else 1) if cross_section else max(1, min(n // 2, n - 3))
    m = n - s

    def grow(paths, rows):
        """Each (path, r) extended by every point v != its last point l, with
        r * rows[l][v], in lex order and lazily."""
        return (
            (p + (v,), mul[r][row[v]])
            for p, r in paths
            for row in (rows[p[-1]],)
            for v in points
            if v != p[-1]
        )

    paths = [((y,), 1) for y in points]
    for i in range(m, n - 1):
        paths = list(grow(paths, ratio[i % 2]))
    into, back = ratio[(m - 1) % 2], ratio[(n - 1) % 2]
    table = {}

    def tails(l, f):
        out = table.get((l, f))
        if out is None:
            if sign_filter == "all":
                out = {1: [p for p, _ in paths if p[0] != l and p[-1] != f]}
            else:
                out, r_l, r_f = defaultdict(list), into[l], back[f]
                for p, r in paths:
                    if p[0] != l and p[-1] != f:
                        out[mul[mul[r_l[p[0]]][r]][r_f[p[-1]]]].append(p)
            table[l, f] = out
        return out

    if cross_section:
        alternation = ((0, 1) * n)[:m]
        us = [target]  # us[i] is the u of alternation[:i + 1]
        for i in range(m - 1):
            us.append(mul[us[i]][inverse[i % 2][alternation[i]][alternation[i + 1]]])
        head = tails(alternation[-1], 0).get(us[-1], ())
        yield (), list(filter(_is_orbit_key, map(add, repeat(alternation), head)))
        prefixes = []
        for i in range(m - 1, 1, -1):
            u = mul[us[i - 1]][inverse[(i - 1) % 2][alternation[i - 1]][2]]
            level = [(alternation[:i] + (2,), u)]
            for j in range(i, m - 1):
                level = list(grow(level, inverse[j % 2]))
            prefixes += level
    else:
        prefixes = [((v,), target) for v in points]
        for i in range(m - 2):
            prefixes = list(grow(prefixes, inverse[i % 2]))
        if m > 1:
            prefixes = grow(prefixes, inverse[m % 2])
    for prefix, u in prefixes:
        yield prefix, tails(prefix[-1], prefix[0]).get(u, ())


def enumerate_configurations(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Configuration]:
    """Stream C_n (or its plus/minus subspace for even n)."""
    for tup in configuration_index_tuples(spec, n, sign_filter, budget):
        yield Configuration._trusted(spec, tup)


def sign_class(config: Configuration) -> SignClass:
    """Sign class of an even-length configuration, independent of the lift.

    In characteristic 2 the plus and minus conditions coincide and PLUS is
    returned for configurations satisfying them.
    """
    if config.n % 2:
        raise OddN("sign classes only exist for even n")
    spec = config.spec
    podd, peven, _ = _sign_products(spec, config.indices)
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


def pgl2_orbit_count(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> OrbitSummary:
    """Partition the configurations into PGL2 orbits by walking one
    representative per orbit: its key, the lexicographically smallest image
    (see orbit_of).

    PGL2 acts freely on the configurations with at least three distinct
    points, so their keys form a cross-section of the action: the tuples of
    C_n that start (0, 1) and whose first point outside {0, 1} is 2, each
    standing for q^3 - q configurations.  For even n the alternation
    (0, 1, ..., 0, 1) stands for the q(q + 1) two-point configurations; it is
    the smallest key, so it comes first.  The sign class is PGL2-invariant,
    so a signed count walks the keys in its class.  The keys are streamed in
    lex order as prefixes (0, 1, ..., 2) joined to tail tables, about
    q^(n-3) tuples where C_n has about q^n; the budget still charges (q+1)^n
    candidates, like configuration_index_tuples, through errors.check_budget."""
    chunks = _walk(spec, n, sign_filter, budget, cross_section=True)
    # a comprehension, not the stream's chain: most counts have few keys, and
    # setting up the chain costs them more than it saves
    keys = [prefix + tail for prefix, tails in chunks for tail in tails]
    q = spec.q
    sizes = [q**3 - q] * len(keys)
    if keys and max(keys[0]) < 2:
        sizes[0] = q * (q + 1)
    return OrbitSummary(
        spec,
        n,
        sign_filter,
        len(keys),
        tuple(Configuration._trusted(spec, key) for key in keys),
        tuple(sizes),
    )


def count_pgl2_orbits(
    spec: FieldSpec,
    n: int,
    sign_filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> int:
    """pgl2_orbit_count(spec, n, sign_filter, budget).count: the tail counts
    of the cross-section walk's chunks summed, with no key, representative
    or size built.  Bad arguments and the budget are refused as there."""
    chunks = _walk(spec, n, sign_filter, budget, cross_section=True)
    return sum(len(tails) for _, tails in chunks)


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


def _lift_scalars(spec: FieldSpec, tup: tuple[int, ...]) -> tuple[list[int], int]:
    """The codes of the rescaling factors lam_i and the common determinant c
    of the equal-determinant antiperiodic lift V_i = lam_i v_{t_i}.

    Exists always for odd n; for even n exactly on the plus class.  The free
    scalar is fixed deterministically: the common determinant is chosen so
    the first rescaling factor is 1 (odd n needs no square root that way),
    and for even n the first factor is simply set to 1.
    """
    mul, inv = spec.mul_code, spec.inv_code
    n = len(tup)
    podd, peven, dets = _sign_products(spec, tup)
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
    return lam, c


def _lift_vectors(spec: FieldSpec, tup: tuple[int, ...], lam: list[int]) -> list[tuple[int, int]]:
    """The lift V_i = lam_i v_{t_i} as code pairs."""
    mul = spec.mul_code
    return [(mul(l, x), mul(l, y)) for l, (x, y) in zip(lam, map(spec.point_vector, tup))]


def lift_configuration(config: Configuration) -> Lift:
    """Equal-determinant antiperiodic lift of the configuration, as field
    elements; see _lift_scalars for when it exists and how it is chosen."""
    spec = config.spec
    lam, c = _lift_scalars(spec, config.indices)
    element = spec.element
    vectors = tuple(
        (element(x), element(y)) for x, y in _lift_vectors(spec, config.indices, lam)
    )
    lift = Lift(spec, vectors, element(c))
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

    det(V_{i-2}, V_i) = a_i det(V_{i-2}, V_{i-1}) = a_i c, so a_i is
    lam_{i-2} lam_i _det(t_{i-2}, t_i) / c, negated for i = 1, 2 where
    V_{i-2} wraps round with a sign; all of it on codes.

    For odd n the row is independent of the lift and is returned directly;
    for even n the row is only defined up to rescaling and the canonical
    class is returned.
    """
    spec = config.spec
    n = config.n
    if n < 3:
        raise ValueError(f"the frieze correspondence needs at least 3 points, got {n}")
    tup = config.indices
    mul, sub, neg = spec.mul_code, spec.sub_code, spec.neg_code
    lam, c = _lift_scalars(spec, tup)
    vecs = _lift_vectors(spec, tup, lam)
    ext = [tuple(map(neg, vecs[n - 2])), tuple(map(neg, vecs[n - 1]))] + vecs
    c_inv = spec.inv_code(c)
    codes = []
    for i in range(n):
        a = mul(mul(mul(lam[i - 2], lam[i]), _det(spec, tup[i - 2], tup[i])), c_inv)
        if i < 2:
            a = neg(a)
        (u0, u1), (w0, w1), (v0, v1) = ext[i], ext[i + 1], ext[i + 2]
        assert v0 == sub(mul(a, w0), u0) and v1 == sub(mul(a, w1), u1)
        codes.append(a)
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
    index, neg = spec.point_index, spec.neg_code
    indices = tuple(index(neg(p01), p00) for p00, p01, _, _ in row_products(spec, row.codes))
    return Configuration(spec, indices)


def orbit_of(config: Configuration) -> tuple[int, ...]:
    """Canonical representative (as point indices) of the PGL2 orbit: the
    lexicographically smallest image, the key whose cross-section
    pgl2_orbit_count walks.

    PGL2 acts sharply 3-transitively on P^1 and cyclically adjacent points
    differ, so the smallest image of t starts (0, 1) and sends the first
    point outside {t[0], t[1]} to 2: it is the image of t under the unique
    element taking t[0], t[1] and that point to the indices 0, 1, 2.  A tuple
    with only two distinct points maps to its 0/1 pattern.

    With v_i = spec.point_vector(i), the Möbius map
    h(v) = (det(v_b, v_c) det(v, v_a) : det(v_b, v_a) det(v, v_c)) sends
    a, b, c to 0, 1, inf, and k = [[z, 0], [1, z - 1]] sends 0, 1, inf to
    0, 1, z, the point of index 2 (inf for q = 2, where k is the identity).
    So k h(v_i) = (z lam d_a : lam d_a + (z - 1) mu d_c) with
    lam = det(v_b, v_c), mu = det(v_b, v_a), d_a = _det(i, a) and
    d_c = _det(i, c): two _det reads and one point_index per point, O(n).
    """
    spec, tup = config.spec, config.indices
    a, b = tup[0], tup[1]
    c = next((c for c in tup if c != a and c != b), None)
    if c is None:
        return tuple([0 if i == a else 1 for i in tup])
    mul, add, index = spec.mul_code, spec.add_code, spec.point_index
    k00, k10, k11 = (2, 1, spec.sub_code(2, 1)) if spec.q > 2 else (1, 0, 1)
    lam, mu = _det(spec, b, c), _det(spec, b, a)
    x_a, y_a, y_c = mul(k00, lam), mul(k10, lam), mul(k11, mu)
    out = []
    for i in tup:
        d_a = _det(spec, i, a)
        out.append(index(mul(x_a, d_a), add(mul(y_a, d_a), mul(y_c, _det(spec, i, c)))))
    return tuple(out)
