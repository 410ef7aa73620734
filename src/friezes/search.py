"""Exhaustive enumeration of tame friezes of a given width over GF(q).

A width-w frieze is an n-tuple (n = w + 3) whose matrices M(a) = [[a, -1],
[1, 0]] multiply to M(a_n)...M(a_1) = -Id.  That is three independent
equations on SL2(F_q), so about q^(n-3) of the q^n tuples solve it and three
entries of a row follow from the others.  Two strategies:

  naive  depth-first over a_1..a_{n-3}, carrying the prefix product P; then
         M(a_n) M(a_{n-1}) M(a_{n-2}) = -P^(-1) forces a_{n-1} = p00 and
         determines a_{n-2} and a_n (one completion when p00 != 0, q or none
         when p00 = 0), so the work is ~q^(n-3) states in all.

  mitm   split n = nl + nr + 1 with nl = n // 2; tabulate the q^nr middle
         products R = M(a_{n-1})...M(a_{nl+1}) keyed by R's first row, then
         for each left product L = M(a_nl)...M(a_1) the equation
         R L = -M(a_n)^(-1) = [[0, -1], [1, -a_n]] fixes that first row as
         (l10, -l00) and every entry of its bucket fixes a_n, so the work is
         q^nl left leaves plus the q^nr table.  Buckets are keyed by the int
         r00 q + (-r01) and hold (mid, -r10, -r11), so a leaf looks up
         l10 q + l00 and a_n = (-r10) l01 + (-r11) l11 needs no negation.
         A middle of nr <= 2 entries needs no table: M(a) M(b) =
         [[ab - 1, -a], [b, -1]] gives a and b back from its first row,
         which is the naive completion's solve.  So at width <= 3
         (n <= 6) mitm runs the naive chunks, and both strategies run the
         same code; the budget still charges the requested strategy, whose
         estimate is above the ~q^(n-3) work done there.

Both walk prefixes with _prefix_products, the search's copy of the SL2 step
(frieze.row_products is the single-row one).  It steps all q children of a
prefix at once: their new first row (x p00 - p10, x p01 - p11) is two rows of
FieldSpec.line_codes.  The completions read rows of the op tables too
(mul[p01], add[1], ...), from FieldSpec._op_tables, the field's one table
builder: lists up to gf.LAZY_TABLE_LIMIT, built on a field's first search
above gf.TABLE_LIMIT (whose budget charges at least 4 q^2), and rows
computed per read above it, which the field's code ops read from then on.

Rows, prefixes and mids are strs, code c written as chr(c) and read from
one alphabet per q (_alphabet): str order is the lex order of the code
tuples, a str keeps its hash once computed, and slicing and joining copy
bytes.  So codes stop at 0x10FFFF and the search refuses q > 0x110000.
The result keeps the orbit representatives as these strs, and the catalog
renders them with str.translate, so a search decodes no row.  Only reading
EnumerationResult.orbits (or .tuples) decodes the representatives to code
tuples, once, into FirstRows built by FirstRow._trusted without re-checking
codes the search made in range.

Both search only min-first rows, whose first code is their smallest: the
smallest member of a dihedral orbit is one, so they are enough for the
catalog.  Chunk c holds the rows with a_1 = c and every code >= c, found by
stepping only children >= c and keeping solved entries >= c; mitm shares one
table whose entries carry min(mid).  Both strategies give identical,
lexicographically sorted rows, the chunks concatenated in code order, and so
identical catalogs.  The search runs in one thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import DEFAULT_BUDGET, check_budget
from .formulas import count_friezes
from .frieze import FirstRow, dihedral_orbit_codes
from .gf import FieldSpec


@dataclass(frozen=True)
class SearchConfig:
    """Search limits."""

    budget: int = DEFAULT_BUDGET


@dataclass
class EnumerationResult:
    """A search's dihedral orbit catalog: the orbits' smallest members
    rep_rows, in lex order, as the search's strs of chr(code), and their
    orbit sizes.  Equality compares these fields; .orbits and .tuples are
    decoded from them on first use."""

    spec: FieldSpec
    width: int
    total_count: int
    rep_rows: list[str] = field(repr=False)
    sizes: list[int]

    @cached_property
    def orbits(self) -> list[tuple[FirstRow, int]]:
        """(representative, orbit size) pairs, the representatives decoded
        to FirstRows on first use."""
        spec, trusted = self.spec, FirstRow._trusted
        return [
            (trusted(spec, tuple(map(ord, t))), size)
            for t, size in zip(self.rep_rows, self.sizes)
        ]

    @property
    def orbit_sizes(self) -> list[int]:
        return sorted(self.sizes)

    @cached_property
    def tuples(self) -> list[tuple[int, ...]]:
        """Every row, as sorted code tuples: the union of the orbits, built
        on first use."""
        rows = set()
        for t in self.rep_rows:
            rows |= dihedral_orbit_codes(tuple(map(ord, t)))
        return sorted(rows)


# The largest q whose codes all have a chr: chr stops at 0x10FFFF.
MAX_CHR_FIELD = 0x110000


@lru_cache(maxsize=16)
def _alphabet(q: int) -> tuple[str, ...]:
    """chr(c) for every code c of a field of size q: the chars rows are
    written in, one tuple per q, so every row reads the same char objects.
    Above code 255 each char is its own object, so only a few are kept."""
    return tuple(map(chr, range(q)))


def _prefix_products(spec: FieldSpec, length: int, firsts, low: int = 0) -> list[tuple]:
    """Every prefix (a_1, ..., a_length) with a_1 in firsts and later codes
    >= low, in lex order, as (prefix, p00, p01, p10, p11) with the prefix a
    str of chr(a_i) and P = M(a_length)...M(a_1): a flat walk that steps
    P -> M(a) P for a whole level at a time.  The children of one parent
    read their new first row (a p00 - p10, a p01 - p11) from two line_codes
    rows, sliced at low."""
    line = spec.line_codes
    alphabet = _alphabet(spec.q)
    chars = alphabet[low:]
    neg1 = spec.neg_code(1)
    level = [(alphabet[x], x, neg1, 1, 0) for x in firsts]
    for _ in range(length - 1):
        level = [
            (prefix + c, y0, y1, p00, p01)
            for prefix, p00, p01, p10, p11 in level
            for c, y0, y1 in zip(chars, line(p00, p10)[low:], line(p01, p11)[low:])
        ]
    return level


def _naive_chunk(spec: FieldSpec, n: int, first: int) -> list[str]:
    """The min-first rows with a_1 = first, in lex order: a_2..a_{n-3} are
    scanned over the codes >= first, and the last three entries are solved
    from the prefix product and kept when all three are >= first."""
    alphabet = _alphabet(spec.q)
    add, sub, mul, neg, inv = spec._op_tables()
    inc, neg1 = add[1], neg[1]
    leaves = _prefix_products(spec, n - 3, (first,), first)
    out = []
    # M(z) M(p00) M(y) = -P^(-1) = [[-p11, p01], [p10, -p00]] needs
    # y p00 = 1 + p10 and gives z = p11 - y p01; det P = 1 does the rest.
    # a_{n-1} = p00 must be >= first.  When p00 = 0 every y works and the z
    # are the row -p01 y + p11; only chunk 0 keeps those rows.
    least = max(first, 1)
    for prefix, p00, p01, p10, p11 in leaves:
        if p00 >= least:
            y = mul[inc[p10]][inv[p00]]
            z = sub[p11][mul[y][p01]]
            if y >= first and z >= first:
                out.append(prefix + alphabet[y] + alphabet[p00] + alphabet[z])
        elif p10 == neg1 and not first:
            zs = spec.line_codes(neg[p01], neg[p11])
            out += [prefix + y + "\0" + alphabet[z] for y, z in zip(alphabet, zs)]
    return out


def _mitm_table(spec: FieldSpec, nr: int):
    """Middle products R = M(a_{n-1})...M(a_{nl+1}) keyed by the int
    r00 q + (-r01), R's first row with its second entry negated.  Each
    bucket lists (mid, -r10, -r11, min(mid)) with mid the str of
    (a_{nl+1}, ..., a_{n-1}), in lex order of mid.  The signs are those
    _mitm_chunk needs, so it negates nothing; the min tag, a code, lets
    every chunk share this one table.

    The q children R = M(x) P of a parent P of length nr - 1 are built
    together: their second row is P's first, so -r10 = -p00 and -r11 = -p01
    are the parent's, and -r01 = -(x p01 - p11) is the row
    line_codes(-p01, -p11).  nr = 1 has the one parent P = Id."""
    q = spec.q
    alphabet = _alphabet(q)
    line = spec.line_codes
    neg = spec._op_tables()[3]
    if nr > 1:
        parents = _prefix_products(spec, nr - 1, range(q))
    else:
        parents = [("", 1, 0, 0, 1)]
    table = defaultdict(list)
    for prefix, p00, p01, p10, p11 in parents:
        s10, s11 = neg[p00], neg[p01]
        low = ord(min(prefix)) if prefix else q
        for c, x, r00, m01 in zip(alphabet, range(q), line(p00, p10), line(s11, neg[p11])):
            table[r00 * q + m01].append((prefix + c, s10, s11, x if x < low else low))
    return dict(table)


def _mitm_chunk(spec: FieldSpec, nl: int, first: int, table) -> list[str]:
    """The min-first rows with a_1 = first, in lex order.  Left prefixes are
    walked over the codes >= first to one level short of the leaves L; each
    child x looks up the bucket at R's forced first row before its leaf is
    built, and of a bucket it hits keeps the entries whose min tag and
    solved a_n are >= first."""
    out = []
    get = table.get
    q = spec.q
    alphabet = _alphabet(q)
    line = spec.line_codes
    add, sub, mul, _, _ = spec._op_tables()
    # The leaf of parent P and child x has rows (l00, l01) = (x p00 - p10,
    # x p01 - p11) and (l10, l11) = (p00, p01).  R L = [[0, -1], [1, -a_n]]:
    # R's first row is (l10, -l00), so the key r00 q + (-r01) is
    # p00 q + l00; the (1, 0) entry follows from det R = det L = 1 and gives
    # a_n = (-r10) l01 + (-r11) l11.
    for prefix, p00, p01, p10, p11 in _prefix_products(spec, nl - 1, (first,), first):
        base = p00 * q
        for x, l00 in zip(range(first, q), line(p00, p10)[first:]):
            bucket = get(base + l00)
            if bucket:
                leaf = prefix + alphabet[x]
                m01, m11 = mul[sub[mul[x][p01]][p11]], mul[p01]
                for mid, s10, s11, least in bucket:
                    if least >= first:
                        a_n = add[m01[s10]][m11[s11]]
                        if a_n >= first:
                            out.append(leaf + mid + alphabet[a_n])
    return out


def _min_first_images(t):
    """The images of the row t, a str or a code tuple, under rotation and
    reversal that start with m = t[0], and the size of t's whole dihedral
    orbit.  With r = t[:1] + t[:0:-1], the reversal that fixes position 0,
    they are the rotations of t and of r to the positions holding m:
    k = t.count(m) starts in each, t and r themselves and k - 1 more found
    by index.  That is 2k of the 2n elements of the dihedral group, each
    image met 2n / size times, so size = n len(images) / k."""
    n, m = len(t), t[0]
    k = t.count(m)
    r = t[:1] + t[:0:-1]
    images = {t, r}
    tt, rr = t + t, r + r
    i = j = 0
    for _ in range(k - 1):
        i = t.index(m, i + 1)
        j = r.index(m, j + 1)
        images.add(tt[i : i + n])
        images.add(rr[j : j + n])
    return images, n * len(images) // k


def enumerate_friezes(
    spec: FieldSpec,
    width: int,
    strategy: str = "mitm",
    config: SearchConfig = SearchConfig(),
) -> EnumerationResult:
    """All tame friezes of the given width, as their dihedral orbit catalog.

    The smallest member of an orbit starts with its smallest code, so the
    search looks only for min-first rows (a_1 = min of the row): chunk c
    walks the codes >= c and keeps the rows with a_1 = c.  Chunks come in
    code order, each sorted, so the rows are sorted, and one walk over them
    builds the catalog.  The first row still unmarked is the smallest member
    of its orbit; its min-first images are built and removed from the
    unmarked set, and the orbit's size comes from them.  An image that was
    not found means the rows are not closed under rotation and reversal, as
    the frieze condition makes them.  total_count is the sum of the sizes,
    and result.tuples lists every row again, from the orbits, on first use."""
    if width < 1:
        raise ValueError("enumeration needs width >= 1")
    if strategy not in ("naive", "mitm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n, q = width + 3, spec.q
    work = range(1, n) if strategy == "naive" else [(n + 1) // 2, n // 2] * 2
    check_budget(((q, e) for e in work), config.budget, "estimated matrix operations")
    if q > MAX_CHR_FIELD:
        raise ValueError(
            f"cannot search GF({spec.descriptor}): q = {q} is above {MAX_CHR_FIELD} "
            f"= 0x110000, the limit of codes written as chars (chr stops at 0x10FFFF)"
        )
    rows = []
    # up to n = 6 the mitm middle has n - 1 - n // 2 <= 2 entries: it is
    # solved, not tabulated, by _naive_chunk's completion, whose ~q^(n-3)
    # work stays below the mitm charge
    if strategy == "naive" or n <= 6:
        for first in range(spec.q):
            rows += _naive_chunk(spec, n, first)
    else:
        nl = n // 2
        table = _mitm_table(spec, n - 1 - nl)
        for first in range(spec.q):
            rows += _mitm_chunk(spec, nl, first, table)
        del table
    unmarked = set(rows)
    reps, sizes = [], []
    for t in rows:
        if t not in unmarked:
            continue
        images, size = _min_first_images(t)
        if not images <= unmarked:
            raise AssertionError("solutions not dihedral-closed")
        unmarked -= images
        reps.append(t)
        sizes.append(size)
    return EnumerationResult(spec, width, sum(sizes), reps, sizes)


@dataclass(frozen=True)
class CountCheck:
    width: int
    enumerated: int
    closed_form: int

    @property
    def match(self) -> bool:
        return self.enumerated == self.closed_form


def verify_count_formula(
    spec: FieldSpec,
    max_width: int,
    strategy: str = "mitm",
    config: SearchConfig = SearchConfig(),
) -> list[CountCheck]:
    """Enumerated count vs the closed form for every width up to max_width."""
    rows = []
    for w in range(1, max_width + 1):
        result = enumerate_friezes(spec, w, strategy, config)
        rows.append(
            CountCheck(w, result.total_count, count_friezes(spec.q, spec.char_is_2, w))
        )
    return rows


def catalog_orbits(result: EnumerationResult, fmt: str = "text") -> str:
    """Orbit catalog sorted by canonical representative, as text or as the
    JSON of enumeration_to_json_dict.  Both render the representatives'
    strs with str.translate from one list of q strings per call, each
    element's string with its separator after it, which is cut off the
    end; the list is indexed by the char's code, so every q works."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    spec = result.spec
    if fmt == "json":
        codes = [f"{c}, " for c in range(spec.q)]
        orbits = ", ".join(
            f'{{"rep": [{t.translate(codes)[:-2]}], "size": {size}}}'
            for t, size in zip(result.rep_rows, result.sizes)
        )
        return (
            f'{{"field": {json.dumps(spec.descriptor)}, "width": {result.width}, '
            f'"count": {result.total_count}, "orbits": [{orbits}]}}'
        )
    strs = [spec.element_str(c) + "," for c in range(spec.q)]
    lines = [
        f"field {spec.descriptor}  width {result.width}  "
        f"count {result.total_count}  orbits {len(result.rep_rows)}"
    ]
    for t, size in zip(result.rep_rows, result.sizes):
        lines.append(f"({t.translate(strs)[:-1]})  size {size}")
    return "\n".join(lines)


def enumeration_to_json_dict(result: EnumerationResult) -> dict:
    """The JSON catalog as a dict: catalog_orbits(result, "json") is its
    json.dumps."""
    return {
        "field": result.spec.descriptor,
        "width": result.width,
        "count": result.total_count,
        "orbits": [
            {"rep": list(rep.codes), "size": size} for rep, size in result.orbits
        ],
    }
