"""Exhaustive enumeration of tame friezes of a given width over GF(q).

A width-w frieze is an n-tuple (n = w + 3) whose matrices M(a) = [[a, -1],
[1, 0]] multiply to M(a_n)...M(a_1) = -Id: three independent equations on
SL2(F_q), so about q^(n-3) of the q^n tuples solve it.  Two strategies:

  naive  depth-first over a_1..a_{n-4}, carrying the prefix product P; each
         child x = a_{n-3} of P, with L = M(x) P, is completed in one loop
         over the children: M(a_n) M(a_{n-1}) M(a_{n-2}) = -L^(-1) forces
         a_{n-1} = l00 and determines a_{n-2} and a_n (one completion when
         l00 != 0, q or none when l00 = 0).  ~q^(n-3) states in all.

  mitm   split n = nl + nr + 1 with nl = n // 2; tabulate the q^nr middle
         products R = M(a_{n-1})...M(a_{nl+1}), keyed by the int
         r00 q + (-r01) and holding (mid, -r10, -r11); for each left product
         L = M(a_nl)...M(a_1), R L = [[0, -1], [1, -a_n]] fixes R's first
         row as (l10, -l00), and each bucket entry gives
         a_n = (-r10) l01 + (-r11) l11.  q^nl leaves plus the q^nr table.
         A middle of nr <= 2 entries is solved, not tabulated (M(a) M(b) =
         [[ab - 1, -a], [b, -1]]), which is the naive completion: at n <= 6
         mitm runs the naive chunks, still charged its own budget estimate.

The naive chunks, the mitm table and the mitm chunks all read their prefixes
from _families, the search's one copy of the SL2 step (frieze.row_products
is the single-row one).  It hands each prefix over with the first row of its
product and the first rows (x p00 - p10, x p01 - p11) of its children
x >= low, two FieldSpec.line_codes rows computed from low, so the callers
only complete or look up children.  The completions read op table rows from
FieldSpec._op_tables: lists up to gf.LAZY_TABLE_LIMIT, built on a field's
first search above gf.TABLE_LIMIT, rows computed per read above.

Rows, prefixes and mids are strs of chr(code) from one alphabet per q
(_alphabet): str order is the lex order of the code tuples and a str keeps
its hash, so codes stop at 0x10FFFF and q > 0x110000 is refused.  The catalog
renders the representatives' strs with str.translate; only
EnumerationResult.orbits (or .tuples) decodes them, once.

Both search only min-first rows, whose first code is their smallest, as the
smallest member of a dihedral orbit is: chunk c holds the rows with a_1 = c
and every code >= c (mitm's shared table tags entries with min(mid)).  Both
strategies give the same lex-sorted rows, the chunks in code order, and one
walk over them builds the catalog.  The search runs in one thread.
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


def _families(spec: FieldSpec, depth: int, firsts, low: int = 0):
    """Every prefix (a_1, ..., a_depth) with a_1 in firsts and later codes
    >= low, in lex order, as (prefix, p00, p01, children): prefix the str of
    chr(a_i), (p00, p01) the first row of P = M(a_depth)...M(a_1), and
    children the triples (chr x, x p00 - p10, x p01 - p11) of the first rows
    of M(x) P for x >= low, two line_codes rows.  This is the search's copy
    of the SL2 step: a child's row becomes its own family's (p00, p01) and
    the parent's row its (p10, p11), so no caller sees P's second row.
    Depth 0 is P = Id, whose children are firsts.  The inner levels are
    lists; the last is stepped one family at a time as it is read."""
    neg1 = spec.p - 1  # the code of -1: digit p - 1 in the constant place
    families = [("", 1, 0, [(chr(x), x, neg1) for x in firsts])]
    if depth:
        chars, line = _alphabet(spec.q)[low:], spec.line_codes

        def step(level):
            for prefix, p00, p01, children in level:
                for c, y0, y1 in children:
                    yield prefix + c, y0, y1, zip(chars, line(y0, p00, low), line(y1, p01, low))

        for _ in range(depth - 1):
            families = list(step(families))
        families = step(families)
    return families


def _naive_chunk(spec: FieldSpec, n: int, first: int) -> list[str]:
    """The min-first rows with a_1 = first, in lex order: the children
    a_{n-3} = x >= first of every family a_1..a_{n-4} over the codes >= first
    completed in one loop, no leaf built."""
    alphabet = _alphabet(spec.q)
    add, sub, mul, neg, inv = spec._op_tables()
    inc, neg1 = add[1], neg[1]
    # Child x of P has L = M(x) P = [[x p00 - p10, x p01 - p11], [p00, p01]].
    # M(z) M(l00) M(y) = -L^(-1) = [[-p01, l01], [p00, -l00]] needs
    # y l00 = 1 + p00 and gives z = p01 - y l01; det L = 1 does the rest.
    # a_{n-1} = l00 must be >= first.  When l00 = 0 and p00 = -1 every y
    # works, z = -l01 y + p01; only chunk 0 keeps those rows.
    least = first or 1
    out = []
    for prefix, p00, p01, children in _families(spec, n - 4, (first,), first):
        solve, shift = mul[inc[p00]], sub[p01]
        for c, l00, l01 in children:
            if l00 >= least:
                y = solve[inv[l00]]
                if y >= first:
                    z = shift[mul[y][l01]]
                    if z >= first:
                        out.append(f"{prefix}{c}{alphabet[y]}{alphabet[l00]}{alphabet[z]}")
            elif p00 == neg1 and not first:
                zs = spec.line_codes(neg[l01], neg[p01])
                out += [f"{prefix}{c}{y}\0{alphabet[z]}" for y, z in zip(alphabet, zs)]
    return out


def _mitm_table(spec: FieldSpec, nr: int):
    """Middle products R = M(a_{n-1})...M(a_{nl+1}) keyed by the int
    r00 q + (-r01), R's first row with its second entry negated.  Each
    bucket lists (mid, -r10, -r11, min(mid)) with mid the str of
    (a_{nl+1}, ..., a_{n-1}), in lex order of mid.  The signs are those
    _mitm_chunk needs, so it negates nothing; the min tag, a code, lets
    every chunk share this one table.  R is a child x of a family P of
    length nr - 1, so (r10, r11) is P's first row."""
    q = spec.q
    neg = spec._op_tables()[3]
    table = defaultdict(list)
    for prefix, p00, p01, children in _families(spec, nr - 1, range(q)):
        s10, s11 = neg[p00], neg[p01]
        low = ord(min(prefix)) if prefix else q
        for x, (c, r00, r01) in enumerate(children):
            table[r00 * q + neg[r01]].append((prefix + c, s10, s11, x if x < low else low))
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
    add, _, mul, _, _ = spec._op_tables()
    # The leaf of family P and child x has rows (l00, l01) = (x p00 - p10,
    # x p01 - p11) and (l10, l11) = (p00, p01).  R L = [[0, -1], [1, -a_n]]:
    # R's first row is (l10, -l00), so the key r00 q + (-r01) is
    # p00 q + l00; the (1, 0) entry follows from det R = det L = 1 and gives
    # a_n = (-r10) l01 + (-r11) l11.
    for prefix, p00, p01, children in _families(spec, nl - 1, (first,), first):
        base = p00 * q
        for c, l00, l01 in children:
            bucket = get(base + l00)
            if bucket:
                leaf = prefix + c
                m01, m11 = mul[l01], mul[p01]
                for mid, s10, s11, least in bucket:
                    if least >= first:
                        a_n = add[m01[s10]][m11[s11]]
                        if a_n >= first:
                            out.append(f"{leaf}{mid}{alphabet[a_n]}")
    return out


def _min_first_images(t):
    """The images of the row t, a str or a code tuple, under rotation and
    reversal that start with m = t[0], and the size of t's dihedral orbit.
    Each of the k = t.count(m) starts i of t, from one index scan, gives the
    rotation tt[i : i + n] and the reversal read back from i, rr[n - i : 2n - i]
    with r = t[:1] + t[:0:-1].  That is 2k of the 2n elements of the dihedral
    group, each image met 2n / size times, so size = n len(images) / k."""
    n, m = len(t), t[0]
    k = t.count(m)
    r = t[:1] + t[:0:-1]
    images = {t, r}
    tt, rr = t + t, r + r
    i = 0
    for _ in range(k - 1):
        i = t.index(m, i + 1)
        images.add(tt[i : i + n])
        images.add(rr[n - i : 2 * n - i])
    return images, n * len(images) // k


def enumerate_friezes(
    spec: FieldSpec,
    width: int,
    strategy: str = "mitm",
    config: SearchConfig = SearchConfig(),
) -> EnumerationResult:
    """All tame friezes of the given width, as their dihedral orbit catalog.

    The search finds the min-first rows (a_1 = min of the row), sorted, and
    one walk over them builds the catalog.  The first row t still unmarked
    is the smallest member of its orbit, whose min-first images are removed
    from the unmarked set in one pass: when t[0] occurs once they are t and
    its reversal r = t[:1] + t[:0:-1], the orbit of size n if r = t and 2n
    otherwise; else _min_first_images builds them.  An image not removed
    means the rows are not closed under rotation and reversal, as the frieze
    condition makes them.  total_count is the sum of the sizes, and
    result.tuples lists every row again, from the orbits, on first use."""
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
    # up to n = 6 the mitm middle, n - 1 - n // 2 <= 2 entries, is solved by
    # _naive_chunk's completion, whose ~q^(n-3) work is below the mitm charge
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
        if t.count(t[0]) == 1:  # t and r are its only min-first images
            r = t[:1] + t[:0:-1]
            left, size = len(unmarked) - 1, n if r == t else 2 * n
            unmarked.discard(r)
        else:
            images, size = _min_first_images(t)
            left = len(unmarked) - len(images)
            unmarked -= images
        if len(unmarked) != left:
            raise AssertionError("solutions not dihedral-closed")
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
