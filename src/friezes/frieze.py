"""Tame frieze arrays over a finite field.

A frieze of width w is generated from its first row (a_0, ..., a_{n-1}),
n = w + 3, by running the south-east diagonal recursion down every diagonal.
We index entries by (r, c) where c is the diagonal through a_c and r is the
depth along it:

    entry(-1, c) = 0
    entry(0, c)  = 1
    entry(1, c)  = a_c
    entry(r+1, c) = a_{c+r} * entry(r, c) - entry(r-1, c)      (indices mod n)

In the usual staggered picture, entry(r, c) and entry(r+1, c) are south-east
neighbours and entry(r, c) and entry(r+1, c-1) are south-west neighbours, so
the unimodular rule for the diamond with top entry(r, c) reads

    entry(r+1, c-1) * entry(r+1, c) - entry(r, c) * entry(r+2, c-1) = 1.

The first row generates a frieze exactly when the array closes up with
entry(w+1, c) = 1 and entry(w+2, c) = 0 for every c, which is equivalent to
the matrix criterion M(a_{n-1}) ... M(a_1) M(a_0) = -Id with
M(x) = [[x, -1], [1, 0]].  Closed friezes satisfy the glide reflection

    entry(r, c) = entry(w+1-r, c+r+1)

which also encodes the (w+3)-periodicity; the convention was validated
against the classical width-4 integer example before the golden tests were
frozen.

FirstRow and Frieze store element codes 0..q-1; FieldElements are built only
where the API returns them (FirstRow.elements, Frieze.row, Frieze.entry).
FirstRow(spec, codes) and FirstRow.from_codes check their codes;
FirstRow._trusted skips the checks, for the search's orbit representatives.
frieze_from_first_row runs the recursion above a whole row at a time, by code
ops.  The SL2 step P -> M(a) P of one row is row_products, which
matrix_criterion and moduli.frieze_to_configuration read;
search._families is the search's copy, which every search walk reads: it
steps the children x >= low of a prefix at once from two FieldSpec.line_codes
rows and writes the prefixes as strs of chr(code).  The search result keeps its orbit representatives as such
strs and decodes them to code tuples only when its .orbits are read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FriezeError
from .gf import FieldElement, FieldSpec, Mat2, parse_field_descriptor


@dataclass(frozen=True)
class FirstRow:
    """One period of the first row of a (candidate) frieze: n >= 3 codes."""

    spec: FieldSpec
    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.codes) < 3:
            raise ValueError("a first row needs at least 3 entries")
        if not all(type(c) is int and 0 <= c < self.spec.q for c in self.codes):
            raise ValueError(f"codes {self.codes} out of range for GF({self.spec.q})")

    @classmethod
    def from_codes(cls, spec: FieldSpec, codes: Iterable[int]) -> "FirstRow":
        """Row from input values, each read by spec.element."""
        return cls(spec, tuple(spec.element(c).code for c in codes))

    @classmethod
    def _trusted(cls, spec: FieldSpec, codes: tuple[int, ...]) -> "FirstRow":
        """Row from codes the search guarantees, built without the checks.
        The fields go straight into the instance __dict__, which the frozen
        __setattr__ does not guard; equality, hash and repr read them the same."""
        row = object.__new__(cls)
        fields = row.__dict__
        fields["spec"] = spec
        fields["codes"] = codes
        return row

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def width(self) -> int:
        return len(self.codes) - 3

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, c) for c in self.codes)

    def __str__(self):
        return "(" + ",".join(map(self.spec.element_str, self.codes)) + ")"


@dataclass(frozen=True)
class NotAFrieze:
    """Typed rejection: the row fails the closure test.  Enumeration treats
    this as a normal outcome, not a fault; the offending matrix product is
    kept as a witness."""

    row: FirstRow
    product: Mat2


@dataclass(frozen=True)
class TamenessReport:
    ok: bool
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        assert self.ok == (self.witness is None)


class Frieze:
    """A closed tame frieze: border rows plus w interior rows, one period wide.

    Stored rows run r = -1 (zeros), 0 (ones), 1..w (entries), w+1 (ones),
    w+2 (zeros), each a tuple of n = w + 3 element codes indexed by diagonal.
    Columns are read mod n, so the (w+3)-periodicity is a property of the
    storage, not one that can be checked on it.
    """

    __slots__ = ("spec", "width", "n", "first_row", "_rows")

    def __init__(self, first_row: FirstRow, rows: dict[int, tuple[int, ...]]):
        self.spec = first_row.spec
        self.n = first_row.n
        self.width = first_row.n - 3
        self.first_row = first_row
        self._rows = rows

    @property
    def row_range(self) -> tuple[int, int]:
        return (-1, self.width + 2)

    def row(self, r: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, c) for c in self._rows[r])

    def entry(self, r: int, c: int) -> FieldElement:
        return FieldElement(self.spec, self._rows[r][c % self.n])

    def entry_code(self, r: int, c: int) -> int:
        return self._rows[r][c % self.n]

    def __eq__(self, other):
        if not isinstance(other, Frieze):
            return NotImplemented
        # the row dicts have keys -1..w+2, so equal rows mean equal widths
        return self.spec == other.spec and self._rows == other._rows

    def __hash__(self):
        return hash((self.spec, self.first_row.codes))

    def __repr__(self):
        return f"Frieze(GF({self.spec.q}), width={self.width}, first_row={self.first_row})"

    def satisfies_unimodular_rule(self) -> bool:
        """ad - bc = 1 at every diamond of the stored extended array."""
        s = self.spec
        for r in range(-1, self.width + 1):
            for c in range(self.n):
                left = self.entry_code(r + 1, c - 1)
                right = self.entry_code(r + 1, c)
                top = self.entry_code(r, c)
                bottom = self.entry_code(r + 2, c - 1)
                det = s.sub_code(s.mul_code(left, right), s.mul_code(top, bottom))
                if det != 1:
                    return False
        return True

    def satisfies_glide_reflection(self) -> bool:
        """entry(r, c) == entry(w+1-r, c+r+1) over the stored rows."""
        w = self.width
        for r in range(-1, w + 3):
            for c in range(self.n):
                if self.entry_code(r, c) != self.entry_code(w + 1 - r, c + r + 1):
                    return False
        return True


def row_products(spec: FieldSpec, codes: Sequence[int]) -> list[tuple[int, ...]]:
    """The products M(a_k) ... M(a_1), k = 1..len(codes), as code tuples
    (p00, p01, p10, p11), by the step M(a) P = (a p00 - p10, a p01 - p11, p00, p01)."""
    mul, sub = spec.mul_code, spec.sub_code
    p00, p01, p10, p11 = 1, 0, 0, 1
    out = []
    for x in codes:
        p00, p01, p10, p11 = sub(mul(x, p00), p10), sub(mul(x, p01), p11), p00, p01
        out.append((p00, p01, p10, p11))
    return out


def matrix_criterion(row: FirstRow | Sequence[FieldElement]) -> tuple[bool, Mat2]:
    """Whether M(a_{n-1}) ... M(a_1) M(a_0) = -Id, with the product returned
    for diagnostics.  Accepts any n >= 1 entries so partial products can be
    probed; a FirstRow enforces n >= 3 itself.
    """
    if isinstance(row, FirstRow):
        spec, codes = row.spec, row.codes
    else:
        elems = tuple(row)
        if not elems:
            raise ValueError("need at least one entry")
        spec, codes = elems[0].spec, [e.code for e in elems]
    product = row_products(spec, codes)[-1]
    n1 = spec.neg_code(1)
    return product == (n1, 0, 0, n1), Mat2.from_codes(spec, product)


def frieze_from_first_row(row: FirstRow) -> Frieze | NotAFrieze:
    """Run the diagonal recursion one whole row at a time from rows -1 and 0:
    row r+1 is the first row rotated by r, times row r, minus row r-1, entry
    by entry.  Accept iff the array closes up with row w+1 all ones and row
    w+2 all zeros (equivalently, iff the matrix criterion holds)."""
    codes, n = row.codes, row.n
    mul, sub = row.spec.mul_code, row.spec.sub_code
    prev, cur = (0,) * n, (1,) * n
    rows = {-1: prev, 0: cur}
    for r in range(n - 1):
        prev, cur = cur, tuple(map(sub, map(mul, codes[r:] + codes[:r], cur), prev))
        rows[r + 1] = cur
    if prev != (1,) * n or cur != (0,) * n:
        return NotAFrieze(row, matrix_criterion(row)[1])
    return Frieze(row, rows)


def _diamond3(rows: list[tuple[int, ...]], i: int, c: int) -> tuple[tuple[int, int, int], ...]:
    """The 3x3 diamond centred at column c of rows[i], as matrix rows
    (a b c / d e f / g h i); columns are read mod n."""
    up2, up1, mid, down1, down2 = rows[i - 2 : i + 3]
    left, right = c - 1, (c + 1) % len(mid)
    return (
        (mid[left], up1[c], up2[right]),
        (down1[left], mid[c], up1[right]),
        (down2[left], down1[c], mid[right]),
    )


def _rank_is_2(spec: FieldSpec, m: tuple[tuple[int, int, int], ...]) -> bool:
    mul, sub, add = spec.mul_code, spec.sub_code, spec.add_code
    (a, b, c), (d, e, f_), (g, h, i) = m
    m00 = sub(mul(e, i), mul(f_, h))
    m01 = sub(mul(d, i), mul(f_, g))
    m02 = sub(mul(d, h), mul(e, g))
    det = add(sub(mul(a, m00), mul(b, m01)), mul(c, m02))
    if det != 0:
        return False
    minors = (
        m00, m01, m02,
        sub(mul(b, i), mul(c, h)),
        sub(mul(a, i), mul(c, g)),
        sub(mul(a, h), mul(b, g)),
        sub(mul(b, f_), mul(c, e)),
        sub(mul(a, f_), mul(c, d)),
        sub(mul(a, e), mul(b, d)),
    )
    return any(x != 0 for x in minors)


def check_tame(f: Frieze, all_diamonds: bool = False) -> TamenessReport:
    """Verify every 3x3 diamond centred at a zero of the frieze has rank 2.

    Diamonds with a nonzero centre are rank 2 automatically (their
    determinant vanishes by the Desnanot-Jacobi identity) and are skipped.
    The zeros lie in rows 1..w, so their diamonds read only the stored rows
    -1..w+2.  With all_diamonds=True the check instead covers every centre
    in rows -1..w+2, on the array extended by the two rows the recursion
    forces on each side: rows -2 and w+3 are all -1, row w+4 is the negated
    first row and row -3 is row w+4 shifted by two places (the glide
    reflection).  This is the debug mode that validates the zero-centre
    shortcut.
    """
    w, n = f.width, f.n
    rows = [f._rows[r] for r in range(-1, w + 3)]
    if all_diamonds:
        neg = f.spec.neg_code
        minus_one, below = (neg(1),) * n, tuple(map(neg, f.first_row.codes))
        rows = [below[-2:] + below[:-2], minus_one, *rows, minus_one, below]
        top = -3
        centres = ((r, c) for r in range(-1, w + 3) for c in range(n))
    else:
        top = -1
        centres = ((r, c) for r in range(1, w + 1) for c, x in enumerate(rows[r + 1]) if x == 0)
    for r, c in centres:
        if not _rank_is_2(f.spec, _diamond3(rows, r - top, c)):
            return TamenessReport(ok=False, witness=(r, c))
    return TamenessReport(ok=True)


def dihedral_orbit_codes(codes: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All rotations of the tuple and of its reversal, each one slice of the
    tuple written twice or of that reversed."""
    n = len(codes)
    twice = codes + codes
    rev = twice[::-1]
    orbit = {twice[i : i + n] for i in range(n)}
    orbit.update(rev[i : i + n] for i in range(n))
    return orbit


def dihedral_canonical(row: FirstRow) -> tuple[FirstRow, int]:
    """Lexicographically minimal tuple in the dihedral orbit of the row
    (by element codes), together with the orbit size."""
    orbit = dihedral_orbit_codes(row.codes)
    return FirstRow(row.spec, min(orbit)), len(orbit)


def render_frieze(f: Frieze, fmt: str = "text") -> str:
    """Render one fundamental domain (text) or the full JSON document.

    The text layout is the staggered triangle: row r holds the n-1-r leading
    entries of row r, indented half a cell further each row.
    """
    if fmt == "json":
        return json.dumps(frieze_to_json_dict(f))
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    w, n = f.width, f.n
    cells = [
        [f.spec.element_str(f.entry_code(r, c)) for c in range(n - 1 - r)]
        for r in range(0, w + 2)
    ]
    cell_w = max(len(s) for line in cells for s in line)
    if (cell_w + 1) % 2:
        cell_w += 1
    half = (cell_w + 1) // 2
    lines = []
    for r, line in enumerate(cells):
        text = " " * (r * half) + " ".join(s.ljust(cell_w) for s in line)
        lines.append(text.rstrip())
    return "\n".join(lines)


def frieze_to_json_dict(f: Frieze) -> dict:
    return {
        "field": f.spec.descriptor,
        "width": f.width,
        "first_row": list(f.first_row.codes),
        "rows": [list(f._rows[r]) for r in range(-1, f.width + 3)],
    }


def parse_frieze_json(text: str) -> Frieze:
    """Rebuild a frieze from its JSON document and verify the stored rows.
    Every malformed document raises ValueError."""
    try:
        doc = json.loads(text)
        spec = parse_field_descriptor(doc["field"])
        row = FirstRow.from_codes(spec, map(spec.checked_code, doc["first_row"]))
        stored = [list(map(spec.checked_code, r)) for r in doc["rows"]]
        width = doc["width"]
    except (KeyError, TypeError, AttributeError, FriezeError) as exc:
        raise ValueError(f"malformed frieze document {text!r:.80}: {exc!r}") from exc
    if type(width) is not int or row.width != width:
        raise ValueError("width inconsistent with first row length")
    built = frieze_from_first_row(row)
    if isinstance(built, NotAFrieze):
        raise ValueError("first row does not generate a frieze")
    rows = [list(built._rows[r]) for r in range(-1, built.width + 3)]
    if rows != stored:
        raise ValueError("stored rows disagree with the recursion")
    return built
