"""Exact arithmetic in small finite fields GF(p^k), the projective line over
them, and the 2x2 matrix that witnesses a failed frieze criterion.

Elements are identified by integer codes 0..q-1: the coefficient vector of
the element (constant term first) read as a base-p integer.  Code 0 is zero
and code 1 is one, so the code order is a stable element enumeration that
doubles as the serialization format.  Points of P^1 are indexed 0..q: index
i < q is (i : 1) and q is (1 : 0).  FieldSpec.point_vector and point_index
are the one place that convention is written; ProjPoint and the PGL2 point
permutations read them.  FieldSpec._op_tables is the one builder of op
tables, all from the powers of a primitive element, not from q^2
polynomial products: q x q lists at construction up to TABLE_LIMIT and
on first use by the search or the signed C_n walk up to LAZY_TABLE_LIMIT,
and O(q) rows computed per read above it.  The code ops read those tables
at every size once they exist and reduce polynomials on the fly before;
codes and table values are those of the raw operations.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from .errors import DescriptorError, NonPrimeCharacteristic, ReducibleModulus

TABLE_LIMIT = 256
# The largest field whose q x q op tables are built on first use: their
# 3 q^2 entries take at most 34 MiB (GF(727); 25 MiB for GF(3^6)) and would
# take about 1.9 GB at GF(4999), the largest prime a width-1 search fits in
# the default budget.
LAZY_TABLE_LIMIT = 729


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_rem(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, coefficients over F_p.

    Both polynomials are coefficient lists with the constant term first.
    """
    a = list(a)
    dm = len(m) - 1
    for d in range(len(a) - 1, dm - 1, -1):
        c = a[d]
        if c:
            a[d] = 0
            for i in range(dm):
                a[d - dm + i] = (a[d - dm + i] - c * m[i]) % p
    rem = a[:dm]
    while len(rem) < dm:
        rem.append(0)
    return rem


def _poly_mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """The product a b modulo the monic polynomial m, coefficients over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_rem([c % p for c in prod], m, p)


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Ben-Or's test: the monic m of degree k is irreducible over F_p iff
    gcd(m, x^(p^i) - x) = 1 for every i <= k // 2, since x^(p^i) - x is the
    product of the monic irreducibles whose degree divides i.  h = x^(p^i)
    mod m is raised to the p-th power by repeated squaring, so the test
    takes O(k^3 log p) steps, not the p^(k/2) divisors of trial division."""
    k = len(m) - 1
    h = [0, 1]
    for _ in range(k // 2):
        base, e, h = h, p, [1]
        while e:
            if e & 1:
                h = _poly_mulmod(h, base, m, p)
            base, e = _poly_mulmod(base, base, m, p), e >> 1
        a, b = list(m), [(c - (i == 1)) % p for i, c in enumerate(h)]
        while any(b):  # Euclid, each remainder made monic
            while not b[-1]:
                b.pop()
            inv = pow(b[-1], -1, p)
            a, b = b, _poly_rem(a, [c * inv % p for c in b], p)
        if len(a) > 1:
            return False
    return True


def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p.

    Candidates are compared by their coefficient tuples read from the x^(k-1)
    coefficient down to the constant one, so the choice is deterministic.
    For (p, k) = (2, 2) this picks x^2 + x + 1.
    """
    for high_to_low in itertools.product(range(p), repeat=k):
        mod = tuple(reversed(high_to_low)) + (1,)
        if _is_irreducible(mod, p):
            return mod
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


class _RawRow:
    """Reads like row a of a q x q op table, row[b] = op(a, b), but computes
    every read (see FieldSpec._op_tables)."""

    __slots__ = ("op", "a", "q")

    def __init__(self, op, a: int, q: int):
        self.op, self.a, self.q = op, a, q

    def __getitem__(self, b: int) -> int:
        return self.op(self.a, b)

    def __iter__(self):
        return map(self.op, itertools.repeat(self.a, self.q), range(self.q))


class FieldSpec:
    """The finite field GF(p^k) with a fixed element order and op tables.

    Immutable after construction, apart from caches filled on use; safe to
    share between threads.  Above TABLE_LIMIT the op tables are such a cache
    (see _op_tables).  All low-level arithmetic is exposed on integer codes
    (``add_code`` and friends); ``element`` wraps a code into a
    :class:`FieldElement`.  ``descriptor`` is the canonical string "p",
    "p^k" or "p^k:c0,c1,...,1", with the modulus suffix only when the
    modulus is not the default one.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "descriptor",
        "_digit_cache",
        "_add",
        "_sub",
        "_mul",
        "_neg",
        "_inv",
        "_p1_perms",
    )

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self.descriptor = str(p) if k == 1 else f"{p}^{k}"
        if k == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        elif modulus is None:
            self.modulus = _default_modulus(p, k)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != k + 1 or mod[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {k} (constant term first)"
                )
            if not _is_irreducible(mod, p):
                raise ReducibleModulus(
                    f"modulus {list(mod)} factors over F_{p}"
                )
            self.modulus = mod
            if mod != _default_modulus(p, k):
                self.descriptor += ":" + ",".join(map(str, mod))

        self._digit_cache = None
        self._add = self._sub = self._mul = self._neg = self._inv = None
        self._p1_perms = None
        if self.q <= TABLE_LIMIT:
            self._op_tables()

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.descriptor!r})"

    @property
    def char_is_2(self) -> bool:
        return self.p == 2

    # -- raw code arithmetic -------------------------------------------

    def _digits(self, code: int) -> tuple[int, ...]:
        if self._digit_cache is not None:
            return self._digit_cache[code]
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(code % p)
            code //= p
        return tuple(out)

    def _fold(self, digits: Iterable[int]) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d
        return code

    def _add_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._fold((x + y) % self.p for x, y in zip(da, db))

    def _neg_raw(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._fold((-x) % self.p for x in self._digits(a))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._fold(
            _poly_mulmod(self._digits(a), self._digits(b), self.modulus, self.p)
        )

    def _op_tables(self) -> tuple:
        """(add, sub, mul, neg, inv), read as add[a][b] = a + b and so on,
        with inv[0] = None: built on the first call into the slots that the
        code ops read, so from then on they read tables at every size.  One
        pass finds exp[i] = g^i, g the smallest code of order q - 1, then
        log and inv; exp, stored twice over, gives a b = exp[log a + log b]
        with no reduction.  Up to LAZY_TABLE_LIMIT add, sub and mul are
        q x q lists, add built digit level by digit level: add[a][b] =
        add_p[a0][b0] + p add[a'][b'] with code a = a0 + p a'.  Callers above
        TABLE_LIMIT already do Omega(q^2) work under their budget.  Above
        LAZY_TABLE_LIMIT they are q _RawRows each, computing every read by
        the raw ops or, for mul, from exp and log: O(q) memory in all.  _mul,
        the slot tested here, is assigned last."""
        if self._mul is None:
            q, p = self.q, self.p
            if self.k > 1:
                self._digit_cache = [self._digits(c) for c in range(q)]
            for g in range(1, q):
                exp, x = [1], g
                while x != 1:
                    exp.append(x)
                    x = self._mul_raw(x, g)
                if len(exp) == q - 1:
                    break
            log, inv = [None] * q, [None] * q
            for i, x in enumerate(exp):
                log[x], inv[x] = i, exp[-i]
            exp += exp
            if q <= LAZY_TABLE_LIMIT:
                add = add_p = [[(a + b) % p for b in range(p)] for a in range(p)]
                for _ in range(self.k - 1):
                    scaled = [[p * y for y in row] for row in add]
                    add = [[x + y for y in high for x in low] for high in scaled for low in add_p]
                neg = [row.index(0) for row in add]
                sub = [[row[b] for b in neg] for row in add]
                logs = log[1:]
                mul = [[0] * q] + [[0] + [exp[i + j] for j in logs] for i in logs]
            else:
                neg, add_raw = [self._neg_raw(c) for c in range(q)], self._add_raw

                def sub_raw(a: int, b: int) -> int:
                    return add_raw(a, neg[b])

                def mul_log(a: int, b: int) -> int:
                    return exp[log[a] + log[b]] if a and b else 0

                add, sub, mul = (
                    [_RawRow(op, a, q) for a in range(q)] for op in (add_raw, sub_raw, mul_log)
                )
            self._add, self._sub, self._neg, self._inv = add, sub, neg, inv
            self._mul = mul
        return self._add, self._sub, self._mul, self._neg, self._inv

    # -- public code ops -----------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        t = self._add
        return t[a][b] if t is not None else self._add_raw(a, b)

    def sub_code(self, a: int, b: int) -> int:
        t = self._sub
        return t[a][b] if t is not None else self._add_raw(a, self._neg_raw(b))

    def mul_code(self, a: int, b: int) -> int:
        t = self._mul
        return t[a][b] if t is not None else self._mul_raw(a, b)

    def neg_code(self, a: int) -> int:
        t = self._neg
        return t[a] if t is not None else self._neg_raw(a)

    def line_codes(self, a: int, b: int, low: int = 0) -> list[int]:
        """The codes of a x - b for every x >= low, in code order: one row of
        the SL2 step, read from the op tables, or stepped as a progression
        mod p in a prime field above LAZY_TABLE_LIMIT."""
        if self.k == 1 and self.q > LAZY_TABLE_LIMIT:
            p = self.p
            return [y % p for y in range(a * low - b, a * p - b, a)] if a else [-b % p] * (p - low)
        if self._mul is None:
            self._op_tables()
        shift, row = self._add[self._neg[b]], self._mul[a]
        xs = row[low:] if type(row) is list else map(row.__getitem__, range(low, self.q))
        return [shift[ax] for ax in xs]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        t = self._inv
        return t[a] if t is not None else self.pow_code(a, self.q - 2)

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_code(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_code(result, base)
            base = self.mul_code(base, base)
            e >>= 1
        return result

    # -- elements --------------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Wrap a code (int) or a coefficient sequence into an element.

        For prime fields an int is reduced modulo p; for extensions it must
        already be a valid code in 0..q-1.
        """
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            if self.k == 1:
                return FieldElement(self, value % self.p)
            if not 0 <= value < self.q:
                raise ValueError(f"code {value} out of range for GF({self.q})")
            return FieldElement(self, value)
        digits = [int(c) % self.p for c in value]
        if len(digits) > self.k:
            raise ValueError("coefficient vector longer than the degree")
        digits += [0] * (self.k - len(digits))
        return FieldElement(self, self._fold(digits))

    def checked_code(self, code: int) -> int:
        """An element code read from input, which must be an int (not a bool)
        in 0..q-1.  Unlike element(), it never reduces an int modulo p."""
        if type(code) is not int or not 0 <= code < self.q:
            raise ValueError(f"code {code!r} out of range for GF({self.q})")
        return code

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        """All q elements in code order: 0 first, then 1, then the rest."""
        return [FieldElement(self, c) for c in range(self.q)]

    def element_str(self, code: int) -> str:
        if self.k == 1:
            return str(code)
        digits = self._digits(code)
        terms = []
        for i in range(self.k - 1, -1, -1):
            d = digits[i]
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append("a" if d == 1 else f"{d}a")
            else:
                terms.append(f"a^{i}" if d == 1 else f"{d}a^{i}")
        return "+".join(terms) if terms else "0"

    # -- the projective line ---------------------------------------------

    def point_vector(self, i: int) -> tuple[int, int]:
        """The vector of point index i: (i, 1), or (1, 0) for i = q."""
        return (1, 0) if i == self.q else (i, 1)

    def point_index(self, x: int, y: int) -> int:
        """The index of the point (x : y): x y^-1, or q when y = 0."""
        if y:
            return self.mul_code(x, self.inv_code(y))
        if x:
            return self.q
        raise ValueError("(0 : 0) is not a projective point")

    def point_str(self, i: int) -> str:
        return "inf" if i == self.q else self.element_str(i)


class FieldElement:
    """An element of a FieldSpec; exact arithmetic through operator overloads."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def _coerce(self, other):
        if isinstance(other, FieldElement) and other.spec == self.spec:
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_code(self.code, other.code))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_code(self.code, other.code))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_code(self.code, other.code))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.spec, self.spec.mul_code(self.code, self.spec.inv_code(other.code))
        )

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_code(self.code))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_code(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_code(self.code))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.code == other.code and self.spec == other.spec

    def __hash__(self):
        return hash((self.code, self.spec))

    def __str__(self):
        return self.spec.element_str(self.code)

    def __repr__(self):
        return f"GF({self.spec.q})({self})"


class ProjPoint:
    """A point of P^1(F_q), stored as its index 0..q (see the module
    docstring), so equality is index comparison.  x and y are the codes of
    FieldSpec.point_vector: (x : 1) when affine, (1 : 0) at infinity.
    """

    __slots__ = ("spec", "index")

    def __init__(self, x: FieldElement, y: FieldElement):
        if x.spec != y.spec:
            raise ValueError("coordinates from different fields")
        self.spec = x.spec
        self.index = x.spec.point_index(x.code, y.code)

    @classmethod
    def from_index(cls, spec: FieldSpec, index: int) -> "ProjPoint":
        if not 0 <= index <= spec.q:
            raise ValueError(f"point index {index} out of range")
        pt = object.__new__(cls)
        pt.spec = spec
        pt.index = index
        return pt

    @property
    def x(self) -> int:
        return self.spec.point_vector(self.index)[0]

    @property
    def y(self) -> int:
        return self.spec.point_vector(self.index)[1]

    @property
    def is_infinity(self) -> bool:
        return self.index == self.spec.q

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.index == other.index and self.spec == other.spec

    def __hash__(self):
        return hash((self.index, self.spec))

    def __str__(self):
        return self.spec.point_str(self.index)

    def __repr__(self):
        return f"ProjPoint({self})"


class Mat2:
    """A 2x2 matrix over a FieldSpec, row-major entry codes a, b, c, d: the
    product that matrix_criterion hands back as a witness."""

    __slots__ = ("spec", "a", "b", "c", "d")

    @classmethod
    def from_codes(cls, spec: FieldSpec, codes: Sequence[int]) -> "Mat2":
        m = object.__new__(cls)
        m.spec = spec
        m.a, m.b, m.c, m.d = codes
        return m

    @property
    def codes(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> FieldElement:
        s = self.spec
        return FieldElement(
            s, s.sub_code(s.mul_code(self.a, self.d), s.mul_code(self.b, self.c))
        )

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.codes == other.codes and self.spec == other.spec

    def __hash__(self):
        return hash((self.codes, self.spec))

    def __repr__(self):
        e = [self.spec.element_str(c) for c in self.codes]
        return f"Mat2[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]"


def pgl2_point_permutations(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """The action on P^1 of PGL2(F_q), as q^3 - q permutations of point
    indices: one per invertible (a, b, c, d) scaled so that its first
    nonzero entry is 1, first a = 1 (d != bc), then a = 0, b = 1 (c != 0),
    each in lex order.  The O(q^4) group-scan oracle of the tests, which the
    orbit keys no longer use."""
    if spec._p1_perms is None:
        q, mul, add, index = spec.q, spec.mul_code, spec.add_code, spec.point_index
        vectors = [spec.point_vector(i) for i in range(q + 1)]
        reps = [(1, b, c, d) for b in range(q) for c in range(q) for d in range(q) if d != mul(b, c)]
        reps += [(0, 1, c, d) for c in range(1, q) for d in range(q)]
        spec._p1_perms = tuple(
            tuple([index(add(mul(a, x), mul(b, y)), add(mul(c, x), mul(d, y))) for x, y in vectors])
            for a, b, c, d in reps
        )
    return spec._p1_perms


def parse_code(text: str) -> int:
    """An element code written as text: ASCII decimal digits, surrounding
    whitespace stripped.  int() alone would also read signs, underscores and
    non-ASCII digits.  Range checks are FieldSpec.checked_code's."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an element code")
    return int(digits)


@functools.lru_cache(maxsize=32)
def parse_field_descriptor(text: str) -> FieldSpec:
    """Build a FieldSpec from a descriptor like "5", "2^2" or "2^2:1,1,1".

    The optional modulus suffix lists coefficients constant term first, and
    every number is read by parse_code's rule.  Results are shared per process,
    at most 32, each with its op tables once built: 3 q^2 entries, 1.6 MiB for
    GF(256) or GF(257), at most 34 MiB up to LAZY_TABLE_LIMIT and O(q) above
    it.  A bad descriptor raises on every call.
    """
    text = text.strip()
    body, _, mod_part = text.partition(":")
    modulus = None
    if mod_part:
        try:
            modulus = [parse_code(c) for c in mod_part.split(",")]
        except ValueError as exc:
            raise DescriptorError(f"bad modulus in descriptor {text!r}") from exc
    base, caret, deg = body.partition("^")
    try:
        p = parse_code(base)
        k = parse_code(deg) if caret else 1
    except ValueError as exc:
        raise DescriptorError(f"bad field descriptor {text!r}") from exc
    if k < 1:
        raise DescriptorError(f"bad extension degree in {text!r}")
    if not _is_prime(p):
        raise DescriptorError(
            f"{p} is not prime; write prime-power fields as p^k (e.g. 2^2)"
        )
    if modulus is not None and k == 1:
        raise DescriptorError("prime fields take no modulus suffix")
    return FieldSpec(p, k, modulus)
