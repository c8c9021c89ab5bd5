"""Dense univariate polynomials and finite sequences over a coefficient domain.

Representation conventions
--------------------------
A polynomial stores its coefficients ascending: ``coeffs[k]`` is the
coefficient of x^k.  The stored tuple is canonical, i.e. the last entry
is nonzero; the zero polynomial stores an empty tuple and has degree
``NEG_INF`` so that deg(a*b) = deg(a) + deg(b) holds without special
cases over an integral domain.

A sequence s = (s_1, ..., s_n) is 1-indexed in all formulas; ``Seq``
stores the terms in a plain tuple and ``s.term(j)`` does the 1-indexed
lookup.  The generating Laurent series s_1 x^{-1} + ... + s_n x^{-n} is
never materialized: its products with polynomials reduce to indexed
convolutions.  ``part_coeffs``, the kernel behind ``polynomial_part``,
computes the polynomial part, over F_p as one Kronecker-substituted
integer product; ``discrepancy`` computes a single coefficient.
``product_slice`` is the one Kronecker kernel: ``part_coeffs`` and the
engine's blocked step loop both call it, and it sizes its own slots.
``_window_sum`` is the one window sum: ``discrepancy`` and the engine's
``annihilates`` and ``lfsr_generate`` call it.

``ListRing`` binds the list kernels to one p, with the functions of the
packed rings gf2 and gf3; ``field_ring`` picks the ring of rows of F_p.

Text format (bit-exact, used by the CLI and JSON reports): terms in
descending degree, "x^k" for k >= 2, "x" for degree 1, constants as
integers, terms joined by "+" (a negative integer coefficient absorbs
the separator, e.g. "x^2-3x"); the zero polynomial is "0".  JSON reports
carry this text form too.
"""

from __future__ import annotations

import operator
import sys
from array import array
from typing import Iterable

from . import gf2, gf3
from .errors import DomainMismatchError, UnsupportedDomainError
from .fields import CoeffDomain, is_prime

NEG_INF = float("-inf")  # degree of the zero polynomial

# array type code of each unsigned item size in bytes: a Kronecker slot
# of 1, 2, 4 or 8 bytes is one array item
_SLOT_CODES = {array(c).itemsize: c for c in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"
# The small fields, each with the table that maps a byte to its residue
# mod p.  There a row update c1 a + c2 b with every value in [0, p) has
# slots of at most 2 (p-1)^2 < 256, so ListRing.lin runs in one-byte
# Kronecker slots with no carry, and the engine's profile table renders
# from a per-call table of term texts (engine._term_table_text): p = 2, 3,
# 5, 7 and 11.
_BYTE_RESIDUES = {p: bytes(v % p for v in range(256))
                  for p in range(2, 256) if 2 * (p - 1) ** 2 < 256 and is_prime(p)}


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class ListRing:
    """F_p[x] on canonical ascending coefficient lists (Z[x] at p = 0).

    The list kernels of Poly, the generic engine core and the certificate,
    with gf2's and gf3's functions.  quo_rem and gcd need a field, and
    row_bytes a small one (_BYTE_RESIDUES).
    """

    __slots__ = ("p", "residues")

    one = [1]  # the row 1, shared: a row is never edited once made

    def __init__(self, p: int):
        self.p = p
        self.residues = _BYTE_RESIDUES.get(p)

    def lin(self, c1, a, ashift, c2, b, bshift):
        """c1 x^ashift a - c2 x^bshift b, canonical."""
        residues = self.residues
        if residues:
            # one byte a coefficient: (c1 mod p) a + (-c2 mod p) b as one
            # int, then the reduction and the trim as C-level byte passes
            p = self.p
            v = ((c1 % p * int.from_bytes(bytes(a), "little") << 8 * ashift)
                 + (-c2 % p * int.from_bytes(bytes(b), "little") << 8 * bshift))
            size = max(ashift + len(a), bshift + len(b))
            return list(v.to_bytes(size, "little").translate(residues).rstrip(b"\0"))
        out = [0] * ashift + [c1 * x for x in a]
        need = bshift + len(b)
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for i, x in enumerate(b):
            out[bshift + i] -= c2 * x
        p = self.p
        if p:
            out = [v % p for v in out]
        return _trim(out)

    def mul(self, a, b) -> list[int]:
        # canonical: two leading coefficients multiply to a nonzero value
        # over a field and over the integers
        if not a or not b:
            return []
        size, p = len(a) + len(b) - 1, self.p
        if p:  # one Kronecker product
            return product_slice(((a, b),), p, 0, size)
        out = [0] * size
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return out

    def _reduce(self, rem: list[int], b, quot: list[int] | None = None) -> None:
        """Reduce rem modulo a canonical nonzero b in place; the quotient goes to quot."""
        p, db = self.p, len(b) - 1
        inv = pow(b[-1], p - 2, p)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] * inv % p
            if c:
                if quot is not None:
                    quot[i] = c
                for k in range(db + 1):
                    rem[i + k] = (rem[i + k] - c * b[k]) % p
        _trim(rem)

    def quo_rem(self, a, b) -> tuple[list[int], list[int]]:
        rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
        self._reduce(rem, b, quot)
        return quot, rem

    def gcd(self, a, b) -> list[int]:
        """A gcd, not made monic; gcd(a, 0) = a.  Euclid in place."""
        a, b = list(a), list(b)
        while b:
            self._reduce(a, b)
            a, b = b, a
        return a

    @staticmethod
    def degree(a) -> int:
        return len(a) - 1

    @staticmethod
    def to_coeffs(a) -> list[int]:
        return a

    @staticmethod
    def row_bytes(a) -> bytes:
        return bytes(a[::-1])

    @staticmethod
    def from_bytes(digits) -> list[int]:
        """The row of the residues in digits, highest degree first."""
        return _trim(list(digits[::-1]))


def field_ring(p: int):
    """The ring of rows over F_p: gf2's packed ints, gf3's planes, else lists."""
    return {2: gf2, 3: gf3}.get(p) or ListRing(p)


# Degrees whose terms coeffs_to_text renders as one list before joining it.
_TEXT_SLICE = 1024


def coeffs_to_text(coeffs) -> str:
    """Render ascending canonical coefficients in the text format.

    The terms of degree 2 and up are rendered _TEXT_SLICE degrees at a
    time, highest first, and each slice is joined before the next is
    rendered, so a long row never has a list of one str per term; a
    short row is one slice.
    """
    if not coeffs:
        return "0"
    parts = []
    for top in range(len(coeffs) - 1, 1, -_TEXT_SLICE):
        terms = [f"x^{k}" if c == 1 else f"{c}x^{k}"
                 for k in range(top, max(top - _TEXT_SLICE, 1), -1) if (c := coeffs[k])]
        if terms:
            parts.append("+".join(terms))
    if len(coeffs) > 1 and (c := coeffs[1]):
        parts.append("x" if c == 1 else f"{c}x")
    if c := coeffs[0]:
        parts.append(str(c))
    return "+".join(parts).replace("+-", "-")


class Poly:
    """Immutable dense polynomial over a :class:`CoeffDomain`."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: CoeffDomain, coeffs: Iterable[int] = ()):
        self.domain = domain
        self.coeffs = tuple(_trim([domain.normalize(c) for c in coeffs]))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _check(self, other: "Poly") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"mixed domains {self.domain!r} and {other.domain!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        return self - -other

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = self.domain
        return Poly(d, ListRing(d.p).lin(1, self.coeffs, 0, 1, other.coeffs, 0))

    def __neg__(self) -> "Poly":
        d = self.domain
        return Poly(d, [d.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = self.domain
        return Poly(d, ListRing(d.p).mul(self.coeffs, other.coeffs))

    def scale(self, c: int) -> "Poly":
        """Multiply by the domain element c."""
        d = self.domain
        return Poly(d, [d.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self.coeffs:
            return self
        return Poly(self.domain, (0,) * k + self.coeffs)

    def monic(self) -> "Poly":
        """Divide by the leading coefficient (field domains only)."""
        if not self.domain.is_field:
            raise UnsupportedDomainError("monic normalization needs a field")
        if self.is_zero or self.leading == 1:
            return self
        return self.scale(self.domain.inv(self.leading))

    def __call__(self, x: int) -> int:
        d = self.domain
        acc = 0
        for c in reversed(self.coeffs):
            acc = d.add(d.mul(acc, x), c)
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.domain == other.domain
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.domain, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return coeffs_to_text(self.coeffs)

    def __repr__(self):
        return f"Poly({self.domain!r}, {str(self)!r})"


class Seq:
    """Immutable finite sequence s_1..s_n over a coefficient domain."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain: CoeffDomain, terms: Iterable[int] = ()):
        self.domain = domain
        # from a list, not a generator: tuple() resizes a generator's tuple to
        # its length, so it never draws on the interpreter's free list of
        # short tuples, but freeing it fills that list; a stream of short
        # sequences (plcp-enum) would leave 2000 dead tuples there
        self.terms = tuple([domain.normalize(t) for t in terms])

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def term(self, j: int) -> int:
        """1-indexed access: term(1) is s_1."""
        if not 1 <= j <= len(self.terms):
            raise IndexError(f"term index {j} outside 1..{len(self.terms)}")
        return self.terms[j - 1]

    @classmethod
    def _canonical(cls, domain: CoeffDomain, terms: tuple[int, ...]) -> "Seq":
        """A Seq over a tuple of terms already in canonical form; no renormalizing."""
        s = cls.__new__(cls)
        s.domain = domain
        s.terms = terms
        return s

    def prefix(self, i: int) -> "Seq":
        if not 0 <= i <= len(self.terms):
            raise IndexError(f"prefix length {i} outside 0..{len(self.terms)}")
        return Seq._canonical(self.domain, self.terms[:i])

    def __eq__(self, other):
        return (
            isinstance(other, Seq)
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.domain, self.terms))

    def __repr__(self):
        return f"Seq({self.domain!r}, {list(self.terms)})"


def _slot_bytes(p: int, m: int) -> int:
    """Bytes per Kronecker slot for products of m-term sums over F_p.

    A slot holds at most m * (p-1)^2, below 2^(2 bits(p-1) + bits(m)).
    A value in [0, p) then takes at most half of its slot.
    """
    return (2 * (p - 1).bit_length() + m.bit_length() + 7) // 8


def _items(u: int, data) -> array:
    """An array of u-byte unsigned items from values or little-endian bytes."""
    items = array(_SLOT_CODES[u], data)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def _pack(xs, w: int, u: int) -> int:
    """Values as consecutive w-byte slots of one int, lowest first.

    Each value fits in u <= w bytes, u a power of two up to 8.  A width of
    1, 2, 4 or 8 bytes is one array item; another width copies each item
    of an array of u-byte values into its slot, one strided slice a byte.
    """
    if w in _SLOT_CODES:
        return int.from_bytes(_items(w, xs).tobytes(), "little")
    items = _items(u, xs).tobytes()
    raw = bytearray(len(xs) * w)
    for k in range(u):
        raw[k::w] = items[k::u]
    return int.from_bytes(raw, "little")


def _gather(raw: bytes, w: int, lo: int, size: int) -> array:
    """Bytes lo..lo+size-1 of each w-byte slot of raw, as array items (size <= 8)."""
    u = 1 << (size - 1).bit_length()
    buf = bytearray(len(raw) // w * u)
    for k in range(size):
        buf[k::u] = raw[lo + k::w]
    return _items(u, buf)


def _unpack_mod(raw: bytes, w: int, p: int) -> list[int]:
    """The w-byte slots of little-endian bytes, lowest first, each mod p.

    A width of 1, 2, 4 or 8 bytes is read as one array; another width up
    to 8 is gathered into array items by strided slices; up to 16, the low
    8 bytes and the rest of each slot are gathered apart.
    """
    if w in _SLOT_CODES:
        return [v % p for v in _items(w, raw)]
    if w <= 8:
        return [v % p for v in _gather(raw, w, 0, w)]
    return [(v | h << 64) % p
            for v, h in zip(_gather(raw, w, 0, 8), _gather(raw, w, 8, w - 8))]


def product_slice(pairs, p: int, lo: int, hi: int) -> list[int]:
    """Coefficients lo..hi-1 of the sum of the products a*b over pairs, mod p.

    Every value is in [0, p).  The w-byte slots (_slot_bytes) hold sums of
    sum min(len a, len b) products, the most a coefficient adds, at most
    16 bytes: any p below 2^32 with fewer than 2^64 products a sum.  Each
    list is packed into slots of one int (Kronecker substitution), the
    products are summed as ints, and the slots are read back: none
    carries into the next.  Coefficients past the end of every product
    are omitted.
    """
    w = _slot_bytes(p, sum(min(len(a), len(b)) for a, b in pairs))
    # the bytes of an array item that holds every value: 1, 2, 4 or 8
    u = 1 << (((p - 1).bit_length() - 1) // 8).bit_length()
    prod = sum(_pack(a, w, u) * _pack(b, w, u) for a, b in pairs)
    size = max(len(a) + len(b) - 1 for a, b in pairs)
    raw = prod.to_bytes(max(size, 0) * w, "little")[lo * w:hi * w]
    return _unpack_mod(raw, w, p)


def part_coeffs(f, terms, p: int) -> list[int]:
    """Polynomial part of f times the generating series of terms, as a list.

    f is a canonical coefficient list, terms is s_1, s_2, ... with every
    value in [0, p), and coefficient j of the result is sum_k f_k s_{k-j}
    for j < d = deg f; terms past the end count as zero.  The result is
    reduced mod p (p = 0: the integers) and canonical.

    Coefficient j is coefficient d + j of f times the reversed window
    s_d..s_1.  Over F_p that product is one product_slice; over the
    integers each coefficient is its own sum.
    """
    d = len(f) - 1
    if d <= 0:
        return []
    if not p:
        out = [sum(map(operator.mul, f[j + 1:], terms)) for j in range(d)]
    else:
        window = terms[d - 1::-1]
        if len(window) < d:
            window = [0] * (d - len(window)) + list(window)
        out = product_slice(((f, window),), p, d, 2 * d)
    return _trim(out)


def polynomial_part(f: Poly, s: Seq) -> Poly:
    """Nonnegative-power part of f times the generating series of s.

    Coefficient j of the result is sum_k f_k * s_{k-j}; only s_1..s_d
    contribute (d = deg f), so the value is stable under extending s.
    """
    return Poly(f.domain, part_coeffs(f.coeffs, s.terms, f.domain.p))


def _window_sum(fc, terms, base: int) -> int:
    """sum_k fc[k] terms[base + k], unreduced: fc against the window at base."""
    return sum(map(operator.mul, fc, terms[base:base + len(fc)]))


def discrepancy(f: Poly, s: Seq, n: int) -> int:
    """The functional sum_k f_k s_{n+1-d+k} with d = deg f.

    This is coefficient d-n-1 of f times the generating series of
    s^(n+1); it equals s_{n+1} for f = 1.  Terms whose sequence index
    would fall below 1 (possible only when d > n) are treated as absent
    so the function is total.
    """
    if f.is_zero:
        raise ValueError("discrepancy of the zero polynomial is undefined")
    if n + 1 > len(s):
        raise IndexError(f"discrepancy at {n + 1} needs a sequence of that length")
    fc = f.coeffs
    d = len(fc) - 1
    lo = max(0, d - n)
    # fc[k] meets s_{n+1-d+k}, the term at index n - d + k
    return f.domain.normalize(_window_sum(fc[lo:], s.terms, n - d + lo))


def reciprocal(f: Poly) -> Poly:
    """x^{deg f} * f(1/x): the coefficient list reversed, then trimmed."""
    if f.is_zero:
        raise ValueError("zero polynomial has no reciprocal")
    return Poly(f.domain, tuple(reversed(f.coeffs)))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over a field domain."""
    if not a.domain.is_field:
        raise UnsupportedDomainError("polynomial division needs a field")
    a._check(b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = ListRing(a.domain.p).quo_rem(a.coeffs, b.coeffs)
    return Poly(a.domain, quot), Poly(a.domain, rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field domain; gcd(f, 0) = monic(f)."""
    if not a.domain.is_field:
        raise UnsupportedDomainError("polynomial gcd needs a field")
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return Poly(a.domain, ListRing(a.domain.p).gcd(a.coeffs, b.coeffs)).monic()
