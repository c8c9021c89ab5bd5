"""Bit-sliced arithmetic for ternary polynomials.

A polynomial over F_3 is a pair (P, M) of Python ints, its two bit
planes: bit k of P is set when the coefficient of x^k is 1, bit k of M
when it is 2 = -1.  The planes never share a bit, so every pair is
canonical and (0, 0) is the zero polynomial.  The units of F_3 are +-1:
negating a polynomial swaps its planes, and a sum is a few word-wide
ANDs and ORs on them (the bitsliced GF(3) arithmetic of Boothby and
Bradshaw 2009).  A product or a remainder is a loop of shifted sums.
The module is a ring of rows with the same functions as gf2 and
poly.ListRing; the engine's F_3 core and the continued-fraction oracle
both run on it.
"""

from __future__ import annotations

from .gf2 import _BITS

p = 3
one = (1, 0)

# coefficient bytes to the binary digits of one plane: b"\1" -> b"1" in
# P, b"\2" -> b"1" in M, every other byte -> b"0"
_DIGITS = bytes.maketrans(b"\0\1\2", b"010"), bytes.maketrans(b"\0\1\2", b"001")


def add(a, b):
    """a + b: a sum is 1 from 1 + 0, 0 + 1 or 2 + 2, and 2 from 2 + 0, 0 + 2 or 1 + 1."""
    aP, aM = a
    bP, bM = b
    aA, bA = aP | aM, bP | bM
    return ((aP & ~bA) | (bP & ~aA) | (aM & bM),
            (aM & ~bA) | (bM & ~aA) | (aP & bP))


def scale(c: int, a, k: int = 0):
    """c x^k a, for any integer c: 0, a shift, or a shift and a plane swap."""
    c %= 3
    if not c:
        return 0, 0
    P, M = a
    return (P << k, M << k) if c == 1 else (M << k, P << k)


def lin(c1: int, a, ashift: int, c2: int, b, bshift: int):
    """c1 x^ashift a - c2 x^bshift b, for any integers c1, c2."""
    return add(scale(c1, a, ashift), scale(-c2, b, bshift))


def degree(a) -> int:
    """deg a; -1 for zero."""
    return (a[0] | a[1]).bit_length() - 1


def mul(a, b):
    """a b: one shifted sum of b or -b for each nonzero coefficient of a."""
    oP = oM = 0
    bP, bM = b
    for plane, (yP, yM) in ((a[0], b), (a[1], (bM, bP))):
        while plane:
            low = plane & -plane
            k = low.bit_length() - 1
            xP, xM = yP << k, yM << k
            # add, inlined: the loop runs once a coefficient of a
            oA, xA = oP | oM, xP | xM
            oP, oM = ((oP & ~xA) | (xP & ~oA) | (oM & xM),
                      (oM & ~xA) | (xM & ~oA) | (oP & xP))
            plane ^= low
    return oP, oM


def quo_rem(a, b):
    """The quotient and the remainder of a by a nonzero b.

    Each step clears the top coefficient of the remainder with c x^k b,
    where c = lead(a) / lead(b) = lead(a) lead(b), since each unit is its
    own inverse: when the remainder leads with 1, c is lead(b) and
    -c b is the row added, and when it leads with 2, both are negated.
    """
    aP, aM = a
    bP, bM = b
    db = (bP | bM).bit_length() - 1
    sP, sM = (bM, bP) if bP >> db & 1 else (bP, bM)
    k = (aP | aM).bit_length() - 1 - db
    q1 = q2 = 0  # the steps at which the remainder led with 1, and with 2
    while k >= 0:
        if aP >> (k + db) & 1:
            q1 |= 1 << k
            xP, xM = sP << k, sM << k
        else:
            q2 |= 1 << k
            xP, xM = sM << k, sP << k
        # add, inlined: the loop runs once a coefficient of the quotient
        aA, xA = aP | aM, xP | xM
        aP, aM = ((aP & ~xA) | (xP & ~aA) | (aM & xM),
                  (aM & ~xA) | (xM & ~aA) | (aP & xP))
        k = (aP | aM).bit_length() - 1 - db
    return ((q1, q2) if bP >> db & 1 else (q2, q1)), (aP, aM)


def gcd(a, b):
    """A greatest common divisor, not made monic; gcd(a, 0) = a."""
    while b[0] | b[1]:
        a, b = b, quo_rem(a, b)[1]
    return a


def row_bytes(a, size: int | None = None) -> bytes:
    """The coefficients as bytes, highest degree first, left-padded to size.

    size defaults to deg a + 1.  One C-level pass a plane: its binary
    digits read as bytes 0/1, and the M plane's doubled into the sum.
    """
    P, M = a
    v = (int.from_bytes(bin(P)[2:].encode().translate(_BITS), "big")
         + 2 * int.from_bytes(bin(M)[2:].encode().translate(_BITS), "big"))
    return v.to_bytes((P | M).bit_length() if size is None else size, "big")


def from_bytes(digits):
    """Planes of the coefficients 0, 1, 2, highest degree first."""
    digits = bytes(digits)
    return tuple(int(b"0" + digits.translate(t), 2) for t in _DIGITS)


def to_coeffs(a) -> list[int]:
    """Ascending coefficient list; [] for zero."""
    return list(row_bytes(a)[::-1])
