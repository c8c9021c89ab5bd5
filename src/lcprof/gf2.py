"""Packed-bit arithmetic for binary polynomials.

A polynomial over F_2 is a Python int whose bit k is the coefficient of
x^k (0 is the zero polynomial).  Addition is XOR, multiplication by x^k
is a left shift, and products/remainders reduce to word-parallel shifts
and XORs, which is what makes the p = 2 fast path of the profile engine
cheap.  The module is a ring of rows with the same functions as gf3 and
poly.ListRing (one, lin, mul, quo_rem, gcd, degree, to_coeffs,
row_bytes, from_bytes); the test suite cross-checks them with the list
kernels.
"""

from __future__ import annotations

p = 2
one = 1

# bin() digits to coefficient bytes: b"0" -> 0, b"1" -> 1, and back
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def lin(c1: int, a: int, ashift: int, c2: int, b: int, bshift: int) -> int:
    """c1 x^ashift a - c2 x^bshift b, for any integers c1, c2: minus is XOR."""
    return ((a << ashift) if c1 & 1 else 0) ^ ((b << bshift) if c2 & 1 else 0)


def mul(a: int, b: int) -> int:
    """Carry-less product."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def quo_rem(a: int, b: int) -> tuple[int, int]:
    """The quotient and remainder of a by a nonzero b: shift and XOR, bit by bit."""
    db, q = b.bit_length(), 0
    k = a.bit_length() - db
    while k >= 0:
        a ^= b << k
        q |= 1 << k
        k = a.bit_length() - db
    return q, a


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (Euclid; quo_rem's loop, keeping no quotient)."""
    while b:
        db = b.bit_length()
        k = a.bit_length() - db
        while k >= 0:
            a ^= b << k
            k = a.bit_length() - db
        a, b = b, a
    return a


def degree(a: int) -> int:
    """deg a; -1 for zero."""
    return a.bit_length() - 1


def to_coeffs(a: int) -> list[int]:
    """Ascending coefficient list of a packed polynomial; [] for 0.

    One C-level pass: the binary digits, reversed, are translated to
    bytes 0/1, and a list of bytes is a list of ints.
    """
    return list(bin(a)[:1:-1].encode().translate(_BITS)) if a else []


def row_bytes(a: int) -> bytes:
    """The coefficients as bytes 0/1, highest degree first."""
    return bin(a)[2:].encode().translate(_BITS)


def from_bytes(digits) -> int:
    """The packed polynomial of the coefficients 0, 1, highest degree first."""
    return int(b"0" + bytes(digits).translate(_DIGITS), 2)
