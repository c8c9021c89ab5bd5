"""Packed-bit arithmetic for binary polynomials.

A polynomial over F_2 is a Python int whose bit k is the coefficient of
x^k (0 is the zero polynomial).  Addition is XOR, multiplication by x^k
is a left shift, and products/remainders reduce to word-parallel shifts
and XORs, which is what makes the p = 2 fast path of the profile engine
cheap.  These helpers stay semantically identical to the generic dense
path; the test suite cross-checks the two.
"""

from __future__ import annotations

# bin() digits to coefficient bytes: b"0" -> 0, b"1" -> 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


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


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of packed polynomials (Euclid, in place)."""
    while b:
        db = b.bit_length()
        s = a.bit_length() - db
        while s >= 0:
            a ^= b << s
            s = a.bit_length() - db
        a, b = b, a
    return a


def to_coeffs(a: int) -> list[int]:
    """Ascending coefficient list of a packed polynomial; [] for 0.

    One C-level pass: the binary digits, reversed, are translated to
    bytes 0/1, and a list of bytes is a list of ints.
    """
    return list(bin(a)[:1:-1].encode().translate(_BITS)) if a else []
