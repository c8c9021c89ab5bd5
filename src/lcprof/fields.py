"""Coefficient domains: prime fields F_p and the integers.

Elements are plain Python ints; a domain object supplies the ring
operations.  The minimal-polynomial recursion is division-free, so the
integer domain is a first-class citizen: everything except gcd, monic
normalization and brute-force enumeration works over it unchanged.

F_p elements are kept reduced to the range [0, p).  The characteristic
is exposed as ``p`` (0 for the integers) and ``is_field`` tells whether
multiplicative inverses exist.
"""

from __future__ import annotations

from .errors import UnsupportedDomainError

MAX_PRIME = 2**31  # plain modular arithmetic only; this is a desk-scale tool


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (n < 2^31)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class CoeffDomain:
    """Common interface of the coefficient domains."""

    p: int  # characteristic; 0 for the integers
    is_field: bool

    def normalize(self, x: int) -> int:
        raise NotImplementedError

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise UnsupportedDomainError(f"{self!r} has no multiplicative inverses")

    def is_zero(self, a: int) -> bool:
        return a == 0

    # a convenience; Seq lives in .poly but constructing one through the
    # domain reads well at call sites
    def seq(self, terms):
        from .poly import Seq

        return Seq(self, terms)

    def __eq__(self, other):
        return isinstance(other, CoeffDomain) and self.p == other.p

    def __hash__(self):
        return hash(("CoeffDomain", self.p))


class PrimeField(CoeffDomain):
    """F_p for a prime p < 2^31; elements are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not (2 <= p < MAX_PRIME) or not is_prime(p):
            raise ValueError(f"p must be a prime below 2^31, got {p}")
        self.p = p

    def normalize(self, x: int) -> int:
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


class IntegerRing(CoeffDomain):
    """The integers; supports the division-free recursion for generality."""

    p = 0
    is_field = False

    def normalize(self, x: int) -> int:
        return x

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def __repr__(self):
        return "IntegerRing()"


GF2 = PrimeField(2)
ZZ = IntegerRing()
