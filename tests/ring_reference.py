"""Coefficient-by-coefficient references for the ring kernels the tests check.

Not a test module: the engine, analysis and poly tests import it.
"""

from lcprof import gf3


def lin(p, c1, a, ashift, c2, b, bshift=0):
    """c1 x^ashift a - c2 x^bshift b over F_p (ZZ for p = 0), canonical."""
    out = [0] * max(ashift + len(a), bshift + len(b))
    for i, v in enumerate(a):
        out[ashift + i] += c1 * v
    for i, v in enumerate(b):
        out[bshift + i] -= c2 * v
    if p:
        out = [v % p for v in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def planes(coeffs):
    """The F_3 bit planes of a coefficient list, lowest degree first."""
    return gf3.from_bytes(bytes(coeffs[::-1]))
