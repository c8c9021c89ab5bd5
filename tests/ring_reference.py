"""Coefficient-by-coefficient references for the ring kernels the tests check,
the parser of the polynomial text format that the tests write their
polynomials in, and the profile report's JSON layout.

Not a test module: the engine, analysis, poly, rueppel and CLI tests
import it.
"""

import re

from lcprof import gf3
from lcprof.poly import _trim

_TERM_RE = re.compile(r"^(-?\d+)?(x(\^(\d+))?)?$")


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


def text_to_coeffs(text: str) -> list[int]:
    """Parse the text format back to an ascending coefficient list."""
    text = text.strip().replace(" ", "")
    if text in ("", "0"):
        return []
    coeffs: dict[int, int] = {}
    for term in text.replace("-", "+-").lstrip("+").split("+"):
        m = _TERM_RE.match(term)
        # a nonempty match holds a coefficient, an x, or both
        if not m or not m.group(0):
            raise ValueError(f"bad polynomial term {term!r}")
        cs, xpart, _, ks = m.group(1), m.group(2), m.group(3), m.group(4)
        c = int(cs) if cs is not None else 1
        k = 0 if xpart is None else (1 if ks is None else int(ks))
        coeffs[k] = coeffs.get(k, 0) + c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _trim(out)


def report_json_dict(rep):
    """The JSON report of a ProfileReport, with a fresh str() of every Poly."""
    m = rep.final_matrix
    return {
        "field": rep.domain.p,
        "epsilon": rep.epsilon,
        "lc": list(rep.lc),
        "deltas": list(rep.deltas),
        "exponents": list(rep.exponents),
        "mu": str(rep.minpoly),
        "mu_prime": str(m.c),
        "nabla": rep.nabla,
        "matrix": [[str(m.a), str(m.b)], [str(m.c), str(m.d)]],
    }
