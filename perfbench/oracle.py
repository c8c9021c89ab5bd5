"""Output checks that do not depend on the lcprof engine.

The linear-complexity profile comes from the textbook division-based
Berlekamp-Massey synthesis (Massey 1969), written here from scratch:
bit-packed for F_2 (a list version is too slow at 2^15 terms) and on
coefficient lists for F_p.  The minimal polynomial a report prints is
checked by parsing its text and testing that it annihilates the input.
Nothing in this module imports lcprof.
"""

from __future__ import annotations

import json
import operator
import re

TABLE_HEADER = ["j", "Delta_j", "e_{j-1}", "mu^(j)", "mu'^(j)"]

# suite name -> `checked` count printed by `lcprof verify all` at CLI defaults
# (the suites use a fixed internal seed, so these never vary)
VERIFY_COUNTS = {
    "oracle": 2046,
    "bezout": 16790,
    "wang-massey": 43690,
    "plcp-count": 32766,
    "plcp-equiv": 8191,
    "rueppel": 6665,
    "height": 34167,
    "lcsum": 942,
}

_TERM = re.compile(r"^(\d*)(?:x(?:\^(\d+))?)?$")


def bm_profile_f2(terms: list[int]) -> list[int]:
    """LC_1..LC_n over F_2, with the connection polynomial as an int.

    Bit i of `window` is s_{n-i}, so the discrepancy is the parity of
    C & window; the update C ^= B << m is the division-free F_2 case of
    C <- C - (d/b) x^m B.
    """
    c, b, lc, m, window = 1, 1, 0, 1, 0
    out = []
    for n, t in enumerate(terms):
        window = (window << 1) | t
        if (c & window).bit_count() & 1:
            if 2 * lc <= n:
                c, b = c ^ (b << m), c
                lc, m = n + 1 - lc, 1
            else:
                c ^= b << m
                m += 1
        else:
            m += 1
        out.append(lc)
    return out


def bm_profile_fp(terms: list[int], p: int) -> list[int]:
    """LC_1..LC_n over F_p by the division-based synthesis on lists."""
    c, b, lc, m, bd = [1], [1], 0, 1, 1
    out = []
    for n in range(len(terms)):
        d = sum(map(operator.mul, c, reversed(terms[n - lc:n + 1]))) % p
        if d:
            coef = d * pow(bd, p - 2, p) % p
            new = c + [0] * (m + len(b) - len(c))
            new[m:m + len(b)] = [(x - coef * y) % p
                                 for x, y in zip(new[m:m + len(b)], b)]
            while new[-1] == 0:
                new.pop()
            if 2 * lc <= n:
                b, bd = c, d
                lc, m = n + 1 - lc, 1
            else:
                m += 1
            c = new
        else:
            m += 1
        out.append(lc)
    return out


def bm_profile(terms: list[int], p: int) -> list[int]:
    return bm_profile_f2(terms) if p == 2 else bm_profile_fp(terms, p)


def parse_poly(text: str, p: int) -> dict[int, int]:
    """The text format ("x^3+2x+1", "0") as {degree: coefficient mod p}."""
    if text == "0":
        return {}
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        m = _TERM.match(term)
        if not m or not term:
            raise ValueError(f"bad polynomial term {term!r}")
        digits, power = m.group(1), m.group(2)
        has_x = "x" in term
        coef = int(digits) if digits else 1
        deg = (int(power) if power else 1) if has_x else 0
        if deg in coeffs or not 0 < coef < p:
            raise ValueError(f"bad polynomial term {term!r}")
        coeffs[deg] = coef
    return coeffs


def leading_degree(text: str) -> int:
    """Degree of the first (leading) term of a polynomial's text."""
    head = text.split("+", 1)[0]
    if "x" not in head:
        return 0 if head != "0" else -1
    _, _, power = head.partition("^")
    return int(power) if power else 1


def annihilates(coeffs: dict[int, int], terms: list[int], p: int) -> bool:
    """Every window of deg+1 terms is killed: sum_k c_k s_{i+k} = 0."""
    d = max(coeffs)
    n = len(terms)
    if p == 2:
        mask = sum(1 << k for k in coeffs)
        seq = sum(1 << i for i, t in enumerate(terms) if t)
        return all(not ((seq >> i) & mask).bit_count() & 1
                   for i in range(n - d))
    dense = [coeffs.get(k, 0) for k in range(d + 1)]
    return all(sum(map(operator.mul, dense, terms[i:i + d + 1])) % p == 0
               for i in range(n - d))


def check_json(text: str, terms: list[int], p: int, profile: list[int]) -> str:
    """'' when a `profile --json` output is right, else the first problem."""
    lines = text.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} output lines, want 1"
    try:
        rep = json.loads(lines[0])
    except ValueError as exc:
        return f"not JSON: {exc}"
    if rep.get("field") != p:
        return f"field {rep.get('field')} != {p}"
    if rep.get("lc") != profile:
        return "lc differs from the Berlekamp-Massey profile"
    if len(rep.get("deltas", ())) != len(terms):
        return "deltas length differs from n"
    if len(rep.get("exponents", ())) != len(terms) + 1:
        return "exponents length differs from n + 1"
    try:
        mu = parse_poly(rep.get("mu", ""), p)
    except ValueError as exc:
        return f"mu: {exc}"
    if not mu or max(mu) != profile[-1]:
        return f"deg mu != LC_n = {profile[-1]}"
    if not annihilates(mu, terms, p):
        return "mu does not annihilate the input"
    return ""


def check_table(lines, n: int, profile: list[int]) -> str:
    """'' when a `profile` table is right, else the first problem.

    `lines` iterates over the output lines (a file works), so the table
    is never held in memory whole.
    """
    it = iter(lines)
    header = next(it, "").split()
    if header != TABLE_HEADER:
        return f"header {header}"
    want = [0] + profile
    rows = 0
    for j, line in enumerate(it):
        if j > n:
            return "more than n + 1 rows"
        cells = line.split()
        # row 0 has a blank exponent cell
        if not cells or cells[0] != str(j) or len(cells) != (4 if j == 0 else 5):
            return f"malformed row {j}"
        if leading_degree(cells[-2]) != want[j]:
            return f"deg mu^({j}) != LC_{j} = {want[j]}"
        rows += 1
    if rows != n + 1:
        return f"{rows} rows, want n + 1 = {n + 1}"
    return ""


def check_verify(text: str) -> str:
    """'' when `lcprof verify all` printed every suite passing, with the
    expected check counts."""
    want = [f"{name}: pass, {count} checks" for name, count in VERIFY_COUNTS.items()]
    got = text.splitlines()
    if got != want:
        return f"output {got} != {want}"
    return ""
