"""Profile-level sequence analyses.

Everything here is a pure function of a finite sequence, computed from
the engine's per-step log: the perfect-profile predicate and its six
equivalent characterizations, binary stability, the sequence height,
the continued-fraction oracle, linear-complexity sums, profile
counting, and the bijection between sequences and discrepancy lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .engine import MPConfig, _make_core, mp_run, profile_steps
from .errors import ResourceLimitError, UnsupportedDomainError
from .fields import CoeffDomain, PrimeField, is_prime
from .poly import Poly, Seq, poly_divmod


def _require_binary(s: Seq, what: str) -> None:
    if s.domain.p != 2:
        raise UnsupportedDomainError(f"{what} is defined for binary sequences only")


def is_plcp(s: Seq) -> bool:
    """LC_j = floor((j+1)/2) at every step (vacuously true when empty)."""
    core = _make_core(s.domain, MPConfig(keep_log=False))
    for j, t in enumerate(s.terms, start=1):
        core.step(t)
        if core.cur_lc() != (j + 1) // 2:
            return False
    return True


@dataclass
class PlcpWitness:
    """The six equivalent perfect-profile conditions, checked separately.

    details maps a condition name to the step indices where it fails.
    """

    holds_lc: bool
    holds_parity: bool
    holds_exponent: bool
    holds_odd_delta: bool
    holds_index: bool
    holds_recursion: bool
    details: dict = field(default_factory=dict)

    def all(self) -> tuple[bool, ...]:
        return (
            self.holds_lc,
            self.holds_parity,
            self.holds_exponent,
            self.holds_odd_delta,
            self.holds_index,
            self.holds_recursion,
        )

    def agree(self) -> bool:
        return len(set(self.all())) == 1

    def as_dict(self) -> dict:
        return {
            "lc": self.holds_lc,
            "parity": self.holds_parity,
            "exponent": self.holds_exponent,
            "odd_delta": self.holds_odd_delta,
            "index": self.holds_index,
            "recursion": self.holds_recursion,
            "failures": {k: list(v) for k, v in self.details.items()},
        }


def plcp_witnesses(s: Seq, epsilon: int = 0) -> PlcpWitness:
    """Evaluate the six profile characterizations independently.

    The pair-recursion condition re-derives the engine rows from the
    two-term recursions (base row (x - delta_1*eps, delta_1), which over
    F_2 with a nonzero first term is the usual (x + eps, 1)) and
    compares them to the actual rows.
    """
    dom = s.domain
    rows = profile_steps(s, MPConfig(epsilon=epsilon))
    n = len(s)
    fails: dict[str, list[int]] = {k: [] for k in
                                   ("lc", "parity", "exponent", "odd_delta",
                                    "index", "recursion")}

    for j in range(1, n + 1):
        if rows[j].lc != (j + 1) // 2:
            fails["lc"].append(j)

    if n >= 1 and rows[1].lc != 1:
        fails["parity"].append(1)
    for j in range(2, n + 1):
        want = 0 if j % 2 == 0 else 1
        if rows[j].lc - rows[j - 1].lc != want:
            fails["parity"].append(j)

    for j in range(1, n + 1):
        if rows[j].e != (1 if j % 2 == 0 else 0):
            fails["exponent"].append(j)

    for j in range(1, n + 1, 2):
        if rows[j].delta == 0:
            fails["odd_delta"].append(j)

    # jump history reconstructs the index function: j' = j-1 at a jump
    nprime = [-1] * (n + 1)
    for j in range(1, n + 1):
        jumped = rows[j].delta != 0 and rows[j - 1].e > 0
        nprime[j] = j - 1 if jumped else nprime[j - 1]
    # a jump at every odd step pins the index history two steps back;
    # the range runs to n+1 so the entry for step n itself is examined
    for j in range(2, n + 2):
        want = j - 2 if j % 2 == 0 else j - 3
        if nprime[j - 1] != want:
            fails["index"].append(j)

    if n >= 1:
        d1 = rows[1].delta
        eps = dom.normalize(epsilon)
        base = (
            Poly(dom, (dom.neg(dom.mul(d1, eps)), 1)),
            Poly(dom, (d1,)),
        )
        if (rows[1].mu, rows[1].mu_part) != base:
            fails["recursion"].append(1)
    x = Poly(dom, (0, 1))
    for j in range(2, n + 1):
        cur = (rows[j].mu, rows[j].mu_part)
        if j % 2 == 0:
            if rows[j].delta == 0:
                # nothing to absorb: the row carries over unscaled
                want = (rows[j - 1].mu, rows[j - 1].mu_part)
            else:
                c1, r1 = rows[j - 1].delta, rows[j - 1]
                c2, r2 = rows[j].delta, rows[j - 2]
                want = (
                    r1.mu.scale(c1) - r2.mu.scale(c2),
                    r1.mu_part.scale(c1) - r2.mu_part.scale(c2),
                )
        else:
            c1, r1 = rows[j - 2].delta, rows[j - 1]
            c2, r2 = rows[j].delta, rows[j - 3]
            want = (
                x * r1.mu.scale(c1) - r2.mu.scale(c2),
                x * r1.mu_part.scale(c1) - r2.mu_part.scale(c2),
            )
        if cur != want:
            fails["recursion"].append(j)

    return PlcpWitness(
        holds_lc=not fails["lc"],
        holds_parity=not fails["parity"],
        holds_exponent=not fails["exponent"],
        holds_odd_delta=not fails["odd_delta"],
        holds_index=not fails["index"],
        holds_recursion=not fails["recursion"],
        details={k: v for k, v in fails.items() if v},
    )


def is_stable(s: Seq) -> bool:
    """Binary stability: s_1 = 1 and s_{j+1} = s_j + s_{j/2} for even j.

    The relation is checked wherever s_{j+1} exists (j <= n-1); for odd
    lengths this is the full quantifier range.
    """
    _require_binary(s, "stability")
    t = s.terms
    if not t or t[0] != 1:
        return False
    for j in range(2, len(t), 2):
        if t[j] != t[j - 1] ^ t[j // 2 - 1]:  # s_{j+1} = s_j + s_{j/2}
            return False
    return True


def t_transform(s: Seq) -> list[int]:
    """Coefficients t_0..t_n of the square-shift transform of s.

    t is the series s^2 + (x+1)s + 1 written in the generating
    variable; index i is the coefficient of x^{-i}.  A binary sequence
    is stable exactly when every even-index coefficient vanishes.
    """
    _require_binary(s, "the t-transform")
    t = s.terms
    n = len(t)

    def at(j):  # s_j with out-of-range terms absent
        return t[j - 1] if 1 <= j <= n else 0

    out = [at(1) ^ 1]
    for i in range(1, n + 1):
        v = at(i) ^ at(i + 1)
        if i % 2 == 0:
            v ^= at(i // 2)
        out.append(v)
    return out


def sigma_poly(s: Seq, j: int, epsilon: int = 0) -> Poly:
    """The certificate polynomial (x+1)*mu*[mu] + mu^2 + [mu]^2 at step j."""
    _require_binary(s, "the sigma polynomial")
    if not 0 <= j <= len(s):
        raise IndexError(f"step {j} outside 0..{len(s)}")
    m, _ = mp_run(s.prefix(j), MPConfig(epsilon=epsilon))
    mu, nu = m.a, m.b
    xp1 = Poly(s.domain, (1, 1))
    return xp1 * mu * nu + mu * mu + nu * nu


@dataclass
class HeightReport:
    """Maximum of the logged exponents e_0..e_n and where it occurs."""

    height: int
    argmax_j: int
    exponents: list[int]


def height(s: Seq) -> HeightReport:
    """Sequence height: max over the logged exponents.

    The seed exponent e_0 = 1 participates, so the height is always at
    least 1 and equals 1 exactly on perfect-profile sequences.
    """
    _, rep = mp_run(s)
    exps = rep.exponents
    h = max(exps)
    return HeightReport(height=h, argmax_j=exps.index(h), exponents=list(exps))


def cf_partial_quotients(s: Seq) -> list[Poly]:
    """Partial quotients of the rational (sum s_i x^{n-i}) / x^n.

    Computed by the Euclidean algorithm on the pair (x^n, numerator).
    The quotient degrees extend the engine's jump exponents: quotient i
    has degree equal to the i-th jump exponent for every jump the
    profile realized; quotients past that point encode the truncation.
    """
    dom = s.domain
    if not dom.is_field:
        raise UnsupportedDomainError("continued fractions need a field")
    n = len(s)
    num = [0] * n
    for i, si in enumerate(s.terms, start=1):
        num[n - i] = si
    numerator = Poly(dom, num)
    if numerator.is_zero:
        raise ValueError("the zero sequence has no continued fraction")
    a = Poly(dom, (0,) * n + (1,))
    b = numerator
    quotients = []
    while not b.is_zero:
        q, r = poly_divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return quotients


def lc_sum(s: Seq) -> tuple[int, int]:
    """(sum of LC_1..LC_n, the bound floor((n+1)^2 / 4))."""
    _, rep = mp_run(s)
    n = len(s)
    return sum(rep.lc), (n + 1) ** 2 // 4


def char_equivalence(s: Seq) -> tuple[bool, bool, bool]:
    """The three equivalent profile characterizations.

    (i) perfect profile; (ii) profile never above floor((i+1)/2) and
    the LC sum attains its bound; (iii) profile never below
    floor((i+1)/2).
    """
    _, rep = mp_run(s)
    n = len(s)
    lc = rep.lc
    halves = [(i + 1) // 2 for i in range(1, n + 1)]
    plcp = lc == halves
    below = all(a <= b for a, b in zip(lc, halves))
    above = all(a >= b for a, b in zip(lc, halves))
    return (plcp, below and sum(lc) == (n + 1) ** 2 // 4, above)


def plcp_count(q: int, n: int) -> int:
    """Closed-form number of perfect-profile sequences in F_q^n."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (q - 1) ** ((n + 1) // 2) * q ** (n // 2)


ENUM_GUARD = 10**7


def enumerate_plcp(q: int, n: int, guard: int = ENUM_GUARD):
    """Yield every perfect-profile sequence in F_q^n, exhaustively.

    This is the independent oracle for the closed-form count: it scans
    all q^n candidates (guarded) rather than inverting the discrepancy
    bijection.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q**n > guard:
        raise ResourceLimitError(f"{q}^{n} exceeds the enumeration guard")
    dom = PrimeField(q)
    for terms in itertools.product(range(q), repeat=n):
        s = Seq(dom, terms)
        if is_plcp(s):
            yield s


def deltas_to_sequence(domain: CoeffDomain, deltas, epsilon: int = 0) -> Seq:
    """The unique sequence whose engine run produces the given discrepancies.

    Inverts one step at a time: the next discrepancy is affine in the
    unknown term, with the current leading coefficient as the unit
    multiplier, so each target determines the term (field domains).
    Trial steps on copies of the core read off the two coefficients.
    """
    if not domain.is_field:
        raise UnsupportedDomainError("solving for terms needs a field")
    core = _make_core(domain, MPConfig(epsilon=epsilon, keep_log=False))
    out = []
    for target in deltas:
        at_zero = core.copy().step(0)
        lead = domain.sub(core.copy().step(1), at_zero)
        term = domain.mul(domain.sub(target, at_zero), domain.inv(lead))
        out.append(term)
        core.step(term)
    return Seq(domain, out)


def analysis_report(s: Seq, epsilon: int = 0) -> dict:
    """One-stop JSON-ready summary of the profile analyses."""
    wit = plcp_witnesses(s, epsilon=epsilon)
    hgt = height(s)
    sigma, bound = lc_sum(s)
    return {
        "plcp": is_plcp(s),
        "witnesses": wit.as_dict(),
        "stable": is_stable(s) if s.domain.p == 2 else None,
        "height": hgt.height,
        "lc_sum": sigma,
        "lc_sum_bound": bound,
        "char_equivalence": list(char_equivalence(s)),
    }
