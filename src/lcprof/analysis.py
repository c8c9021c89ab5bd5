"""Profile-level sequence analyses.

Everything here is a pure function of a finite sequence, computed from
one engine run and the profile derived from its discrepancies: the
perfect-profile predicate and its six equivalent characterizations,
binary stability, the sequence height, the continued-fraction oracle,
linear-complexity sums, profile counting, and the bijection between
sequences and discrepancy lists.  The profile verdicts are one fold
over (LC_j, e_j, j), _profile_step, run by char_equivalence,
analysis_report and verify's sweeps; height and lc_sum, faster without
it, read max and sum off the run's lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import (
    MPConfig,
    _each_step,
    _make_core,
    _profile,
    _run,
    _walk_prefixes,
    mp_run,
)
from .errors import ResourceLimitError, UnsupportedDomainError
from .fields import CoeffDomain, PrimeField
from .poly import Poly, Seq, field_ring


def _require_binary(s: Seq, what: str) -> None:
    if s.domain.p != 2:
        raise UnsupportedDomainError(f"{what} is defined for binary sequences only")


def _run_profile(s: Seq) -> tuple[list[int], list[int]]:
    """LC_1..LC_n and e_0..e_n of one engine._run, blocked where it can be."""
    return _profile(s.domain, _run(s.domain, s.terms)[1])


class _Profile(NamedTuple):
    """The profile verdicts on a prefix after j steps (_profile_step)."""

    perfect: bool   # LC_i = floor((i+1)/2) for every i <= j
    below: bool     # LC_i <= floor((i+1)/2) for every i <= j
    above: bool     # LC_i >= floor((i+1)/2) for every i <= j
    lc_sum: int     # LC_1 + ... + LC_j
    height: int     # max(e_0, ..., e_j)


# the empty prefix: every verdict holds, the sum is empty and e_0 = 1
_PROFILE_START = _Profile(True, True, True, 0, 1)


def _profile_step(st: _Profile, lc: int, e: int, j: int) -> _Profile:
    """Fold step j, which left LC_j = lc and e_j = e, into the verdicts."""
    half = (j + 1) // 2
    return _Profile(st.perfect and lc == half, st.below and lc <= half,
                    st.above and lc >= half, st.lc_sum + lc, max(st.height, e))


def _lc_sum_bound(n: int) -> int:
    """floor((n+1)^2 / 4): the LC sum of the perfect profile of n terms."""
    return (n + 1) ** 2 // 4


def _char_verdicts(st: _Profile, n: int) -> tuple[bool, bool, bool]:
    """The three char_equivalence forms of a prefix of n terms."""
    return st.perfect, st.below and st.lc_sum == _lc_sum_bound(n), st.above


def is_plcp(s: Seq) -> bool:
    """LC_j = floor((j+1)/2) at every step (vacuously true when empty)."""
    # stops at the first step off the profile, unlike a full run
    core = _make_core(s.domain, MPConfig())
    return all(core.cur_lc() == (core.j + 1) // 2 for _ in _each_step(core, s.terms))


WITNESSES = ("lc", "parity", "exponent", "odd_delta", "index", "recursion")


@dataclass
class PlcpWitness:
    """The six equivalent perfect-profile conditions, checked separately.

    details maps the name of each condition that fails (see WITNESSES)
    to the step indices where it fails; a condition holds exactly when
    its name is absent.
    """

    details: dict = field(default_factory=dict)

    def all(self) -> tuple[bool, ...]:
        """Whether each condition holds, in WITNESSES order."""
        return tuple(name not in self.details for name in WITNESSES)

    def agree(self) -> bool:
        return len(set(self.all())) == 1

    def as_dict(self) -> dict:
        return {**dict(zip(WITNESSES, self.all())),
                "failures": {k: list(v) for k, v in self.details.items()}}


class _WitnessTrail(NamedTuple):
    """What the witness conditions at step j + 1 read from steps up to j."""

    lc: int          # LC_j
    e: int           # e_j = j + 1 - 2 LC_j
    last_jump: int   # j - 1 for the last step j that jumped, -1 before any jump
    deltas: tuple    # delta_j, delta_{j-1}
    rows: tuple      # mu after steps j, j-1, j-2, in the core's representation


# step 0: LC_0 = 0, e_0 = 1 and delta_0 = 1 on every core; the rows stay
# empty until step 1 enters the row 1 of the core's ring (core.ring.one:
# the list [1], the packed 1 or the planes (1, 0)), which is its seed mu
_WITNESS_START = _WitnessTrail(0, 1, -1, (1, None), ())


def _witness_step(trail: _WitnessTrail, j: int, core, delta: int,
                  eps: int) -> tuple[_WitnessTrail, int]:
    """Fold step j (core has just consumed term j, giving delta) into the trail.

    Also returns the conditions that fail at step j as a bit mask: bit i
    stands for WITNESSES[i].  The index condition reads the jump history
    after step j, which plcp_witnesses reports as step j + 1.

    The pair recursion is checked on the row (mu, [mu]) with [mu] = P(mu),
    the polynomial part over the consumed prefix, which the generic core
    derives rather than carries.  Only mu is kept and compared: P is
    linear and P(x*a) = x*P(a) + sum_m a_m s_{m+1}, so when mu follows
    its recursion, [mu] follows its own exactly when c1 times that sum
    vanishes at an odd step j past the first.  With a = mu_{j-1} the sum
    is the first window of a, which is zero when deg a <= j - 2; when
    deg a = j - 1 and c1 != 0 the mu recursion asks for degree j > LC_j,
    so the mu comparison has failed already.  Comparing mu decides both.

    The rows stay in the core's representation and are combined with
    its ring's lin (core.ring): coefficient lists on the generic core,
    packed ints (shift and XOR) on the packed F_2 core, plane pairs on
    the F_3 core.
    """
    lc, e = core.cur_lc(), core.e
    odd = j & 1
    fails = 0
    if lc != (j + 1) // 2:
        fails |= 1
    if lc - trail.lc != odd:
        fails |= 2
    if e != 1 - odd:
        fails |= 4
    if odd and delta == 0:
        fails |= 8
    # a jump at every odd step pins the index history two steps back; a
    # jump is the one step that changes LC, read off LC rather than e so
    # that a fault in e fails the exponent condition alone
    last_jump = j - 1 if lc != trail.lc else trail.last_jump
    if last_jump != j - 2 + odd:
        fails |= 16
    # the pair recursion re-derives mu from the two-term recursions; the
    # base row is mu = x - delta_1*eps, over F_2 with a nonzero first term
    # the usual x + eps
    ring, row = core.ring, core.mu
    if j == 1:
        one = ring.one
        want = ring.lin(1, one, 1, delta * eps, one, 0)
        trail = trail._replace(rows=(one,))
    elif not odd and delta == 0:
        want = trail.rows[0]  # nothing to absorb: the row carries over unscaled
    else:
        # even j: delta_{j-1} * row_{j-1} - delta_j * row_{j-2};
        # odd j: delta_{j-2} * x * row_{j-1} - delta_j * row_{j-3}
        c1, r2 = ((trail.deltas[1], trail.rows[2]) if odd
                  else (trail.deltas[0], trail.rows[1]))
        want = ring.lin(c1, trail.rows[0], odd, delta, r2, 0)
    if row != want:
        fails |= 32
    return _WitnessTrail(lc, e, last_jump, (delta, trail.deltas[0]),
                         (row,) + trail.rows[:2]), fails


def _witness_run(s: Seq, epsilon: int = 0) -> tuple[PlcpWitness, _Profile]:
    """The six witnesses and the profile verdicts (_profile_step) of one run.

    The profile does not depend on epsilon (it only seeds the displaced
    row), so its verdicts serve the epsilon-free analyses too.
    """
    dom = s.domain
    core = _make_core(dom, MPConfig(epsilon=epsilon))
    eps = dom.normalize(epsilon)
    trail, profile = _WITNESS_START, _PROFILE_START
    fails: dict[str, list[int]] = {name: [] for name in WITNESSES}
    for j, delta in enumerate(_each_step(core, s.terms), start=1):
        trail, bits = _witness_step(trail, j, core, delta, eps)
        profile = _profile_step(profile, trail.lc, trail.e, j)
        for i, name in enumerate(WITNESSES):
            if bits >> i & 1:
                fails[name].append(j + 1 if name == "index" else j)
    return PlcpWitness({k: v for k, v in fails.items() if v}), profile


def plcp_witnesses(s: Seq, epsilon: int = 0) -> PlcpWitness:
    """Evaluate the six profile characterizations independently.

    One engine run, folded step by step through the same per-step
    conditions the prefix-tree sweeps use.  The pair-recursion condition
    re-derives the engine row (mu, [mu]) from the two-term recursions and
    compares it to the actual row (see _witness_step).
    """
    return _witness_run(s, epsilon)[0]


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
    t = (0, *s.terms, 0)  # t[j] = s_j, with zeros past both ends
    out = [t[1] ^ 1]
    out += map(operator.xor, t[1:-1], t[2:])
    for i in range(2, len(t) - 1, 2):
        out[i] ^= t[i // 2]
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
    """Maximum of the exponents e_0..e_n and where it occurs."""

    height: int
    argmax_j: int
    exponents: list[int]


def height(s: Seq) -> HeightReport:
    """Sequence height: max over the exponents e_0..e_n of one run.

    The seed exponent e_0 = 1 participates, so the height is always at
    least 1 and equals 1 exactly on perfect-profile sequences.
    """
    exps = _run_profile(s)[1]
    h = max(exps)
    return HeightReport(height=h, argmax_j=exps.index(h), exponents=exps)


def cf_partial_quotients(s: Seq) -> list[Poly]:
    """Partial quotients of the rational (sum s_i x^{n-i}) / x^n.

    Computed by the Euclidean algorithm on the pair (x^n, numerator), one
    loop of ring.quo_rem in the ring of rows of the field (poly.field_ring:
    packed ints over F_2, bit planes over F_3, coefficient lists
    elsewhere), in _cf_quotients.  The oracle reads the ring modules,
    never an engine core.  The quotient degrees extend the engine's jump
    exponents: quotient i has degree equal to the i-th jump exponent for
    every jump the profile realized; quotients past that point encode the
    truncation.
    """
    ring, quotients = _cf_quotients(s)
    return [Poly(s.domain, ring.to_coeffs(q)) for q in quotients]


def _cf_quotients(s: Seq):
    """The ring of rows and the partial quotients as its rows (cf_partial_quotients)."""
    dom = s.domain
    if not dom.is_field:
        raise UnsupportedDomainError("continued fractions need a field")
    if not any(s.terms):
        raise ValueError("the zero sequence has no continued fraction")
    ring = field_ring(dom.p)
    # the terms are the numerator's coefficients, highest first
    a, b = ring.from_bytes((1,) + (0,) * len(s)), ring.from_bytes(s.terms)
    quotients = []
    while ring.degree(b) >= 0:
        q, r = ring.quo_rem(a, b)
        quotients.append(q)
        a, b = b, r
    return ring, quotients


def lc_sum(s: Seq) -> tuple[int, int]:
    """(sum of LC_1..LC_n, the bound floor((n+1)^2 / 4))."""
    return sum(_run_profile(s)[0]), _lc_sum_bound(len(s))


def char_equivalence(s: Seq) -> tuple[bool, bool, bool]:
    """The three equivalent profile characterizations.

    (i) perfect profile; (ii) profile never above floor((i+1)/2) and
    the LC sum attains its bound; (iii) profile never below
    floor((i+1)/2).
    """
    lc, exps = _run_profile(s)
    st = _PROFILE_START
    for j, (c, e) in enumerate(zip(lc, exps[1:]), start=1):
        st = _profile_step(st, c, e, j)
    return _char_verdicts(st, len(lc))


# The most decimal digits a count may have: CPython's default limit on
# converting an int to text, so every count plcp_count returns prints.
COUNT_DIGITS_GUARD = 4300


def plcp_count(q: int, n: int) -> int:
    """Closed-form number of perfect-profile sequences in F_q^n.

    Raises ResourceLimitError when the count would have more than
    COUNT_DIGITS_GUARD digits.  Its logarithm refuses a count far past
    the guard before any power is built; near the edge the count itself
    decides.  Raises ValueError unless q is a prime below 2^31:
    PrimeField checks that range before its trial division.
    """
    PrimeField(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    odd, even = (n + 1) // 2, n // 2
    if odd * math.log10(q - 1) + even * math.log10(q) < COUNT_DIGITS_GUARD + 1:
        count = (q - 1) ** odd * q ** even
        if count < 10**COUNT_DIGITS_GUARD:
            return count
    raise ResourceLimitError(
        f"the count over F_{q} at n={n} has more than {COUNT_DIGITS_GUARD} "
        "digits, past the count guard")


ENUM_GUARD = 10**7


def _guard_enumeration(q: int, n: int) -> None:
    """Refuse to enumerate the perfect profiles in F_q^n past ENUM_GUARD.

    plcp_count refuses a bad q or n first, as a ValueError.  Then two
    bounds, read at call time: the q^n candidates of the walk, and the
    count * n terms of its output.  Neither bounds the other: 13^6
    candidates pass, but their perfect profiles have 22.8 M terms.
    """
    count = plcp_count(q, n)
    # q^n >= 2^n > ENUM_GUARD once n reaches its bit length: no power is built
    if n >= ENUM_GUARD.bit_length() or q**n > ENUM_GUARD:
        raise ResourceLimitError(f"{q}^{n} exceeds the enumeration guard")
    if count * n > ENUM_GUARD:
        raise ResourceLimitError(
            f"the perfect profiles in F_{q}^{n} have {count * n} terms, past "
            f"the enumeration guard {ENUM_GUARD}")


def _guard_binary_sweep(max_n: int) -> None:
    """Refuse to sweep the binary sequences of up to max_n terms past ENUM_GUARD."""
    # 2^(max_n + 1) > ENUM_GUARD, compared by bit length: no power is built
    if max_n + 1 >= ENUM_GUARD.bit_length():
        raise ResourceLimitError(
            f"the binary sequences of up to {max_n} terms exceed the "
            "enumeration guard")


def _perfect_step(state, core, delta, j):
    return True if core.cur_lc() == (j + 1) // 2 else None


def enumerate_plcp(q: int, n: int):
    """Yield every perfect-profile sequence in F_q^n, in product order.

    This is the independent oracle for the closed-form count: it checks
    the definition LC_j = floor((j+1)/2) step by step on a walk of the
    prefix tree, never inverting the discrepancy bijection.  The perfect
    profile is prefix-closed, so the walk cuts a subtree as soon as its
    prefix leaves it.  _guard_enumeration bounds the candidates and the
    output before the walk.
    """
    _guard_enumeration(q, n)
    dom = PrimeField(q)
    core = _make_core(dom, MPConfig())
    for terms, _ in _walk_prefixes(core, q, n, _perfect_step, True):
        if len(terms) == n:
            yield Seq(dom, terms)


def deltas_to_sequence(domain: CoeffDomain, deltas, epsilon: int = 0) -> Seq:
    """The unique sequence whose engine run produces the given discrepancies.

    Inverts one step at a time: the next discrepancy is affine in the
    unknown term, with the current leading coefficient as the unit
    multiplier, so each target determines the term (field domains).
    Trial steps on copies of the core read off the two coefficients.
    Those trials choose each term, so this is the one run outside the
    engine's drivers (_run, _each_step, _walk_prefixes) that steps a
    core itself.
    """
    if not domain.is_field:
        raise UnsupportedDomainError("solving for terms needs a field")
    core = _make_core(domain, MPConfig(epsilon=epsilon))
    out = []
    for target in deltas:
        at_zero = core.copy().step(0)
        lead = domain.sub(core.copy().step(1), at_zero)
        term = domain.mul(domain.sub(target, at_zero), domain.inv(lead))
        out.append(term)
        core.step(term)
    return Seq(domain, out)


def analysis_report(s: Seq, epsilon: int = 0) -> dict:
    """One-stop JSON-ready summary of the profile analyses (one engine run)."""
    wit, profile = _witness_run(s, epsilon)
    n = len(s)
    return {
        "plcp": profile.perfect,
        "witnesses": wit.as_dict(),
        "stable": is_stable(s) if s.domain.p == 2 else None,
        "height": profile.height,
        "lc_sum": profile.lc_sum,
        "lc_sum_bound": _lc_sum_bound(n),
        "char_equivalence": list(_char_verdicts(profile, n)),
    }
