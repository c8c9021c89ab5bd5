"""Verification sweeps: executable checks of the structural identities.

Each suite scans a slice of input space (exhaustive or seeded-random)
and yields (n, detail) pairs; the one driver, _suite, counts the n and
stops at the first non-empty detail, the counterexample, reporting the
checks up to it.  A detail is built only when its check fails; n = 0
adds a condition to the check just counted.  SUITES declares each suite
once for the CLI's ``verify`` command: its default sizes, the flags it
reads and how they map onto its parameters.  The acceptance tests call
the suites with pinned parameters.

The exhaustive binary sweeps (oracle over F_2, wang-massey, plcp-equiv,
height) share one function, _tree_sweep, which walks the prefix tree
once: the engine is online, so every sequence that extends a prefix
resumes a copy of the prefix's engine core, and each node folds its
parent's verdicts with the checks at its own step.  One walk covers
every length of a sweep.  The reported counterexample is the one a
length-by-length scan would report first: the least length, then the
least value (first term the low bit), with the sequences of the shorter
checked lengths counted as checked.  The seeded suites draw by _draw.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .analysis import (
    WITNESSES,
    _WITNESS_START,
    _cf_quotients,
    _guard_binary_sweep,
    _guard_enumeration,
    _witness_step,
    enumerate_plcp,
    height,
    is_stable,
    lc_sum,
    plcp_count,
)
from .engine import (
    MPConfig,
    _bezout_ok,
    _check_brute_force_degree,
    _each_step,
    _exponents,
    _jumps,
    _make_core,
    _profile,
    _run,
    _walk_prefixes,
    annihilates,
    brute_force_minpoly,
    mp_run,
)
from .errors import ResourceLimitError
from .fields import GF2, PrimeField
from .poly import Poly, Seq
from .rueppel import (
    _check_column,
    _check_gamma_index,
    _check_terms,
    gamma_identities,
    gamma_members,
    gamma_packed,
    power_column_identity,
    rueppel_matrix_pattern,
    rueppel_mp_packed,
    rueppel_terms,
)

# every seeded-random suite draws from random.Random(DEFAULT_SEED)
DEFAULT_SEED = 0x5EED
# the most terms a bezout trial or an oracle draw may hold: a bezout trial
# checks a certificate at every step, on rows up to half its length, so
# its work grows as n^3 and the sizes that finish lie far below this
DRAW_N_GUARD = 4096


@dataclass
class VerifyResult:
    suite: str
    ok: bool
    checked: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.suite}: {status}, {self.checked} checks{tail}"


def _suite(name: str):
    """Run a generator of (n, detail) pairs as the suite called name."""
    def driver(checks):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> VerifyResult:
            checked = 0
            for n, detail in checks(*args, **kwargs):
                checked += n
                if detail:
                    return VerifyResult(name, False, checked, detail)
            return VerifyResult(name, True, checked)
        return run
    return driver


def _draw(rng: random.Random, q: int, max_n: int) -> list[int]:
    """A seeded length in 1..max_n, then that many terms in [0, q)."""
    n = rng.randrange(1, max_n + 1)
    return [rng.randrange(q) for _ in range(n)]


def _guard_draws(suite: str, max_n: int) -> None:
    """Refuse a suite's draws of up to max_n terms past DRAW_N_GUARD."""
    if max_n > DRAW_N_GUARD:
        raise ResourceLimitError(
            f"{suite} draws of up to {max_n} terms exceed the guard of "
            f"{DRAW_N_GUARD} terms")


# ---------------------------------------------------------- prefix tree

def _tree_sweep(start, fold, check, lengths: range) -> tuple[int, str]:
    """(checked, detail) over every binary sequence whose length is in lengths.

    One walk of the prefix tree from the empty prefix, whose state is
    start: fold(parent state, core, delta, j) gives a node's state after
    step j, and check(state, terms) gives "" or the counterexample.  With
    no failure, checked counts every sequence the walk checked; otherwise
    only those shorter than the failure a length-by-length scan meets
    first (least n, then least v).
    """
    if not lengths:
        return 0, ""
    _guard_binary_sweep(lengths[-1])
    counts = [0] * (lengths[-1] + 1)
    least = None  # (n, v, detail)
    core = _make_core(GF2, MPConfig())
    for terms, st in _walk_prefixes(core, 2, lengths[-1], fold, start):
        n = len(terms)
        if n in lengths:
            counts[n] += 1
            detail = check(st, terms)
            if detail:
                v = sum(t << i for i, t in enumerate(terms))
                if least is None or (n, v) < least[:2]:
                    least = n, v, detail
    if least is None:
        return sum(counts), ""
    return sum(counts[:least[0]]), least[2]


class _Profile(NamedTuple):
    """Prefix-local profile verdicts after j steps."""

    perfect: bool   # LC_i = floor((i+1)/2) for every i <= j
    below: bool     # LC_i <= floor((i+1)/2) for every i <= j
    above: bool     # LC_i >= floor((i+1)/2) for every i <= j
    lc_sum: int     # LC_1 + ... + LC_j
    height: int     # max(e_0, ..., e_j)


_PROFILE_START = _Profile(True, True, True, 0, 1)


def _profile_step(st: _Profile, core, delta: int, j: int) -> _Profile:
    lc = core.cur_lc()
    half = (j + 1) // 2
    return _Profile(st.perfect and lc == half, st.below and lc <= half,
                    st.above and lc >= half, st.lc_sum + lc,
                    max(st.height, core.e))


def _char_verdicts(st: _Profile, n: int) -> tuple[bool, bool, bool]:
    """The three char_equivalence forms of a prefix of n terms."""
    return st.perfect, st.below and st.lc_sum == (n + 1) ** 2 // 4, st.above


# ---------------------------------------------------------------- oracle

def _oracle_check(mu: Poly, terms) -> str:
    """"" when mu has brute force's least degree and annihilates the terms."""
    s = Seq._canonical(mu.domain, terms)
    ok = mu.degree == brute_force_minpoly(s)[0] and annihilates(mu, s)
    return "" if ok else f"F_{mu.domain.p} {list(terms)}"


def _packed_mu(st, core, delta: int, j: int) -> Poly:
    return Poly(GF2, core.ring.to_coeffs(core.mu))


def _guard_brute_force(fields, trials: int, max_n: int) -> None:
    """Refuse the oracle's draws over fields before any brute force, which
    checks each degree up to a draw's LC: an engine-only pass gives it each LC."""
    _guard_draws("oracle", max_n)
    rng = random.Random(DEFAULT_SEED)
    for q in fields:
        dom = PrimeField(q)
        for _ in range(trials):
            _check_brute_force_degree(q, _run(dom, _draw(rng, q, max_n))[0].cur_lc())


@_suite("oracle")
def verify_oracle(fields=(2, 3, 5), exhaustive_n: int = 10,
                  trials: int = 500, max_n: int = 8) -> VerifyResult:
    """Engine degree == brute-force least degree, and the output annihilates.

    The drawn half (every field but F_2) is guarded before any work,
    and then drawn again from the seed: the draws are not stored.
    """
    drawn = [q for q in fields if q != 2]
    if drawn:
        _guard_brute_force(drawn, trials, max_n)
    if 2 in fields:  # every sequence of 1..exhaustive_n terms
        yield _tree_sweep(None, _packed_mu, _oracle_check, range(1, exhaustive_n + 1))
    rng = random.Random(DEFAULT_SEED)
    for q in drawn:
        for _ in range(trials):
            s = Seq(PrimeField(q), _draw(rng, q, max_n))
            yield 1, _oracle_check(mp_run(s)[1].minpoly, s.terms)


# ---------------------------------------------------------------- bezout

@_suite("bezout")
def verify_bezout(field: int = 3, trials: int = 1000, max_n: int = 32) -> VerifyResult:
    """det M = -nabla and both gcd certificates, at every step.

    The certificate (_bezout_ok) is a pure function of the core's four
    native rows (core.rows()) and nabla, so a step that leaves all four
    rows the same objects and nabla equal (a zero discrepancy, on every
    core) gives it the same inputs: the verdict of the last check stands
    for it, and it still counts as checked.  A max_n past DRAW_N_GUARD
    is refused before any term is drawn.
    """
    _guard_draws("bezout", max_n)
    dom = PrimeField(field)
    rng = random.Random(DEFAULT_SEED)
    for _ in range(trials):
        terms = _draw(rng, field, max_n)
        core = _make_core(dom, MPConfig())
        last = None
        for j, _ in enumerate(_each_step(core, terms), start=1):
            rows, nabla = core.rows(), core.nabla
            same = (last and nabla == last[1]
                    and all(map(operator.is_, rows, last[0])))
            yield 1, "" if same or _bezout_ok(core) else f"F_{field} {terms} step {j}"
            last = rows, nabla


# ----------------------------------------------------------- wang-massey

# The sweep's fold state after j steps is (perfect, t): the first
# _Profile verdict, and the series t = s^2 + (x+1)s + 1 of the prefix,
# packed in y = 1/x (bit i is the coefficient of x^-i).  Over F_2,
# squaring is Frobenius, s^2 = sum s_j y^(2j), and (x+1)s =
# sum s_j (y^(j-1) + y^j), so term j adds y^(2j) + y^(j-1) + y^j when
# s_j = 1: one XOR.  That is t_transform's product definition folded
# down the tree, not the stability recurrence.  Bits past n come from
# the squares of the later terms; the check masks them off.
_WM_START = (True, 1)


def _wm_step(st, core, delta: int, j: int):
    # s_j is bit j - 1 of the packed core's consumed prefix S
    t = st[1] ^ (3 << j - 1 | 1 << 2 * j) if core.S >> j - 1 & 1 else st[1]
    return st[0] and core.cur_lc() == (j + 1) // 2, t


def _wm_check(st, terms) -> str:
    # stability is an engine-free oracle, run per sequence; the transform
    # is the other, folded from the terms alone
    n = len(terms)
    plcp, t = st
    stable = is_stable(Seq._canonical(GF2, terms))
    if plcp != stable:
        return f"n={n} {list(terms)} plcp={plcp} stable={stable}"
    # the even coefficients t_0, t_2, ..., up to t_n
    if stable != (t & (4 ** (n // 2 + 1) - 1) // 3 == 0):
        return f"n={n} {list(terms)} transform criterion"
    return ""


@_suite("wang-massey")
def verify_wang_massey(max_n: int = 15) -> VerifyResult:
    """PLCP <=> stability <=> even transform coefficients vanish (odd n)."""
    yield _tree_sweep(_WM_START, _wm_step, _wm_check, range(1, max_n + 1, 2))


# ------------------------------------------------------------- plcp

@_suite("plcp-count")
def verify_plcp_count(cases=((2, 14), (3, 8))) -> VerifyResult:
    """Exhaustive census equals the closed-form count."""
    for q, top in cases:  # every case is guarded before any census
        _guard_enumeration(q, top)
    for q, top in cases:
        for n in range(1, top + 1):
            census = sum(1 for _ in enumerate_plcp(q, n))
            count = plcp_count(q, n)
            yield q**n, "" if census == count else f"q={q} n={n}: {census} != {count}"


class _Equiv(NamedTuple):
    profile: _Profile
    trail: object   # analysis._WitnessTrail
    failed: int     # bit i: WITNESSES[i] failed at some step


_EQUIV_START = _Equiv(_PROFILE_START, _WITNESS_START, 0)


def _equiv_step(st: _Equiv, core, delta: int, j: int) -> _Equiv:
    trail, fails = _witness_step(st.trail, j, core, delta, 0)
    return _Equiv(_profile_step(st.profile, core, delta, j), trail,
                  st.failed | fails)


def _witness_verdicts(st: _Equiv) -> tuple[bool, ...]:
    """The six plcp_witnesses verdicts of the prefix, in WITNESSES order."""
    return tuple(not st.failed >> i & 1 for i in range(len(WITNESSES)))


def _equiv_check(st: _Equiv, terms) -> str:
    n = len(terms)
    w = _witness_verdicts(st)
    if len(set(w)) != 1:
        return f"n={n} {list(terms)} {w}"
    c = _char_verdicts(st.profile, n)
    if len(set(c)) != 1 or c[0] != w[0]:
        return f"n={n} {list(terms)} char {c}"
    sigma, bound = st.profile.lc_sum, (n + 1) ** 2 // 4
    if sigma > bound:
        return f"n={n} {list(terms)} sum {sigma} > {bound}"
    return ""


@_suite("plcp-equiv")
def verify_plcp_equivalence(max_n: int = 12) -> VerifyResult:
    """Six witnesses agree; the three sum characterizations agree; sums bounded."""
    yield _tree_sweep(_EQUIV_START, _equiv_step, _equiv_check,
                      range(0, max_n + 1))


# ------------------------------------------------------------- rueppel

@_suite("rueppel")
def verify_rueppel(profile_n: int = 4096, matrix_n: int = 512,
                   closed_n: int = 1025, gamma_n: int = 1024,
                   r0_k: int = 10) -> VerifyResult:
    """Closed forms of the power-of-two sequence against one engine run.

    The run goes as far as the longest check needs; each check compares
    the packed rows after n terms (and the ones before them) with its
    closed form, whose gamma members come from Lucas's theorem.  The
    identity checks read one member list built by the recurrence, which
    is compared with Lucas's theorem at a dozen indices up to its top.
    The sizes pass rueppel's column, gamma and terms checks first.
    """
    _check_column(r0_k)
    # the largest gamma index each other check reads
    g_top = max(gamma_n + gamma_n // 2, gamma_n + 1)
    _check_gamma_index(max(g_top, (closed_n + 3) // 2, (matrix_n + 1) // 2))
    snap_n = max(matrix_n, closed_n + 1)
    _check_terms(max(profile_n, snap_n))
    g = gamma_members(g_top)
    core = _make_core(GF2, MPConfig())
    rows = [core.rows()]  # rows[j]: the packed rows after j terms
    deltas = []
    for delta in _each_step(core, rueppel_terms(max(profile_n, snap_n)).terms):
        deltas.append(delta)
        if core.j <= snap_n:
            rows.append(core.rows())
    lcs, exps = _profile(GF2, deltas)
    for j in range(1, profile_n + 1):
        lc = lcs[j - 1]
        yield 1, "" if lc == (j + 1) // 2 else f"LC_{j} = {lc}"
        yield 0, "" if exps[j] in (0, 1) else f"e_{j} = {exps[j]}"
    # the checks below read consecutive members, most of them two or three
    # times: each is computed from Lucas's theorem once, for this call only
    member = functools.cache(gamma_packed)
    for n in range(2, matrix_n + 1):
        ok = rueppel_matrix_pattern(n, rows[n], rows[n - 1], member)
        yield 1, "" if ok else f"matrix pattern at n={n}"
    for n in range(3, closed_n + 1, 2):
        ok = rows[n][:2] == rueppel_mp_packed(n, member)
        yield 1, "" if ok else f"closed form at n={n}"
        ok = rows[n + 1][:2] == rows[n][:2]
        yield 1, "" if ok else f"even repeat at n={n + 1}"
    for i in range(12):
        k = g_top * i // 11
        ok = g[k] == member(k)
        yield 0, "" if ok else f"gamma({k}) by recurrence and by Lucas differ"
    for k in range(1, gamma_n + 1):
        yield 1, "" if gamma_identities(k, k // 2, g) else f"gamma identities at {k}"
    for k in range(1, r0_k + 1):
        ok = power_column_identity(k, member)
        yield 1, "" if ok else f"column closed form at k={k}"


# ------------------------------------------------------------- height

def _height_check(st: _Profile, terms) -> str:
    return "" if (st.height == 1) == st.perfect else f"n={len(terms)} {list(terms)}"


@_suite("height")
def verify_height(rueppel_n: int = 512, exhaustive_n: int = 14,
                  bound_trials: int = 1000, cf_trials: int = 200) -> VerifyResult:
    """Height bounds, the height-1 characterization, and the CF oracle."""
    hr = height(rueppel_terms(rueppel_n))
    yield 1, "" if hr.height == 1 else f"power-of-two height {hr.height}"
    yield _tree_sweep(_PROFILE_START, _profile_step, _height_check,
                      range(1, exhaustive_n + 1))
    rng = random.Random(DEFAULT_SEED)
    for _ in range(bound_trials):
        q = rng.choice((2, 3))
        s = Seq(PrimeField(q), _draw(rng, q, 128))
        h = height(s)
        ok = all(h.height >= e >= 1 - h.height for e in h.exponents[1:])
        yield 1, "" if ok else f"bounds F_{q} {list(s.terms)}"
    for _ in range(cf_trials):
        for q in (2, 3):
            dom = PrimeField(q)
            terms = [rng.randrange(q) for _ in range(64)]
            terms[0] = rng.randrange(1, q)
            s = Seq(dom, terms)
            _, deltas = _run(dom, terms)
            jexp = list(_jumps(deltas, _exponents(dom, deltas)).values())
            ring, quotients = _cf_quotients(s)
            degs = list(map(ring.degree, quotients))
            yield 1, "" if len(degs) >= len(jexp) else f"cf too short F_{q} {terms}"
            yield 0, ("" if degs[: len(jexp)] == jexp else
                      f"cf degrees {degs[: len(jexp)]} != jumps {jexp} F_{q} {terms}")
            # Euclid on (x^n, numerator) ends at gcd x^(trailing zero terms)
            end = max(i for i, t in enumerate(terms, start=1) if t)
            yield 0, ("" if sum(degs) == end else
                      f"cf degree sum {sum(degs)} != {end} F_{q} {terms}")


# ------------------------------------------------------------- lc sum

@_suite("lcsum")
def verify_lcsum(max_n: int = 12, sum_k: int = 20, sum_l: int = 20,
                 trials: int = 500) -> VerifyResult:
    """Sum bound, closed partial sum, and the worked three-term examples.

    No check reads max_n; it stays for callers that pass it.
    """
    for k in range(-1, sum_k + 1):
        for l in range(1, sum_l + 1):
            direct = sum((i + 1) // 2 for i in range(k + 1, k + 2 * l + 1))
            yield 1, "" if direct == l * l + (k + 1) * l else f"partial sum k={k} l={l}"
    rng = random.Random(DEFAULT_SEED)
    for _ in range(trials):
        q = rng.choice((2, 3, 5))
        s = Seq(PrimeField(q), _draw(rng, q, 64))
        sigma, bound = lc_sum(s)
        yield 1, "" if sigma <= bound else f"F_{q} {list(s.terms)}"
    # the two worked examples count as two checks before either runs
    yield 2, "" if lc_sum(Seq(GF2, (1, 1, 1))) == (3, 4) else "three ones"
    ext = Seq(GF2, (1, 1, 1, 0))
    _, rep = mp_run(ext)
    ok = lc_sum(ext) == (6, 6) and rep.lc[-1] == 3 and str(rep.minpoly) == "x^3+x^2+1"
    yield 0, "" if ok else "three ones then zero"


# ------------------------------------------------------------- registry

class Suite(NamedTuple):
    """One suite as ``lcprof verify`` runs it.

    run calls its suite by module-global name with keyword arguments
    only, so a suite patched on this module is the one that runs.
    """

    max_n: int | None    # default --max-n; None: the suite takes no --max-n
    trials: int | None   # default --trials; None: the suite takes no --trials
    field: int | None    # default --field; None: the suite takes no --field
    run: Callable        # (max_n, trials, field) -> VerifyResult


SUITES = {
    # over F_2 an exhaustive sweep to n terms, otherwise t random sequences
    "oracle": Suite(10, 500, 2, lambda n, t, q: verify_oracle(
        fields=(q,), exhaustive_n=n, trials=t, max_n=n)),
    "bezout": Suite(32, 1000, 2, lambda n, t, q: verify_bezout(
        field=q, trials=t, max_n=n)),
    "wang-massey": Suite(15, None, None, lambda n, t, q: verify_wang_massey(max_n=n)),
    "plcp-count": Suite(14, None, 2, lambda n, t, q: verify_plcp_count(
        cases=((q, n),))),
    "plcp-equiv": Suite(12, None, None,
                        lambda n, t, q: verify_plcp_equivalence(max_n=n)),
    "rueppel": Suite(512, None, None, lambda n, t, q: verify_rueppel(
        profile_n=8 * n, matrix_n=n, closed_n=2 * n + 1, gamma_n=2 * n,
        r0_k=max(1, (2 * n).bit_length() - 1))),
    "height": Suite(14, 1000, None, lambda n, t, q: verify_height(
        exhaustive_n=min(n, 14), bound_trials=t, cf_trials=max(1, t // 5))),
    "lcsum": Suite(None, 500, None, lambda n, t, q: verify_lcsum(trials=t)),
}
