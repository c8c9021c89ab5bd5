"""Profile analyses: characterizations, stability, height, sums, bijection."""

import operator
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lcprof import analysis
from lcprof.analysis import (
    WITNESSES,
    _WITNESS_START,
    _walk_prefixes,
    _witness_step,
    analysis_report,
    cf_partial_quotients,
    char_equivalence,
    deltas_to_sequence,
    enumerate_plcp,
    height,
    is_plcp,
    is_stable,
    lc_sum,
    plcp_count,
    plcp_witnesses,
    sigma_poly,
    t_transform,
)
from lcprof.engine import MPConfig, _make_core, mp_run
from lcprof.errors import ResourceLimitError, UnsupportedDomainError
from lcprof.fields import GF2, ZZ, PrimeField
from lcprof.poly import Poly, Seq, poly_divmod
from lcprof.rueppel import rueppel_terms
from ring_reference import lin

F3 = PrimeField(3)


def bits(v, n):
    return [(v >> i) & 1 for i in range(n)]


# ---------------------------------------------------------------- is_plcp

def test_plcp_small_catalogue():
    assert is_plcp(GF2.seq([1, 1, 0]))
    assert is_plcp(GF2.seq([1, 0, 1]))
    assert not is_plcp(GF2.seq([1, 1, 1]))
    assert is_plcp(GF2.seq([]))
    listed = {(1, 1, 0), (1, 0, 1)}
    found = {t for t in product((0, 1), repeat=3) if is_plcp(GF2.seq(t))}
    assert found == listed
    four = {t for t in product((0, 1), repeat=4) if is_plcp(GF2.seq(t))}
    assert four == {(1, 1, 0, 0), (1, 1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1)}


def test_plcp_rueppel_prefixes():
    _, rep = mp_run(rueppel_terms(64))
    assert rep.lc == [(j + 1) // 2 for j in range(1, 65)]
    assert is_plcp(rueppel_terms(64))


# -------------------------------------------------------------- witnesses

def test_witnesses_worked_positive():
    w = plcp_witnesses(GF2.seq([1, 0, 1, 1]))
    assert w.all() == (True,) * 6 and w.agree() and not w.details


def test_witnesses_zero_start_all_false():
    w = plcp_witnesses(GF2.seq([0, 1, 1]))
    assert w.all() == (False,) * 6 and w.agree()
    assert 1 in w.details["odd_delta"]


@pytest.mark.parametrize("n", range(0, 11))
def test_witnesses_agree_exhaustive_f2(n):
    for v in range(1 << n):
        w = plcp_witnesses(GF2.seq(bits(v, n)))
        assert w.agree(), (n, v, w.all())


def test_witnesses_agree_f3_sample():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(0, 10)
        s = F3.seq([rng.randrange(3) for _ in range(n)])
        assert plcp_witnesses(s).agree()


def test_witnesses_with_epsilon():
    for v in range(1 << 8):
        s = GF2.seq(bits(v, 8))
        assert plcp_witnesses(s, epsilon=1).agree()


# reference pair recursion on whole rows (mu, [mu]), [mu] read from the core
_REF_START = ((([1], []),), (1, None))


def _ref_recursion_step(ref, j, core, delta, eps, p):
    """Step j of the pair recursion on (mu, [mu]) rows.

    Returns the next reference state and which halves failed, (mu, [mu]).
    """
    rows, deltas = ref
    row = tuple(map(core.ring.to_coeffs, core.rows()[:2]))
    odd = j & 1
    if j == 1:
        want = (lin(p, 1, [1], 1, delta * eps, [1]), lin(p, delta, [1], 0, 0, []))
    elif not odd and delta == 0:
        want = rows[0]
    else:
        c1, r2 = (deltas[1], rows[2]) if odd else (deltas[0], rows[1])
        want = tuple(lin(p, c1, a, odd, delta, b) for a, b in zip(rows[0], r2))
    return ((row,) + rows[:2], (delta, deltas[0])), tuple(map(operator.ne, row, want))


def _recursion_failures(s, eps):
    core = _make_core(s.domain, MPConfig(epsilon=eps))
    ref, out = _REF_START, []
    for j, t in enumerate(s.terms, start=1):
        ref, failed = _ref_recursion_step(ref, j, core, core.step(t), eps, s.domain.p)
        if any(failed):
            out.append(j)
    return out


@pytest.mark.parametrize("q, n, eps, generic", [
    (2, 12, 0, False), (2, 12, 1, False), (2, 12, 0, True), (2, 12, 1, True),
    (3, 7, 0, True), (3, 7, 1, True), (3, 7, 2, True),
    (3, 7, 0, False), (3, 7, 1, False), (3, 7, 2, False),
])
def test_recursion_witness_matches_the_two_column_reference(q, n, eps, generic):
    # every sequence of up to n terms: the per-step verdicts agree at each node
    dom = PrimeField(q)
    core = _make_core(dom, MPConfig(epsilon=eps), force_generic=generic)
    def fold(state, core, delta, j):
        trail, ref = state
        trail, bits = _witness_step(trail, j, core, delta, eps)
        ref, failed = _ref_recursion_step(ref, j, core, delta, eps, q)
        assert bool(bits & 32) == any(failed), (core.terms(), j)
        return trail, ref

    nodes = sum(1 for _ in _walk_prefixes(core, q, n, fold, (_WITNESS_START, _REF_START)))
    assert nodes == sum(q**k for k in range(n + 1))


@pytest.mark.parametrize("q", [5, 65521])
def test_recursion_witness_matches_the_reference_on_random_inputs(q):
    rng = random.Random(q)
    dom = PrimeField(q)
    for _ in range(150):
        s = Seq(dom, [rng.randrange(q) for _ in range(rng.randrange(1, 30))])
        eps = rng.randrange(q)
        want = _recursion_failures(s, eps)
        assert plcp_witnesses(s, epsilon=eps).details.get("recursion", []) == want


def _generic_witness_failures(s, eps):
    """The failure lists of plcp_witnesses, folded over the generic core."""
    core = _make_core(s.domain, MPConfig(epsilon=eps), force_generic=True)
    trail, out = _WITNESS_START, {}
    for j, t in enumerate(s.terms, start=1):
        trail, bits = _witness_step(trail, j, core, core.step(t), eps)
        for i, name in enumerate(WITNESSES):
            if bits >> i & 1:
                out.setdefault(name, []).append(j + 1 if name == "index" else j)
    return out


def test_packed_witness_matches_the_references_on_random_inputs():
    # half the inputs are perfect-profile sequences with a few terms
    # flipped, so the recursion holds for long runs before it fails
    rng = random.Random(512)
    for k in range(200):
        n, eps = rng.randrange(1, 513), rng.randrange(2)
        if k % 2:
            deltas = [1 if j % 2 else rng.randrange(2) for j in range(1, n + 1)]
            terms = list(deltas_to_sequence(GF2, deltas, eps).terms)
            for _ in range(rng.randrange(3)):
                terms[rng.randrange(n)] ^= 1
        else:
            terms = [rng.randrange(2) for _ in range(n)]
        s = Seq(GF2, terms)
        failures = analysis_report(s, eps)["witnesses"]["failures"]
        assert failures == _generic_witness_failures(s, eps)
        assert failures.get("recursion", []) == _recursion_failures(s, eps)


# ---------------------------------------------------------------- stable

def test_stable_examples():
    assert is_stable(rueppel_terms(7))
    assert not is_stable(GF2.seq([1, 1, 1]))  # s_3 != s_2 + s_1
    assert not is_stable(GF2.seq([0, 1]))
    assert not is_stable(GF2.seq([]))


def test_stable_needs_binary():
    with pytest.raises(UnsupportedDomainError):
        is_stable(F3.seq([1, 1]))


def test_transform_values():
    assert t_transform(GF2.seq([1, 0, 0]))[0] == 0  # t_0 = s_1 + 1
    assert t_transform(GF2.seq([1, 1, 1]))[2] == 1  # s_2 + s_3 + s_1
    assert all(t_transform(rueppel_terms(5))[j] == 0 for j in (0, 2, 4))


def _t_transform_reference(s):
    """t_transform written term by term, with out-of-range terms read as 0."""
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


def test_transform_matches_reference_exhaustive():
    for n in range(13):
        for terms in product((0, 1), repeat=n):
            s = GF2.seq(terms)
            assert t_transform(s) == _t_transform_reference(s)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_stable_iff_even_coefficients_vanish(n):
    for v in range(1 << n):
        s = GF2.seq(bits(v, n))
        t = t_transform(s)
        evens_vanish = all(t[j] == 0 for j in range(0, n + 1, 2))
        assert is_stable(s) == evens_vanish
        assert is_plcp(s) == is_stable(s)  # odd lengths


def test_stable_count_matches_free_choices():
    # one free bit per odd position beyond the first
    n = 9
    cnt = sum(1 for v in range(1 << n) if is_stable(GF2.seq(bits(v, n))))
    assert cnt == 2 ** (n // 2)


# ----------------------------------------------------------------- sigma

def test_sigma_base_values():
    assert str(sigma_poly(GF2.seq([1]), 0)) == "1"
    assert str(sigma_poly(GF2.seq([1]), 1)) == "x+1"


def test_sigma_perfect_certificates():
    # the engine discrepancy at the even step decides the certificate
    assert str(sigma_poly(GF2.seq([1, 1]), 2)) == "1"
    assert str(sigma_poly(GF2.seq([1, 0]), 2)) == "x+1"
    assert str(sigma_poly(GF2.seq([1, 1, 0, 0]), 4)) == "1"
    assert str(sigma_poly(GF2.seq([1, 1, 0, 1]), 4)) == "x+1"


def test_sigma_index_bounds():
    with pytest.raises(IndexError):
        sigma_poly(GF2.seq([1]), 2)
    with pytest.raises(UnsupportedDomainError):
        sigma_poly(F3.seq([1]), 1)


def laurent_poly_part_of_square_transform(s, j):
    """Oracle: the nonnegative part of mu^2 * t as a direct convolution.

    The full transform series runs to index 2j (the square term), past
    what t_transform reports, so it is rebuilt here from scratch.
    """
    dom = s.domain
    m, _ = mp_run(s.prefix(j))
    musq = m.a * m.a

    def at(i):
        return s.terms[i - 1] if 1 <= i <= j else 0

    t = []
    for i in range(2 * j + 1):
        v = at(i) ^ at(i + 1) ^ (1 if i == 0 else 0)
        if i % 2 == 0 and i >= 2:
            v ^= at(i // 2)
        t.append(v)
    out = {}
    for k, c in enumerate(musq.coeffs):
        for i, ti in enumerate(t):
            e = k - i
            out[e] = out.get(e, 0) ^ (c & ti)
    top = max((e for e, v in out.items() if v and e >= 0), default=-1)
    return Poly(dom, [out.get(e, 0) for e in range(top + 1)])


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_sigma_closed_form_vs_series(n):
    """The closed form equals the series value up to a boundary term.

    The cross term (x+1)*mu*(mu*s - [mu]) contributes a polynomial of
    degree at most 1 - e_j that the closed form keeps; whenever
    e_j > 1 the two values coincide exactly.  The certificate catalogue
    and the step recursion go with the closed form.
    """
    for v in range(1 << n):
        s = GF2.seq(bits(v, n))
        _, rep = mp_run(s)
        for j in range(n + 1):
            closed = sigma_poly(s, j)
            series = laurent_poly_part_of_square_transform(s, j)
            e_j = rep.exponents[j]
            diff = closed - series
            assert diff.degree <= max(0, 1 - e_j) or diff.is_zero
            if e_j > 1:
                assert closed == series


def test_sigma_recursion_on_perfect_inputs():
    xp1 = Poly(GF2, (1, 1))
    x2 = Poly(GF2, (0, 0, 1))
    even_degrees = {}
    for n in (8, 9, 10):
        for s in enumerate_plcp(2, n):
            _, rep = mp_run(s)
            sig = [sigma_poly(s, j) for j in range(n + 1)]
            for j in range(2, n + 1):
                dj = rep.deltas[j - 1]
                if j % 2 == 0:
                    want = sig[j - 1] + sig[j - 2].scale(dj) + xp1.scale(dj)
                    even_degrees.setdefault(j, set()).add(sig[j].degree)
                else:
                    want = x2 * sig[j - 1] + sig[j - 3] + Poly(GF2, (0, 1, 1))
                assert sig[j] == want, (list(s.terms), j)
    # even-step degree is capped at j-1 and the cap is attained
    for j, degs in even_degrees.items():
        assert max(degs) == j - 1


# ---------------------------------------------------------------- height

def test_height_examples():
    assert height(rueppel_terms(33)).height == 1
    assert height(GF2.seq([0, 0, 0])).height == 4
    assert height(GF2.seq([1])).height == 1
    r = height(GF2.seq([0, 0, 0]))
    assert r.exponents == [1, 2, 3, 4] and r.argmax_j == 3


def test_height_one_iff_plcp_exhaustive():
    for n in range(1, 11):
        for v in range(1 << n):
            s = GF2.seq(bits(v, n))
            assert (height(s).height == 1) == is_plcp(s)


def test_height_bounds_random():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.choice((2, 3))
        dom = PrimeField(q)
        n = rng.randrange(1, 129)
        s = Seq(dom, [rng.randrange(q) for _ in range(n)])
        rep = height(s)
        assert 1 <= rep.height <= n + 1
        for e in rep.exponents[1:]:
            assert rep.height >= e >= 1 - rep.height


def test_bounded_exponent_criteria():
    """Filtered forms of the two fixed-height criteria.

    The alternating upper-bound pattern is satisfiable only at k = 1
    (exponent parities force the tight profile), so the filter is fed
    constructed perfect-profile inputs alongside the random draws.
    """
    rng = random.Random(23)
    pool = []
    for _ in range(200):
        q = rng.choice((2, 3))
        dom = PrimeField(q)
        n = rng.randrange(16, 80)
        pool.append(Seq(dom, [rng.randrange(q) for _ in range(n)]))
    for _ in range(40):
        q = rng.choice((2, 3))
        dom = PrimeField(q)
        n = rng.randrange(17, 64, 2)
        deltas = [
            rng.randrange(1, q) if j % 2 else rng.randrange(q)
            for j in range(1, n + 1)
        ]
        pool.append(deltas_to_sequence(dom, deltas))
    hits = 0
    for s in pool:
        _, rep = mp_run(s)
        exps = rep.exponents
        for k in range(1, 6):
            if all(
                e <= (1 - k if j % 2 == 1 else k)
                for j, e in enumerate(exps[1:], start=1)
            ):
                assert height(s).height == k
                hits += 1
        # lower bound keeps the exponents below k up to the last jump
        jumps = rep.jumps
        if jumps:
            k = max(1, 1 - min(exps[1:]))
            assert max(exps[1:jumps[-1] + 1]) <= k
    assert hits >= 40


# ------------------------------------------------------------- cf oracle

def test_cf_examples():
    assert [str(q) for q in cf_partial_quotients(GF2.seq([0, 0, 1]))] == ["x^3"]
    assert [str(q) for q in cf_partial_quotients(GF2.seq([1]))] == ["x"]
    with pytest.raises(ValueError):
        cf_partial_quotients(GF2.seq([0, 0]))
    with pytest.raises(UnsupportedDomainError):
        cf_partial_quotients(ZZ.seq([1]))


def test_cf_convergents_reconstruct_rational():
    # sanity on the Euclid loop: quotients of the worked example
    assert [str(q) for q in cf_partial_quotients(GF2.seq([1, 1, 0, 1, 0, 0]))] == [
        "x+1", "x", "x", "x+1",
    ]


def test_cf_quotients_extend_jump_exponents():
    rng = random.Random(41)
    for _ in range(150):
        q = rng.choice((2, 3))
        dom = PrimeField(q)
        n = rng.randrange(1, 65)
        terms = [rng.randrange(q) for _ in range(n)]
        terms[0] = rng.randrange(1, q)
        s = Seq(dom, terms)
        _, rep = mp_run(s)
        jexp = rep.jump_exponents
        degs = [int(a.degree) for a in cf_partial_quotients(s)]
        assert degs[: len(jexp)] == jexp
        # quotient degrees sum to the index of the last nonzero term
        last = max(j for j, t in enumerate(terms, start=1) if t)
        assert sum(degs) == last


def _euclid_quotients(s):
    """The partial quotients by poly_divmod on Poly values."""
    n = len(s)
    a = Poly(s.domain, (0,) * n + (1,))
    b = Poly(s.domain, s.terms[::-1])
    out = []
    while not b.is_zero:
        q, r = poly_divmod(a, b)
        out.append(q)
        a, b = b, r
    return out


def test_cf_quotients_equal_a_poly_divmod_euclid():
    # every ring: packed F_2, planes over F_3, and lists over F_5 and over
    # F_65521, whose residues no byte holds
    rng = random.Random(17)
    for _ in range(800):
        q = rng.choice((2, 3, 5, 65521))
        n = rng.randrange(1, 81)
        terms = [rng.randrange(q) for _ in range(n)]
        terms[rng.randrange(n)] = rng.randrange(1, q)
        s = PrimeField(q).seq(terms)
        got = cf_partial_quotients(s)
        assert got == _euclid_quotients(s), (q, terms)


# ------------------------------------------------------------------ sums

def test_lc_sum_examples():
    assert lc_sum(rueppel_terms(6)) == (12, 12)
    assert lc_sum(GF2.seq([1, 1, 1])) == (3, 4)
    assert lc_sum(GF2.seq([1, 1, 1, 0])) == (6, 6)


def test_char_equivalence_examples():
    assert char_equivalence(rueppel_terms(6)) == (True, True, True)
    assert char_equivalence(GF2.seq([1, 1, 1])) == (False, False, False)
    assert char_equivalence(GF2.seq([1, 1, 1, 0])) == (False, False, False)
    assert char_equivalence(GF2.seq([])) == (True, True, True)


@pytest.mark.parametrize("n", range(0, 11))
def test_char_equivalence_exhaustive(n):
    for v in range(1 << n):
        s = GF2.seq(bits(v, n))
        triple = char_equivalence(s)
        assert len(set(triple)) == 1
        assert triple[0] == is_plcp(s)
        sigma, bound = lc_sum(s)
        assert sigma <= bound


# -------------------------------------------------------------- counting

def test_count_values():
    assert plcp_count(2, 4) == 4
    assert plcp_count(2, 1) == 1
    assert plcp_count(3, 2) == 6
    with pytest.raises(ValueError):
        plcp_count(4, 3)


def test_enumerate_small():
    assert {tuple(s.terms) for s in enumerate_plcp(2, 3)} == {(1, 1, 0), (1, 0, 1)}
    assert sum(1 for _ in enumerate_plcp(2, 4)) == 4
    assert sum(1 for _ in enumerate_plcp(3, 4)) == 36


def test_enumerate_rejects_a_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_plcp(2, -1))


def test_enumerate_guard():
    with pytest.raises(ResourceLimitError):
        list(enumerate_plcp(2, 30))


def test_enumerate_guard_bounds_the_output_before_the_walk(monkeypatch):
    monkeypatch.setattr(analysis, "ENUM_GUARD", 1000)
    # 3^5 = 243 candidates and 72 perfect profiles of 5 terms: 360 terms
    assert sum(1 for _ in enumerate_plcp(3, 5)) == 72

    def walk(*args):
        raise AssertionError("the walk started past the guard")

    monkeypatch.setattr(analysis, "_walk_prefixes", walk)
    # 3^6 = 729 candidates pass, but 216 profiles of 6 terms are 1296 terms
    with pytest.raises(ResourceLimitError, match="1296 terms"):
        next(enumerate_plcp(3, 6))


def test_plcp_count_rejects_a_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        plcp_count(3, -1)


@pytest.mark.parametrize("q,n", [(2, 9), (3, 6), (5, 4)])
def test_census_matches_formula(q, n):
    assert sum(1 for _ in enumerate_plcp(q, n)) == plcp_count(q, n)


# -------------------------------------------------------------- bijection

def test_deltas_round_trip_worked():
    s = deltas_to_sequence(GF2, [1, 1, 1, 0, 1, 0])
    assert list(s) == [1, 1, 0, 1, 0, 0]


def test_deltas_zero_list():
    assert list(deltas_to_sequence(F3, [0] * 5)) == [0] * 5


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_deltas_round_trip_both_ways(q, data):
    dom = PrimeField(q)
    deltas = data.draw(st.lists(st.integers(0, q - 1), max_size=16))
    eps = data.draw(st.integers(0, q - 1))
    s = deltas_to_sequence(dom, deltas, epsilon=eps)
    _, rep = mp_run(s, MPConfig(epsilon=eps))
    assert rep.deltas == deltas
    terms = data.draw(st.lists(st.integers(0, q - 1), max_size=16))
    s2 = Seq(dom, terms)
    _, rep2 = mp_run(s2, MPConfig(epsilon=eps))
    assert deltas_to_sequence(dom, rep2.deltas, epsilon=eps) == s2


def test_deltas_round_trip_on_the_ternary_core():
    rng = random.Random(34)
    for n in (0, 1, 30, 300):
        deltas = [rng.randrange(3) for _ in range(n)]
        eps = rng.randrange(3)
        s = deltas_to_sequence(F3, deltas, eps)
        assert mp_run(s, MPConfig(epsilon=eps))[1].deltas == deltas
        assert mp_run(s, MPConfig(epsilon=eps), force_generic=True)[1].deltas == deltas


def test_ternary_prefix_walks_match_the_generic_walk(monkeypatch):
    # enumerate_plcp copies its core at every node of the prefix tree
    from lcprof import analysis
    from lcprof.engine import _GenericCore, _TernaryCore

    real = analysis._make_core
    walks = {}
    for generic, kind in ((False, _TernaryCore), (True, _GenericCore)):
        made = []

        def make(dom, config, generic=generic):
            made.append(real(dom, config, force_generic=generic))
            return made[-1]

        monkeypatch.setattr(analysis, "_make_core", make)
        walks[kind] = [[s.terms for s in enumerate_plcp(3, n)] for n in range(8)]
        assert {type(core) for core in made} == {kind}
    assert walks[_TernaryCore] == walks[_GenericCore]
    assert [len(w) for w in walks[_TernaryCore]] == [plcp_count(3, n) for n in range(8)]


def test_deltas_needs_field():
    with pytest.raises(UnsupportedDomainError):
        deltas_to_sequence(ZZ, [1, 0])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_enumerate_matches_definition_in_product_order(q):
    dom = PrimeField(q)
    for n in range(7):
        want = [t for t in product(range(q), repeat=n) if is_plcp(dom.seq(t))]
        assert [s.terms for s in enumerate_plcp(q, n)] == want


def test_analysis_report_runs_the_engine_once(monkeypatch):
    from lcprof import analysis

    real = analysis._make_core
    cases = [(GF2.seq([1, 1, 0, 1, 0, 0]), 0), (GF2.seq([0, 1, 1, 1]), 1),
             (F3.seq([1, 2, 0, 2, 1]), 2), (F3.seq([]), 0)]
    for s, eps in cases:
        made = []
        monkeypatch.setattr(analysis, "_make_core",
                            lambda *a, **k: made.append(1) or real(*a, **k))
        report = analysis.analysis_report(s, epsilon=eps)
        assert len(made) == 1
        monkeypatch.setattr(analysis, "_make_core", real)
        sigma, bound = lc_sum(s)
        assert report["plcp"] == is_plcp(s)
        assert report["witnesses"] == plcp_witnesses(s, epsilon=eps).as_dict()
        assert report["height"] == height(s).height
        assert (report["lc_sum"], report["lc_sum_bound"]) == (sigma, bound)
        assert report["char_equivalence"] == list(char_equivalence(s))
