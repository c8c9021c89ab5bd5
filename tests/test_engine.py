"""Engine: worked examples, step laws, certificates, and the two code paths."""

import gc
import itertools
import random
import time
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from lcprof import cli, engine, gf3, poly
from lcprof.analysis import height as analysis_height, plcp_witnesses
from lcprof.engine import (
    Mat2,
    MPConfig,
    MPState,
    annihilates,
    bezout_check,
    brute_force_minpoly,
    feedback_polynomial,
    lfsr_generate,
    minpoly_coset,
    mp_init,
    mp_run,
    mp_step,
    profile_steps,
    updating_matrix,
    _GenericCore,
    _jumps,
    _PackedCore,
    _TernaryCore,
)
from lcprof.errors import ResourceLimitError, UnsupportedDomainError
from lcprof.fields import GF2, ZZ, IntegerRing, PrimeField
from lcprof.poly import (
    ListRing,
    Poly,
    Seq,
    coeffs_to_text,
    field_ring,
    poly_gcd,
    polynomial_part,
)
from ring_reference import lin, planes, report_json_dict, text_to_coeffs

F3 = PrimeField(3)
F5 = PrimeField(5)
R6 = GF2.seq([1, 1, 0, 1, 0, 0])


def run_states(s, config=MPConfig()):
    state = mp_init(s.domain, config)
    states = [state]
    for t in s:
        state = mp_step(state, t)
        states.append(state)
    return states


def p(dom, text):
    return Poly(dom, text_to_coeffs(text))


# ------------------------------------------------------------------ seed

def test_init_f2():
    st0 = mp_init(GF2)
    assert st0.mu_bar == (p(GF2, "1"), p(GF2, "0"))
    assert st0.mu_bar_prev == (p(GF2, "0"), p(GF2, "1"))  # -1 = 1
    assert (st0.e, st0.delta_prime, st0.nabla, st0.p_shift) == (1, 1, 1, 0)


def test_init_f3_epsilon():
    st0 = mp_init(F3, MPConfig(epsilon=0))
    assert st0.mu_bar_prev == (p(F3, "0"), p(F3, "2"))
    st1 = mp_init(F3, MPConfig(epsilon=1))
    assert st1.mu_bar_prev == (p(F3, "1"), p(F3, "2"))


def test_init_matrix_det():
    st0 = mp_init(F5)
    assert st0.matrix().det() == p(F5, "4")  # -1 = -nabla_0
    assert bezout_check(st0)


# ------------------------------------------------------------- steps

def test_first_steps_worked_example():
    states = run_states(R6)
    assert states[1].mu_bar == (p(GF2, "x"), p(GF2, "1"))
    assert states[2].mu_bar == (p(GF2, "x+1"), p(GF2, "1"))
    assert states[2].mu_bar_prev == (p(GF2, "1"), p(GF2, "0"))
    # a zero-discrepancy step only bumps the exponent
    assert states[4].mu_bar == states[3].mu_bar
    assert states[4].e == states[3].e + 1
    assert states[4].log[-1].delta == 0


def test_example_matrices():
    states = run_states(R6)
    U = Mat2(p(GF2, "x"), p(GF2, "1"), p(GF2, "1"), p(GF2, "0"))
    M2 = Mat2(p(GF2, "x+1"), p(GF2, "1"), p(GF2, "1"), p(GF2, "0"))
    M3 = Mat2(p(GF2, "x^2+x+1"), p(GF2, "x"), p(GF2, "x+1"), p(GF2, "1"))
    assert states[1].matrix() == U
    assert states[2].matrix() == M2
    assert states[3].matrix() == M3
    assert states[4].matrix() == M3


def test_run_table_values():
    _, rep = mp_run(R6)
    assert str(rep.minpoly) == "x^3+x^2+1"
    assert str(rep.final_matrix.c) == "x^2+x+1"
    assert rep.deltas == [1, 1, 1, 0, 1, 0]
    assert rep.exponents == [1, 0, 1, 0, 1, 0, 1]
    assert rep.lc == [1, 1, 2, 2, 3, 3]
    assert rep.nabla == 1


def test_run_zero_sequence():
    _, rep = mp_run(GF2.seq([0, 0, 0]))
    assert str(rep.minpoly) == "1"
    assert rep.lc == [0, 0, 0]
    assert rep.exponents[-1] == 4


def test_run_final_example():
    _, rep = mp_run(GF2.seq([1, 1, 1, 0]))
    assert str(rep.minpoly) == "x^3+x^2+1"
    assert rep.lc[-1] == 3


def test_run_geometric_monic():
    _, rep = mp_run(GF2.seq([1, 1, 1]))
    assert str(rep.minpoly.monic()) == "x+1"
    assert rep.lc == [1, 1, 1]


def test_run_empty():
    m, rep = mp_run(GF2.seq([]))
    assert str(rep.minpoly) == "1"
    assert rep.lc == [] and rep.deltas == [] and rep.exponents == [1]
    assert rep.nabla == 1
    assert m == mp_init(GF2).matrix()


# ------------------------------------------------------ updating matrix

def test_updating_matrix_examples():
    u = updating_matrix(GF2, 1, 1, 1)
    assert u == Mat2(p(GF2, "x"), p(GF2, "1"), p(GF2, "1"), p(GF2, "0"))
    u0 = updating_matrix(GF2, 1, 1, 0)
    assert u0 == Mat2(p(GF2, "1"), p(GF2, "1"), p(GF2, "0"), p(GF2, "1"))
    um = updating_matrix(F3, 1, 1, -2)
    assert um == Mat2(p(F3, "1"), p(F3, "2x^2"), p(F3, "0"), p(F3, "1"))
    assert um.det() == p(F3, "1")
    with pytest.raises(ValueError):
        updating_matrix(GF2, 0, 1, 1)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_matrix_product_path(q, data):
    """M after a nonzero step equals the update matrix times M before."""
    dom = PrimeField(q)
    terms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=16))
    state = mp_init(dom)
    for t in terms:
        before = state.matrix()
        e_prev, dprime_prev = state.e, state.delta_prime
        state = mp_step(state, t)
        delta = state.log[-1].delta
        if delta == 0:
            assert state.matrix() == before
        else:
            u = updating_matrix(dom, delta, dprime_prev, e_prev)
            assert state.matrix() == u @ before
            want_det = delta if e_prev > 0 else dprime_prev
            assert u.det() == Poly(dom, (want_det,))


# ----------------------------------------------------------- step laws

@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_profile_laws(q, data):
    """Jump law, index law, stationarity, and the exponent identity."""
    dom = PrimeField(q)
    terms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=24))
    s = Seq(dom, terms)
    states = run_states(s)
    lc = [0] + [st_.lc for st_ in states[1:]]
    assert all(a <= b for a, b in zip(lc, lc[1:]))
    for j in range(1, len(terms) + 1):
        cur, prev = states[j], states[j - 1]
        rec = cur.log[-1]
        assert cur.lc <= j
        assert annihilates(cur.mu_bar[0], s.prefix(j))
        nprime_cur = j - cur.p_shift
        if nprime_cur >= 0 and cur.p_shift < j:
            assert annihilates(cur.mu_bar_prev[0], s.prefix(nprime_cur))
        assert cur.e == j + 1 - 2 * cur.lc
        assert rec.e_prev == prev.e
        assert cur.delta_prime != 0 and cur.nabla != 0
        if rec.delta != 0:
            assert cur.lc == max(prev.e, 0) + lc[j - 1]
            nprime = j - cur.p_shift
            assert cur.lc == nprime + 1 - lc[nprime]
            assert cur.delta_prime == (rec.delta if prev.e > 0 else prev.delta_prime)
        else:
            assert cur.mu_bar == prev.mu_bar
            assert cur.e == prev.e + 1
            assert cur.delta_prime == prev.delta_prime
        # the polynomial-part column really is the polynomial part
        assert cur.mu_bar[1] == polynomial_part(cur.mu_bar[0], s.prefix(j))
        if j >= 1 and not cur.mu_bar_prev[0].is_zero:
            part = polynomial_part(cur.mu_bar_prev[0], s.prefix(j))
            if cur.p_shift < j:  # once a jump has happened mu' is a real row
                assert cur.mu_bar_prev[1] == part


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_part_degree_law(q, data):
    dom = PrimeField(q)
    terms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=24))
    states = run_states(Seq(dom, terms))
    for j in range(1, len(terms) + 1):
        cur, prev = states[j], states[j - 1]
        if cur.log[-1].delta == 0:
            continue
        new_part, old_part = cur.mu_bar[1], prev.mu_bar[1]
        if new_part.is_zero or old_part.is_zero:
            continue
        assert new_part.degree == max(prev.e, 0) + old_part.degree


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_determinant_ledger_f3(data):
    terms = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=32))
    eps = data.draw(st.integers(0, 2))
    for state in run_states(Seq(F3, terms), MPConfig(epsilon=eps))[1:]:
        assert state.matrix().det() == Poly(F3, (F3.neg(state.nabla),))
        assert bezout_check(state)


def test_bezout_worked_example():
    states = run_states(R6)
    assert all(bezout_check(st_) for st_ in states)
    final = states[-1]
    det = final.mu_bar[0] * final.mu_bar_prev[1] - final.mu_bar[1] * final.mu_bar_prev[0]
    assert det == p(GF2, "1")  # -nabla, char 2
    assert poly_gcd(p(GF2, "x^3+x^2+1"), p(GF2, "x^2+x+1")) == p(GF2, "1")


# ---------------------------------------------------- division-freeness

class LiftedView(IntegerRing):
    """Integer arithmetic, zero tests taken mod q: the division-free lift."""

    def __init__(self, q):
        self.q = q

    def is_zero(self, a):
        return a % self.q == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_division_free_lift(q):
    rng = random.Random(17 * q)
    dom = PrimeField(q)
    for _ in range(40):
        n = rng.randrange(1, 33)
        terms = [rng.randrange(q) for _ in range(n)]
        _, lifted = mp_run(Seq(LiftedView(q), terms))
        _, modular = mp_run(Seq(dom, terms), force_generic=True)
        assert [d % q for d in lifted.deltas] == modular.deltas
        assert lifted.lc == modular.lc
        assert lifted.nabla % q == modular.nabla
        assert [c % q for c in lifted.minpoly.coeffs] == list(modular.minpoly.coeffs)


def test_jumps_are_read_off_the_exponents_under_the_lift():
    # over the lift delta_5 = -2 is a nonzero int that is zero mod 2: no
    # jump, so LC stays 2 at step 5.  The exponents carry the domain's
    # zero test; the jumps and the log read them, the index witness LC
    terms = [1, 0, 1, 1, 0, 0, 1, 0]
    lifted = Seq(LiftedView(2), terms)
    _, rep = mp_run(lifted)
    _, modular = mp_run(GF2.seq(terms), force_generic=True)
    assert rep.deltas == [1, 0, 1, 1, -2, -1, 2, -1]
    assert rep.lc == modular.lc == [1, 1, 2, 2, 2, 4, 4, 4]
    (state,) = run_states(lifted)[-1:]
    assert [r.j for r in state.log if r.jumped] == [1, 3, 6]
    index = plcp_witnesses(lifted).details["index"]
    assert index == plcp_witnesses(GF2.seq(terms)).details["index"] == [6, 7, 8, 9]
    assert list(_jumps(rep.exponents)) == list(_jumps(modular.exponents)) == [1, 3, 6]


def test_integer_domain_runs_without_division():
    # IntegerRing has no inverse at all, so completing a run proves
    # the recursion never divides
    _, rep = mp_run(ZZ.seq([3, 1, 4, 1, 5, 9, 2, 6]))
    assert annihilates(rep.minpoly, ZZ.seq([3, 1, 4, 1, 5, 9, 2, 6]))
    assert rep.final_matrix.det() == Poly(ZZ, (-rep.nabla,))


@pytest.mark.parametrize("s", [ZZ.seq([3, 1, 4, 1, 5, 9, 2, 6]),
                               Seq(F3, [1, 2, 0, 2, 1, 1, 0, 2])])
def test_bezout_check_rejects_a_tampered_nabla(s):
    states = run_states(s)
    assert all(bezout_check(st_) for st_ in states)
    core = states[-1]._core.copy()
    core.nabla += 1
    assert not bezout_check(MPState(s.domain, MPConfig(), core))


# ------------------------------------------------- the derived second column

class TwoColumnCore:
    """Reference engine that carries both columns of M through every step."""

    def __init__(self, dom, eps=0, normalize=False):
        self.dom, self.normalize = dom, normalize
        eps = dom.normalize(eps)
        self.s = []
        self.rows = ([1], [], [eps] if eps else [], [dom.neg(1)])
        self.e = self.dprime = 1

    def clone(self):
        new = TwoColumnCore.__new__(TwoColumnCore)
        new.__dict__.update(self.__dict__, s=self.s[:])
        return new

    def step(self, t):
        dom, p = self.dom, self.dom.p
        self.s.append(t)
        mu, part, mup, mup_part = self.rows
        base = len(self.s) - len(mu)
        delta = dom.normalize(sum(c * self.s[base + k] for k, c in enumerate(mu)))
        e = self.e
        if not dom.is_zero(delta):
            ashift, bshift = max(e, 0), max(-e, 0)
            new = [lin(p, self.dprime, a, ashift, delta, b, bshift)
                   for a, b in ((mu, mup), (part, mup_part))]
            factor = delta if e > 0 else self.dprime
            if e > 0:
                mup, mup_part, self.dprime, e = mu, part, delta, -e
            if self.normalize:
                inv = dom.inv(factor)
                new = [[v * inv % p for v in row] for row in new]
            self.rows = (*new, mup, mup_part)
        self.e = e + 1
        return delta


def _coeff_rows(core):
    """mu, [mu], mu', [mu'] as coefficient lists, on any core."""
    return tuple(map(core.ring.to_coeffs, core.rows()))


def _walk_both(core, ref, q, depth):
    """Every extension of up to depth terms: the cores must agree at each node."""
    assert _coeff_rows(core) == ref.rows, (core.terms(), _coeff_rows(core), ref.rows)
    if depth:
        for t in range(q):
            child, rchild = core.copy(), ref.clone()
            assert child.step(t) == rchild.step(t)
            _walk_both(child, rchild, q, depth - 1)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_pairs_match_a_core_that_carries_both_columns(eps, normalize):
    # every F_3 sequence of up to 7 terms, through copies that share memos
    _walk_both(_GenericCore(F3, eps, normalize_each_step=normalize),
               TwoColumnCore(F3, eps, normalize), 3, 7)


@pytest.mark.parametrize("eps", [0, 2, -5])
def test_pairs_match_the_two_column_core_over_zz(eps):
    core, ref = _GenericCore(ZZ, eps), TwoColumnCore(ZZ, eps)
    for t in [3, 1, 4, 1, 5, 9, 2, 6]:
        assert core.step(t) == ref.step(t)
        assert core.rows() == ref.rows


def test_generic_step_updates_one_row(monkeypatch):
    assert not {"mu_part", "mup_part"} & set(_GenericCore.__slots__)
    calls = []
    real = ListRing.lin
    monkeypatch.setattr(ListRing, "lin",
                        lambda self, *args: calls.append(1) or real(self, *args))
    rng = random.Random(4)
    core = _GenericCore(F5)
    nonzero = sum(core.step(rng.randrange(5)) != 0 for _ in range(200))
    assert len(calls) == nonzero > 50


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65521, 0])
def test_byte_slot_lin_matches_a_list_reference(p):
    dom = PrimeField(p) if p else ZZ
    core = engine._make_core(dom, MPConfig(), force_generic=True)
    # one-byte slots exactly where 2 (p-1)^2 < 256; 13, 65521 and ZZ
    # keep the list loop
    assert set(engine._BYTE_RESIDUES) == {2, 3, 5, 7, 11}
    assert (core.ring.residues is not None) == (p in (2, 3, 5, 7, 11))
    q = p or 50
    rng = random.Random(p)

    def row():
        d = rng.randrange(-1, 301)
        return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)] * (d >= 0)

    top = (q - 1) ** 2  # the witness passes delta * eps unreduced
    cases = [
        (1, [1], 1, 2, [], 0),  # the seed mu' with epsilon = 0
        (1, [], 0, 1, [], 3),
    ]
    for _ in range(300):
        a, b = row(), row()
        c2 = rng.choice([rng.randrange(top + 1), q * rng.randrange(q)])
        shifts = rng.choice([(rng.randrange(20), 0), (0, rng.randrange(20))])
        cases.append((rng.randrange(top + 1), a, shifts[0], c2, b, shifts[1]))
        cases.append((c2, a, shifts[0], c2, a, shifts[0]))  # cancels mod p
    for c1, a, ashift, c2, b, bshift in cases:
        got = core.ring.lin(c1, a, ashift, c2, b, bshift)
        assert got == lin(p, c1, a, ashift, c2, b, bshift)
        assert type(got) is list and all(type(v) is int for v in got)
        assert not p or all(0 <= v < p for v in got)
    assert core.ring.lin(2, [1, 1], 2, 2, [1, 1], 2) == []  # full cancellation


@pytest.mark.parametrize("p", sorted(engine._BYTE_RESIDUES))
def test_term_table_text_matches_coeffs_to_text(p):
    # each field on its own ring (gf2 ints, gf3 planes, ListRing lists);
    # one lookup renders a group of g coefficients, from a table that
    # grows as rows reach new groups
    ring = field_ring(p)
    g = {2: 3, 3: 2}.get(p, 1)

    def check(rows):
        text = engine._term_table_text(p, ring.row_bytes)
        for row in rows:
            assert text(row) == coeffs_to_text(ring.to_coeffs(row)), row

    # every row of degree <= 3 g + 2, so more than three groups, the zero
    # row first and the degree rising by one (degree <= 4 over F_11, whose
    # 11^6 rows of degree 5 would take seconds)
    low = 3 * g + 2 if p < 11 else 4
    check(map(ring.from_bytes, itertools.product(range(p), repeat=low + 1)))
    rng = random.Random(p)
    for n in range(200, 200 + g):  # every n mod g
        top = [bytes([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n)])
               for _ in range(20)]  # degree exactly n, so the table grows at once
        rand = [bytes(rng.randrange(p) for _ in range(rng.randrange(n + 1)))
                for _ in range(200)]
        check([ring.from_bytes(b"")] + [ring.from_bytes(b) for b in top + rand])


def test_pairs_derives_each_row_once(monkeypatch):
    calls = []
    real = engine.part_coeffs
    monkeypatch.setattr(engine, "part_coeffs",
                        lambda f, terms, p: calls.append(1) or real(f, terms, p))
    core = _GenericCore(F5, 3)
    nonzero = 0
    for t in [0, 0, 2, 1, 0, 4, 3, 3, 0, 1, 2, 0, 0, 4]:
        nonzero += core.step(t) != 0
        assert core.rows() == core.rows()
    assert len(calls) == nonzero
    child = core.copy()
    assert child.rows() == core.rows() and len(calls) == nonzero
    delta = child.step(1)
    child.rows()
    assert len(calls) == nonzero + (delta != 0)


@pytest.mark.parametrize("make, q", [
    (_PackedCore, 2),
    (lambda: _GenericCore(F3, 1), 3),
    (lambda: _GenericCore(PrimeField(65521), 2, normalize_each_step=True), 65521),
    (lambda: _TernaryCore(1, normalize_each_step=True), 3),
], ids=["packed", "F_3", "F_65521", "F_3 planes"])
def test_copy_carries_every_slot(make, q):
    # copy() names each slot: one added to __slots__ and left out of it
    # would raise on read, or differ from the original here
    core = make()
    for t in (1, 0, 2, 1, 1, 0, 3):
        core.step(t % q)
    child = core.copy()
    assert type(child) is type(core)
    for name in type(core).__slots__:
        assert getattr(child, name) == getattr(core, name), name
    if isinstance(core, _GenericCore):
        assert child.s is not core.s  # the prefix grows in place
    child.step(1)
    assert core.terms() == child.terms()[:-1] and core.j == child.j - 1


# ---------------------------------------------------- bit-sliced F_3 core

def _assert_ternary_tracks_generic(terms, eps, normalize):
    """After every step the F_3 core equals the generic core slot for slot."""
    config = MPConfig(epsilon=eps, normalize_each_step=normalize)
    core = engine._make_core(F3, config)
    ref = engine._make_core(F3, config, force_generic=True)
    assert type(core) is _TernaryCore and type(ref) is _GenericCore
    for t in terms:
        assert core.step(t) == ref.step(t)
        for name in ("j", "e", "dprime", "nabla"):
            assert getattr(core, name) == getattr(ref, name), name
        # mu, [mu], mu', [mu'] unpacked from the planes
        assert _coeff_rows(core) == ref.rows()
        assert core.cur_lc() == ref.cur_lc()
    assert core.terms() == ref.terms()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_ternary_core_tracks_the_generic_core(eps, normalize):
    rng = random.Random(30 + eps + 3 * normalize)
    for n in [0, 1, 2, 5, 40, 200] + [rng.randrange(1, 80) for _ in range(40)]:
        dense = rng.random() < 0.5
        terms = [rng.randrange(3) if dense or rng.random() < 0.2 else 0
                 for _ in range(n)]
        _assert_ternary_tracks_generic(terms, eps, normalize)
    _assert_ternary_tracks_generic([0] * 50, eps, normalize)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=60), st.integers(0, 2), st.booleans())
def test_ternary_core_matches_generic_property(terms, eps, normalize):
    _assert_ternary_tracks_generic(terms, eps, normalize)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_ternary_pairs_match_a_core_that_carries_both_columns(eps, normalize):
    # every F_3 sequence of up to 7 terms, through copies that share memos
    _walk_both(_TernaryCore(eps, normalize_each_step=normalize),
               TwoColumnCore(F3, eps, normalize), 3, 7)


def test_ternary_lin_matches_a_list_reference():
    # zero scalars included: the witness passes delta * eps, 0 at eps = 0,
    # and unreduced, up to 4
    rng = random.Random(33)

    def row():
        d = rng.randrange(-1, 120)
        return [rng.randrange(3) for _ in range(d)] + [rng.randrange(1, 3)] * (d >= 0)

    cases = [(1, [1], 1, 0, [1], 0), (0, [1, 2], 3, 2, [2], 1),
             (0, [2, 1], 0, 0, [1, 1], 2), (4, [1], 0, 3, [1, 1], 0)]
    for _ in range(300):
        a, b = row(), row()
        cases.append((rng.randrange(5), a, rng.randrange(10),
                      rng.randrange(5), b, rng.randrange(10)))
    for c1, a, ashift, c2, b, bshift in cases:
        got = _TernaryCore.ring.lin(c1, planes(a), ashift, c2, planes(b), bshift)
        assert not got[0] & got[1]
        assert gf3.to_coeffs(got) == lin(3, c1, a, ashift, c2, b, bshift)


def test_ternary_core_is_made_for_f3_only():
    assert type(engine._make_core(F3, MPConfig())) is _TernaryCore
    assert type(engine._make_core(F3, MPConfig(), force_generic=True)) is _GenericCore
    assert type(engine._make_core(F5, MPConfig())) is _GenericCore


def test_generic_f3_throughput_floor():
    # criterion 10's 4096-term F_3 input, on the generic core it no longer uses
    from lcprof.verify import DEFAULT_SEED
    rng = random.Random(DEFAULT_SEED)
    for _ in range(1 << 15):
        rng.randrange(2)
    s3 = Seq(F3, [rng.randrange(3) for _ in range(4096)])
    t0 = time.perf_counter()
    _, rep3 = mp_run(s3, force_generic=True)
    assert time.perf_counter() - t0 < 10.0
    assert len(rep3.lc) == 4096
    assert rep3 == mp_run(s3)[1]


# ------------------------------------------------ canonical core rows

def _assert_rows_canonical(dom, core):
    """Each row reduced into dom and trimmed, as a renormalizing Poly holds it.

    cur_lc reads mu's length, and _bezout_ok, verify_bezout's skip and
    profile_text_rows compare rows: none of them renormalizes.
    """
    rows = [tuple(c) for c in _coeff_rows(core)]
    assert rows == [Poly(dom, c).coeffs for c in rows], core.terms()


def _walk_rows_canonical(dom, core, depth):
    """Every extension of up to depth terms: the rows stay canonical."""
    _assert_rows_canonical(dom, core)
    if depth:
        for t in range(dom.p):
            child = core.copy()
            child.step(t)
            _walk_rows_canonical(dom, child, depth - 1)


@pytest.mark.parametrize("q, generic", [(2, False), (2, True), (3, True)])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_poly_rows_need_no_renormalizing(q, generic, normalize, eps):
    # every F_2 and F_3 sequence of up to 7 terms, at every step
    dom = PrimeField(q)
    config = MPConfig(epsilon=eps, normalize_each_step=normalize)
    core = engine._make_core(dom, config, force_generic=generic)
    assert isinstance(core, _PackedCore) == (not generic)
    _walk_rows_canonical(dom, core, 7)


@pytest.mark.parametrize("eps", [0, 2, -5])
def test_poly_rows_need_no_renormalizing_over_zz(eps):
    core = _GenericCore(ZZ, eps)
    for t in [3, 1, 4, 1, 5, 9, 2, 6]:
        core.step(t)
        _assert_rows_canonical(ZZ, core)


@pytest.mark.parametrize("q", [2, 3, 65521, 0])
def test_run_reports_reduced_deltas(q):
    dom = PrimeField(q) if q else ZZ
    rng = random.Random(q)
    for _ in range(20):
        # over ZZ the coefficients grow with each jump: keep the inputs short
        terms = [rng.randrange(q or 50) for _ in range(rng.randrange(1, 40 if q else 9))]
        core = engine._make_core(dom, MPConfig())
        want = [dom.normalize(core.step(t)) for t in terms]
        _, rep = mp_run(Seq(dom, terms))
        assert rep.deltas == want


def test_profile_json_matches_the_report_layout():
    # the CLI reaches the prime fields alone (test_cli checks those); over
    # ZZ the field is 0 and the coefficients grow past any residue
    s = ZZ.seq([2, 7, 1, 8, 2, 8])
    data = {k: list(v) if isinstance(v, Iterator) else v
            for k, v in engine.profile_json(s).items()}
    assert data == report_json_dict(mp_run(s)[1])
    assert data["field"] == 0


def test_monic_output_needs_field():
    with pytest.raises(UnsupportedDomainError):
        mp_run(ZZ.seq([1, 2]))[1].minpoly.monic()


# ------------------------------------------------------- engine variants

def test_epsilon_independence():
    rng = random.Random(99)
    for q in (2, 3):
        dom = PrimeField(q)
        for _ in range(30):
            n = rng.randrange(1, 24)
            s = Seq(dom, [rng.randrange(q) for _ in range(n)])
            _, r0 = mp_run(s, MPConfig(epsilon=0))
            _, r1 = mp_run(s, MPConfig(epsilon=1))
            assert r0.minpoly.degree == r1.minpoly.degree
            assert r0.lc == r1.lc
            assert annihilates(r0.minpoly, s) and annihilates(r1.minpoly, s)


def test_packed_matches_generic():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(0, 64)
        s = GF2.seq([rng.randrange(2) for _ in range(n)])
        for eps in (0, 1):
            mp_, packed = mp_run(s, MPConfig(epsilon=eps))
            mg_, generic = mp_run(s, MPConfig(epsilon=eps), force_generic=True)
            assert packed == generic
            assert mp_ == mg_


def test_normalized_mode_agrees_up_to_scalar():
    rng = random.Random(31)
    for q in (3, 5):
        dom = PrimeField(q)
        for _ in range(30):
            n = rng.randrange(1, 24)
            s = Seq(dom, [rng.randrange(q) for _ in range(n)])
            _, plain = mp_run(s)
            _, normed = mp_run(s, MPConfig(normalize_each_step=True))
            a, b = plain.minpoly, normed.minpoly
            assert a.degree == b.degree
            assert a.scale(b.leading) == b.scale(a.leading)
            assert plain.lc == normed.lc
            assert annihilates(b, s)


def test_normalizing_each_step_changes_nothing_over_f2():
    # the only unit of F_2 is 1, so both modes run on the packed core
    rng = random.Random(21)
    for _ in range(60):
        s = GF2.seq([rng.randrange(2) for _ in range(rng.randrange(0, 64))])
        for eps in (0, 1):
            plain = mp_run(s, MPConfig(epsilon=eps))
            config = MPConfig(epsilon=eps, normalize_each_step=True)
            assert mp_run(s, config) == plain
            assert mp_run(s, config, force_generic=True) == plain


def test_run_equals_folded_steps():
    rng = random.Random(8)
    for q in (2, 3):
        dom = PrimeField(q)
        for _ in range(15):
            n = rng.randrange(0, 20)
            s = Seq(dom, [rng.randrange(q) for _ in range(n)])
            final = run_states(s)[-1]
            matrix, rep = mp_run(s)
            assert final.matrix() == matrix
            assert [r.delta for r in final.log] == rep.deltas
            assert [r.lc for r in final.log] == rep.lc
            assert final.nabla == rep.nabla


@pytest.mark.parametrize("dom, generic", [
    (GF2, False), (GF2, True), (F3, True), (F5, True), (PrimeField(65521), True),
    (ZZ, True),
])
def test_live_exponent_follows_the_profile(monkeypatch, dom, generic):
    # after every step core.e = j + 1 - 2*LC_j, and the LC and exponents
    # derived from the returned discrepancies are the live ones in order;
    # _consume, blocked on the generic cores over F_p, returns the same
    starts = _record_blocks(monkeypatch)
    rng = random.Random(dom.p + generic)
    # over ZZ the coefficients grow with each jump: the short inputs are
    # random, the long ones periodic, so their LC stays below the period
    top, longest = (dom.p, 40) if dom.p else (10, 12)
    for i in range(320):
        if i < 300:
            terms = [rng.randrange(top) if rng.random() < 0.7 else 0
                     for _ in range(rng.randrange(1, longest))]
        elif dom.p:
            terms = [rng.randrange(top) if rng.random() < 0.7 else 0
                     for _ in range(rng.randrange(200, 300))]
        else:
            period = [rng.randrange(top) for _ in range(rng.randrange(1, 9))]
            terms = (period * 300)[:rng.randrange(200, 300)]
        config = MPConfig(epsilon=rng.randrange(3))
        core = engine._make_core(dom, config, force_generic=generic)
        deltas, lc, live = [], [], [core.e]
        for j, t in enumerate(terms, start=1):
            deltas.append(core.step(t))
            assert core.e == j + 1 - 2 * core.cur_lc()
            lc.append(core.cur_lc())
            live.append(core.e)
        assert engine._profile(dom, deltas) == (lc, live)
        blocked = engine._make_core(dom, config, force_generic=generic)
        assert engine._consume(blocked, terms) == deltas
    assert bool(starts) == (generic and dom.p > 0)


def _p_shift_from_log(state):
    """p_shift by its definition: the steps since the last jump record."""
    for record in reversed(state.log):
        if record.jumped:
            return state.j - record.j + 1
    return state.j


def _walk_states(state, depth):
    yield state
    if depth:
        for t in range(state.domain.p):
            yield from _walk_states(mp_step(state, t), depth - 1)


@pytest.mark.parametrize("eps", [0, 1])
def test_p_shift_matches_the_log_at_every_f2_node(eps):
    nodes = 0
    for state in _walk_states(mp_init(GF2, MPConfig(epsilon=eps)), 10):
        assert state.p_shift == _p_shift_from_log(state), state.consumed
        nodes += 1
    assert nodes == 2**11 - 1


@pytest.mark.parametrize("dom", [F3, PrimeField(65521), ZZ])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_p_shift_matches_the_log_on_random_chains(dom, eps):
    rng = random.Random(eps)
    top, longest = (dom.p, 40) if dom.p else (10, 12)
    configs = [MPConfig(epsilon=eps)]
    if dom.is_field:  # per-step normalization rescales mu, not its degree
        configs.append(MPConfig(epsilon=eps, normalize_each_step=True))
    for config in configs:
        for _ in range(20):
            state = mp_init(dom, config)
            for _ in range(rng.randrange(1, longest)):
                # many zero terms give long stretches without a jump
                state = mp_step(state, rng.randrange(top) if rng.random() < 0.5 else 0)
                assert state.p_shift == _p_shift_from_log(state), state.consumed


def test_packed_terms_match_the_bits_at_every_prefix():
    rng = random.Random(13)
    for n in (0, 1, 7, 64, 200):
        # trailing zeros leave the packed prefix shorter than j bits
        terms = [rng.randrange(2) for _ in range(n)] + [0] * rng.randrange(1, 6)
        for lead in ([], [0, 0, 0]):
            core = _PackedCore()
            assert core.terms() == ()
            for j, t in enumerate(lead + terms, start=1):
                core.step(t)
                want = tuple((core.S >> i) & 1 for i in range(j))
                assert core.terms() == want == tuple(lead + terms)[:j]


def test_profile_steps_snapshots():
    rows = profile_steps(R6)
    assert [r.delta for r in rows] == [1, 1, 1, 1, 0, 1, 0]
    assert [r.e for r in rows[1:]] == [0, 1, 0, 1, 0, 1]
    assert str(rows[0].mu) == "1" and str(rows[0].mu_prev) == "0"
    assert str(rows[6].mu) == "x^3+x^2+1"


# --------------------------------------------------------- feedback/LFSR

def test_feedback_worked_example():
    states = run_states(R6)
    fb, lc = feedback_polynomial(states[-1])
    assert fb == p(GF2, "x^3+x+1") and lc == 3
    regen = lfsr_generate(fb, GF2.seq([1, 1, 0]), 6)
    assert regen == R6


def test_feedback_palindromic_and_zero():
    st1 = run_states(GF2.seq([1, 1, 1]))[-1]
    assert feedback_polynomial(st1) == (p(GF2, "x+1"), 1)
    st0 = run_states(GF2.seq([0, 0, 0]))[-1]
    assert feedback_polynomial(st0) == (p(GF2, "1"), 0)


@pytest.mark.parametrize("dom, n", [(GF2, 300), (F3, 300), (F5, 200),
                                    (PrimeField(65521), 300), (ZZ, 12)])
@pytest.mark.parametrize("generic", [False, True])
def test_minpoly_degree_is_the_last_lc(dom, n, generic):
    # mu starts at 1 and its degree is LC_j at every step, so it is never
    # negative: on every core, the blocked one too (F_65521 past deg 64)
    rng = random.Random(n)
    configs = [MPConfig(), MPConfig(epsilon=1)]
    if dom.is_field:
        configs.append(MPConfig(normalize_each_step=True))
    for terms in ([], [0] * 5, *([rng.randrange(dom.p or 10) for _ in range(k)]
                                  for k in (1, 7, n))):
        for config in configs:
            _, rep = mp_run(Seq(dom, terms), config, force_generic=generic)
            assert rep.minpoly.degree == (rep.lc[-1] if rep.lc else 0)
            assert feedback_polynomial(rep)[1] == rep.minpoly.degree


def test_lfsr_basic_contracts():
    fb = p(GF2, "x+1")
    assert list(lfsr_generate(fb, GF2.seq([1]), 4)) == [1, 1, 1, 1]
    fill = GF2.seq([1, 0, 1])
    assert lfsr_generate(p(GF2, "x^3+x+1"), fill, 3) == fill
    with pytest.raises(ValueError):
        lfsr_generate(fb, GF2.seq([1]), 0)


@pytest.mark.parametrize("dom, text", [(GF2, "x^2+x"), (F5, "x^2+3x")])
def test_lfsr_refuses_a_feedback_with_a_zero_constant_term(dom, text):
    # nonzero, so only the constant-term test refuses it, before any
    # division by that term
    with pytest.raises(ValueError, match="nonzero constant term"):
        lfsr_generate(p(dom, text), dom.seq([1, 0]), 4)


def test_lfsr_singular_register():
    # source with zero constant term: reciprocal degree drops below the
    # register length, leaving dead taps at the old end
    s = GF2.seq([1, 1, 0, 1, 1, 0, 1, 1])
    states = run_states(s)
    fb, lc = feedback_polynomial(states[-1])
    assert lfsr_generate(fb, s.prefix(lc), len(s)) == s


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_lfsr_regenerates(q, data):
    dom = PrimeField(q)
    terms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=24))
    s = Seq(dom, terms)
    state = run_states(s)[-1]
    fb, lc = feedback_polynomial(state)
    assert lc == (len(terms) + 1 - state.e) // 2
    assert lfsr_generate(fb, s.prefix(lc), len(s)) == s


# ----------------------------------------------------------- annihilates

def test_annihilates_examples():
    assert annihilates(p(GF2, "x^3+x^2+1"), R6)
    assert annihilates(p(GF2, "x^4"), GF2.seq([1, 0, 1]))  # vacuous
    assert not annihilates(p(GF2, "x+1"), GF2.seq([1, 0]))
    assert annihilates(p(GF2, "0"), R6)


# ----------------------------------------------------------- brute force

def test_brute_force_examples():
    assert brute_force_minpoly(R6)[0] == 3
    d, w = brute_force_minpoly(GF2.seq([0, 0, 0]))
    assert d == 0 and str(w) == "1"


def test_brute_force_guard(monkeypatch):
    monkeypatch.setattr(engine, "BRUTE_FORCE_GUARD", 1000)
    with pytest.raises(ResourceLimitError):
        brute_force_minpoly(F5.seq([0] * 29 + [1]))


@pytest.mark.parametrize("q, first", [(2, 23), (3, 14), (5, 10), (7, 8)])
def test_brute_force_refuses_from_its_first_degree_past_the_guard(q, first):
    # one rule for brute force and the oracle's pre-pass: degrees below the
    # first refused one pass, and every degree from it on names it
    for d in (0, 1, first - 1):
        engine._check_brute_force_degree(q, d)
    for d in (first, first + 1, 4096):
        with pytest.raises(ResourceLimitError, match=f"at degree {first}$"):
            engine._check_brute_force_degree(q, d)


def test_brute_force_needs_field():
    with pytest.raises(UnsupportedDomainError):
        brute_force_minpoly(ZZ.seq([1, 2]))


def _natural_order_minpoly(s):
    """x^d + low for the least d, then the least low, tried in natural order."""
    S, n = s.terms, len(s)
    if not any(S):
        return 0, "1"
    for d in range(1, n + 1):
        for low in range(1 << d):
            f = [(low >> i) & 1 for i in range(d)] + [1]
            if all(sum(f[i] * S[j - d + i] for i in range(d + 1)) % 2 == 0
                   for j in range(d, n)):
                return d, str(Poly(GF2, f))
    raise AssertionError("degree n always annihilates")


def test_brute_force_gray_order_equals_natural_order():
    for n in range(1, 11):
        for v in range(1 << n):
            s = GF2.seq([(v >> i) & 1 for i in range(n)])
            d, w = brute_force_minpoly(s)
            assert (d, str(w)) == _natural_order_minpoly(s), s.terms


def test_exhaustive_oracle_f2_n8():
    for n in range(1, 9):
        for v in range(1 << n):
            s = GF2.seq([(v >> i) & 1 for i in range(n)])
            _, rep = mp_run(s)
            d, w = brute_force_minpoly(s)
            lc = rep.lc[-1]
            assert lc == d
            assert annihilates(rep.minpoly, s) and annihilates(w, s)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_random_oracle_small_fields(q, data):
    dom = PrimeField(q)
    terms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=7))
    s = Seq(dom, terms)
    _, rep = mp_run(s)
    assert rep.lc[-1] == brute_force_minpoly(s)[0]
    assert annihilates(rep.minpoly, s)


def classic_synthesis_profile(terms, q):
    """Independent oracle: textbook division-based register synthesis.

    Connection-polynomial formulation with an inverted-discrepancy
    correction step; structurally unlike the division-free pair engine,
    so profile agreement is a real cross-check at lengths the
    brute-force oracle cannot reach.
    """
    c, b = [1], [1]
    lc, m, bb = 0, 1, 1
    binv = 1
    out = []
    for n, sn in enumerate(terms):
        d = sn
        for i in range(1, lc + 1):
            if i < len(c):
                d = (d + c[i] * terms[n - i]) % q
        if d == 0:
            m += 1
        else:
            coef = d * binv % q
            t = c[:]
            if len(c) < len(b) + m:
                c = c + [0] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] = (c[i + m] - coef * bi) % q
            if 2 * lc <= n:
                lc = n + 1 - lc
                b, bb, m = t, d, 1
                binv = pow(bb, q - 2, q)
            else:
                m += 1
        out.append(lc)
    return out


def test_profile_matches_classic_synthesis():
    rng = random.Random(2024)
    for q in (2, 3, 5):
        dom = PrimeField(q)
        for _ in range(25):
            n = rng.randrange(1, 201)
            terms = [rng.randrange(q) for _ in range(n)]
            _, rep = mp_run(Seq(dom, terms))
            assert rep.lc == classic_synthesis_profile(terms, q)


def _differential_inputs(rng, q):
    """One single-spike, one sparse and one low-order-recurrence input."""
    n = rng.randrange(150, 301)
    spike = [0] * n
    spike[rng.randrange(n)] = rng.randrange(1, q)
    sparse = [rng.randrange(1, q) if rng.random() < 0.05 else 0 for _ in range(n)]
    order = rng.randrange(1, 9)
    taps = [rng.randrange(q) for _ in range(order)]
    recurrence = [rng.randrange(q) for _ in range(order)]
    while len(recurrence) < n:
        recurrence.append(sum(c * recurrence[-1 - i] for i, c in enumerate(taps)) % q)
    return {"spike": spike, "sparse": sparse, "recurrence": recurrence}


def test_large_field_differential():
    """The engine against textbook synthesis at word-size primes and n <= 300.

    Also checks the packed path against the generic one, folded mp_step
    states against mp_run, and regeneration from the feedback register.
    """
    rng = random.Random(0x1969)
    for q in (2, 3, 65521, 2**31 - 1):
        dom = PrimeField(q)
        for shape, terms in _differential_inputs(rng, q).items():
            s = Seq(dom, terms)
            want = classic_synthesis_profile(terms, q)
            for eps in sorted({0, 1, q - 1}):
                config = MPConfig(epsilon=eps)
                m, rep = mp_run(s, config)
                assert rep.lc == want, (q, shape, eps)
                if q == 2:
                    assert mp_run(s, config, force_generic=True) == (m, rep)
                state = run_states(s, config)[-1]
                assert state.matrix() == m
                assert [r.lc for r in state.log] == rep.lc
                assert (state.consumed, state.nabla) == (s.terms, rep.nabla)
                fb, lc = feedback_polynomial(rep)
                assert lfsr_generate(fb, s.prefix(lc), len(s)) == s


@pytest.mark.parametrize("dom", [GF2, F3])
def test_mp_step_leaves_its_input_unchanged(dom):
    parent = run_states(Seq(dom, [1, 0, 1, 1, 0]))[-1]
    assert isinstance(parent._core, _PackedCore) == (dom.p == 2)

    def snapshot(state):
        return (state.mu_bar, state.mu_bar_prev, state.consumed, state.log,
                state.p_shift)

    before = snapshot(parent)
    zero, one = mp_step(parent, 0), mp_step(parent, 1)
    for _ in range(4):
        zero, one = mp_step(zero, 1), mp_step(one, 0)
    assert snapshot(parent) == before
    assert zero.consumed == parent.consumed + (0, 1, 1, 1, 1)
    assert one.consumed == parent.consumed + (1, 0, 0, 0, 0)
    for child in (zero, one):
        assert child.matrix() == mp_run(Seq(child.domain, child.consumed))[0]


# ----------------------------------------------------------- Min(s) coset

def test_minpoly_coset_odd_step():
    s = F3.seq([1, 2, 1, 0, 2])  # odd length
    state = run_states(s)[-1]
    lc = state.lc
    for cand in minpoly_coset(state):
        assert cand.degree == lc
        assert annihilates(cand, s)


def test_minimality_counterexample_xpow():
    # an annihilator with unit content that is far from minimal
    for k in (2, 3):
        n = 2**k + 1
        r = Seq(GF2, [1 if j & (j - 1) == 0 else 0 for j in range(1, n + 1)])
        f = Poly(GF2, (0,) * (2**k) + (1,))
        assert annihilates(f, r)
        part = polynomial_part(f, r)
        assert poly_gcd(f, part) == p(GF2, "1")
        _, rep = mp_run(r)
        assert f.degree > rep.lc[-1]


# -------------------------------------------------------- blocked runner

CORE_SLOTS = ("s", "mu", "mup", "e", "dprime", "nabla", "j")
# the largest prime below 2^28: a product whose coefficients sum fewer
# than 256 terms packs into 8-byte slots, and one past that into 9
P28 = 268435399


def _record_blocks(monkeypatch):
    """len(mu) at the start of every block _consume runs from now on."""
    starts = []
    real = _GenericCore._block
    monkeypatch.setattr(_GenericCore, "_block",
                        lambda core, terms, deltas: starts.append(len(core.mu))
                        or real(core, terms, deltas))
    return starts


def _stepped(dom, terms, eps=0):
    """A core stepped term by term, with its live delta_j, LC_j and e_j."""
    core = _GenericCore(dom, eps)
    deltas, lc, exps = [], [], [core.e]
    for t in terms:
        deltas.append(core.step(t))
        lc.append(core.cur_lc())
        exps.append(core.e)
    return core, deltas, lc, exps


def _assert_same_core(core, ref, context):
    for name in CORE_SLOTS:
        assert getattr(core, name) == getattr(ref, name), (name, context)


def _runner_inputs(p, rng):
    """Random inputs of up to 220 terms, zero-prefixed, sparse and all zero."""
    for n in (0, 1, 70, 150, 220):
        yield [rng.randrange(p) for _ in range(n)]
    yield [0] * 100 + [rng.randrange(p) for _ in range(120)]
    yield [rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(220)]
    yield [0] * 200


@pytest.mark.parametrize("p", [3, 5, 65521, P28, 2**31 - 1])
@pytest.mark.parametrize("leaf", [1, 2, 3, 32, 64, 1000])
def test_blocked_run_equals_the_per_step_core(monkeypatch, p, leaf):
    # leaf 1000 runs every block as a single leaf
    starts = _record_blocks(monkeypatch)
    monkeypatch.setattr(engine, "_LEAF", (leaf, leaf))
    dom = PrimeField(p)
    rng = random.Random(p * leaf)
    for terms in _runner_inputs(p, rng):
        for eps in (0, 1, p - 1):
            ref, deltas, _, _ = _stepped(dom, terms, eps)
            # min_deg 0 blocks from the seed on, 64 is the default entry
            for min_deg in (0, 64):
                monkeypatch.setattr(engine, "_BLOCK_MIN_DEG", min_deg)
                core = _GenericCore(dom, eps)
                assert engine._consume(core, terms) == deltas, (terms, eps, min_deg)
                _assert_same_core(core, ref, (terms, eps, min_deg))
    # every field blocks past deg 64, P28 and 2^31 - 1 in 9-byte slots
    assert max(starts) > 64


@pytest.mark.parametrize("p", [P28, 2**31 - 1])
def test_blocked_run_packs_slots_past_8_bytes(monkeypatch, p):
    dom = PrimeField(p)
    rng = random.Random(28)
    terms = [rng.randrange(p) for _ in range(800)]
    monkeypatch.setattr(engine, "_LEAF", (3, 3))
    monkeypatch.setattr(engine, "_BLOCK_MIN_DEG", 0)
    core = _GenericCore(dom)
    ref, deltas, _, _ = _stepped(dom, terms)
    starts = _record_blocks(monkeypatch)
    widths = []  # slot bytes of every product the run takes, in order
    real = poly._slot_bytes  # product_slice sizes the slots of each product
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_slot_bytes", lambda q, k: widths.append(real(q, k)) or widths[-1])
        assert engine._consume(core, terms) == deltas
    _assert_same_core(core, ref, "9-byte slots")
    # one block runs every term; its first product, the window of the seed
    # row, packs 8 bytes a slot, and later ones, whose sums pass 255 terms,
    # pack 9
    assert len(starts) == 1
    assert widths[0] == 8 and max(widths) == 9


def test_blocked_run_refills_its_windows(monkeypatch):
    # a run of zero terms leaves the transition rows long, so a block can
    # read past the windows it started with and must extend them
    refills = []
    real = engine._Windows.cover
    monkeypatch.setattr(engine._Windows, "cover",
                        lambda win, hi, p: refills.append(bool(win.W) and hi > win.hi)
                        or real(win, hi, p))
    starts = _record_blocks(monkeypatch)
    rng = random.Random(3)
    terms = [1 if rng.random() < 0.02 else 0 for _ in range(600)]
    core = _GenericCore(F3)
    ref, deltas, _, _ = _stepped(F3, terms)
    assert engine._consume(core, terms) == deltas
    _assert_same_core(core, ref, "refill")
    assert len(starts) == 1 and sum(refills) > 0


def test_blocked_run_is_used_by_mp_run_and_the_profile_log(monkeypatch):
    starts = _record_blocks(monkeypatch)
    rng = random.Random(65521)
    s = PrimeField(65521).seq([rng.randrange(65521) for _ in range(400)])
    _, rep = mp_run(s)
    assert len(starts) == 1
    ref, deltas, lc, exps = _stepped(s.domain, s.terms)
    assert (rep.lc, rep.deltas, rep.exponents, rep.nabla) == (lc, deltas, exps, ref.nabla)
    assert analysis_height(s).exponents == exps
    assert len(starts) == 2
    # per-step readers never block
    profile_steps(s)
    mp_run(s, MPConfig(normalize_each_step=True))
    assert len(starts) == 2


def test_blocked_run_leaves_no_reference_cycle():
    # reference counting frees everything a run builds: the recursive block
    # holds no cycle, as a nested function calling itself would
    rng = random.Random(2048)
    s = PrimeField(65521).seq([rng.randrange(65521) for _ in range(2048)])
    gc.collect()
    gc.disable()
    try:
        mp_run(s)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [
    ("profile", "--json", "--field", "65521"),
    ("profile", "--json", "--field", "65521", "--epsilon", "65520"),
    ("minpoly", "--field", "5"),
    ("minpoly", "--field", "5", "--epsilon", "2"),
    ("height", "--json", "--field", "5"),
    ("lcsum", "--json", "--field", "5"),
    ("profile", "--json", "--field", "2147483647"),
    ("minpoly", "--field", "2147483647"),
])
def test_blocked_commands_print_the_per_step_bytes(monkeypatch, capsys, argv):
    p = int(argv[argv.index("--field") + 1])
    rng = random.Random(2000)
    seqs = [",".join(str(rng.randrange(p)) for _ in range(2000)),
            ",".join(["0"] * 700 + [str(rng.randrange(p)) for _ in range(1300)])]
    starts = _record_blocks(monkeypatch)
    outs = []
    for min_deg in (None, 10**9):  # the default, then a warm-up that never ends
        if min_deg:
            monkeypatch.setattr(engine, "_BLOCK_MIN_DEG", min_deg)
        for seq in seqs:
            assert cli.main([*argv, "--seq", seq]) == 0
        outs.append(capsys.readouterr().out)
    assert starts and outs[0] == outs[1]


def test_integer_runs_stop_at_the_nabla_guard():
    rng = random.Random(40)
    s = ZZ.seq([rng.randrange(10) for _ in range(40)])
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="bits"):
        mp_run(s)
    assert time.perf_counter() - t0 < 1.0
    core = _GenericCore(ZZ)
    with pytest.raises(ResourceLimitError):
        for t in s.terms:
            core.step(t)
    assert engine.ZZ_NABLA_BITS < core.nabla.bit_length()
    # the guard is the first bound passed: one step earlier, still in range
    short = _GenericCore(ZZ)
    for t in s.terms[:core.j - 1]:
        short.step(t)
    assert short.nabla.bit_length() <= engine.ZZ_NABLA_BITS


# ------------------------------------------------ refusals and rare branches

def test_mat2_text():
    m = updating_matrix(F5, 2, 3, 1)
    assert str(m) == "[[3x, 3], [1, 0]]"
    assert str(Mat2.identity(F5)) == "[[1, 0], [0, 1]]"


def test_equal_inputs_give_equal_states():
    a, b = run_states(R6)[-1], run_states(GF2.seq(list(R6)))[-1]
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != run_states(R6.prefix(5))[-1]
    assert a != run_states(R6, MPConfig(epsilon=1))[-1]
    assert a != run_states(F3.seq(list(R6)))[-1]
    assert a != a.consumed


def test_generic_core_normalizes_over_a_field_only():
    with pytest.raises(UnsupportedDomainError, match="field"):
        _GenericCore(ZZ, normalize_each_step=True)


def test_lfsr_generate_refusals_and_integer_feedback():
    with pytest.raises(ValueError, match="domain"):
        lfsr_generate(Poly(F5, (1, 1)), GF2.seq([1]), 3)
    with pytest.raises(ValueError, match="register length"):
        lfsr_generate(Poly(GF2, (1, 1, 1)), GF2.seq([1]), 3)
    # constant term -1 over ZZ: s_j = s_{j-1} + s_{j-2}
    fib = lfsr_generate(Poly(ZZ, (-1, 1, 1)), ZZ.seq([1, 1]), 8)
    assert list(fib) == [1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(UnsupportedDomainError, match="constant term"):
        lfsr_generate(Poly(ZZ, (2, 1)), ZZ.seq([1]), 3)


def test_minpoly_coset_needs_a_finite_field():
    with pytest.raises(UnsupportedDomainError, match="finite field"):
        minpoly_coset(mp_init(ZZ))


def test_brute_force_guard_over_f2(monkeypatch):
    # no x + c annihilates 0,0,0,1; degree 2 would try 2^3 > 4 candidates
    monkeypatch.setattr(engine, "BRUTE_FORCE_GUARD", 4)
    with pytest.raises(ResourceLimitError, match="degree 2"):
        brute_force_minpoly(GF2.seq([0, 0, 0, 1]))
    monkeypatch.setattr(engine, "BRUTE_FORCE_GUARD", 32)
    assert brute_force_minpoly(GF2.seq([0, 0, 0, 1]))[0] == 4
