"""Closed forms of the power-of-two sequence versus the engine."""

import time

import pytest

from lcprof import gf2, rueppel
from lcprof.engine import Mat2, mp_run, profile_steps
from lcprof.errors import ResourceLimitError
from lcprof.fields import GF2
from lcprof.poly import Poly, poly_gcd
from lcprof.rueppel import (
    gamma,
    gamma_identities,
    gamma_members,
    gamma_packed,
    jump_matrix,
    power_column_identity,
    rueppel_matrix_check,
    rueppel_matrix_pattern,
    rueppel_mp,
    rueppel_mp_packed,
    rueppel_terms,
    step2_matrix,
    u_power,
)


def p(text):
    return Poly.from_text(GF2, text)


def unpack(r: int) -> Poly:
    return Poly(GF2, gf2.to_coeffs(r))


def test_terms():
    assert list(rueppel_terms(6)) == [1, 1, 0, 1, 0, 0]
    assert list(rueppel_terms(8)) == [1, 1, 0, 1, 0, 0, 0, 1]
    assert list(rueppel_terms(1)) == [1]
    assert list(rueppel_terms(0)) == []


def test_gamma_first_eight():
    want = ["0", "1", "x", "x^2+1", "x^3", "x^4+x^2+1", "x^5+x", "x^6+x^4+1"]
    assert [str(gamma(k)) for k in range(8)] == want


def test_gamma_power_indices():
    assert gamma(8) == p("x^7")
    assert gamma(16) == p("x^15")
    assert gamma(7) == p("x^6+x^4+1")
    # the 2^k - 1 member is the sum of the x^{2^k - 2^i} monomials
    for k in (3, 4, 5):
        want = Poly(GF2, ())
        for i in range(1, k + 1):
            want = want + p("1").shift(2**k - 2**i)
        assert gamma(2**k - 1) == want


def test_gamma_small_members():
    assert gamma(5) == p("x^4+x^2+1")
    assert gamma_packed(2) == 0b10


def test_lucas_members_match_the_recurrence():
    g = gamma_members(2999)
    assert [gamma_packed(k) for k in range(3000)] == g
    # g(k), g(k+1) step by the recurrence in two variables up to 2^15
    a, b = 0, 1
    for _ in range(2**15 - 1):
        a, b = b, (b << 1) ^ a
    assert (gamma_packed(2**15 - 1), gamma_packed(2**15)) == (a, b)
    assert b == 1 << (2**15 - 1)  # the power-of-two member is x^(k-1)


def test_u_power_small():
    assert u_power(0) == Mat2.identity(GF2)
    assert u_power(1) == jump_matrix()
    assert u_power(2) == Mat2(p("x^2+1"), p("x"), p("x"), p("1"))
    assert u_power(3) == Mat2(p("x^3"), p("x^2+1"), p("x^2+1"), p("x"))


def test_u_power_matches_repeated_product():
    acc = Mat2.identity(GF2)
    u = jump_matrix()
    for k in range(1, 10):
        acc = u @ acc
        assert u_power(k) == acc


def test_gamma_identity_examples():
    g = gamma_members(11)
    assert gamma_identities(4, 4, g)  # doubling through x^7 = x*(x^3)^2
    assert gamma_identities(3, 2, g)
    assert gamma_identities(6, 5, g)
    assert gamma_identities(0, 0, g)


@pytest.mark.parametrize("i", [3, 8, 33])
def test_gamma_identities_reject_a_corrupted_member(i):
    # A flipped middle bit keeps the degree of gamma(i) and the unit
    # constant term of gamma(i) + gamma(i-1), and at (i, 0) the product
    # and doubling rules hold trivially, so only the Cassini certificate
    # gamma(i+1)*gamma(i-1) + gamma(i)^2 = 1 is left to catch it.
    g = gamma_members(i + 1)
    assert gamma_identities(i, 0, g)
    for bit in range(1, i - 1):
        g[i] ^= 1 << bit
        assert not gamma_identities(i, 0, g)
        assert not gamma_identities(0, i, g)
        g[i] ^= 1 << bit
    assert gamma_identities(i, 0, g)


def test_gamma_bulk_laws():
    for k in range(1, 257):
        g, h = gamma_packed(k), gamma_packed(k - 1)
        assert g.bit_length() - 1 == k - 1
        assert (g ^ h) & 1 == 1
        assert gf2.gcd(g, h) == 1


def test_gamma_matches_generic_multiplication():
    # packed identity checks against Poly arithmetic on a sample
    x = p("x")
    for m, n in ((5, 3), (9, 4), (12, 12), (17, 6)):
        lhs = gamma(m + n)
        rhs = x * gamma(m) * gamma(n) + gamma(m - n)
        assert lhs == rhs


def test_closed_form_rows():
    assert rueppel_mp(3) == (p("x^2+x+1"), p("x"))
    assert rueppel_mp(5) == (p("x^3+x^2+1"), p("x^2+1"))
    assert rueppel_mp(7) == (p("x^4+x^3+x^2+1"), p("x^3"))
    with pytest.raises(ValueError):
        rueppel_mp(4)
    with pytest.raises(ValueError):
        rueppel_mp(1)


def test_closed_form_matches_engine():
    for n in range(3, 130, 2):
        matrix, _ = mp_run(rueppel_terms(n))
        assert (matrix.a, matrix.b) == rueppel_mp(n)
        even, _ = mp_run(rueppel_terms(n + 1))
        assert (even.a, even.b) == (matrix.a, matrix.b)


def _packed(f: Poly) -> int:
    return sum(c << k for k, c in enumerate(f.coeffs))


def test_packed_forms_match_poly_forms():
    m = step2_matrix()
    prev = None
    for n in range(2, 131):
        # M at n = 2, U^((n-1)/2) M at odd n, the odd matrix again at even n
        want = u_power((n - 1) // 2) @ m
        rows = tuple(_packed(f) for f in (want.a, want.b, want.c, want.d))
        assert rueppel_matrix_pattern(n, rows, prev), n
        for i in range(4):
            bad = list(rows)
            bad[i] ^= 1 << n
            assert not rueppel_matrix_pattern(n, tuple(bad), prev), (n, i)
        if n % 2:
            mu, mu_part = rueppel_mp_packed(n)
            assert (mu, mu_part) == rows[:2]
            assert (unpack(mu), unpack(mu_part)) == rueppel_mp(n)
        prev = rows


def test_matrix_pattern():
    assert rueppel_matrix_check(2)
    m4, _ = mp_run(rueppel_terms(4))
    assert m4 == Mat2(p("x^2+x+1"), p("x"), p("x+1"), p("1"))
    m2, _ = mp_run(rueppel_terms(2))
    assert m2 == step2_matrix()
    for n in range(2, 65):
        assert rueppel_matrix_check(n)
    with pytest.raises(ValueError):
        rueppel_matrix_check(1)


def test_jump_pattern_and_profile():
    _, rep = mp_run(rueppel_terms(128))
    assert rep.lc == [(j + 1) // 2 for j in range(1, 129)]
    assert rep.jumps == list(range(1, 129, 2))
    assert all(e in (0, 1) for e in rep.exponents)


def test_profile_snapshots_follow_u_powers():
    rows = profile_steps(rueppel_terms(33))
    m = step2_matrix()
    for n in range(3, 34, 2):
        want = u_power((n - 1) // 2) @ m
        got = Mat2(rows[n].mu, rows[n].mu_part, rows[n].mu_prev, rows[n].mu_prev_part)
        assert got == want
        even = rows[n + 1] if n + 1 <= 33 else None
        if even:
            assert (even.mu, even.mu_part) == (rows[n].mu, rows[n].mu_part)


def test_column_closed_form():
    for k in range(1, 8):
        assert power_column_identity(k)
    with pytest.raises(ValueError):
        power_column_identity(0)
    with pytest.raises(ResourceLimitError):
        power_column_identity(30)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        power_column_identity(10**18)
    assert time.perf_counter() - t0 < 1.0


def test_column_closed_form_generic_route():
    # same identity recomputed with Mat2/Poly arithmetic instead of ints
    one = p("1")
    for k in (1, 2, 3, 4):
        q = 2**k - 2
        upow = u_power(q)
        assert upow.det() == one
        m = step2_matrix()
        assert m.det() == one
        top, bottom = upow.adjugate().mul_column(p("1"), p("x+1"))
        top, bottom = m.adjugate().mul_column(top, bottom)
        want_top = Poly(GF2, ())
        for i in range(k + 1):
            want_top = want_top + one.shift(2**k - 2**i)
        assert (top, bottom) == (want_top, one.shift(2**k))


def test_nonminimal_power_annihilator():
    # an annihilator coprime to its polynomial part need not be minimal
    from lcprof.engine import annihilates
    from lcprof.poly import polynomial_part

    for k in (2, 3, 4):
        for n in (2**k, 2**k + 1, 2**(k + 1) - 1):
            r = rueppel_terms(n)
            f = Poly(GF2, (0,) * (2**k) + (1,))
            assert annihilates(f, r)
            assert poly_gcd(f, polynomial_part(f, r)) == p("1")
            _, rep = mp_run(r)
            if n % 2 == 0 or n + 1 < 2 ** (k + 1):
                assert f.degree > rep.lc[-1]


# ------------------------------------------------ refusals and rare branches

@pytest.mark.parametrize("call", [
    lambda: rueppel_terms(-1),
    lambda: gamma(-1),
    lambda: gamma_members(-1),
    lambda: u_power(-1),
    lambda: gamma_identities(-1, 0, gamma_members(4)),
    lambda: gamma_identities(0, -1, gamma_members(4)),
], ids=["rueppel_terms", "gamma", "gamma_members", "u_power",
        "gamma_identities m", "gamma_identities n"])
def test_negative_arguments_are_refused(call):
    with pytest.raises(ValueError, match="negative|nonnegative"):
        call()


def test_matrix_pattern_starts_at_two():
    with pytest.raises(ValueError, match="n = 2"):
        rueppel_matrix_pattern(1, (1, 0, 0, 1), None)


@pytest.mark.parametrize("m, n, index, flip", [
    (3, 2, 1, 1),  # the product rule
    (3, 2, 4, 1),  # the doubling rule
    (2, 1, 0, 1),  # the unit constant term of gamma(1) + gamma(0)
])
def test_gamma_identities_fail_on_a_tampered_list(m, n, index, flip):
    g = gamma_members(8)
    assert gamma_identities(m, n, g)
    g[index] ^= flip
    assert not gamma_identities(m, n, g)


def test_gamma_identities_check_the_degree_law():
    # all zero members keep the product and doubling rules, but gamma(1)
    # must have degree 0
    assert not gamma_identities(1, 1, [0] * 3)


def test_adjugate_needs_a_unimodular_matrix():
    # det [[x+1, 1], [1, 1]] = x over F_2
    with pytest.raises(ValueError, match="unimodular"):
        rueppel._adjugate_packed((0b11, 0b1, 0b1, 0b1))
