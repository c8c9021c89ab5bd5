"""Polynomial and sequence layer: frozen examples plus algebraic laws."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcprof import gf2, gf3
from lcprof.errors import DomainMismatchError, UnsupportedDomainError
from lcprof.fields import GF2, ZZ, PrimeField, is_prime
from lcprof.poly import (
    NEG_INF,
    ListRing,
    Poly,
    Seq,
    discrepancy,
    _slot_bytes,
    coeffs_to_text,
    part_coeffs,
    poly_divmod,
    poly_gcd,
    polynomial_part,
    product_slice,
    reciprocal,
)
from lcprof.rueppel import gamma_packed
from ring_reference import lin, planes

F3 = PrimeField(3)
F5 = PrimeField(5)

primes_st = st.sampled_from([2, 3, 5, 7])
small_ints = st.integers(min_value=-20, max_value=20)


def laurent_product(f, s):
    """Direct convolution of f with the generating series, exponent -> coeff.

    Independent of polynomial_part/discrepancy; used as their oracle.
    """
    dom = f.domain
    out = {}
    for k, c in enumerate(f.coeffs):
        for j, t in enumerate(s.terms, start=1):
            out[k - j] = out.get(k - j, 0) + c * t
    return {e: dom.normalize(v) for e, v in out.items() if dom.normalize(v) != 0}


# ------------------------------------------------------------ basic arith

def test_char2_square():
    x1 = Poly(GF2, (1, 1))
    assert x1 * x1 == Poly(GF2, (1, 0, 1))  # (x+1)^2 = x^2+1


def test_gamma_recurrence_start():
    # x*g1 + g0 = x, the first nontrivial member of the recurrence family
    g0, g1 = Poly(GF2, ()), Poly(GF2, (1,))
    x = Poly(GF2, (0, 1))
    assert x * g1 + g0 == x


def test_additive_identity():
    a = Poly(F3, (2, 1, 0, 2))
    assert a + Poly(F3, ()) == a


def test_mixed_domains_rejected():
    with pytest.raises(DomainMismatchError):
        Poly(GF2, (1,)) + Poly(F3, (1,))


def test_zero_degree_sentinel():
    z = Poly(GF2, ())
    assert z.degree == NEG_INF
    assert z.degree + 5 == NEG_INF  # degree sum law survives the sentinel
    assert Poly(GF2, (1,)).degree == 0


def test_shift_and_scale():
    f = Poly(F5, (1, 2))
    assert f.shift(2) == Poly(F5, (0, 0, 1, 2))
    assert f.scale(3) == Poly(F5, (3, 6))
    with pytest.raises(ValueError):
        f.shift(-1)


@settings(max_examples=60, deadline=None)
@given(primes_st, st.lists(small_ints, max_size=8), st.lists(small_ints, max_size=8))
def test_degree_product_law(p, ac, bc):
    dom = PrimeField(p)
    a, b = Poly(dom, ac), Poly(dom, bc)
    assert (a * b).degree == a.degree + b.degree
    assert (a + b).degree <= max(a.degree, b.degree)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, max_size=8), st.lists(small_ints, max_size=8))
def test_degree_product_law_integers(ac, bc):
    a, b = Poly(ZZ, ac), Poly(ZZ, bc)
    assert (a * b).degree == a.degree + b.degree


@settings(max_examples=40, deadline=None)
@given(primes_st, st.lists(small_ints, max_size=6), st.lists(small_ints, max_size=6),
       st.lists(small_ints, max_size=6))
def test_ring_axioms(p, ac, bc, cc):
    dom = PrimeField(p)
    a, b, c = (Poly(dom, v) for v in (ac, bc, cc))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(primes_st, st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_field_element_axioms(p, a, b):
    dom = PrimeField(p)
    assert dom.add(a, b) == dom.add(b, a)
    assert dom.mul(a, b) == dom.mul(b, a)
    assert dom.add(a, dom.neg(a)) == 0
    if dom.normalize(a) != 0:
        assert dom.mul(a, dom.inv(a)) == 1


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert is_prime(2147483647) and not is_prime(2147483649)


def test_integer_domain_has_no_inverse():
    with pytest.raises(UnsupportedDomainError):
        ZZ.inv(2)


# ------------------------------------------------------- polynomial part

def test_polynomial_part_single_term():
    assert polynomial_part(Poly(GF2, (0, 1)), GF2.seq([1])) == Poly(GF2, (1,))


def test_polynomial_part_degree_zero_is_empty():
    assert polynomial_part(Poly(F3, (2,)), F3.seq([1, 2, 0])).is_zero


def test_polynomial_part_worked_row():
    f = Poly(GF2, (1, 1, 1))  # x^2+x+1
    assert polynomial_part(f, GF2.seq([1, 1, 0, 1])) == Poly(GF2, (0, 1))


def test_polynomial_part_zero_input():
    assert polynomial_part(Poly(GF2, ()), GF2.seq([1, 0])).is_zero


def _part_by_oracle(dom, fc, terms):
    prod = laurent_product(Poly(dom, fc), Seq(dom, terms))
    return Poly(dom, [prod.get(e, 0) for e in range(len(fc) - 1)]).coeffs


@pytest.mark.parametrize("p", [2, 3, 251, 65521, 2**24 - 3, 2**31 - 1])
def test_part_coeffs_matches_the_laurent_oracle(p):
    # degrees up to 512 take every slot width from 1 to 9 bytes
    rng = random.Random(p)
    dom = PrimeField(p)
    for d in (0, 1, 2, 3, 4, 15, 16, 63, 64, 200, 512):
        fc = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        for n in (d, d + 3, d // 2):  # a window past the terms reads zeros
            terms = [rng.randrange(p) for _ in range(n)]
            got = part_coeffs(fc, tuple(terms), p)
            assert tuple(got) == _part_by_oracle(dom, fc, terms), (d, n)
            assert part_coeffs(fc, terms, p) == got
    # every coefficient p - 1: the slots reach their bound 512 * (p-1)^2
    top = [p - 1] * 513
    assert tuple(part_coeffs(top, top[1:], p)) == _part_by_oracle(dom, top, top[1:])
    assert part_coeffs(top, [0] * 512, p) == []


def test_part_coeffs_covers_every_slot_width():
    widths = {_slot_bytes(p, d) for p in (2, 3, 251, 65521, 2**24 - 3, 2**31 - 1)
              for d in (1, 2, 3, 4, 15, 16, 63, 64, 200, 512)}
    assert widths == set(range(1, 10))  # 9: p = 2^31 - 1 at d = 512


@pytest.mark.parametrize("p", [3, 65521, 268435399, 2**31 - 1])
def test_product_slice_matches_the_schoolbook_sum(p):
    # sums of one and two products, slices inside, across and past the
    # end, and every value p - 1, where the slots reach their bound
    rng = random.Random(p)
    for _ in range(40):
        lens = [rng.randrange(0, 40) for _ in range(4)]
        if rng.random() < 0.2:
            a, b, c, d = ([p - 1] * n for n in lens)
        else:
            a, b, c, d = ([rng.randrange(p) for _ in range(n)] for n in lens)
        for pairs in [((a, b),), ((a, b), (c, d))]:
            size = max(len(x) + len(y) - 1 for x, y in pairs)
            full = [sum(x[i] * y[k - i] for x, y in pairs
                        for i in range(len(x)) if 0 <= k - i < len(y)) % p
                    for k in range(size)]
            for lo, hi in [(0, size), (0, size + 3), (size // 3, size // 2),
                           (size // 2, size + 1)]:
                assert product_slice(pairs, p, lo, hi) == full[lo:hi]


@pytest.mark.parametrize("w, p, m", [
    (3, 251, 255), (5, 65521, 255), (6, 2**20 - 3, 255), (7, 2**24 - 3, 255),
    (9, 2**31 - 1, 1023), (10, 2**36 - 5, 255),
])
def test_product_slice_fills_each_slot_width_to_its_bound(w, p, m):
    # every value p - 1 and sums of m products: the middle slot holds
    # m (p-1)^2, above half of 2^(8w), in the widest slot _slot_bytes gives
    assert _slot_bytes(p, m) == w and 2 * m * (p - 1) ** 2 > 2 ** (8 * w)
    top = p - 1

    def full(lens):  # coefficient k of sum [top]*na times [top]*nb, mod p
        size = max(na + nb - 1 for na, nb in lens)
        return [sum(max(0, min(k, na - 1) - max(0, k - nb + 1) + 1) for na, nb in lens)
                * top * top % p for k in range(size)]

    for lens in ([(m, m)], [(m // 2, m // 2), (m - m // 2, m - m // 2)], [(m, 3), (2, m)]):
        pairs = [([top] * na, [top] * nb) for na, nb in lens]
        ref = full(lens)
        size = len(ref)
        for lo, hi in [(0, size), (m - 2, m + 1), (size - 2, size + 2)]:
            assert product_slice(pairs, p, lo, hi) == ref[lo:hi], (lens, lo, hi)


def test_part_coeffs_over_the_integers():
    rng = random.Random(0)
    for d in (0, 1, 2, 7, 40):
        for n in (d, d + 2, d // 2):
            fc = [rng.randrange(-50, 51) for _ in range(d)] + [rng.choice([-7, 3])]
            terms = [rng.randrange(-50, 51) for _ in range(n)]
            assert tuple(part_coeffs(fc, terms, 0)) == _part_by_oracle(ZZ, fc, terms)


# ----------------------------------------------------------- discrepancy

def test_discrepancy_of_one_reads_next_term():
    s = F3.seq([2, 1, 0, 2])
    for n in range(4):
        assert discrepancy(Poly(F3, (1,)), s, n) == s.term(n + 1)


def test_discrepancy_worked_rows():
    f = Poly(GF2, (1, 1, 1))
    assert discrepancy(f, GF2.seq([1, 1, 0, 1]), 3) == 0
    assert discrepancy(f, GF2.seq([1, 1, 0, 1, 0]), 4) == 1


def test_discrepancy_bounds():
    with pytest.raises(IndexError):
        discrepancy(Poly(GF2, (1,)), GF2.seq([1]), 1)
    with pytest.raises(ValueError):
        discrepancy(Poly(GF2, ()), GF2.seq([1]), 0)


def test_discrepancy_total_for_large_degree():
    # out-of-range terms are simply absent
    f = Poly(GF2, (1, 0, 0, 1))  # degree 3 against a length-2 window
    assert discrepancy(f, GF2.seq([1, 1]), 1) in (0, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_laurent_split_oracle(p, data):
    dom = PrimeField(p)
    fc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
    terms = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=32))
    f = Poly(dom, fc)
    s = Seq(dom, terms)
    if f.is_zero:
        return
    prod = laurent_product(f, s)
    # nonnegative exponents are exactly the polynomial part
    part = polynomial_part(f, s)
    for e in range(int(f.degree) + 1):
        assert prod.get(e, 0) == part.coefficient(e)
    # the discrepancy sits at exponent d - n - 1
    d = int(f.degree)
    for n in range(len(terms)):
        assert discrepancy(f, s, n) == prod.get(d - n - 1, 0)


# ------------------------------------------------------------ reciprocal

def test_reciprocal_values():
    assert reciprocal(Poly(GF2, (1, 0, 1, 1))) == Poly(GF2, (1, 1, 0, 1))
    assert reciprocal(Poly(GF2, (1,))) == Poly(GF2, (1,))
    assert reciprocal(Poly(GF2, (0, 1))) == Poly(GF2, (1,))
    with pytest.raises(ValueError):
        reciprocal(Poly(GF2, ()))


@settings(max_examples=60, deadline=None)
@given(primes_st, st.lists(small_ints, min_size=1, max_size=8))
def test_reciprocal_involution(p, coeffs):
    dom = PrimeField(p)
    f = Poly(dom, coeffs)
    if f.is_zero or f.coefficient(0) == 0:
        return
    assert reciprocal(reciprocal(f)) == f


# ------------------------------------------------------------------- gcd

def test_gcd_values():
    assert poly_gcd(Poly(GF2, (1, 0, 1, 1)), Poly(GF2, (1, 1, 1))) == Poly(GF2, (1,))
    f = Poly(F3, (2, 1))
    assert poly_gcd(f, Poly(F3, ())) == f.monic()
    assert poly_gcd(Poly(GF2, (1, 0, 1)), Poly(GF2, (1, 1))) == Poly(GF2, (1, 1))


def test_gcd_needs_field():
    with pytest.raises(UnsupportedDomainError):
        poly_gcd(Poly(ZZ, (2, 4)), Poly(ZZ, (2,)))
    with pytest.raises(ValueError):
        poly_gcd(Poly(GF2, ()), Poly(GF2, ()))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_divmod_contract(p, data):
    dom = PrimeField(p)
    a = Poly(dom, data.draw(st.lists(st.integers(0, p - 1), max_size=10)))
    b = Poly(dom, data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)))
    if b.is_zero:
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


# ------------------------------------------------- packed F_2 gcd kernel

def _gcd_list(a: int, b: int) -> list[int]:
    """The list kernel's gcd of two packed polynomials (monic over F_2)."""
    return ListRing(2).gcd(gf2.to_coeffs(a), gf2.to_coeffs(b))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**300), st.integers(0, 2**300))
def test_gf2_gcd_matches_list_kernel(a, b):
    assert gf2.to_coeffs(gf2.gcd(a, b)) == _gcd_list(a, b)


def test_gf2_gcd_edge_operands():
    rng = random.Random(11)
    for a, b, want in [(0, 0, 0), (0, 0b1011, 0b1011), (0b1011, 0, 0b1011),
                       (0b1101, 0b1101, 0b1101), (1, 1, 1), (0b110, 0b11, 0b11)]:
        assert gf2.gcd(a, b) == want
        assert gf2.to_coeffs(want) == _gcd_list(a, b)
    for _ in range(200):
        a = rng.getrandbits(rng.randrange(1, 120)) | 1
        c = rng.getrandbits(rng.randrange(1, 120)) or 1
        for x, y in ((gf2.mul(a, c), a), (a, gf2.mul(a, c))):
            assert gf2.gcd(x, y) == a
            assert gf2.to_coeffs(a) == _gcd_list(x, y)


def test_gf2_gcd_of_consecutive_gammas():
    # Euclid's worst case: every remainder step lowers the degree by one
    for k in range(1, 301):
        a, b = gamma_packed(k), gamma_packed(k - 1)
        assert gf2.gcd(a, b) == 1
        assert _gcd_list(a, b) == [1]


# ------------------------------------------------ bit-sliced F_3 kernels

def test_gf3_sum_of_every_coefficient_pair():
    pairs = list(itertools.product(range(3), repeat=2))
    for x, y in pairs:
        one = ((x + y) % 3 == 1, (x + y) % 3 == 2)
        assert gf3.add((x == 1, x == 2), (y == 1, y == 2)) == one
    # the nine pairs side by side, one a coefficient
    xs, ys = zip(*pairs)
    got = gf3.add(planes(xs), planes(ys))
    assert gf3.row_bytes(got, 9)[::-1] == bytes((x + y) % 3 for x, y in pairs)


# ------------------------------------------------------- rings of rows

# every ring the engine and the continued-fraction oracle run on: packed
# ints, bit planes, and coefficient lists at a byte-slot and a wide field
RINGS = [gf2, gf3, ListRing(5), ListRing(65521)]


@st.composite
def _ring_case(draw):
    ring = draw(st.sampled_from(RINGS))
    dom = PrimeField(ring.p)
    rows = st.lists(st.integers(0, ring.p - 1), max_size=100).map(
        lambda c: list(Poly(dom, c).coeffs))
    scalars = st.integers(-2 * ring.p, 2 * ring.p)
    return (ring, dom, draw(rows), draw(rows), draw(scalars), draw(scalars),
            draw(st.integers(0, 20)), draw(st.integers(0, 20)))


def _schoolbook(dom, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Poly(dom, out)


# about 200 examples a ring
@settings(max_examples=800, deadline=None)
@given(_ring_case())
def test_every_ring_matches_the_list_kernels(case):
    # Poly's +, - and * run on the list ring, so each is also checked
    # against a coefficient-by-coefficient reference
    ring, dom, a, b, c1, c2, s1, s2 = case
    # native rows from the coefficients, highest first
    A, B = ring.from_bytes(a[::-1]), ring.from_bytes(b[::-1])
    coeffs = ring.to_coeffs
    Pa, Pb = Poly(dom, a), Poly(dom, b)
    assert coeffs(A) == a and ring.degree(A) == len(a) - 1
    assert coeffs(ring.one) == [1]
    if ring.p < 256:
        assert ring.row_bytes(A).lstrip(b"\0") == bytes(a[::-1])
        assert ring.from_bytes(ring.row_bytes(A)) == A
    want = Poly(dom, lin(dom.p, c1, a, s1, c2, b, s2))
    assert want == Pa.scale(c1).shift(s1) - Pb.scale(c2).shift(s2)
    assert coeffs(ring.lin(c1, A, s1, c2, B, s2)) == list(want.coeffs)
    assert Poly(dom, lin(dom.p, 1, a, 0, -1, b)) == Pa + Pb
    assert coeffs(ring.lin(1, A, 0, -1, B, 0)) == list((Pa + Pb).coeffs)
    assert _schoolbook(dom, a, b) == Pa * Pb
    assert coeffs(ring.mul(A, B)) == list((Pa * Pb).coeffs)
    if b:
        q, r = ring.quo_rem(A, B)
        want_q, want_r = poly_divmod(Pa, Pb)
        assert (coeffs(q), coeffs(r)) == (list(want_q.coeffs), list(want_r.coeffs))
    # the remainders of Euclid are unique, so the gcds agree exactly
    assert coeffs(ring.gcd(A, B)) == ListRing(ring.p).gcd(a, b)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"F_{r.p}")
def test_every_ring_multiplies_rows_of_top_coefficients(ring):
    # every coefficient p - 1: each slot of a Kronecker product reaches its
    # bound, up to 300 products a sum
    dom = PrimeField(ring.p)
    for n in (1, 17, 100, 300):
        a = [ring.p - 1] * n
        A = ring.from_bytes(a)
        assert ring.to_coeffs(ring.mul(A, A)) == list(_schoolbook(dom, a, a).coeffs)


# ------------------------------------------------------------ text format

@pytest.mark.parametrize(
    "coeffs,text",
    [
        ((), "0"),
        ((1,), "1"),
        ((0, 1), "x"),
        ((1, 0, 1, 1), "x^3+x^2+1"),
        ((2, 3), "3x+2"),
        ((0, 0, 2), "2x^2"),
    ],
)
def test_text_rendering(coeffs, text):
    assert str(Poly(F5, coeffs)) == text


def test_text_negative_coefficients():
    assert str(Poly(ZZ, (-3, 0, 1))) == "x^2-3"


@settings(max_examples=80, deadline=None)
@given(primes_st, st.lists(small_ints, max_size=10))
def test_text_round_trip(p, coeffs):
    dom = PrimeField(p)
    f = Poly(dom, coeffs)
    assert Poly.from_text(dom, str(f)) == f


def _reference_coeffs_to_text(coeffs):
    """The term-by-term loop that coeffs_to_text replaced."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(parts).replace("+-", "-")


def test_coeffs_to_text_matches_the_term_loop():
    rng = random.Random(170)
    cases = [list(c) for n in range(4) for c in itertools.product(range(-2, 4), repeat=n)]
    for p in (2, 3, 5, 65521):
        for n in (*range(8), 30, 200, 1000):
            for _ in range(5):
                cases.append([rng.randrange(p) for _ in range(n)])
                cases.append([rng.randrange(p) for _ in range(n)] + [1 + rng.randrange(p - 1)])
    for n in (1, 2, 5, 40):  # over ZZ, with negative coefficients
        for _ in range(20):
            cases.append([rng.randint(-30, 30) for _ in range(n)])
    for coeffs in cases:
        assert coeffs_to_text(coeffs) == _reference_coeffs_to_text(coeffs), coeffs
        assert coeffs_to_text(tuple(coeffs)) == _reference_coeffs_to_text(coeffs)


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        Poly.from_text(GF2, "x^2 + spam")


def test_json_coefficient_form():
    f = Poly(F5, (2, 0, 3))
    assert f.json_coeffs() == [2, 0, 3]
    assert Poly.from_json_coeffs(F5, f.json_coeffs()) == f


# -------------------------------------------------------------- sequences

def test_seq_semantics():
    s = F3.seq([1, 2, 0, 1])
    assert len(s) == 4
    assert s.term(1) == 1 and s.term(4) == 1
    with pytest.raises(IndexError):
        s.term(0)
    with pytest.raises(IndexError):
        s.term(5)
    assert s.prefix(2) == F3.seq([1, 2])
    assert list(s.prefix(0)) == []


def test_seq_normalizes_on_entry():
    assert F3.seq([4, -1]).terms == (1, 2)


# ------------------------------------------------ canonical kernels

@pytest.mark.parametrize("p", [3, 5, 65521])
def test_divmod_results_are_canonical(p):
    rng = random.Random(p)
    dom = PrimeField(p)
    for _ in range(500):
        a = Poly(dom, [rng.randrange(p) for _ in range(rng.randrange(0, 14))])
        lead = 1 + rng.randrange(p - 1)
        b = Poly(dom, [rng.randrange(p) for _ in range(rng.randrange(0, 9))] + [lead])
        q, r = poly_divmod(a, b)
        # the kernel's own lists are the renormalized ones: reduced and trimmed
        quot, rem = ListRing(p).quo_rem(a.coeffs, b.coeffs)
        assert (tuple(quot), tuple(rem)) == (q.coeffs, r.coeffs)
        assert q * b + r == a and (r.is_zero or r.degree < b.degree)


def _to_coeffs_by_bits(a):
    return [(a >> k) & 1 for k in range(a.bit_length())]


def test_gf2_to_coeffs_matches_the_bit_loop():
    assert gf2.to_coeffs(0) == []
    for a in range(1 << 12):
        assert gf2.to_coeffs(a) == _to_coeffs_by_bits(a)
    rng = random.Random(16)
    for _ in range(8):
        a = rng.getrandbits(1 << 16) | 1 << ((1 << 16) - 1)
        got = gf2.to_coeffs(a)
        assert got == _to_coeffs_by_bits(a) and len(got) == 1 << 16
        assert all(type(c) is int for c in got[:64])


# ------------------------------------------------ refusals and rare branches

def test_poly_call_matches_direct_sums():
    f = Poly(F5, (3, 0, 4, 1))
    for x in range(5):
        assert f(x) == sum(c * x**k for k, c in enumerate(f.coeffs)) % 5
    g = Poly(ZZ, (-2, 0, 3, -1))
    for x in range(-4, 5):
        assert g(x) == sum(c * x**k for k, c in enumerate(g.coeffs))
    assert Poly(F5)(3) == 0


@pytest.mark.parametrize("text", ["x^2+y", "x++1", "x2", "x^-1"])
def test_from_text_rejects_a_bad_term(text):
    with pytest.raises(ValueError, match="bad polynomial term"):
        Poly.from_text(F5, text)


def test_zero_has_no_leading_coefficient():
    with pytest.raises(ValueError, match="no leading"):
        Poly(F5).leading


@pytest.mark.parametrize("i", [-1, 4])
def test_seq_prefix_out_of_range(i):
    with pytest.raises(IndexError, match="prefix length"):
        F5.seq([1, 2, 3]).prefix(i)


def test_poly_divmod_refusals():
    with pytest.raises(UnsupportedDomainError, match="field"):
        poly_divmod(Poly(ZZ, (1, 1)), Poly(ZZ, (1,)))
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly(F5, (1, 1)), Poly(F5))


def test_poly_and_seq_dunders():
    f = Poly(F5, (1, 0, 2))
    assert f and not Poly(F5)
    assert repr(f) == "Poly(PrimeField(5), '2x^2+1')"
    s = F5.seq([1, 4])
    assert repr(s) == "Seq(PrimeField(5), [1, 4])"
    assert hash(s) == hash(F5.seq((1, 4))) and len({s, F5.seq([1, 4])}) == 1


def test_integer_ring_is_plain_integer_arithmetic():
    assert (ZZ.add(-3, 5), ZZ.sub(-3, 5), ZZ.mul(-3, 5)) == (2, -8, -15)


def test_is_prime_below_two_and_the_inverse_of_zero():
    assert not is_prime(0) and not is_prime(1)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        F5.inv(10)
