"""Prefix-tree sweeps: per-node verdicts and counterexample order."""

import dataclasses
import hashlib
import random
import time
from itertools import product

import pytest

from lcprof import analysis, engine, rueppel
from lcprof import verify as verify_mod
from lcprof.analysis import (
    char_equivalence,
    height,
    is_plcp,
    lc_sum,
    plcp_witnesses,
    t_transform,
)
from lcprof.cli import main
from lcprof.errors import ResourceLimitError
from lcprof.fields import GF2


def test_walk_verdicts_match_public_functions():
    core = engine._PackedCore()
    walk = analysis._walk_prefixes(core, 2, 10, verify_mod._equiv_step,
                                   verify_mod._EQUIV_START)
    seen = []
    for terms, st in walk:
        n = len(terms)
        s = GF2.seq(terms)
        assert verify_mod._witness_verdicts(st) == plcp_witnesses(s).all(), terms
        assert verify_mod._char_verdicts(st.profile, n) == char_equivalence(s), terms
        assert (st.profile.lc_sum, (n + 1) ** 2 // 4) == lc_sum(s), terms
        assert st.profile.height == height(s).height, terms
        assert st.profile.perfect == is_plcp(s), terms
        seen.append(terms)
    # every sequence of at most 10 terms once, shorter before longer
    # within a subtree and in product order within a length
    assert len(seen) == 2**11 - 1
    for n in range(11):
        assert [t for t in seen if len(t) == n] == list(product((0, 1), repeat=n))


def _scan_wang_massey(max_n, transform=t_transform):
    """The length-by-length scan the tree sweep must agree with."""
    checked = 0
    for n in range(1, max_n + 1, 2):
        for v in range(1 << n):
            s = GF2.seq([v >> i & 1 for i in range(n)])
            plcp, stable = is_plcp(s), verify_mod.is_stable(s)
            if plcp != stable:
                return checked, f"n={n} {list(s.terms)} plcp={plcp} stable={stable}"
            t = transform(s)
            if stable != all(t[j] == 0 for j in range(0, n + 1, 2)):
                return checked, f"n={n} {list(s.terms)} transform criterion"
        checked += 1 << n
    return checked, ""


def _fault_stability(monkeypatch):
    # The walk meets (0,0,0,0,0,0,0) first and (0,1,0,0,0) before
    # (1,0,0,0,0), but the scan reports the least length, then the
    # least value v (the first term is the low bit).
    wrong = {(0,) * 7, (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)}
    real = verify_mod.is_stable
    monkeypatch.setattr(verify_mod, "is_stable",
                        lambda s: real(s) ^ (s.terms in wrong))


def test_tree_counterexample_matches_scan(monkeypatch):
    _fault_stability(monkeypatch)
    result = verify_mod.verify_wang_massey(max_n=7)
    assert not result.ok
    assert (result.checked, result.detail) == _scan_wang_massey(7)
    assert result.checked == 2 + 8
    assert result.detail == "n=5 [1, 0, 0, 0, 0] plcp=False stable=True"


def test_tree_sweeps_of_no_length_check_nothing():
    # an empty range of lengths walks no tree: wang-massey at max_n = 0
    # passes with no checks, and height counts no sweep checks at
    # exhaustive_n = 0 (two sequences of one term, and four of two, above it)
    assert verify_mod.verify_wang_massey(max_n=0) == verify_mod.VerifyResult(
        "wang-massey", True, 0)
    sizes = dict(rueppel_n=16, bound_trials=3, cf_trials=2)
    checked = [verify_mod.verify_height(exhaustive_n=n, **sizes).checked
               for n in (0, 1, 2)]
    assert checked == [1 + 3 + 2 * 2 + c for c in (0, 2, 2 + 4)]


def test_folded_transform_equals_t_transform_at_every_node():
    walk = analysis._walk_prefixes(engine._PackedCore(), 2, 12,
                                   verify_mod._wm_step, verify_mod._WM_START)
    nodes = 0
    for terms, (perfect, t) in walk:
        s = GF2.seq(terms)
        assert [t >> i & 1 for i in range(len(terms) + 1)] == t_transform(s), terms
        assert perfect == is_plcp(s), terms
        nodes += 1
    assert nodes == 2**13 - 1


@pytest.mark.parametrize("prefix, bit, checked, detail", [
    ((1, 0, 1, 0), 0, 2 + 8, "n=5 [1, 0, 1, 0, 0] transform criterion"),
    ((1, 1, 0), 2, 2, "n=3 [1, 1, 0] transform criterion"),
    ((1, 0, 1, 1, 1, 1), 6, 2 + 8 + 32,
     "n=7 [1, 0, 1, 1, 1, 1, 0] transform criterion"),
])
def test_wang_massey_reports_a_flipped_even_coefficient(monkeypatch, prefix, bit,
                                                        checked, detail):
    # the fold flips t_bit at the prefix's node, and every extension
    # inherits the flip; the scan flips the same coefficient of t_transform.
    # Each prefix extends to a stable sequence, whose even coefficients
    # all vanish, so the flip shows there
    v = sum(t << i for i, t in enumerate(prefix))
    real = verify_mod._wm_step

    def flipped(st, core, delta, j):
        perfect, t = real(st, core, delta, j)
        return perfect, t ^ ((core.j, core.S) == (len(prefix), v)) << bit

    def transform(s):
        t = t_transform(s)
        if s.terms[:len(prefix)] == prefix:
            t[bit] ^= 1
        return t

    monkeypatch.setattr(verify_mod, "_wm_step", flipped)
    result = verify_mod.verify_wang_massey(max_n=7)
    assert not result.ok
    assert (result.checked, result.detail) == _scan_wang_massey(7, transform)
    assert (result.checked, result.detail) == (checked, detail)


def _raise_exponent_after(monkeypatch, prefix):
    """Swap in a packed core that raises e by 2 after the given prefix."""
    v = sum(t << i for i, t in enumerate(prefix))

    class RaiseCore(engine._PackedCore):
        def step(self, sj):
            delta = super().step(sj)
            if (self.j, self.S) == (len(prefix), v):
                self.e += 2
            return delta

    monkeypatch.setattr(verify_mod, "_make_core", lambda dom, config: RaiseCore())


@pytest.mark.parametrize("prefix, checked, detail", [
    ((1, 0, 1, 0), 15, "n=4 [1, 0, 1, 0]"),
    ((1, 1, 0, 1, 0), 31, "n=5 [1, 1, 0, 1, 0]"),
    ((0, 1), 541, ""),
])
def test_height_sweep_reports_a_raised_exponent(monkeypatch, prefix, checked,
                                                detail):
    # checked counts the power-of-two check, the tree nodes shorter than
    # the failing one, and on a pass every node and trial
    _raise_exponent_after(monkeypatch, prefix)
    result = verify_mod.verify_height(rueppel_n=64, exhaustive_n=8,
                                      bound_trials=20, cf_trials=5)
    assert (result.ok, result.checked, result.detail) == (not detail, checked,
                                                          detail)


@pytest.mark.parametrize("prefix, checked, detail", [
    ((0, 1), 7, "n=3 [0, 1, 1] sum 5 > 4"),
    ((1, 0, 1, 1, 1), 31,
     "n=5 [1, 0, 1, 1, 1] (True, True, False, True, True, True)"),
    ((0, 0, 0, 1, 1), 127, "n=7 [0, 0, 0, 1, 1, 1, 0] sum 17 > 16"),
    ((0, 0, 0, 0, 1), 511, ""),
])
def test_plcp_equiv_sweep_reports_a_raised_exponent(monkeypatch, prefix,
                                                    checked, detail):
    _raise_exponent_after(monkeypatch, prefix)
    result = verify_mod.verify_plcp_equivalence(max_n=8)
    assert (result.ok, result.checked, result.detail) == (not detail, checked,
                                                          detail)


# -------------------------------------------------------------- oracle

def _one_degree_too_many(monkeypatch, q, pick):
    """brute_force_minpoly reports one degree too many for one sequence over
    F_q: the one whose terms are pick, or the pick-th it is called with."""
    real = verify_mod.brute_force_minpoly
    seen = []

    def faulty(s):
        d, f = real(s)
        if s.domain.p == q:
            seen.append(s.terms)
            d += pick in (s.terms, len(seen))
        return d, f

    monkeypatch.setattr(verify_mod, "brute_force_minpoly", faulty)


@pytest.mark.parametrize("q, pick, kwargs, checked, detail", [
    (2, (0, 1, 1), dict(fields=(2,), exhaustive_n=6), 6, "F_2 [0, 1, 1]"),
    (2, (1, 0, 1, 1, 0), dict(fields=(2, 3), exhaustive_n=6, trials=20, max_n=6),
     30, "F_2 [1, 0, 1, 1, 0]"),
    (3, 7, dict(fields=(3,), exhaustive_n=0, trials=40, max_n=6),
     7, "F_3 [2, 1, 1, 0, 2]"),
    (3, 7, dict(fields=(2, 3), exhaustive_n=4, trials=20, max_n=6),
     37, "F_3 [2, 1, 1, 0, 2]"),
    (5, 7, dict(fields=(2, 3, 5), exhaustive_n=4, trials=20, max_n=6),
     57, "F_5 [2, 2, 0]"),
], ids=["f2", "f2-before-f3", "f3", "f3-after-f2", "f5-after-f2-f3"])
def test_oracle_reports_a_wrong_degree(monkeypatch, q, pick, kwargs, checked,
                                       detail):
    # the exhaustive F_2 sweep comes first, then the random sequences of
    # each other field, all drawn from one seeded generator.  The sweep
    # counts as the other tree sweeps do: a failure at n terms reports the
    # sequences of fewer terms as checked
    _one_degree_too_many(monkeypatch, q, pick)
    result = verify_mod.verify_oracle(**kwargs)
    assert (result.ok, result.checked, result.detail) == (False, checked, detail)


def test_oracle_sweeps_f2_without_a_run_per_sequence(monkeypatch):
    # the binary half reads mu off the prefix walk's packed cores
    def no_run(*args, **kwargs):
        raise AssertionError("mp_run called")

    monkeypatch.setattr(verify_mod, "mp_run", no_run)
    assert verify_mod.verify_oracle(fields=(2,), exhaustive_n=8) == (
        verify_mod.VerifyResult("oracle", True, 2**9 - 2))


# The sha256 of the terms each seeded suite hands on at its CLI defaults:
# (verify argv, the verify global that receives them, their position
# among its arguments, sha256 of the repr of the list of term tuples).
# Passing counts do not show the drawn values; these pin them.
# Each case that differs fails and prints its fresh hash; an intended
# change of the draws edits that hash here and says so in CHANGES.md.
DRAW_SHA256 = [
    (("oracle", "--field", "3"), "mp_run", 0,
     "e5f6ba75799da9fcdd434b3eae3de1dd4d84f3627650474f1da916ff7185d305"),
    (("bezout",), "_each_step", 1,
     "e238310a741e54066dee628d00c96de202262675605ec1b72417318cdb62b39d"),
    (("height",), "height", 0,
     "02b0c447bdf8f92d976918aa0eee4d199e2bf2f0e80ce6453dbf57b8f36d78fa"),
    (("lcsum",), "lc_sum", 0,
     "6297439de06a62e61887cf1da9dd9a02280127221bab501b19a76d94cbce9613"),
]


@pytest.mark.parametrize("argv, name, at, want", DRAW_SHA256,
                         ids=[" ".join(c[0]) for c in DRAW_SHA256])
def test_seeded_draws_are_pinned(monkeypatch, argv, name, at, want):
    real = getattr(verify_mod, name)
    seen = []

    def recording(*args, **kwargs):
        terms = args[at]
        seen.append(tuple(getattr(terms, "terms", terms)))
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, name, recording)
    code = main(["verify", *argv])
    # as a pair, pytest prints both hashes in full when they differ
    assert (code, hashlib.sha256(repr(seen).encode()).hexdigest()) == (0, want)


# -------------------------------------------------------------- height

HEIGHT_SMALL = dict(rueppel_n=64, exhaustive_n=6, bound_trials=20, cf_trials=5)


@pytest.mark.parametrize("k, checked, head", [
    (1, 148, "cf degrees [2, 3, 1, 1, 4, 1, 4, 3, 2, 1, 4, 3, 2, 1] != jumps "
             "[1, 2, 3, 1, 1, 4, 1, 4, 3, 2, 1, 4, 3, 2] F_2 [1, 1, 1, 0, 1,"),
    (4, 151, "cf degrees [3, 1, 1, 1, 1, 1, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 2, 1, "
             "3, 1, 2, 1] != jumps [1, 3, 1, 1, 1, 1, 1, 1, 1, 2, 3, 2, 1, 1, 1, "
             "1, 1, 2, 1, 3, 1, 2] F_3 [2, 1, 2, 1, 0,"),
    (7, 154, "cf degrees [1, 1, 1, 1, 1, 1, 5, 2, 2, 1, 1, 4, 1, 1, 1, 5, 1, 1, "
             "2] != jumps [1, 1, 1, 1, 1, 1, 1, 5, 2, 2, 1, 1, 4, 1, 1, 1, 5, 1, "
             "1] F_2 [1, 1, 0, 1, 0,"),
])
def test_height_reports_a_dropped_quotient(monkeypatch, k, checked, head):
    # the k-th continued fraction loses its first partial quotient; the
    # failing sequence is one of the suite's 64-term random inputs
    real = verify_mod._cf_quotients
    calls = []

    def faulty(s):
        calls.append(s)
        ring, quots = real(s)
        return ring, quots[1:] if len(calls) == k else quots

    monkeypatch.setattr(verify_mod, "_cf_quotients", faulty)
    result = verify_mod.verify_height(**HEIGHT_SMALL)
    assert (result.ok, result.checked) == (False, checked)
    assert result.detail.startswith(head)
    terms = result.detail[result.detail.rindex("["):]
    assert len(terms.split(",")) == 64


def test_height_reports_a_dropped_last_quotient(monkeypatch):
    # the quotients past the jumps still have to sum to the degree of
    # x^n over the gcd, which is x^(trailing zero terms)
    real = verify_mod._cf_quotients

    def faulty(s):
        ring, quots = real(s)
        return ring, quots[:-1]

    monkeypatch.setattr(verify_mod, "_cf_quotients", faulty)
    result = verify_mod.verify_height(**HEIGHT_SMALL)
    assert (result.ok, result.checked) == (False, 1 + 126 + 20 + 1)
    assert result.detail.startswith("cf degree sum 59 != 61 F_2 [1, 1, 1, 0, 1,")


def _nth_call_changed(monkeypatch, name, k, change):
    """The k-th call of the module-level name returns change(real result)."""
    real = getattr(verify_mod, name)
    calls = []

    def faulty(*args):
        calls.append(args)
        result = real(*args)
        return change(result) if len(calls) == k else result

    monkeypatch.setattr(verify_mod, name, faulty)


def test_height_reports_a_power_of_two_height(monkeypatch):
    _nth_call_changed(monkeypatch, "height", 1,
                      lambda h: dataclasses.replace(h, height=2))
    result = verify_mod.verify_height(**HEIGHT_SMALL)
    assert (result.ok, result.checked, result.detail) == (
        False, 1, "power-of-two height 2")


def test_height_reports_an_exponent_past_the_bounds(monkeypatch):
    # the 4th height call is the 3rd random trial, after the 126 nodes
    _nth_call_changed(monkeypatch, "height", 4, lambda h: dataclasses.replace(
        h, exponents=[1, h.height + 1, *h.exponents[2:]]))
    result = verify_mod.verify_height(**HEIGHT_SMALL)
    assert (result.ok, result.checked) == (False, 1 + 126 + 3)
    assert result.detail.startswith("bounds F_2 [0, 1, 1, 1, 1, 0, 0, 1,")
    assert len(result.detail.split(",")) == 79


# ------------------------------------------------------------- rueppel

RUEPPEL_SMALL = dict(profile_n=256, matrix_n=64, closed_n=129, gamma_n=128)


def test_verify_rueppel_builds_no_poly(monkeypatch):
    def no_poly(self, *args):
        raise AssertionError("verify_rueppel built a Poly")

    monkeypatch.setattr("lcprof.poly.Poly.__init__", no_poly)
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert result.ok, result.detail
    assert result.checked == 256 + 63 + 2 * 64 + 128 + 10


def test_verify_rueppel_computes_each_member_once(monkeypatch):
    # the sweeps ask for consecutive members, most of them more than once;
    # every member gamma_packed computes, and the member list, pass the
    # index guard once
    calls = []
    real = rueppel._check_gamma_index
    monkeypatch.setattr(rueppel, "_check_gamma_index", lambda k: calls.append(k) or real(k))
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert result.ok, result.detail
    # the member list (up to 192) is built first; the closed forms up to
    # n = 129 read members 0..66, and the column check up to k = 10
    # members 1021..1023
    members = calls[1:]
    assert calls[0] == 192 and len(members) == len(set(members))
    assert set(range(67)) | {1021, 1022, 1023} <= set(members)


@pytest.mark.parametrize("step,checked,detail", [
    (9, 256 + 8, "matrix pattern at n=9"),
    (10, 256 + 9, "matrix pattern at n=10"),
    (101, 256 + 63 + 2 * 49 + 1, "closed form at n=101"),
])
def test_verify_rueppel_reports_a_flipped_row(monkeypatch, step, checked, detail):
    class FlipCore(engine._PackedCore):
        """Flips the constant term of [mu] after one step."""

        def rows(self):
            mu, mu_part, *prev = super().rows()
            return (mu, mu_part ^ (self.j == step), *prev)

    monkeypatch.setattr(verify_mod, "_make_core", lambda dom, config: FlipCore())
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert (result.ok, result.checked, result.detail) == (False, checked, detail)


def test_verify_rueppel_reports_a_broken_even_repeat(monkeypatch):
    # past matrix_n only the repeat check reads the rows after an even step
    class FlipCore(engine._PackedCore):
        def rows(self):
            mu, mu_part, *prev = super().rows()
            return (mu, mu_part ^ (self.j == 100), *prev)

    monkeypatch.setattr(verify_mod, "_make_core", lambda dom, config: FlipCore())
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert (result.ok, result.checked, result.detail) == (
        False, 256 + 63 + 2 * 49, "even repeat at n=100")


@pytest.mark.parametrize("name, bad, checked, detail", [
    ("gamma_identities", 5, 256 + 63 + 2 * 64 + 5, "gamma identities at 5"),
    # the top of the member list, gamma(128 + 64), is one of the samples
    ("gamma_packed", 192, 256 + 63 + 2 * 64,
     "gamma(192) by recurrence and by Lucas differ"),
    ("power_column_identity", 3, 256 + 63 + 2 * 64 + 128 + 3,
     "column closed form at k=3"),
])
def test_verify_rueppel_reports_a_false_identity(monkeypatch, name, bad,
                                                 checked, detail):
    real = getattr(verify_mod, name)
    monkeypatch.setattr(verify_mod, name,
                        lambda k, *rest: k != bad and real(k, *rest))
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert (result.ok, result.checked, result.detail) == (False, checked, detail)


@pytest.mark.parametrize("past", [
    dict(gamma_n=44),     # gamma(44 + 22)
    dict(closed_n=127),   # gamma(65)
    dict(matrix_n=129),   # U^64 reads gamma(65)
    dict(r0_k=7),         # U^126 reads gamma(127)
])
def test_verify_rueppel_guard_is_exact(monkeypatch, past):
    # With the gamma guard at 64, the sizes at the limit read gamma(64)
    # and pass; one size past it is refused before the engine runs.
    monkeypatch.setattr(rueppel, "GAMMA_GUARD", 64)
    limit = dict(profile_n=16, matrix_n=128, closed_n=126, gamma_n=43, r0_k=6)
    assert verify_mod.verify_rueppel(**limit).ok

    def no_work(*args, **kwargs):
        raise AssertionError("the rueppel suite started past the guard")

    monkeypatch.setattr(verify_mod, "_make_core", no_work)
    with pytest.raises(ResourceLimitError, match="guard"):
        verify_mod.verify_rueppel(**{**limit, **past})
    with pytest.raises(ResourceLimitError, match="column"):
        verify_mod.verify_rueppel(**{**limit, "r0_k": 17})


def test_verify_rueppel_refuses_its_terms_before_any_work(monkeypatch):
    # the terms guard is checked with the gamma and column guards, before
    # the member list, the core or the terms are built
    def no_work(*args, **kwargs):
        raise AssertionError("the rueppel suite started past the terms guard")

    for name in ("gamma_members", "_make_core", "rueppel_terms"):
        monkeypatch.setattr(verify_mod, name, no_work)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="terms exceed the guard"):
        verify_mod.verify_rueppel(profile_n=rueppel.RUEPPEL_GUARD + 1)
    assert time.perf_counter() - t0 < 1.0


# -------------------------------------------------------------- bezout

@pytest.mark.parametrize("field", [3, 5])
def test_verify_bezout_rechecks_a_nabla_changed_at_a_zero_step(monkeypatch, field):
    # The suite skips a step that leaves mu, mu' and nabla as they were;
    # a nabla raised at a zero-discrepancy step must still be caught there.
    tampered = []
    built = "_TernaryCore" if field == 3 else "_GenericCore"  # what _make_core builds

    class TamperCore(getattr(engine, built)):
        def step(self, sj):
            delta = super().step(sj)
            if delta == 0 and self.cur_lc() > 0 and not tampered:
                self.nabla += 1
                tampered.append(self.j)
            return delta

    monkeypatch.setattr(engine, built, TamperCore)
    result = verify_mod.verify_bezout(field=field, trials=50, max_n=32)
    assert tampered and not result.ok
    assert result.detail.endswith(f" step {tampered[0]}")


def test_verify_bezout_rechecks_a_carried_part_changed_at_a_zero_step(monkeypatch):
    # The packed F_2 core carries [mu] itself: a part flipped at a
    # zero-discrepancy step, with mu, mu' and nabla unchanged, must fail there.
    tampered = []

    class TamperCore(engine._PackedCore):
        def step(self, sj):
            delta = super().step(sj)
            if delta == 0 and self.cur_lc() > 0 and not tampered:
                self.mu_part ^= 1
                tampered.append(self.j)
            return delta

    monkeypatch.setattr(engine, "_PackedCore", TamperCore)  # what _make_core builds
    result = verify_mod.verify_bezout(field=2, trials=50, max_n=32)
    assert tampered and not result.ok
    assert result.detail.endswith(f" step {tampered[0]}")


def test_verify_bezout_counts_the_steps_it_skips(monkeypatch):
    calls = []
    real = verify_mod._bezout_ok
    monkeypatch.setattr(verify_mod, "_bezout_ok",
                        lambda core: calls.append(core.j) or real(core))
    result = verify_mod.verify_bezout(field=3, trials=40, max_n=24)
    rng = random.Random(verify_mod.DEFAULT_SEED)
    steps = 0
    for _ in range(40):
        n = rng.randrange(1, 25)
        steps += n
        [rng.randrange(3) for _ in range(n)]
    assert result.ok and result.checked == steps
    assert 0 < len(calls) < steps


# ------------------------------------------------------------- plcp-count

def test_verify_plcp_count_reports_a_wrong_count(monkeypatch):
    real = verify_mod.plcp_count
    monkeypatch.setattr(verify_mod, "plcp_count",
                        lambda q, n: real(q, n) + ((q, n) == (3, 3)))
    result = verify_mod.verify_plcp_count(cases=((2, 3), (3, 4)))
    # every sequence of the counted lengths, up to and including F_3^3
    assert (result.ok, result.checked, result.detail) == (
        False, 2 + 4 + 8 + 3 + 9 + 27, "q=3 n=3: 12 != 13")


def test_verify_plcp_count_guards_every_case_before_any_census(monkeypatch):
    monkeypatch.setattr(analysis, "ENUM_GUARD", 1000)

    def census(q, n):
        raise AssertionError("a census started past the guard")

    monkeypatch.setattr(verify_mod, "enumerate_plcp", census)
    with pytest.raises(ResourceLimitError):
        verify_mod.verify_plcp_count(cases=((2, 3), (3, 6)))


def test_verify_plcp_count_default_cases():
    # every binary sequence of 1..14 terms and every ternary one of 1..8:
    # 2 + ... + 2^14 + 3 + ... + 3^8 checks
    result = verify_mod.verify_plcp_count()
    assert (result.ok, result.checked) == (True, 42606)


# ------------------------------------------------------------------ lcsum

LCSUM_SMALL = dict(sum_k=2, sum_l=2, trials=10)   # 4 * 2 partial sums


def test_lcsum_reports_a_sum_past_the_bound(monkeypatch):
    _nth_call_changed(monkeypatch, "lc_sum", 3, lambda r: (r[1] + 1, r[1]))
    result = verify_mod.verify_lcsum(**LCSUM_SMALL)
    assert (result.ok, result.checked, result.detail) == (
        False, 8 + 3, "F_5 [1, 2, 1, 0, 1, 1, 2, 2, 2, 4, 1, 0, 1]")


def test_lcsum_reports_the_three_ones(monkeypatch):
    # both worked examples count before either one runs
    real = verify_mod.lc_sum
    monkeypatch.setattr(verify_mod, "lc_sum",
                        lambda s: (0, 0) if s.terms == (1, 1, 1) else real(s))
    result = verify_mod.verify_lcsum(**LCSUM_SMALL)
    assert (result.ok, result.checked, result.detail) == (
        False, 8 + 10 + 2, "three ones")


def test_lcsum_reports_the_three_ones_then_zero(monkeypatch):
    _nth_call_changed(monkeypatch, "mp_run", 1, lambda r: (
        r[0], dataclasses.replace(r[1], lc=[*r[1].lc[:-1], 2])))
    result = verify_mod.verify_lcsum(**LCSUM_SMALL)
    assert (result.ok, result.checked, result.detail) == (
        False, 8 + 10 + 2, "three ones then zero")
