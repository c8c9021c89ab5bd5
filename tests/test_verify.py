"""Prefix-tree sweeps: per-node verdicts, counterexample order, sharding."""

from itertools import product

import pytest

from lcprof import analysis
from lcprof import verify as verify_mod
from lcprof.analysis import (
    char_equivalence,
    height,
    is_plcp,
    lc_sum,
    plcp_witnesses,
    t_transform,
)
from lcprof.fields import GF2


def test_walk_verdicts_match_public_functions():
    core = verify_mod._PackedCore(keep_log=False)
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


def _scan_wang_massey(max_n):
    """The length-by-length scan the tree sweep must agree with."""
    checked = 0
    for n in range(1, max_n + 1, 2):
        for v in range(1 << n):
            s = GF2.seq(verify_mod._bits_to_terms(v, n))
            plcp, stable = is_plcp(s), verify_mod.is_stable(s)
            if plcp != stable:
                return checked, f"n={n} {list(s.terms)} plcp={plcp} stable={stable}"
            t = t_transform(s)
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


class _InlinePool:
    """Stands in for the process pool: maps in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sharded_counterexample_matches_serial(monkeypatch):
    _fault_stability(monkeypatch)
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
    serial = verify_mod.verify_wang_massey(max_n=7)
    for threads in (2, 3, 4):
        assert verify_mod.verify_wang_massey(max_n=7, threads=threads) == serial
    monkeypatch.undo()
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
    for max_n in (0, 1, 2, 5):
        assert (verify_mod.verify_plcp_equivalence(max_n=max_n, threads=4)
                == verify_mod.verify_plcp_equivalence(max_n=max_n))


def test_shard_merge():
    least = verify_mod._least_failure
    assert least([]) is None
    assert least([None, None]) is None
    found = [None, (5, 9, "b"), (3, 6, "a"), None, (3, 2, "c"), (7, 0, "d")]
    assert least(found) == (3, 2, "c")
    assert least(reversed(found)) == (3, 2, "c")
    top = ([1, 2, 0, 0], None)
    left = ([0, 0, 2, 4], (3, 6, "a"))
    right = ([0, 0, 2, 4], (3, 1, "b"))
    assert verify_mod._merge([top]) == ([1, 2, 0, 0], None)
    for shards in ([top, left, right], [right, left, top]):
        assert verify_mod._merge(shards) == ([1, 2, 4, 8], (3, 1, "b"))


# ------------------------------------------------------------- rueppel

RUEPPEL_SMALL = dict(profile_n=256, matrix_n=64, closed_n=129, gamma_n=128)


def test_verify_rueppel_builds_no_poly(monkeypatch):
    def no_poly(self, *args):
        raise AssertionError("verify_rueppel built a Poly")

    monkeypatch.setattr("lcprof.poly.Poly.__init__", no_poly)
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert result.ok, result.detail
    assert result.checked == 256 + 63 + 2 * 64 + 128 + 10


@pytest.mark.parametrize("step,checked,detail", [
    (9, 256 + 8, "matrix pattern at n=9"),
    (10, 256 + 9, "matrix pattern at n=10"),
    (101, 256 + 63 + 2 * 49 + 1, "closed form at n=101"),
])
def test_verify_rueppel_reports_a_flipped_row(monkeypatch, step, checked, detail):
    class FlipCore(verify_mod._PackedCore):
        """Flips the constant term of [mu] after one step."""

        def packed_rows(self):
            mu, mu_part, *prev = super().packed_rows()
            return (mu, mu_part ^ (self.j == step), *prev)

    monkeypatch.setattr(verify_mod, "_PackedCore", FlipCore)
    result = verify_mod.verify_rueppel(**RUEPPEL_SMALL)
    assert (result.ok, result.checked, result.detail) == (False, checked, detail)
