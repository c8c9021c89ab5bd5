"""Verification sweeps: executable checks of the structural identities.

Each suite scans a slice of input space (exhaustive or seeded-random),
stops at the first counterexample, and reports what it checked.  The
sweeps are what the CLI's ``verify`` command runs; the acceptance tests
call them with pinned parameters.

Exhaustive binary sweeps can shard across processes; set the
LCPROF_THREADS environment variable (the CLI forwards it) to use more
than one worker.  The pool never gets more workers than there are CPUs
or shards.  Results are aggregated in shard order, so the reported
counterexample is deterministic.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest

from . import gf2
from .analysis import (
    cf_partial_quotients,
    char_equivalence,
    enumerate_plcp,
    height,
    is_plcp,
    is_stable,
    lc_sum,
    plcp_count,
    plcp_witnesses,
    t_transform,
)
from .engine import (
    _GenericCore,
    _PackedCore,
    annihilates,
    brute_force_minpoly,
    mp_run,
)
from .fields import GF2, PrimeField
from .poly import Seq, gcd_coeffs, mul_coeffs
from .rueppel import (
    gamma_identities,
    power_column_identity,
    rueppel_mp,
    rueppel_matrix_check,
    rueppel_terms,
)

DEFAULT_SEED = 0x5EED


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


def _fail(suite, checked, detail):
    return VerifyResult(suite, False, checked, detail)


def _bits_to_terms(value: int, n: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(n))


def _pool_size(threads: int, shards: int) -> int:
    """Worker processes for a sweep: never more than the CPUs or the shards."""
    return max(1, min(threads, os.cpu_count() or 1, shards))


def _sweep(shard_fn, n: int, threads: int) -> list[tuple[int, str]]:
    """shard_fn's (count, detail) for each shard of the length-n sweep, in order."""
    count = max(1, min(threads, 1 << n))
    shards = [(n, i, count) for i in range(count)]
    workers = _pool_size(threads, count)
    if workers == 1:
        return [shard_fn(sh) for sh in shards]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(shard_fn, shards))


# ---------------------------------------------------------------- oracle

def verify_oracle(fields=(2, 3, 5), exhaustive_n: int = 10,
                  trials: int = 500, max_n: int = 8,
                  seed: int = DEFAULT_SEED) -> VerifyResult:
    """Engine degree == brute-force least degree, and the output annihilates."""
    checked = 0
    if 2 in fields:
        for n in range(1, exhaustive_n + 1):
            for v in range(1 << n):
                s = Seq(GF2, _bits_to_terms(v, n))
                _, rep = mp_run(s)
                d, _ = brute_force_minpoly(s)
                checked += 1
                deg = rep.minpoly.degree
                if (int(deg) if deg >= 0 else 0) != d or not annihilates(rep.minpoly, s):
                    return _fail("oracle", checked, f"F_2 {list(s.terms)}")
    rng = random.Random(seed)
    for q in fields:
        if q == 2:
            continue
        dom = PrimeField(q)
        for _ in range(trials):
            n = rng.randrange(1, max_n + 1)
            s = Seq(dom, [rng.randrange(q) for _ in range(n)])
            _, rep = mp_run(s)
            d, _ = brute_force_minpoly(s)
            checked += 1
            deg = rep.minpoly.degree
            if (int(deg) if deg >= 0 else 0) != d or not annihilates(rep.minpoly, s):
                return _fail("oracle", checked, f"F_{q} {list(s.terms)}")
    return VerifyResult("oracle", True, checked)


# ---------------------------------------------------------------- bezout

def _bezout_step_ok_packed(core) -> bool:
    mu, mu_part, mup, mup_part = core.packed_rows()
    if gf2.mul(mu, mup_part) ^ gf2.mul(mu_part, mup) != 1:
        return False
    return gf2.gcd(mu, mu_part) == 1 and gf2.gcd(mu, mup) == 1


def _bezout_step_ok_generic(core) -> bool:
    p = core.p
    mu, mu_part, mup, mup_part = core.pairs()
    det = [(x - y) % p for x, y in zip_longest(
        mul_coeffs(mu, mup_part), mul_coeffs(mu_part, mup), fillvalue=0)]
    if det[:1] != [-core.nabla % p] or any(det[1:]):
        return False
    return (len(gcd_coeffs(mu, mu_part, p)) == 1
            and len(gcd_coeffs(mu, mup, p)) == 1)


def verify_bezout(field: int = 3, trials: int = 1000, max_n: int = 32,
                  seed: int = DEFAULT_SEED, epsilon: int = 0) -> VerifyResult:
    """det M = -nabla and both gcd certificates, at every step."""
    dom = PrimeField(field)
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        n = rng.randrange(1, max_n + 1)
        terms = [rng.randrange(field) for _ in range(n)]
        if field == 2:
            core = _PackedCore(epsilon, keep_log=False)
            ok_fn = _bezout_step_ok_packed
        else:
            core = _GenericCore(dom, epsilon, keep_log=False)
            ok_fn = _bezout_step_ok_generic
        for j, t in enumerate(terms, start=1):
            core.step(t)
            checked += 1
            if not ok_fn(core):
                return _fail("bezout", checked, f"F_{field} {terms} step {j}")
    return VerifyResult("bezout", True, checked)


# ----------------------------------------------------------- wang-massey

def _wm_shard(args) -> tuple[int, str]:
    n, idx, step = args
    for v in range(idx, 1 << n, step):
        s = Seq(GF2, _bits_to_terms(v, n))
        plcp = is_plcp(s)
        stable = is_stable(s)
        if plcp != stable:
            return 0, f"n={n} {list(s.terms)} plcp={plcp} stable={stable}"
        t = t_transform(s)
        if stable != all(t[j] == 0 for j in range(0, n + 1, 2)):
            return 0, f"n={n} {list(s.terms)} transform criterion"
    return len(range(idx, 1 << n, step)), ""


def verify_wang_massey(max_n: int = 15, threads: int = 1) -> VerifyResult:
    """PLCP <=> stability <=> even transform coefficients vanish (odd n)."""
    checked = 0
    for n in range(1, max_n + 1, 2):
        for cnt, detail in _sweep(_wm_shard, n, threads):
            if detail:
                return _fail("wang-massey", checked, detail)
            checked += cnt
    return VerifyResult("wang-massey", True, checked)


# ------------------------------------------------------------- plcp

def verify_plcp_count(cases=((2, 14), (3, 8))) -> VerifyResult:
    """Exhaustive census equals the closed-form count."""
    checked = 0
    for q, top in cases:
        for n in range(1, top + 1):
            census = sum(1 for _ in enumerate_plcp(q, n))
            checked += q**n
            if census != plcp_count(q, n):
                return _fail(
                    "plcp-count", checked,
                    f"q={q} n={n}: {census} != {plcp_count(q, n)}"
                )
    return VerifyResult("plcp-count", True, checked)


def _equiv_shard(args) -> tuple[int, str]:
    n, idx, step = args
    for v in range(idx, 1 << n, step):
        s = Seq(GF2, _bits_to_terms(v, n))
        w = plcp_witnesses(s)
        if not w.agree():
            return 0, f"n={n} {list(s.terms)} {w.all()}"
        c = char_equivalence(s)
        if len(set(c)) != 1 or c[0] != w.holds_lc:
            return 0, f"n={n} {list(s.terms)} char {c}"
        sigma, bound = lc_sum(s)
        if sigma > bound:
            return 0, f"n={n} {list(s.terms)} sum {sigma} > {bound}"
    return len(range(idx, 1 << n, step)), ""


def verify_plcp_equivalence(max_n: int = 12, threads: int = 1) -> VerifyResult:
    """Six witnesses agree; the three sum characterizations agree; sums bounded."""
    checked = 0
    for n in range(0, max_n + 1):
        for cnt, detail in _sweep(_equiv_shard, n, threads):
            if detail:
                return _fail("plcp-equiv", checked, detail)
            checked += cnt
    return VerifyResult("plcp-equiv", True, checked)


# ------------------------------------------------------------- rueppel

def verify_rueppel(profile_n: int = 4096, matrix_n: int = 512,
                   closed_n: int = 1025, gamma_n: int = 1024,
                   r0_k: int = 10) -> VerifyResult:
    """Closed forms of the power-of-two sequence against the engine."""
    checked = 0
    _, rep = mp_run(rueppel_terms(profile_n))
    for j in range(1, profile_n + 1):
        checked += 1
        if rep.lc[j - 1] != (j + 1) // 2:
            return _fail("rueppel", checked, f"LC_{j} = {rep.lc[j - 1]}")
        if rep.exponents[j] not in (0, 1):
            return _fail("rueppel", checked, f"e_{j} = {rep.exponents[j]}")
    for n in range(2, matrix_n + 1):
        checked += 1
        if not rueppel_matrix_check(n):
            return _fail("rueppel", checked, f"matrix pattern at n={n}")
    for n in range(3, closed_n + 1, 2):
        matrix, _ = mp_run(rueppel_terms(n))
        checked += 1
        if (matrix.a, matrix.b) != rueppel_mp(n):
            return _fail("rueppel", checked, f"closed form at n={n}")
        even, _ = mp_run(rueppel_terms(n + 1))
        checked += 1
        if (even.a, even.b) != (matrix.a, matrix.b):
            return _fail("rueppel", checked, f"even repeat at n={n + 1}")
    for k in range(1, gamma_n + 1):
        checked += 1
        if not gamma_identities(k, k // 2):
            return _fail("rueppel", checked, f"gamma identities at {k}")
    for k in range(1, r0_k + 1):
        checked += 1
        if not power_column_identity(k):
            return _fail("rueppel", checked, f"column closed form at k={k}")
    return VerifyResult("rueppel", True, checked)


# ------------------------------------------------------------- height

def _height_shard(args) -> tuple[int, str]:
    n, idx, step = args
    for v in range(idx, 1 << n, step):
        s = Seq(GF2, _bits_to_terms(v, n))
        if (height(s).height == 1) != is_plcp(s):
            return 0, f"n={n} {list(s.terms)}"
    return len(range(idx, 1 << n, step)), ""


def verify_height(rueppel_n: int = 512, exhaustive_n: int = 14,
                  bound_trials: int = 1000, cf_trials: int = 200,
                  seed: int = DEFAULT_SEED, threads: int = 1) -> VerifyResult:
    """Height bounds, the height-1 characterization, and the CF oracle."""
    checked = 0
    hr = height(rueppel_terms(rueppel_n))
    checked += 1
    if hr.height != 1:
        return _fail("height", checked, f"power-of-two height {hr.height}")
    for n in range(1, exhaustive_n + 1):
        for cnt, detail in _sweep(_height_shard, n, threads):
            if detail:
                return _fail("height", checked, detail)
            checked += cnt
    rng = random.Random(seed)
    for _ in range(bound_trials):
        q = rng.choice((2, 3))
        dom = PrimeField(q)
        n = rng.randrange(1, 129)
        s = Seq(dom, [rng.randrange(q) for _ in range(n)])
        h = height(s)
        checked += 1
        if not all(h.height >= e >= 1 - h.height for e in h.exponents[1:]):
            return _fail("height", checked, f"bounds F_{q} {list(s.terms)}")
    for _ in range(cf_trials):
        for q in (2, 3):
            dom = PrimeField(q)
            terms = [rng.randrange(q) for _ in range(64)]
            terms[0] = rng.randrange(1, q)
            s = Seq(dom, terms)
            _, rep = mp_run(s)
            jexp = rep.jump_exponents
            quots = cf_partial_quotients(s)
            checked += 1
            if len(quots) < len(jexp):
                return _fail("height", checked, f"cf too short F_{q} {terms}")
            degs = [int(q_.degree) for q_ in quots[: len(jexp)]]
            if degs != jexp:
                return _fail("height", checked,
                             f"cf degrees {degs} != jumps {jexp} F_{q} {terms}")
            if jexp and max(jexp) != max(degs):
                return _fail("height", checked, f"cf max mismatch F_{q} {terms}")
    return VerifyResult("height", True, checked)


# ------------------------------------------------------------- lc sum

def verify_lcsum(max_n: int = 12, sum_k: int = 20, sum_l: int = 20,
                 trials: int = 500, seed: int = DEFAULT_SEED) -> VerifyResult:
    """Sum bound, closed partial sum, and the worked three-term examples."""
    checked = 0
    for k in range(-1, sum_k + 1):
        for l in range(1, sum_l + 1):
            direct = sum((i + 1) // 2 for i in range(k + 1, k + 2 * l + 1))
            checked += 1
            if direct != l * l + (k + 1) * l:
                return _fail("lcsum", checked, f"partial sum k={k} l={l}")
    rng = random.Random(seed)
    for _ in range(trials):
        q = rng.choice((2, 3, 5))
        dom = PrimeField(q)
        n = rng.randrange(1, 65)
        s = Seq(dom, [rng.randrange(q) for _ in range(n)])
        sigma, bound = lc_sum(s)
        checked += 1
        if sigma > bound:
            return _fail("lcsum", checked, f"F_{q} {list(s.terms)}")
    geo = Seq(GF2, (1, 1, 1))
    ext = Seq(GF2, (1, 1, 1, 0))
    checked += 2
    if lc_sum(geo) != (3, 4):
        return _fail("lcsum", checked, "three ones")
    _, rep = mp_run(ext)
    if lc_sum(ext) != (6, 6) or rep.lc[-1] != 3 or str(rep.minpoly) != "x^3+x^2+1":
        return _fail("lcsum", checked, "three ones then zero")
    return VerifyResult("lcsum", True, checked)
