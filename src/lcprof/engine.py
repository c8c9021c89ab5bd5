"""Incremental minimal-polynomial engine.

The engine consumes a sequence term by term and maintains the pair rows
of a 2x2 polynomial matrix

    M = [ mu   [mu]  ]        mu  : current minimal polynomial
        [ mu'  [mu'] ]        mu' : the one displaced at the last jump

together with the exponent e = j + 1 - 2*deg(mu), the discrepancy
delta' recorded at the last jump, and the running product nabla of jump
discrepancies.  One step computes the new discrepancy delta and, when it
is nonzero, replaces the top row by a cross-combination of the two rows;
the recursion is division-free, so it runs unchanged over the integers.
A core keeps no log: step returns delta_j, the driver of a run collects
the discrepancies (_consume returns them), and the profile is derived
from them alone after the run, by one generator (_exponents): e_0 = 1,
e_j = e_{j-1} + 1, negated first when delta_j != 0 and e_{j-1} > 0, and
LC_j = (j + 1 - e_j)/2 (_lcs).  _profile lists both; profile_json, the
CLI's JSON report, hands both on as iterators, so its writer draws lc
and exponents as they are derived and never holds either list.  Only
_exponents tests a discrepancy for zero; a jump is then read off the
exponents as a step with e_j != e_{j-1} + 1 (_lcs, _jumps).  MPState
carries its chain's discrepancies only, and reads the shift p_shift
(steps since the last jump) off the core's degrees and e.

Seeding follows the fixed initial matrix [[1, 0], [eps, -1]] with
delta_0 = 1 and e_0 = 1; the -1 entry is what makes the second column
the polynomial part of the first: once the first jump has happened,
[f] = (f * s)_+ over the consumed prefix for both rows.  The generic
core therefore carries only the first column and derives the second on
request (poly.part_coeffs, one Kronecker product per row), and so does
the bit-sliced F_3 core (one plane product per row); the packed F_2 core
carries both, since there a column update is one shift and XOR.

Determinant convention: det M = -nabla at every step (the identity
mu*[mu'] - [mu]*mu' = -nabla is a Bezout certificate, forcing
gcd(mu, [mu]) = gcd(mu, mu') = 1 over a field).

Three cores behave identically, each on one row representation whose
ring it names (core.ring: gf2, gf3 or poly.ListRing(p), with the same
functions): for p = 2 the polynomials and the consumed prefix are ints,
one bit per coefficient (_PackedCore); for p = 3 two bit planes each
(_TernaryCore), since every unit of F_3 is +-1; elsewhere, and under
force_generic, coefficient lists (_GenericCore).  Each returns its
native rows mu, [mu], mu', [mu'] from rows(), so what reads rows
(_bezout_ok, _poly_rows, the table) is one body over core.ring; the
step loops stay one per core.  The rows stay canonical, reduced and
trimmed, at every step: cur_lc reads mu's length, and _bezout_ok,
verify_bezout's skip and profile_text_rows compare rows.  A core is the
only holder of engine state: MPState is a read-only view over one, and
mp_step resumes a copy of it.  The profile table needs only text, so
profile_text_rows renders it from the core's own rows without Poly rows:
over p = 2, 3, 5, 7 and 11 from one per-call table of the texts of
groups of adjacent terms (_term_table_text), whose pattern of
coefficients one lookup reads, three at a time over F_2 and two over F_3.

This module alone builds and steps cores.  _make_core is the one
factory, and three drivers step them: _run for a whole run, _each_step
for a run whose caller reads the core after every step, and
_walk_prefixes for the prefix tree; mp_step takes one step.  Elsewhere
only analysis.deltas_to_sequence steps a core: its two trial steps a
term choose that term.

_run serves the runs that read no per-step rows (mp_run, profile_json,
the CLI's minpoly, and the profile behind height, lc_sum and
char_equivalence) through _consume.  On a generic core over F_p
(p >= 5 unless forced: the F_2 and F_3 cores step term by term, which
beats a block there) without per-step normalization it steps term by
term until deg mu >= _BLOCK_MIN_DEG and then advances through all the
remaining terms in one block.  A block is the product of its jump
matrices, the transition (A, B; C, D) with mu = A mu0 + B mu0'
(Berlekamp-Massey read as Euclid, as in Dornstetter 1987), and it is
computed recursively, as the half-gcd of Brent-Gustavson-Yun 1980: a
leaf of up to _LEAF steps carries the transition by the same update rule
on the interleaved rows (A, B) and (C, D), one vector-coefficient
polynomial each (Thome 2002), with each discrepancy one dot product with
the interleaved correlation windows of its base rows; a longer run
steps its first half, derives the second half's windows from the first
half's transition (a middle product), steps the second half, and
composes the two transitions.  The block applies its own two halves'
transitions to mu and mu' by Kronecker products.  poly.product_slice
sizes its Kronecker slots to the sums, at any p.  The core the block
leaves equals the per-step core slot for slot, and the discrepancies it
returns are the per-step ones.  Every other run steps term by term.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import gf2, gf3
from .errors import ResourceLimitError, UnsupportedDomainError
from .fields import CoeffDomain, PrimeField
from .poly import (
    _BYTE_RESIDUES,
    ListRing,
    Poly,
    Seq,
    _trim,
    _window_sum,
    coeffs_to_text,
    part_coeffs,
    product_slice,
    reciprocal,
)

BRUTE_FORCE_GUARD = 10**7
# bits of nabla at which a run over the integers stops: the division-free
# recursion grows its coefficients exponentially there (nabla has about
# 10^5 bits after 24 random digits), and a run reaches this well within 1 s
ZZ_NABLA_BITS = 2**18
# the degree of mu at which _consume's block starts (below it, the block
# costs more than it saves), and the steps of its leaves (_GenericCore._leaf):
# 32, or 64 where ring.lin runs in one-byte slots (ListRing.residues), whose
# row updates stay cheap for longer
_BLOCK_MIN_DEG = 64
_LEAF = (32, 64)
# how far past the read that ran out a window refill reaches
_REFILL = 8


@dataclass(frozen=True)
class MPConfig:
    """Engine options.

    epsilon seeds the displaced row (it changes the mu' lineage but not
    the degree of the returned minimal polynomial).
    normalize_each_step (field domains only) divides the fresh row mu at
    every step with a nonzero discrepancy by the factor that step
    multiplies nabla by: delta' when the step does not jump, delta when
    it does.  The result agrees with the plain run up to a scalar.  For
    a monic minimal polynomial, call .monic() on the report's minpoly.
    """

    epsilon: int = 0
    normalize_each_step: bool = False


class StepRecord(NamedTuple):
    j: int
    delta: int
    e_prev: int
    lc: int
    jumped: bool


class ProfileRow(NamedTuple):
    """Snapshot of the state after step j (row j=0 is the seed)."""

    j: int
    delta: int
    e: int
    lc: int
    mu: Poly
    mu_part: Poly
    mu_prev: Poly
    mu_prev_part: Poly


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over D[x]."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    @classmethod
    def identity(cls, domain: CoeffDomain) -> "Mat2":
        one = Poly(domain, (1,))
        zero = Poly(domain, ())
        return cls(one, zero, zero, one)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def text_rows(self) -> list[list[str]]:
        return [[str(self.a), str(self.b)], [str(self.c), str(self.d)]]

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def updating_matrix(domain: CoeffDomain, delta: int, delta_prime: int, e: int) -> Mat2:
    """The jump matrix U; det U = delta if e > 0 else delta_prime."""
    if domain.is_zero(delta):
        raise ValueError("no update matrix for delta = 0 (identity step)")
    theta = 1 if e > 0 else 0
    return Mat2(
        Poly(domain, (delta_prime,)).shift(max(e, 0)),
        Poly(domain, (domain.neg(delta),)).shift(-min(e, 0)),
        Poly(domain, (theta,)),
        Poly(domain, (1 - theta,)),
    )


def _derived_rows(core):
    """rows() of the generic and the F_3 cores, which carry only mu and mu'.

    [f] is the polynomial part of f over the consumed prefix (core._part),
    looked up first in a memo keyed by row identity (core.parts, shared
    by copies).  A step never edits a row and a jump hands the old mu to
    mu', so each row is derived once; the constructor seeds the memo with
    the seed rows (1, 0) and (eps, -1), so neither is ever derived.
    """
    mu, mup = core.mu, core.mup
    parts = []
    for row in (mu, mup):
        for known in core.parts:
            if known[0] is row:
                break
        else:
            known = row, core._part(row)
        parts.append(known)
    core.parts = tuple(parts)
    return mu, parts[0][1], mup, parts[1][1]


class _GenericCore:
    """Dense coefficient-list engine over any coefficient domain.

    Carries mu and mu' only; rows() derives the polynomial parts.  Its
    ring is poly.ListRing(p), whose lin runs in one-byte Kronecker slots
    over the small fields.
    """

    __slots__ = (
        "dom",
        "p",
        "normalize",
        "j",
        "s",
        "mu",
        "mup",
        "e",
        "dprime",
        "nabla",
        "parts",
        "ring",
    )

    def __init__(self, domain: CoeffDomain, epsilon: int = 0, *,
                 normalize_each_step: bool = False):
        if normalize_each_step and not domain.is_field:
            raise UnsupportedDomainError("per-step normalization needs a field")
        self.dom = domain
        self.p = domain.p
        self.normalize = normalize_each_step
        self.j = 0
        self.s: list[int] = []
        eps = domain.normalize(epsilon)
        self.mu = [1]
        self.mup = [eps] if eps else []
        self.e = 1
        self.dprime = 1
        self.nabla = 1
        self.parts = ((self.mu, []), (self.mup, [self.p - 1]))  # p - 1 is -1 over ZZ too
        self.ring = ListRing(self.p)

    def step(self, sj: int) -> int:
        s = self.s
        s.append(sj)
        self.j = j = self.j + 1
        mu = self.mu
        d = len(mu) - 1
        base = j - 1 - d
        acc = sum(map(operator.mul, mu, s[base:] if base else s))
        delta = acc % self.p if self.p else acc
        e = self.e
        if not self.dom.is_zero(delta):
            if e <= 0:
                nmu = self.ring.lin(self.dprime, mu, 0, delta, self.mup, -e)
                factor = self.dprime
            else:
                nmu = self.ring.lin(self.dprime, mu, e, delta, self.mup, 0)
                self.mup = mu
                self.dprime = factor = delta
                self.e = e = -e
            self.nabla = self.nabla * factor
            if self.normalize:
                # scaling only the fresh row keeps the recursion consistent:
                # the stored delta' belongs to the unscaled displaced row
                inv = self.dom.inv(factor)
                p = self.p
                nmu = [(v * inv) % p for v in nmu]
            self.mu = nmu
        if self.p:
            self.nabla %= self.p
        elif self.nabla.bit_length() > ZZ_NABLA_BITS:
            raise ResourceLimitError(
                f"nabla passed {ZZ_NABLA_BITS} bits at step {j} of a run over "
                f"the integers, whose coefficients grow exponentially")
        self.e = e + 1
        return delta

    def _block(self, terms, deltas: list[int]) -> None:
        """Advance len(terms) steps at once, as step would one at a time.

        From the rows mu0, mu0' at the start, a run of steps is one
        transition, mu = A mu0 + B mu0' and mu' = C mu0 + D mu0', carried
        as the interleaved rows AB (AB[2i] = A_i, AB[2i+1] = B_i) and CD
        (_leaf).  Step j's discrepancy is sum_t AB[t] W[2(j-d)+t] (d = deg
        mu = (j - e)/2) over the interleaved correlation windows of the
        run's base rows (_Windows); terms past the block count as zero,
        since the coefficients that reach them cancel above deg mu.  The
        block runs its two halves (_steps) and applies their transitions
        to the rows in turn, one product a row each: cheaper than
        composing them first, whose rows are as long as the block.  Every
        value is reduced mod p, so all slots are equal to step's;
        product_slice sizes its own Kronecker slots.  The block's
        discrepancies are appended to deltas.
        """
        p, s, j0 = self.p, self.s, self.j
        d0 = len(self.mu) - 1
        s.extend(terms)
        end = j0 + len(terms)
        leaf = _LEAF[self.ring.residues is not None]
        # j - deg mu rises by one a step, and after a jump it is the old
        # degree plus one, so no step of the block reads below lo
        win = _Windows(((self.mu,), (self.mup,)), s, min(j0 + 1 - d0, d0 + 1), end - d0, p)
        m = end - j0
        stops = (j0 + m // 2, end) if m > leaf else (end,)
        for stop in stops:
            AB, CD = self._steps(win, stop, deltas, leaf)
            if stop < end:
                win = self._derive(win, AB, CD, end)
            mu, mup = self.mu, self.mup
            if AB != [1]:  # a nonzero step
                self.mu = _times_rows(AB, mu, mup, p)
            if CD != [0, 1]:  # a jump
                self.mup = _times_rows(CD, mu, mup, p)

    def _steps(self, win: "_Windows", end: int, deltas: list[int], leaf: int):
        """Steps self.j + 1..end over the windows win, and their transition.

        Returns the interleaved rows (A, B) and (C, D) relative to the rows
        at the start.  Up to leaf steps run one by one (_leaf).  More run
        as two halves, as in the half-gcd (Brent-Gustavson-Yun 1980): the
        first on win, the second on the windows the first half's
        transition derives from win (_derive); one product a row composes
        the two transitions.
        """
        m = end - self.j
        if m <= leaf:
            return self._leaf(win, end, deltas)
        AB1, CD1 = self._steps(win, self.j + m // 2, deltas, leaf)
        AB2, CD2 = self._steps(self._derive(win, AB1, CD1, end), end, deltas, leaf)
        # (X2, Y2) applied to the first half's rows: X2(x^2) AB1 + Y2(x^2) CD1,
        # with X2(x^2) the even entries of the interleaved row, odd ones zero
        out = []
        for xy in (AB2, CD2):
            x2, y2 = xy[:], xy[1:]
            x2[1::2] = [0] * (len(xy) // 2)
            y2[1::2] = [0] * (len(y2) // 2)
            out.append(_trim(product_slice(((x2, AB1), (y2, CD1)), self.p, 0,
                                           len(xy) + max(len(AB1), len(CD1)))))
        return out

    def _derive(self, win: "_Windows", AB, CD, end: int) -> "_Windows":
        """The windows of the rows that the transition (AB, CD) takes win's to.

        They serve steps self.j + 1..end, whose reads start at min(j + 1 -
        d, d + 1) (d = deg mu now, as at the top of _block) and end at
        end - d while no top terms cancel.
        """
        j = self.j
        d = (j + 1 - self.e) // 2
        rows = tuple((_trim(xy[0::2]), _trim(xy[1::2])) for xy in (AB, CD))
        return _Windows(rows, win, min(j + 1 - d, d + 1), end - d, self.p)

    def _leaf(self, win: "_Windows", end: int, deltas: list[int]):
        """Steps self.j + 1..end one by one on the transition rows (see _block)."""
        p, lin, lo, W = self.p, self.ring.lin, win.lo, win.W
        e, c1, nabla = self.e, self.dprime, self.nabla
        AB = [1]     # (A, B) = (1, 0)
        CD = [0, 1]  # (C, D) = (0, 1)
        for j in range(self.j + 1, end + 1):
            k = 2 * (j - (j - e) // 2 - lo)
            if k + len(AB) > len(W):
                # A or B grew past deg mu - deg mu0, through cancelling top
                # terms (common over small fields) or a run of zero terms
                W = win.cover(lo + (k + len(AB)) // 2 + _REFILL, p)
            delta = sum(map(operator.mul, AB, W[k:k + len(AB)])) % p
            if delta:  # step's update rule, on both transition columns
                if e <= 0:
                    AB = lin(c1, AB, 0, delta, CD, -2 * e)
                    nabla = nabla * c1 % p
                else:
                    AB, CD = lin(c1, AB, 2 * e, delta, CD, 0), AB
                    c1 = delta
                    nabla = nabla * delta % p
                    e = -e
            e += 1
            deltas.append(delta)
        self.j, self.e, self.dprime, self.nabla = end, e, c1, nabla
        return AB, CD

    def cur_lc(self) -> int:
        return len(self.mu) - 1

    rows = _derived_rows  # coefficient lists, shared with the core

    def _part(self, row):
        return part_coeffs(row, self.s, self.p)

    def terms(self) -> tuple[int, ...]:
        return tuple(self.s)

    def copy(self) -> "_GenericCore":
        # every slot by name (a loop over __slots__ costs three times as
        # much); a step replaces the rows but never edits them, so the copy
        # shares them and their derived parts; the consumed prefix grows
        # in place
        new = object.__new__(type(self))
        new.dom, new.p, new.normalize = self.dom, self.p, self.normalize
        new.j, new.s = self.j, self.s[:]
        new.mu, new.mup, new.e = self.mu, self.mup, self.e
        new.dprime, new.nabla = self.dprime, self.nabla
        new.parts, new.ring = self.parts, self.ring
        return new


def _times_rows(xy, f, g, p):
    """x f + y g for xy = (x, y) interleaved, canonical."""
    x, y = _trim(xy[0::2]), _trim(xy[1::2])
    return _trim(product_slice(((x, f), (y, g)), p, 0, len(f) + max(len(x), len(y))))


class _Windows:
    """The interleaved correlation windows of a block's two base rows.

    W[2i] = sum_m f_m s_{t+m} and W[2i+1] = sum_m g_m s_{t+m}, at t = lo + i
    for lo <= t <= hi, over the terms zero-padded past their end.  At the
    top of a block the rows are (f, g) = (mu0, mu0') and the source is the
    terms.  Below it they are f = A f0 + B g0 and g = C f0 + D g0 for the
    parent's rows (f0, g0) and a transition rows = ((A, B), (C, D)), so
    the source is the parent's windows W0, W1: W[2i] = sum_a A_a W0(t+a)
    + B_a W1(t+a), a middle product.  Either way a row is one
    product_slice of the reversed rows by the source's slices.  cover
    extends W in place, the parent's first when the slice passes its end.
    """

    __slots__ = ("rows", "source", "lo", "hi", "W")

    def __init__(self, rows, source, lo: int, hi: int, p: int):
        self.rows, self.source, self.lo = rows, source, lo
        self.hi, self.W = lo - 1, []
        self.cover(hi, p)

    def cover(self, hi: int, p: int) -> list[int]:
        """W extended to t = hi (if it ends below), returned."""
        lo, W = self.hi + 1, self.W
        if hi < lo:
            return W
        n = hi - lo + 1
        L = max(len(f) for row in self.rows for f in row)
        source = self.source
        if isinstance(source, _Windows):
            P = source.cover(hi + L - 1, p)
            u = P[2 * (lo - source.lo):2 * (hi + L - source.lo)]
            seqs = u[0::2], u[1::2]
        else:  # the terms s_1, s_2, ...
            u = source[lo - 1:hi + L - 1]
            seqs = u + [0] * (n + L - 1 - len(u)),
        new = [0] * (2 * n)
        for r, row in enumerate(self.rows):
            # coefficient L - 1 + i of rev(f) times the slice v is sum_a f_a v[i+a]
            pairs = [([0] * (L - len(f)) + f[::-1], v) for f, v in zip(row, seqs) if f]
            if pairs:
                new[r::2] = product_slice(pairs, p, L - 1, L - 1 + n)
        W += new
        self.hi = hi
        return W


class _PackedCore:
    """Bit-packed engine for F_2; semantics identical to _GenericCore."""

    __slots__ = ("j", "S", "mu", "mu_part", "mup", "mup_part", "e")

    dprime = 1
    nabla = 1
    ring = gf2

    def __init__(self, epsilon: int = 0):
        self.j = 0
        self.S = 0
        self.mu = 1
        self.mu_part = 0
        self.mup = epsilon & 1
        self.mup_part = 1
        self.e = 1

    def step(self, sj: int) -> int:
        self.j = j = self.j + 1
        if sj:
            self.S |= 1 << (j - 1)
        mu = self.mu
        d = mu.bit_length() - 1
        delta = (mu & (self.S >> (j - 1 - d))).bit_count() & 1
        e = self.e
        if delta:
            if e <= 0:
                sh = -e
                self.mu ^= self.mup << sh
                self.mu_part ^= self.mup_part << sh
            else:
                nmu = (mu << e) ^ self.mup
                npart = (self.mu_part << e) ^ self.mup_part
                self.mup, self.mup_part = mu, self.mu_part
                self.mu, self.mu_part = nmu, npart
                self.e = e = -e
        self.e = e + 1
        return delta

    def cur_lc(self) -> int:
        return self.mu.bit_length() - 1

    def rows(self) -> tuple[int, int, int, int]:
        """mu, [mu], mu', [mu'] as packed polynomials (see gf2)."""
        return self.mu, self.mu_part, self.mup, self.mup_part

    def terms(self) -> tuple[int, ...]:
        S = self.S
        return tuple(gf2.to_coeffs(S) + [0] * (self.j - S.bit_length()))

    def copy(self) -> "_PackedCore":
        # every slot by name: the prefix-tree walks copy once per node
        new = object.__new__(type(self))
        new.j, new.S, new.e = self.j, self.S, self.e
        new.mu, new.mu_part = self.mu, self.mu_part
        new.mup, new.mup_part = self.mup, self.mup_part
        return new


class _TernaryCore:
    """Bit-sliced engine for F_3 (see gf3); semantics identical to _GenericCore.

    The prefix is two planes, SP and SM (bit t set when s_{t+1} is 1, or
    2), and mu, mu' plane pairs: a discrepancy is two popcounts and a
    row update a plane sum.  It carries mu and mu' only.
    """

    __slots__ = ("normalize", "j", "SP", "SM", "mu", "mup", "e", "dprime",
                 "nabla", "parts")

    ring = gf3

    def __init__(self, epsilon: int, *, normalize_each_step: bool = False):
        self.normalize = normalize_each_step
        self.j = self.SP = self.SM = 0
        self.mu = gf3.one
        self.mup = gf3.scale(epsilon, gf3.one)
        self.e = self.dprime = self.nabla = 1
        self.parts = ((self.mu, (0, 0)), (self.mup, (0, 1)))

    def step(self, sj: int) -> int:
        self.j = j = self.j + 1
        if sj == 1:
            self.SP |= 1 << (j - 1)
        elif sj:
            self.SM |= 1 << (j - 1)
        mu = self.mu
        P, M = mu
        base = j - (P | M).bit_length()
        tP, tM = self.SP >> base, self.SM >> base
        # the planes are disjoint: a product of like signs is 1, else 2
        delta = (((P & tP) | (M & tM)).bit_count()
                 - ((P & tM) | (M & tP)).bit_count()) % 3
        e = self.e
        if delta:
            if e <= 0:
                nmu = gf3.lin(self.dprime, mu, 0, delta, self.mup, -e)
                factor = self.dprime
            else:
                nmu = gf3.lin(self.dprime, mu, e, delta, self.mup, 0)
                self.mup = mu
                self.dprime = factor = delta
                self.e = e = -e
            self.nabla = self.nabla * factor % 3
            if self.normalize and factor == 2:
                nmu = nmu[1], nmu[0]  # 2 is its own inverse
            self.mu = nmu
        self.e = e + 1
        return delta

    def cur_lc(self) -> int:
        return (self.mu[0] | self.mu[1]).bit_length() - 1

    rows = _derived_rows  # plane pairs

    def _part(self, row):
        # f times the reversed window s_d..s_1 (d = deg f), shifted down by
        # d, as in poly.part_coeffs
        d = gf3.degree(row)
        window = tuple(int(f"{S & ((1 << d) - 1):0{d}b}"[::-1], 2)
                       for S in (self.SP, self.SM))
        P, M = gf3.mul(row, window)
        return P >> d, M >> d

    def terms(self) -> tuple[int, ...]:
        return tuple(gf3.row_bytes((self.SP, self.SM), self.j)[::-1])

    def copy(self) -> "_TernaryCore":
        # every slot by name: the prefix-tree walks copy once per node
        new = object.__new__(type(self))
        new.normalize, new.j, new.SP, new.SM = self.normalize, self.j, self.SP, self.SM
        new.mu, new.mup, new.e = self.mu, self.mup, self.e
        new.dprime, new.nabla, new.parts = self.dprime, self.nabla, self.parts
        return new


def _make_core(domain: CoeffDomain, config: MPConfig, *, force_generic: bool = False):
    # over F_2 the only unit is 1, so normalize_each_step changes nothing;
    # over F_3 the units are +-1, so a scaling is a plane swap
    if domain.p == 2 and not force_generic:
        return _PackedCore(domain.normalize(config.epsilon))
    if domain.p == 3 and not force_generic:
        return _TernaryCore(domain.normalize(config.epsilon),
                            normalize_each_step=config.normalize_each_step)
    return _GenericCore(domain, config.epsilon,
                        normalize_each_step=config.normalize_each_step)


def _consume(core, terms) -> list[int]:
    """Step core through terms, in one block where that leaves the same core.

    Returns the discrepancies delta_1..delta_n.  A generic core over F_p
    (the packed F_2 and the bit-sliced F_3 cores are never blocked)
    without per-step normalization steps term by term until deg mu >=
    _BLOCK_MIN_DEG, then advances through all the remaining terms in one
    recursive block (_GenericCore._block).  Every slot of the core ends
    as step alone would leave it, but no per-step row exists in between,
    so only callers that read the core after the run use this.
    """
    if not (isinstance(core, _GenericCore) and core.p and not core.normalize):
        return list(map(core.step, terms))
    deltas: list[int] = []
    i, n = 0, len(terms)
    while i < n and len(core.mu) <= _BLOCK_MIN_DEG:
        deltas.append(core.step(terms[i]))
        i += 1
    if i < n:
        core._block(terms[i:], deltas)
    return deltas


def _run(domain: CoeffDomain, terms, config: MPConfig = MPConfig(), *,
         force_generic: bool = False):
    """A fresh core stepped through terms (_consume), and its deltas.

    The profile is the caller's to derive from the deltas: _profile for
    lists, _exponents for a stream.
    """
    core = _make_core(domain, config, force_generic=force_generic)
    return core, _consume(core, terms)


def _each_step(core, terms):
    """Step core through terms, yielding delta_j after step j; read core in between."""
    return map(core.step, terms)


def _walk_prefixes(core, q: int, max_n: int, fold, state):
    """Every prefix of at most max_n terms that extends the core's, depth first.

    Yields (terms, state) for the core's own prefix and then for each
    extension, in itertools.product order: a node before its children,
    children in term order 0..q-1.  The engine is online, so a child's
    core is a copy of its parent's stepped once, and fold(state, core,
    delta, j) gives the child's state from its parent's after step j; a
    fold that returns None cuts the child and its subtree.  The stack
    holds O(max_n * q) cores.  The walk steps the given core itself.
    """
    stack = [(core, state, core.terms())]
    while stack:
        core, state, terms = stack.pop()
        yield terms, state
        j = len(terms) + 1
        if j > max_n:
            continue
        children = []
        for t in range(q):
            # the last child takes over the parent's core: nothing reads it again
            child = core.copy() if t < q - 1 else core
            cstate = fold(state, child, child.step(t), j)
            if cstate is not None:
                children.append((child, cstate, terms + (t,)))
        stack.extend(reversed(children))


def _mu(domain: CoeffDomain, core) -> Poly:
    """The core's mu as a Poly, by ring.to_coeffs: no other row is converted."""
    return Poly(domain, core.ring.to_coeffs(core.mu))


def _poly_rows(domain: CoeffDomain, core) -> list[Poly]:
    """The core's native rows (core.rows()) as Poly values, by ring.to_coeffs."""
    to_coeffs = core.ring.to_coeffs
    return [Poly(domain, to_coeffs(r)) for r in core.rows()]


def _exponents(domain: CoeffDomain, deltas):
    """e_0..e_n from the discrepancies delta_1..delta_n, yielded as derived.

    The engine's exponent rule: e_0 = 1 and e_j = e_{j-1} + 1, negated
    first when delta_j != 0 and e_{j-1} > 0 (a jump), so the exponents
    are the ones its run went through.  It is the one derivation of the
    profile: _profile lists it, and the CLI's JSON report writes it (and
    _lcs of it) as it is drawn.
    """
    if not domain.p:
        # over F_p a delta is a residue, so truthiness is the zero test;
        # over the integers the domain's is_zero decides, as in step: a
        # domain may override it (the division-free lift tests zero mod q)
        deltas = [not domain.is_zero(d) for d in deltas]
    e = 1
    yield e
    for d in deltas:
        if d and e > 0:
            e = -e
        e += 1
        yield e


def _lcs(exponents):
    """LC_1..LC_n from e_0..e_n, yielded as drawn: LC_j = (j + 1 - e_j)/2.

    So a jump, the one step whose exponent is not e_{j-1} + 1, raises LC
    by e_{j-1}, and no other step changes it; LC is carried that way,
    so a step that keeps it yields the same int.
    """
    exponents = iter(exponents)
    L, prev = 0, next(exponents)
    for e in exponents:
        if e != prev + 1:
            L += prev
        prev = e
        yield L


def _profile(domain: CoeffDomain, deltas) -> tuple[list[int], list[int]]:
    """LC_1..LC_n and e_0..e_n from the discrepancies, as lists (_exponents)."""
    exps = list(_exponents(domain, deltas))
    return list(_lcs(exps)), exps


def _jumps(exponents) -> dict[int, int]:
    """{j: e_{j-1}} over the jump steps j of e_0..e_n: e_j != e_{j-1} + 1."""
    return {j: e for j, (e, nxt) in enumerate(itertools.pairwise(exponents), 1)
            if nxt != e + 1}


@dataclass(frozen=True, eq=False)
class MPState:
    """Read-only engine state after j consumed terms.

    A view over a private core: the rows are converted on access.  The
    state also carries its chain's discrepancies delta_1..delta_j,
    extended by one in mp_step; log derives the profile from them
    (_profile).  p_shift (the steps since the last jump, counting the
    jump step itself; j before any jump) reads the core.  mp_step steps
    a copy of the core, so a state never changes once made.
    """

    domain: CoeffDomain
    config: MPConfig
    _core: _GenericCore | _PackedCore | _TernaryCore
    _deltas: tuple[int, ...] = ()

    def __eq__(self, other):
        # the engine is deterministic: equal inputs give equal states
        return isinstance(other, MPState) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.domain, self.config, self.consumed

    @property
    def j(self) -> int:
        return self._core.j

    @property
    def consumed(self) -> tuple[int, ...]:
        return self._core.terms()

    @property
    def mu_bar(self) -> tuple[Poly, Poly]:
        return tuple(_poly_rows(self.domain, self._core)[:2])

    @property
    def mu_bar_prev(self) -> tuple[Poly, Poly]:
        return tuple(_poly_rows(self.domain, self._core)[2:])

    @property
    def e(self) -> int:
        return self._core.e

    @property
    def delta_prime(self) -> int:
        return self.domain.normalize(self._core.dprime)

    @property
    def nabla(self) -> int:
        return self.domain.normalize(self._core.nabla)

    @property
    def log(self) -> tuple[StepRecord, ...]:
        lc, exps = _profile(self.domain, self._deltas)
        return tuple(
            StepRecord(j, delta, exps[j - 1], c, exps[j] != exps[j - 1] + 1)
            for j, (delta, c) in enumerate(zip(self._deltas, lc), start=1)
        )

    @property
    def p_shift(self) -> int:
        # from the last jump J on, deg mu - deg mu' = e_{J-1} and
        # e_j = 1 - e_{J-1} + (j - J), so j - J + 1 = deg mu - deg mu' + e;
        # before the first jump deg mu = 0
        core = self._core
        lc = core.cur_lc()
        return lc - core.ring.degree(core.mup) + core.e if lc else core.j

    @property
    def lc(self) -> int:
        return self._core.cur_lc()

    def matrix(self) -> Mat2:
        return Mat2(*_poly_rows(self.domain, self._core))


def mp_init(domain: CoeffDomain, config: MPConfig = MPConfig()) -> MPState:
    """State at step 0: mu_bar = (1, 0), mu_bar' = (eps, -1), e = 1."""
    return MPState(domain, config, _make_core(domain, config))


def mp_step(state: MPState, term: int) -> MPState:
    """Consume one term and return the successor state; state is unchanged."""
    core = state._core.copy()
    delta = core.step(state.domain.normalize(term))
    return MPState(state.domain, state.config, core, (*state._deltas, delta))


@dataclass
class ProfileReport:
    """Per-step linear-complexity profile plus the terminal artifacts.

    lc, deltas cover steps 1..n; exponents covers 0..n (the seed
    exponent 1 first).  lc and exponents are derived from deltas
    (_profile); minpoly is mu, the top-left entry of final_matrix.
    """

    domain: CoeffDomain
    epsilon: int
    lc: list[int]
    deltas: list[int]
    exponents: list[int]
    final_matrix: Mat2
    nabla: int

    @property
    def minpoly(self) -> Poly:
        return self.final_matrix.a


def mp_run(s: Seq, config: MPConfig = MPConfig(), *,
           force_generic: bool = False) -> tuple[Mat2, ProfileReport]:
    """Run the engine over the whole sequence.

    Returns the final matrix and the profile report; an empty sequence
    yields the seed state (minpoly 1, LC 0).  The packed core is selected
    automatically for p = 2 and the bit-sliced one for p = 3.  Over other
    F_p without normalize_each_step the run goes blocked once deg mu >= 64
    (see _consume); its core, and so the matrix and report, equal the
    per-step run's slot for slot.
    """
    domain = s.domain
    # the deltas are reduced already: a residue, or 0/1 packed
    core, deltas = _run(domain, s.terms, config, force_generic=force_generic)
    lc, exponents = _profile(domain, deltas)
    matrix = Mat2(*_poly_rows(domain, core))
    report = ProfileReport(
        domain=domain,
        epsilon=domain.normalize(config.epsilon),
        lc=lc,
        deltas=deltas,
        exponents=exponents,
        final_matrix=matrix,
        nabla=domain.normalize(core.nabla),
    )
    return matrix, report


def profile_json(s: Seq, config: MPConfig = MPConfig()) -> dict:
    """The profile report's JSON keys, in order, and their values.

    The values are mp_run(s, config)[1]'s, holding the deltas alone per
    step: lc and exponents are iterators that derive them from the deltas
    as they are drawn (_exponents, _lcs), so a writer that draws them in
    chunks never holds either list.  The four texts of the final matrix,
    [[mu, [mu]], [mu', [mu']]], are rendered from the core's own rows,
    with no Poly built; the run is mp_run's (_run), blocked where it can be.
    """
    domain = s.domain
    core, deltas = _run(domain, s.terms, config)
    to_coeffs = core.ring.to_coeffs
    mu, mu_part, mup, mup_part = (coeffs_to_text(to_coeffs(r)) for r in core.rows())
    return {
        "field": domain.p,
        "epsilon": domain.normalize(config.epsilon),
        "lc": _lcs(_exponents(domain, deltas)),
        "deltas": deltas,
        "exponents": _exponents(domain, deltas),
        "mu": mu,
        "mu_prime": mup,
        "nabla": domain.normalize(core.nabla),
        "matrix": [[mu, mu_part], [mup, mup_part]],
    }


def profile_steps(s: Seq, config: MPConfig = MPConfig()) -> list[ProfileRow]:
    """Per-step snapshots j = 0..n (row 0 is the seed matrix, delta_0 = 1)."""
    domain = s.domain
    core = _make_core(domain, config)
    rows = []
    for delta in itertools.chain((1,), _each_step(core, s.terms)):  # the seed first
        rows.append(ProfileRow(core.j, delta, core.e, core.cur_lc(),
                               *_poly_rows(domain, core)))
    return rows


def _term_table_text(p: int, row_bytes):
    """A renderer of rows over a small F_p (_BYTE_RESIDUES).

    One lookup renders g adjacent coefficients: g = 3 over F_2 and 2 over
    F_3, where a group has p^g <= 9 patterns, else 1 (a larger g costs a
    table of p^g texts a group, which raises the heap peak of a table
    run).  Degrees g m .. g m + g - 1 form group m.  One table,
    grown here as rows reach new groups and freed with the renderer,
    holds a list a group: pattern sum_i c_(gm+i) p^i picks the text of
    its nonzero terms c x^k, highest degree first, each after a "+" (""
    for the zero pattern).  The row's bytes, highest degree first
    (ring.row_bytes), read as one int and times K = sum_i p^i 256^(g-1-i),
    hold group m's pattern in byte g m + g - 1 from the low end: a digit
    sum below p^g, so no byte carries into the next (the slots of
    poly.product_slice).  A C-level map picks each group's text by its
    pattern, and the top group's text, which holds the leading term,
    drops its first "+" (so no text of a whole row is copied to cut it);
    the output equals coeffs_to_text's.
    """
    g = {2: 3, 3: 2}.get(p, 1)
    K = sum(p**i << 8 * (g - 1 - i) for i in range(g))
    cs = range(2, p)
    groups = []  # lowest first; a random run's rows reach only degree about n/2

    def group(m):
        for k in range(g * m, g * m + g):
            x = "x" if k == 1 else f"x^{k}" if k else ""
            terms = ["", f"+{x or 1}", *[f"+{c}{x}" for c in cs]]
            opts = [t + o for t in terms for o in opts] if k > g * m else terms
        return opts

    def text(row) -> str:
        b = row_bytes(row)
        G = -(-len(b) // g) or 1  # the zero row: one group, pattern 0
        if G > len(groups):
            groups.extend(map(group, range(len(groups), G)))
        # byte g m + g - 1 from the low end is byte g (G - m) from the high end
        idx = (int.from_bytes(b, "big") * K).to_bytes(g * G + g, "big")[g::g]
        # each group's table, then in place its text: a fresh list from
        # list(map(...)) peaked 10 MiB higher on a 16384-term F_3 table
        parts = groups[G - 1::-1]
        parts[:] = map(operator.getitem, parts, idx)
        parts[0] = parts[0][1:]
        return "".join(parts) or "0"
    return text


def profile_text_rows(s: Seq, config: MPConfig = MPConfig()) -> list[tuple]:
    """Per-step (j, delta_j, e, mu text, mu' text) for j = 0..n, from one run.

    The texts are those of profile_steps' mu and mu_prev, rendered from
    the core's own canonical coefficients; the polynomial parts are never
    read.  A polynomial is rendered only at a step that changes it, and a
    mu' that is the previous mu reuses that text, so the rows of an
    unchanged polynomial share one str.  Over the small fields every row
    is rendered from one per-call table of the texts of term groups
    (_term_table_text); elsewhere, where that table would hold p (n+1)
    strings, by coeffs_to_text.
    """
    core = _make_core(s.domain, config)
    p = s.domain.p
    text = (_term_table_text(p, core.ring.row_bytes)
            if p in _BYTE_RESIDUES else coeffs_to_text)
    out = []
    mu = mup = None
    mu_text = mup_text = ""
    for delta in itertools.chain((1,), _each_step(core, s.terms)):  # the seed first
        new_mu, new_mup = core.mu, core.mup
        # mu' changes only at a jump, where it takes the previous mu
        if new_mup != mup:
            mup, mup_text = new_mup, mu_text if new_mup == mu else text(new_mup)
        if new_mu != mu:
            mu, mu_text = new_mu, text(new_mu)
        out.append((core.j, delta, core.e, mu_text, mup_text))
    return out


def annihilates(f: Poly, s: Seq) -> bool:
    """Whether every length-(deg f + 1) window of s is killed by f.

    The zero polynomial annihilates everything; so does any polynomial
    of degree >= len(s), vacuously.
    """
    if f.is_zero:
        return True
    fc, terms, normalize = f.coeffs, s.terms, f.domain.normalize
    for base in range(len(terms) - len(fc) + 1):
        if normalize(_window_sum(fc, terms, base)) != 0:
            return False
    return True


def feedback_polynomial(state) -> tuple[Poly, int]:
    """Reciprocal of the current minimal polynomial plus the register length.

    Accepts an MPState or a ProfileReport.  The register taps follow the
    recurrence of the source polynomial; a zero constant term in the
    source just means a singular register (fewer effective taps), which
    lfsr_generate accepts.
    """
    mu = state.minpoly if isinstance(state, ProfileReport) else state.mu_bar[0]
    return reciprocal(mu), mu.degree


def lfsr_generate(feedback: Poly, fill: Seq, length: int) -> Seq:
    """Run the shift register with the given feedback polynomial.

    The register length is len(fill); tap i is the x^i coefficient of
    feedback (taps beyond its degree are zero), and the new term is
    -(sum of tap_i * s_{j-i}) / feedback(0).
    """
    dom = feedback.domain
    if fill.domain != dom:
        raise ValueError("fill and feedback must share a domain")
    L = len(fill)
    if length < L:
        raise ValueError("length must be at least the fill size")
    if feedback.is_zero or feedback.coefficient(0) == 0:
        raise ValueError("feedback needs a nonzero constant term")
    if feedback.degree > L:
        raise ValueError("feedback degree exceeds the register length")
    g0 = feedback.coefficient(0)
    if g0 == 1:
        scale = None
    elif dom.is_field:
        scale = dom.inv(g0)
    elif g0 == dom.neg(1):
        scale = g0
    else:
        raise UnsupportedDomainError("cannot divide by the constant term")
    # highest tap first, so that step j reads the window out[j - L:j]
    taps = [feedback.coefficient(i) for i in range(L, 0, -1)]
    out = list(fill.terms)
    for j in range(L, length):
        v = dom.neg(dom.normalize(_window_sum(taps, out, j - L)))
        if scale is not None:
            v = dom.mul(v, scale)
        out.append(v)
    return Seq(dom, out)


def _bezout_ok(core) -> bool:
    """det M = -nabla, and over F_p gcd(mu, [mu]) = gcd(mu, mu') = 1.

    One body on every core: the native rows (core.rows()) in the core's
    own ring (core.ring).  Over ZZ (ring p = 0) only the determinant is
    checked.  The verdict is a pure function of the four rows and nabla.
    """
    R = core.ring
    mu, mu_part, mup, mup_part = core.rows()
    det = R.lin(1, R.mul(mu, mup_part), 0, 1, R.mul(mu_part, mup), 0)
    if det != R.lin(-core.nabla, R.one, 0, 0, R.one, 0):
        return False
    return not R.p or (R.degree(R.gcd(mu, mu_part)) == 0
                       and R.degree(R.gcd(mu, mup)) == 0)


def bezout_check(state: MPState) -> bool:
    """Certify mu*[mu'] - [mu]*mu' = -nabla (and coprimality over a field)."""
    return _bezout_ok(state._core)


def minpoly_coset(state: MPState) -> list[Poly]:
    """All mu + c*mu' for c in the field; candidates for Min(s) at odd steps."""
    dom = state.domain
    if not isinstance(dom, PrimeField):
        raise UnsupportedDomainError("coset enumeration needs a finite field")
    mu = state.mu_bar[0]
    mup = state.mu_bar_prev[0]
    return [mu + mup.scale(c) for c in dom.elements()]


def _check_brute_force_degree(q: int, d: int) -> None:
    """Refuse degree d >= 1 over F_q once q^(d+1) passes BRUTE_FORCE_GUARD,
    naming the first refused degree: 23, 14, 10 and 8 for q = 2, 3, 5, 7."""
    if d >= 1 and q ** (d + 1) > BRUTE_FORCE_GUARD:
        while d > 1 and q ** d > BRUTE_FORCE_GUARD:
            d -= 1
        raise ResourceLimitError(f"brute force bound exceeded at degree {d}")


def brute_force_minpoly(s: Seq) -> tuple[int, Poly]:
    """Least annihilator degree by monic enumeration, with one witness.

    Independent of the engine: tries every monic polynomial degree by
    degree and returns the first annihilator found.  Each degree passes
    _check_brute_force_degree first.
    """
    dom = s.domain
    if not isinstance(dom, PrimeField):
        raise UnsupportedDomainError("brute-force search needs a finite field")
    if all(t == 0 for t in s.terms):
        return 0, Poly(dom, (1,))
    q = dom.p
    n = len(s)
    # Over F_2, f = x^d + low annihilates when the window bits d..n-1 of
    # rev(f) * S vanish, and that product is the XOR of S (the x^d term)
    # and S << (d - i) for each bit i of low.  So the candidates are
    # visited in Gray-code order, each one XOR from the last, and the
    # least annihilating low is kept.
    S = sum(1 << i for i, t in enumerate(s.terms) if t) if q == 2 else 0
    for d in range(1, n + 1):
        _check_brute_force_degree(q, d)
        if q == 2:
            mask = ((1 << (n - d)) - 1) << d
            v = S & mask
            least = None if v else 0
            if v:
                rows = [(S << (d - i)) & mask for i in range(d)]
                for k in range(1, 1 << d):
                    # Gray code k ^ (k >> 1) flips bit i, the lowest set in k
                    v ^= rows[(k & -k).bit_length() - 1]
                    if not v and (least is None or k ^ k >> 1 < least):
                        least = k ^ k >> 1
            if least is not None:
                return d, Poly(dom, gf2.to_coeffs(least | 1 << d))
        else:
            for low in itertools.product(range(q), repeat=d):
                f = Poly(dom, low + (1,))
                if annihilates(f, s):
                    return d, f
    raise AssertionError("unreachable: degree n always annihilates")
