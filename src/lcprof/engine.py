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
from them alone after the run (_profile): e_0 = 1, e_j = e_{j-1} + 1,
negated first when delta_j != 0 and e_{j-1} > 0, and
LC_j = (j + 1 - e_j)/2.  MPState carries its chain's discrepancies and
LC values, and reads the shift p_shift (steps since the last jump) off
the latter: LC rises exactly at a jump.

Seeding follows the fixed initial matrix [[1, 0], [eps, -1]] with
delta_0 = 1 and e_0 = 1; the -1 entry is what makes the second column
the polynomial part of the first: once the first jump has happened,
[f] = (f * s)_+ over the consumed prefix for both rows.  The generic
core therefore carries only the first column and derives the second on
request (poly.part_coeffs, one Kronecker product per row); the packed
F_2 core carries both, since there a column update is one shift and XOR.

Determinant convention: det M = -nabla at every step (the identity
mu*[mu'] - [mu]*mu' = -nabla is a Bezout certificate, forcing
gcd(mu, [mu]) = gcd(mu, mu') = 1 over a field).

For p = 2 the engine switches to a packed representation (polynomials
and the consumed prefix as Python ints, one bit per coefficient) with
identical observable behavior.  A core (_GenericCore or _PackedCore) is
the only holder of engine state: MPState is a read-only view over one,
mp_step resumes a copy of it (the packed one for p = 2), and every
conversion of a core into Poly rows goes through _poly_rows.  The
profile table needs only text, so profile_text_rows renders it from the
core's coefficients without building Poly rows.

Over the small fields, p = 2, 3, 5, 7 and 11 (_BYTE_RESIDUES), the
generic core's row update _lin packs each row at one byte a coefficient
and forms (c1 mod p) a + (-c2 mod p) b as one int.  A slot then holds at
most 2 (p-1)^2 < 256, so none carries, and the reduction mod p and the
trim are one bytes.translate and one rstrip.  Larger p and the integers
keep the coefficient-list loop: wider slots lose to it at small degree.
Over the same fields the table renders every row from one per-call table
of term texts (_term_table_text), the text of each c x^k built once.

Runs that read no per-step rows (mp_run, and the profile behind height,
lc_sum and char_equivalence) go through _consume.  On a generic core over
F_p without per-step normalization it advances _BLOCK steps at a time
once deg mu >= _BLOCK_MIN_DEG: a block is the product of its jump
matrices, the transition (A, B; C, D) with mu = A mu0 + B mu0', carried
by the same update rule on the interleaved rows (A, B) and (C, D), one
vector-coefficient polynomial each (Thome 2002), with each discrepancy
one dot product with the interleaved correlation windows, and mu, mu'
rebuilt by Kronecker products at the block's end (Berlekamp-Massey read
as Euclid, as in Dornstetter 1987, at a fixed block size as in the
half-gcd of Brent-Gustavson-Yun 1980).  Its Kronecker slots take as many
bytes as the sums need, at any p.  The core it leaves equals the
per-step core slot for slot, and the discrepancies it returns are the
per-step ones.  Every other core and every reader of per-step rows (the
table, profile_steps, the PLCP witness, the verify sweeps, mp_step)
steps term by term.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import gf2
from .errors import ResourceLimitError, UnsupportedDomainError
from .fields import CoeffDomain, IntegerRing, PrimeField, is_prime
from .poly import (
    Poly,
    Seq,
    _slot_bytes,
    _trim,
    coeffs_to_text,
    gcd_coeffs,
    mul_coeffs,
    part_coeffs,
    product_slice,
    reciprocal,
)

BRUTE_FORCE_GUARD = 10**7
# bits of nabla at which a run over the integers stops: the division-free
# recursion grows its coefficients exponentially there (nabla has about
# 10^5 bits after 24 random digits), and a run reaches this well within 1 s
ZZ_NABLA_BITS = 2**18
# steps per block of _consume, and the degree of mu at which blocks start
# (below it, blocks cost more than they save)
_BLOCK = 64
_BLOCK_MIN_DEG = 64
# The small fields, each with the table that maps a byte to its residue
# mod p.  There a row update c1 a + c2 b with every value in [0, p) has
# slots of at most 2 (p-1)^2 < 256, so _lin runs in one-byte Kronecker
# slots with no carry, and profile_text_rows renders from a table of
# (p-1) (n+1) term texts: p = 2, 3, 5, 7 and 11.
_BYTE_RESIDUES = {p: bytes(v % p for v in range(256))
                  for p in range(2, 256) if 2 * (p - 1) ** 2 < 256 and is_prime(p)}


@dataclass(frozen=True)
class MPConfig:
    """Engine options.

    epsilon seeds the displaced row (it changes the mu' lineage but not
    the degree of the returned minimal polynomial).  monic_output
    normalizes the reported minimal polynomial once at the end, never
    inside the loop.  normalize_each_step (field domains only) divides
    the fresh row mu at every step with a nonzero discrepancy by the
    factor that step multiplies nabla by: delta' when the step does not
    jump, delta when it does.  The result agrees with the plain run up
    to a scalar.
    """

    epsilon: int = 0
    monic_output: bool = False
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

    def mul_column(self, top: Poly, bottom: Poly) -> tuple[Poly, Poly]:
        return self.a * top + self.b * bottom, self.c * top + self.d * bottom

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


class _GenericCore:
    """Dense coefficient-list engine over any coefficient domain.

    Carries mu and mu' only; pairs() derives the polynomial parts.
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
        "residues",
    )

    unit = [1]  # the row 1, shared: a row is never edited once made

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
        self.parts = ()  # (row, [row]) pairs derived so far, at most two
        self.residues = _BYTE_RESIDUES.get(self.p)

    def _lin(self, c1, a, ashift, c2, b, bshift):
        # c1 * x^ashift * a  -  c2 * x^bshift * b, canonical
        residues = self.residues
        if residues:
            # one byte a coefficient: (c1 mod p) a + (-c2 mod p) b as one
            # int, then the reduction and the trim as C-level byte passes
            p = self.p
            v = ((c1 % p * int.from_bytes(bytes(a), "little") << 8 * ashift)
                 + (-c2 % p * int.from_bytes(bytes(b), "little") << 8 * bshift))
            size = max(ashift + len(a), bshift + len(b))
            return list(v.to_bytes(size, "little").translate(residues).rstrip(b"\0"))
        out = [0] * ashift + [c1 * x for x in a]
        need = bshift + len(b)
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for i, x in enumerate(b):
            out[bshift + i] -= c2 * x
        p = self.p
        if p:
            out = [v % p for v in out]
        while out and out[-1] == 0:
            out.pop()
        return out

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
                nmu = self._lin(self.dprime, mu, 0, delta, self.mup, -e)
                factor = self.dprime
            else:
                nmu = self._lin(self.dprime, mu, e, delta, self.mup, 0)
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

        From the rows mu0, mu0' at the start, the block carries the
        transition rows mu = A mu0 + B mu0' and mu' = C mu0 + D mu0'
        through step's update rule, each pair as one interleaved row:
        AB[2i] = A_i and AB[2i+1] = B_i, so x^k (A, B) is AB shifted by 2k
        and one row update (_lin's rule) advances both columns.  Step j's
        discrepancy is sum_t AB[t] W[2(j-d)+t] (d = deg mu = (j - e)/2)
        over the interleaved correlation windows W[2t] = sum_m mu0_m
        s_{t+m} and W[2t+1], the same of mu0', one product_slice each;
        terms past the block count as zero, since the coefficients that
        reach them cancel above deg mu.  Four products at the end give mu
        and mu'.  Every value is reduced mod p, so all slots are equal to
        step's; the Kronecker slots hold sums of 2 len(mu0) products.  The
        block's discrepancies are appended to deltas.
        """
        p, s, j0, lin = self.p, self.s, self.j, self._lin
        e, c1, nabla = self.e, self.dprime, self.nabla
        mu0, mup0 = self.mu, self.mup
        d0 = len(mu0) - 1
        w = _slot_bytes(p, 2 * len(mu0))
        s.extend(terms)
        # the windows take mu0' padded to deg mu0, so both start at slot d0
        rev0 = mu0[::-1], [*mup0, *[0] * (d0 + 1 - len(mup0))][::-1]
        # j - deg mu rises by one a step, and after a jump it is the old
        # degree plus one, so no step of the block reads below lo
        lo = min(j0 + 1 - d0, d0 + 1)

        def windows(hi):  # W at lo..hi, the two windows interleaved
            u = s[lo - 1:hi + d0]
            u += [0] * (hi + d0 - lo + 1 - len(u))
            W = [0] * (2 * (len(u) - d0))
            W[0::2], W[1::2] = (product_slice(((f, u),), p, d0, len(u), w) for f in rev0)
            return W

        def times_rows(xy):  # x mu0 + y mu0' for xy = (x, y) interleaved, canonical
            x, y = _trim(xy[0::2]), _trim(xy[1::2])
            top = len(mu0) + max(len(x), len(y))
            return _trim(product_slice(((x, mu0), (y, mup0)), p, 0, top, w))

        end = j0 + len(terms)
        W = windows(end - d0)
        ab0 = AB = [1]     # (A, B) = (1, 0)
        cd0 = CD = [0, 1]  # (C, D) = (0, 1)
        for j in range(j0 + 1, end + 1):
            k = 2 * (j - (j - e) // 2 - lo)
            if k + len(AB) > len(W):
                # A or B grew past deg mu - deg mu0, through cancelling top
                # terms (common over small fields) or a run of zero terms
                W = windows(end + (len(AB) + 1) // 2)
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
        if AB is not ab0:  # a nonzero step
            self.mu = times_rows(AB)
        if CD is not cd0:  # a jump
            self.mup = times_rows(CD)

    def cur_lc(self) -> int:
        return len(self.mu) - 1

    def pairs(self):
        """mu, [mu], mu', [mu'] as coefficient lists, shared with the core.

        The parts are derived, not carried: before the first jump the rows
        are the seed (1, 0) and (eps, -1), and after it [f] is the
        polynomial part of f over the consumed prefix.  A step never edits
        a row and a jump hands the old mu to mu', so a memo keyed by row
        identity derives each row once.
        """
        mu, mup = self.mu, self.mup
        if len(mu) == 1:
            return mu, [], mup, [self.dom.neg(1)]
        parts = []
        for row in (mu, mup):
            for known in self.parts:
                if known[0] is row:
                    break
            else:
                known = row, part_coeffs(row, self.s, self.p)
            parts.append(known)
        self.parts = tuple(parts)
        return mu, parts[0][1], mup, parts[1][1]

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
        new.parts, new.residues = self.parts, self.residues
        return new


class _PackedCore:
    """Bit-packed engine for F_2; semantics identical to _GenericCore."""

    __slots__ = ("j", "S", "mu", "mu_part", "mup", "mup_part", "e")

    dprime = 1
    nabla = 1
    unit = 1

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

    def _lin(self, c1, a, ashift, c2, b, bshift):
        # _GenericCore._lin on packed rows: c1, c2 are 0 or 1, minus is XOR
        return ((a << ashift) if c1 else 0) ^ ((b << bshift) if c2 else 0)

    def cur_lc(self) -> int:
        return self.mu.bit_length() - 1

    def packed_rows(self) -> tuple[int, int, int, int]:
        """mu, [mu], mu', [mu'] as packed polynomials (see gf2)."""
        return self.mu, self.mu_part, self.mup, self.mup_part

    def pairs(self):
        return [gf2.to_coeffs(r) for r in self.packed_rows()]

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


def _make_core(domain: CoeffDomain, config: MPConfig, *, force_generic: bool = False):
    # over F_2 the only unit is 1, so normalize_each_step changes nothing
    if domain.p == 2 and not force_generic:
        return _PackedCore(domain.normalize(config.epsilon))
    return _GenericCore(domain, config.epsilon,
                        normalize_each_step=config.normalize_each_step)


def _consume(core, terms) -> list[int]:
    """Step core through terms, in blocks where that leaves the same core.

    Returns the discrepancies delta_1..delta_n.  A generic core over F_p
    without per-step normalization steps term by term until deg mu >=
    _BLOCK_MIN_DEG, then advances _BLOCK steps at a time
    (_GenericCore._block) while a full block of terms remains; the rest
    steps term by term.  Every slot of the core ends as step alone would
    leave it, but no per-step row exists in between, so only callers that
    read the core after the run use this.
    """
    step = core.step
    deltas: list[int] = []
    i, n, b = 0, len(terms), _BLOCK
    if isinstance(core, _GenericCore) and core.p and not core.normalize:
        while n - i >= b and len(core.mu) <= _BLOCK_MIN_DEG:
            deltas.append(step(terms[i]))
            i += 1
        while n - i >= b:
            core._block(terms[i:i + b], deltas)
            i += b
    deltas += map(step, terms[i:])
    return deltas


def _poly_rows(domain: CoeffDomain, core) -> list[Poly]:
    """The core's rows mu, [mu], mu', [mu'] as Poly values.

    Both cores keep their rows canonical (reduced and trimmed: the seed,
    every _lin or XOR update, the per-step scaling by a unit, part_coeffs
    and the packed bits), so the Polys are built without renormalizing.
    """
    return [Poly._canonical(domain, c) for c in core.pairs()]


def _profile(domain: CoeffDomain, deltas) -> tuple[list[int], list[int]]:
    """LC_1..LC_n and e_0..e_n from the discrepancies delta_1..delta_n.

    e_0 = 1 and e_j = e_{j-1} + 1, negated first when delta_j != 0 and
    e_{j-1} > 0 (a jump); LC_j = (j + 1 - e_j)/2, so a jump raises LC by
    e_{j-1} and no other step changes it.  This is the engine's own
    exponent rule, so the profile is the one its run went through.
    """
    if not domain.p:
        # over F_p a delta is a residue, so truthiness is the zero test;
        # over the integers the domain's is_zero decides, as in step
        deltas = [not domain.is_zero(d) for d in deltas]
    e, L = 1, 0
    lc, exps = [], [1]
    lc_append, e_append = lc.append, exps.append
    for d in deltas:
        if d and e > 0:
            L += e
            e = -e
        e += 1
        lc_append(L)
        e_append(e)
    return lc, exps


@dataclass(frozen=True, eq=False)
class MPState:
    """Read-only engine state after j consumed terms.

    A view over a private core: the rows are converted on access.  The
    state also carries its chain's discrepancies delta_1..delta_j and
    LC_1..LC_j, each extended by one in mp_step; log derives the
    exponents from the discrepancies (_profile), and p_shift (the steps
    since the last jump, counting the jump step itself; j before any
    jump) is read off the LC tuple.  mp_step steps a copy of the core,
    so a state never changes once made.
    """

    domain: CoeffDomain
    config: MPConfig
    _core: _GenericCore | _PackedCore
    _deltas: tuple[int, ...] = ()
    _lc: tuple[int, ...] = ()

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
            StepRecord(j, delta, exps[j - 1], c, bool(delta) and exps[j - 1] > 0)
            for j, (delta, c) in enumerate(zip(self._deltas, lc), start=1)
        )

    @property
    def p_shift(self) -> int:
        # a jump raises deg mu by e > 0 and no other step changes it, so
        # the last rise of LC is the last jump (step i + 1 for LC at index i)
        lc = self._lc
        for i in range(len(lc) - 1, -1, -1):
            if lc[i] > (lc[i - 1] if i else 0):
                return self.j - i
        return self.j

    @property
    def lc(self) -> int:
        return self._core.cur_lc()

    def matrix(self) -> Mat2:
        return Mat2(*_poly_rows(self.domain, self._core))

    def sequence(self) -> Seq:
        return Seq(self.domain, self.consumed)


def mp_init(domain: CoeffDomain, config: MPConfig = MPConfig()) -> MPState:
    """State at step 0: mu_bar = (1, 0), mu_bar' = (eps, -1), e = 1."""
    return MPState(domain, config, _make_core(domain, config))


def mp_step(state: MPState, term: int) -> MPState:
    """Consume one term and return the successor state; state is unchanged."""
    core = state._core.copy()
    delta = core.step(state.domain.normalize(term))
    return MPState(state.domain, state.config, core,
                   (*state._deltas, delta), (*state._lc, core.cur_lc()))


@dataclass
class ProfileReport:
    """Per-step linear-complexity profile plus the terminal artifacts.

    lc, deltas cover steps 1..n; exponents covers 0..n (the seed
    exponent 1 first).  lc and exponents are derived from deltas
    (_profile).
    """

    domain: CoeffDomain
    epsilon: int
    lc: list[int]
    deltas: list[int]
    exponents: list[int]
    minpoly: Poly
    final_matrix: Mat2
    nabla: int

    @property
    def jumps(self) -> list[int]:
        return [
            j
            for j in range(1, len(self.deltas) + 1)
            if self.deltas[j - 1] != 0 and self.exponents[j - 1] > 0
        ]

    @property
    def jump_exponents(self) -> list[int]:
        return [self.exponents[j - 1] for j in self.jumps]

    def to_json_dict(self) -> dict:
        m = self.final_matrix
        rows = m.text_rows()  # each entry rendered once; mu and mu' reuse them
        return {
            "field": self.domain.p,
            "epsilon": self.epsilon,
            "lc": list(self.lc),
            "deltas": list(self.deltas),
            "exponents": list(self.exponents),
            "mu": rows[0][0] if self.minpoly is m.a else str(self.minpoly),
            "mu_prime": rows[1][0],
            "nabla": self.nabla,
            "matrix": rows,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProfileReport":
        p = data["field"]
        domain = PrimeField(p) if p else IntegerRing()
        rows = data["matrix"]
        matrix = Mat2(
            Poly.from_text(domain, rows[0][0]),
            Poly.from_text(domain, rows[0][1]),
            Poly.from_text(domain, rows[1][0]),
            Poly.from_text(domain, rows[1][1]),
        )
        return cls(
            domain=domain,
            epsilon=data["epsilon"],
            lc=list(data["lc"]),
            deltas=list(data["deltas"]),
            exponents=list(data["exponents"]),
            minpoly=Poly.from_text(domain, data["mu"]),
            final_matrix=matrix,
            nabla=data["nabla"],
        )


def mp_run(s: Seq, config: MPConfig = MPConfig(), *,
           force_generic: bool = False) -> tuple[Mat2, ProfileReport]:
    """Run the engine over the whole sequence.

    Returns the final matrix and the profile report; an empty sequence
    yields the seed state (minpoly 1, LC 0).  The packed fast path is
    selected automatically for p = 2.  Over other F_p without
    normalize_each_step the run goes blocked once deg mu >= 64 (see
    _consume); its core, and so the matrix and report, equal the per-step
    run's slot for slot.
    """
    domain = s.domain
    if config.monic_output and not domain.is_field:
        raise UnsupportedDomainError("monic output needs a field")
    core = _make_core(domain, config, force_generic=force_generic)
    deltas = _consume(core, s.terms)  # already reduced: acc % p, or 0/1 packed
    lc, exponents = _profile(domain, deltas)
    matrix = Mat2(*_poly_rows(domain, core))
    report = ProfileReport(
        domain=domain,
        epsilon=domain.normalize(config.epsilon),
        lc=lc,
        deltas=deltas,
        exponents=exponents,
        minpoly=matrix.a.monic() if config.monic_output else matrix.a,
        final_matrix=matrix,
        nabla=domain.normalize(core.nabla),
    )
    return matrix, report


def _each_step(core, s: Seq):
    """Step core through s; yield delta_j after each step j = 0..n (1 at j = 0)."""
    yield 1
    normalize = s.domain.normalize
    step = core.step
    for t in s.terms:
        yield normalize(step(t))


def profile_steps(s: Seq, config: MPConfig = MPConfig()) -> list[ProfileRow]:
    """Per-step snapshots j = 0..n (row 0 is the seed matrix)."""
    domain = s.domain
    core = _make_core(domain, config)
    rows = []
    for delta in _each_step(core, s):
        rows.append(ProfileRow(core.j, delta, core.e, core.cur_lc(),
                               *_poly_rows(domain, core)))
    return rows


def _term_table_text(p: int, n: int, packed: bool):
    """A renderer of rows of degree <= n over a small F_p (_BYTE_RESIDUES).

    It reads every term from one table, terms[c][k] = the text of c x^k
    for c in 1..p-1 and k <= n, built once here and freed with the
    renderer.  Its output equals coeffs_to_text's; packed F_2 rows are
    unpacked first.
    """
    xs = ["x", *(f"x^{k}" for k in range(2, n + 1))]
    terms = [None] + [[str(c)] + [x if c == 1 else f"{c}{x}" for x in xs]
                      for c in range(1, p)]

    def text(row) -> str:
        if packed:
            row = gf2.to_coeffs(row)
        return "+".join([terms[c][k] for k, c in enumerate(row) if c][::-1]) or "0"
    return text


def profile_text_rows(s: Seq, config: MPConfig = MPConfig()) -> list[tuple]:
    """Per-step (j, delta_j, e, mu text, mu' text) for j = 0..n, from one run.

    The texts are those of profile_steps' mu and mu_prev, rendered from
    the core's own canonical coefficients; the polynomial parts are never
    read.  A polynomial is rendered only at a step that changes it, and a
    mu' that is the previous mu reuses that text, so the rows of an
    unchanged polynomial share one str.  Over the small fields every row
    is rendered from one per-call table of term texts (_term_table_text);
    elsewhere, where that table would hold p (n+1) strings, by
    coeffs_to_text.
    """
    core = _make_core(s.domain, config)
    p = s.domain.p
    text = (_term_table_text(p, len(s), isinstance(core, _PackedCore))
            if p in _BYTE_RESIDUES else coeffs_to_text)
    out = []
    mu = mup = None
    mu_text = mup_text = ""
    for delta in _each_step(core, s):
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
    fc = f.coeffs
    d = len(fc) - 1
    terms = s.terms
    dom = f.domain
    for j in range(d + 1, len(terms) + 1):
        base = j - 1 - d
        acc = sum(map(operator.mul, fc, terms[base:base + d + 1]))
        if dom.normalize(acc) != 0:
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
    d = mu.degree
    lc = int(d) if d >= 0 else 0
    return reciprocal(mu), lc


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
    taps = [feedback.coefficient(i) for i in range(1, L + 1)]
    out = list(fill.terms)
    for j in range(L, length):
        acc = sum(taps[i] * out[j - 1 - i] for i in range(L))
        v = dom.neg(dom.normalize(acc))
        if scale is not None:
            v = dom.mul(v, scale)
        out.append(v)
    return Seq(dom, out)


def _bezout_ok(core) -> bool:
    """det M = -nabla, and over F_p gcd(mu, [mu]) = gcd(mu, mu') = 1.

    Over ZZ (p = 0) only the determinant is checked.
    """
    if isinstance(core, _PackedCore):
        mu, mu_part, mup, mup_part = core.packed_rows()
        return (gf2.mul(mu, mup_part) ^ gf2.mul(mu_part, mup) == 1
                and gf2.gcd(mu, mu_part) == 1 and gf2.gcd(mu, mup) == 1)
    p = core.p
    mu, mu_part, mup, mup_part = core.pairs()
    prods = itertools.zip_longest(mul_coeffs(mu, mup_part), mul_coeffs(mu_part, mup),
                                  fillvalue=0)
    det = [(x - y) % p for x, y in prods] if p else [x - y for x, y in prods]
    if det[:1] != [-core.nabla % p if p else -core.nabla] or any(det[1:]):
        return False
    return not p or (len(gcd_coeffs(mu, mu_part, p)) == 1
                     and len(gcd_coeffs(mu, mup, p)) == 1)


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


def brute_force_minpoly(s: Seq, guard: int = BRUTE_FORCE_GUARD) -> tuple[int, Poly]:
    """Least annihilator degree by monic enumeration, with one witness.

    Independent of the engine: tries every monic polynomial degree by
    degree and returns the first annihilator found.  Raises
    ResourceLimitError once q^(d+1) would exceed the guard.
    """
    dom = s.domain
    if not isinstance(dom, PrimeField):
        raise UnsupportedDomainError("brute-force search needs a finite field")
    if all(t == 0 for t in s.terms):
        return 0, Poly(dom, (1,))
    q = dom.p
    n = len(s)
    if q == 2:
        # f = x^d + low annihilates when the window bits d..n-1 of
        # rev(f) * S vanish, and that product is the XOR of S (the x^d
        # term) and S << (d - i) for each bit i of low.  So the candidates
        # are visited in Gray-code order, each one XOR from the last, and
        # the least annihilating low is kept.
        S = sum(1 << i for i, t in enumerate(s.terms) if t)
        for d in range(1, n + 1):
            if q ** (d + 1) > guard:
                raise ResourceLimitError(f"brute force bound exceeded at degree {d}")
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
                return d, Poly._canonical(dom, gf2.to_coeffs(least | 1 << d))
    else:
        for d in range(1, n + 1):
            if q ** (d + 1) > guard:
                raise ResourceLimitError(f"brute force bound exceeded at degree {d}")
            for low in itertools.product(range(q), repeat=d):
                f = Poly(dom, low + (1,))
                if annihilates(f, s):
                    return d, f
    raise AssertionError("unreachable: degree n always annihilates")
