"""The power-of-two indicator sequence and its closed-form profile.

The binary sequence with ones exactly at power-of-two positions is the
canonical perfect-profile example.  Its engine matrices are powers of
the constant jump matrix U = [[x, 1], [1, 0]] times the step-2 matrix
M = [[x+1, 1], [1, 0]], and the rows are expressed by the polynomial
family g(0) = 0, g(1) = 1, g(k) = x*g(k-1) + g(k-2) (written gamma
here).  All checks in this module are executable verifications of
those closed forms against the engine, at exact arithmetic.

Each member is computed on its own, bit-packed (see gf2), from Lucas's
theorem; a sweep over many members builds one local list by the
recurrence instead (gamma_members).  Each closed form is defined once on
packed integers (the *_packed functions, which verify compares with the
packed engine rows); the public Poly functions wrap them.
"""

from __future__ import annotations

from . import gf2
from .engine import Mat2, MPConfig, _each_step, _make_core
from .errors import ResourceLimitError
from .fields import GF2
from .poly import Poly, Seq

# Size guards, each read at call time by one _check_* function run before
# anything is allocated.  GAMMA_GUARD bounds a member's index (k bits packed)
# and a member list's length (about k^2/16 bytes up to member k: 64 MiB here).
GAMMA_GUARD = 2**15
RUEPPEL_GUARD = 2**22


def _check_terms(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > RUEPPEL_GUARD:
        raise ResourceLimitError(f"{n} terms exceed the guard {RUEPPEL_GUARD}")


def rueppel_terms(n: int) -> Seq:
    """First n terms: 1 at indices 1, 2, 4, 8, ..., 0 elsewhere."""
    _check_terms(n)
    return Seq(GF2, (1 if j & (j - 1) == 0 else 0 for j in range(1, n + 1)))


def _poly(r: int) -> Poly:
    return Poly(GF2, gf2.to_coeffs(r))


def _check_gamma_index(k: int) -> None:
    if k < 0:
        raise ValueError("gamma index must be nonnegative")
    if k > GAMMA_GUARD:
        raise ResourceLimitError(f"gamma index {k} exceeds the guard {GAMMA_GUARD}")


def _check_column(k: int) -> None:
    """Refuse k once gamma(2^k - 1) passes GAMMA_GUARD; a huge 2^k is never built."""
    if k > GAMMA_GUARD.bit_length() or 2**k - 1 > GAMMA_GUARD:
        raise ResourceLimitError(
            f"column check k={k} reads gamma(2^{k} - 1) past the guard {GAMMA_GUARD}")


def gamma_packed(k: int) -> int:
    """gamma(k) packed, from Lucas's theorem.

    The coefficient of x^(k-1-2i) is C(k-1-i, i) mod 2, which is odd
    exactly when i & (k-1-2i) == 0.
    """
    _check_gamma_index(k)
    return sum(1 << b for i, b in enumerate(range(k - 1, -1, -2)) if not i & b)


def gamma(k: int) -> Poly:
    """The k-th member of the recurrence family (degree k-1 for k >= 1)."""
    return _poly(gamma_packed(k))


def gamma_members(k: int) -> list[int]:
    """[gamma_packed(0), ..., gamma_packed(k)], built by the recurrence."""
    _check_gamma_index(k)
    g = [0, 1]
    while len(g) <= k:
        g.append((g[-1] << 1) ^ g[-2])
    return g[:k + 1]


# Packed 2x2 matrices are (a, b, c, d) = [[a, b], [c, d]], the order of
# Mat2's fields and of the packed F_2 core's rows() (mu, [mu], mu', [mu']).
_STEP2_PACKED = (0b11, 0b1, 0b1, 0b0)


def _mat2(m) -> Mat2:
    return Mat2(*map(_poly, m))


def _mat_col_packed(m, v):
    a, b, c, d = m
    top, bot = v
    return (gf2.mul(a, top) ^ gf2.mul(b, bot), gf2.mul(c, top) ^ gf2.mul(d, bot))


def _mat_mul_packed(m, n):
    e, f, g, h = n
    (a, c), (b, d) = _mat_col_packed(m, (e, g)), _mat_col_packed(m, (f, h))
    return a, b, c, d


def _adjugate_packed(m):
    # char-2 adjugate of [[a, b], [c, d]]; determinant must be 1
    a, b, c, d = m
    if gf2.mul(a, d) ^ gf2.mul(b, c) != 1:
        raise ValueError("matrix is not unimodular")
    return (d, b, c, a)


def u_power_packed(k: int, member=gamma_packed) -> tuple[int, int, int, int]:
    """U^k = [[gamma(k+1), gamma(k)], [gamma(k), gamma(k-1)]], packed; U^0 = I.

    member(i) gives gamma(i) packed: gamma_packed, or a cache of it shared
    by a sweep over consecutive k.
    """
    if k == 0:
        return (1, 0, 0, 1)
    if k < 0:
        raise ValueError("negative power; invert via adjugate instead")
    g = member(k)
    return (member(k + 1), g, g, member(k - 1))


def u_power(k: int) -> Mat2:
    """U^k = [[gamma(k+1), gamma(k)], [gamma(k), gamma(k-1)]]; U^0 = I."""
    return _mat2(u_power_packed(k))


def gamma_identities(m: int, n: int, g: list[int]) -> bool:
    """Check the family identities at the given pair of indices.

    g is the member list gamma_members(k) for some k >= max(m+n, m+1,
    n+1).  Covers the product rule gamma(m+n) = x*gamma(m)*gamma(n) +
    gamma(m-n) (indices swapped if needed), the doubling special case,
    the degree law, the unit constant term of gamma(i) + gamma(i-1),
    and coprimality of consecutive members, certified by Cassini's
    identity gamma(i+1)*gamma(i-1) + gamma(i)^2 = 1 (det U^i).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if m < n:
        m, n = n, m
    gm, gn = g[m], g[n]
    if g[m + n] != (gf2.mul(gm, gn) << 1) ^ g[m - n]:
        return False
    if g[2 * n] != gf2.mul(gn, gn) << 1:
        return False
    for i in (m, n):
        gi = g[i]
        if i >= 1:
            if gi.bit_length() - 1 != i - 1:
                return False
            if (gi ^ g[i - 1]) & 1 != 1:
                return False
            if gf2.mul(g[i + 1], g[i - 1]) ^ gf2.mul(gi, gi) != 1:
                return False
    return True


def rueppel_mp_packed(n: int, member=gamma_packed) -> tuple[int, int]:
    """Closed-form engine row (mu, [mu]) for an odd-length prefix, packed.

    For odd n >= 3 the row is (gamma(p) + gamma(p-1), gamma(p-1)) with
    p = (n+3)/2; even lengths keep the previous row, so ask the engine
    for those.  member is as in u_power_packed.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("closed form applies to odd n >= 3")
    p = (n + 3) // 2
    gp, gp1 = member(p), member(p - 1)
    return gp ^ gp1, gp1


def rueppel_mp(n: int) -> tuple[Poly, Poly]:
    """rueppel_mp_packed(n) as Poly values."""
    mu, mu_part = rueppel_mp_packed(n)
    return _poly(mu), _poly(mu_part)


def rueppel_matrix_pattern(n: int, rows, prev, member=gamma_packed) -> bool:
    """Whether the packed engine rows after n terms (prev: after n - 1) fit.

    rows and prev are (mu, [mu], mu', [mu']) as the packed F_2 core's
    rows() gives them.  The pattern is M at n = 2, the previous matrix
    repeated at even n, and U^((n-1)/2) M at odd n (member as in
    u_power_packed).
    """
    if n < 2:
        raise ValueError("pattern starts at n = 2")
    if n == 2:
        return rows == _STEP2_PACKED
    if n % 2 == 0:
        return rows == prev
    return rows == _mat_mul_packed(u_power_packed((n - 1) // 2, member), _STEP2_PACKED)


def rueppel_matrix_check(n: int) -> bool:
    """Engine matrix pattern: M at 2, repeat at even n, U-power at odd n."""
    core = _make_core(GF2, MPConfig())
    prev = rows = core.rows()  # the pattern refuses n < 2
    for _ in _each_step(core, rueppel_terms(n).terms):
        prev, rows = rows, core.rows()
    return rueppel_matrix_pattern(n, rows, prev)


def power_column_identity(k: int, member=gamma_packed) -> bool:
    """Exact closed form of the power-of-two prefix column.

    Verifies that the inverse step-2 matrix times the inverse jump
    power applied to the column (1, x+1) reproduces, after clearing the
    x^{-2^k} scale, the pair (sum of x^{2^k - 2^i} for i = 0..k,
    x^{2^k}).  Both sides are polynomials, so the comparison is exact.
    member is as in u_power_packed.  _check_column refuses k first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_column(k)
    p = 2**k
    # U^{2-2^k} = (U^(2^k - 2))^{-1}; powers via the gamma closed form
    u_inv = _adjugate_packed(u_power_packed(p - 2, member))
    m_inv = _adjugate_packed(_STEP2_PACKED)
    col = _mat_col_packed(m_inv, _mat_col_packed(u_inv, (0b1, 0b11)))
    want_top = 0
    for i in range(k + 1):
        want_top |= 1 << (p - 2**i)
    return col == (want_top, 1 << p)
