"""Minimal polynomials and linear-complexity profiles over prime fields.

A division-free shift-register synthesis engine whose per-step profile
is derived from its discrepancies, plus the structural analyses built
on it: perfect-profile characterizations, binary stability, sequence
height with a continued-fraction oracle, complexity-sum bounds, and the
closed forms of the power-of-two indicator sequence.
"""

from .analysis import (
    HeightReport,
    PlcpWitness,
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
from .engine import (
    Mat2,
    MPConfig,
    MPState,
    ProfileReport,
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
)
from .errors import (
    DomainMismatchError,
    LcprofError,
    ResourceLimitError,
    SequenceParseError,
    UnsupportedDomainError,
)
from .fields import GF2, ZZ, CoeffDomain, IntegerRing, PrimeField, is_prime
from .poly import (
    NEG_INF,
    Poly,
    Seq,
    discrepancy,
    poly_divmod,
    poly_gcd,
    polynomial_part,
    reciprocal,
)
from .rueppel import (
    gamma,
    gamma_identities,
    gamma_members,
    power_column_identity,
    rueppel_matrix_check,
    rueppel_mp,
    rueppel_terms,
    u_power,
)

__version__ = "0.1.0"
