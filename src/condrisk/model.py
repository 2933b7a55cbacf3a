"""Correlated binary outcome model for a pair of visits.

A subject's outcome at a later visit j and an earlier visit k is modelled
as a bivariate Bernoulli pair (Y_j, Y_k) with marginals pi_j, pi_k and
correlation rho.  Everything here is a pure function of those three
numbers: the admissible correlation range and the stratum risk
Pr(Y_j = 1 | Y_k = s), the paper's measure.  stratum_risk is the one
definition of that risk, and stratum_risks of the two exposure groups'
risks and their ratio: coverage, mc and measures all call them, so the
exact engine, the oracle and compare use the same true ratio to the bit.

The equal-marginals case (constant outcome probability over follow-up)
is pi_j == pi_k, where stratum_risk uses the simpler, more accurate form.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, UndefinedMeasureError

# Default study axes of coverage's paper grid and compare's sweep: here,
# since compare loads no NumPy.
DEFAULT_PI_AXIS = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_RHO_AXIS = (0.1, 0.5, 0.9)

# Rounding noise this close to the [0,1] boundary is clamped; anything
# larger means the parameters were inadmissible and is an error.
_EDGE_TOL = 1e-12


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise DomainError(f"{name} must be in [0, 1], got {value!r}")


def _clamp_unit(value: float, what: str) -> float:
    """Clamp values within _EDGE_TOL of [0,1] onto the boundary."""
    if value < 0.0:
        if value >= -_EDGE_TOL:
            return 0.0
        raise DomainError(f"{what} = {value!r} is outside [0, 1]")
    if value > 1.0:
        if value <= 1.0 + _EDGE_TOL:
            return 1.0
        raise DomainError(f"{what} = {value!r} is outside [0, 1]")
    return value


def rho_bounds(pi_j: float, pi_k: float) -> tuple[float, float]:
    """Admissible correlation range for a Bernoulli pair.

    Returns the largest interval of rho values for which both conditional
    probabilities Pr(Y_j=1 | Y_k=1) and Pr(Y_j=1 | Y_k=0) lie in [0, 1]
    (equivalently: all four joint cell probabilities are nonnegative),
    intersected with [-1, 1].  With pi_j == pi_k == pi this reduces to
    max{-pi/(1-pi), -(1-pi)/pi} <= rho <= 1.
    """
    if not (0.0 < pi_j < 1.0):
        raise DomainError(f"pi_j must be strictly inside (0, 1), got {pi_j!r}")
    if not (0.0 < pi_k < 1.0):
        raise DomainError(f"pi_k must be strictly inside (0, 1), got {pi_k!r}")
    qj = 1.0 - pi_j
    qk = 1.0 - pi_k
    lower = max(-1.0, -math.sqrt(pi_j * pi_k / (qj * qk)), -math.sqrt(qj * qk / (pi_j * pi_k)))
    upper = min(1.0, math.sqrt(qj * pi_k / (pi_j * qk)), math.sqrt(pi_j * qk / (qj * pi_k)))
    return lower, upper


@dataclass(frozen=True)
class BernoulliPairParams:
    """Model parameters for one exposure group.

    pi_j is the outcome probability at the later visit, pi_k at the
    earlier one, rho their correlation.  Admissibility of rho (per
    :func:`rho_bounds`, with _EDGE_TOL slack for arithmetic done at the
    bound endpoints) is enforced at construction.
    """

    pi_j: float
    pi_k: float
    rho: float

    def __post_init__(self):
        _check_probability("pi_j", self.pi_j)
        _check_probability("pi_k", self.pi_k)
        if not (-1.0 <= self.rho <= 1.0) or math.isnan(self.rho):
            raise DomainError(f"rho must be in [-1, 1], got {self.rho!r}")
        degenerate = self.pi_j in (0.0, 1.0) or self.pi_k in (0.0, 1.0)
        if degenerate:
            # A degenerate marginal has zero variance: no correlation exists.
            if self.rho != 0.0:
                raise DomainError(
                    "rho must be 0 when a marginal probability is 0 or 1"
                )
            return
        lower, upper = rho_bounds(self.pi_j, self.pi_k)
        if not (lower - _EDGE_TOL <= self.rho <= upper + _EDGE_TOL):
            raise DomainError(
                f"rho = {self.rho!r} outside admissible range "
                f"[{lower!r}, {upper!r}] for pi_j={self.pi_j!r}, pi_k={self.pi_k!r}"
            )


def stratum_risk(params: BernoulliPairParams, stratum: int) -> float:
    """Pr(Y_j = 1 | Y_k = stratum), the later-visit risk within a stratum.

    With pi_j == pi_k == pi it is computed as pi + rho (1 - pi) in stratum
    1 and (1 - rho) pi in stratum 0, which round less than the general
    pi_j +- rho sqrt(pi_j (1 - pi_j) q / p), where p is the stratum's
    probability Pr(Y_k = stratum) and q the other stratum's.  Rounding
    noise within _EDGE_TOL of [0, 1] is clamped.  Raises DomainError for
    a stratum other than 0 or 1, or one of probability zero.
    """
    if stratum not in (0, 1):
        raise DomainError(f"stratum must be 0 or 1, got {stratum!r}")
    pi_j, pi_k, rho = params.pi_j, params.pi_k, params.rho
    p, q = (pi_k, 1.0 - pi_k) if stratum == 1 else (1.0 - pi_k, pi_k)
    if p == 0.0:
        raise DomainError("conditioning event has probability zero")
    if pi_j == pi_k:
        value = pi_j + rho * (1.0 - pi_j) if stratum == 1 else (1.0 - rho) * pi_j
    else:
        shift = rho * math.sqrt(pi_j * (1.0 - pi_j) * q / p)
        value = pi_j + shift if stratum == 1 else pi_j - shift
    return _clamp_unit(value, f"Pr(Y_j=1 | Y_k={stratum})")


def stratum_risks(params_e: BernoulliPairParams, params_ne: BernoulliPairParams,
                  stratum: int) -> tuple[float, float, float]:
    """Stratum risks of the exposed and non-exposed groups, and their ratio.

    Raises UndefinedMeasureError when the non-exposed risk is zero.
    """
    p_e = stratum_risk(params_e, stratum)
    p_ne = stratum_risk(params_ne, stratum)
    if p_ne <= 0.0:
        raise UndefinedMeasureError("non-exposed stratum risk is zero: true ratio undefined")
    return p_e, p_ne, p_e / p_ne
