"""Population-level comparison of crude and conditional risk ratios.

Sweeps parameter grids in the constant-marginal design (each group keeps
one outcome probability across both visits) and tabulates the crude
ratio next to both conditional ratios.  Pure plug-in evaluation, no
sampling.
"""

import itertools
import math
from dataclasses import dataclass

from ._run import write_table
from .errors import DomainError
from .measures import plug_in_rr0, plug_in_rr1
from .model import DEFAULT_PI_AXIS, DEFAULT_RHO_AXIS

COMPARE_CSV_HEADER = "pi_E,pi_nonE,rho_E,rho_nonE,rr,rr1,rr0"


@dataclass(frozen=True)
class CompareRecord:
    """One grid point; inadmissible points carry nan ratios and an error note."""

    pi_e: float
    pi_ne: float
    rho_e: float
    rho_ne: float
    rr: float
    rr1: float
    rr0: float
    error: str | None = None


def compare_point(pi_e: float, pi_ne: float, rho_e: float, rho_ne: float) -> CompareRecord:
    """Crude and conditional population ratios at one parameter point."""
    try:
        if not 0.0 < pi_e < 1.0 or not 0.0 < pi_ne < 1.0:
            raise DomainError("marginal probabilities must be in (0, 1)")
        rr = pi_e / pi_ne
        rr1 = plug_in_rr1(pi_e, pi_e, rho_e, pi_ne, pi_ne, rho_ne)
        rr0 = plug_in_rr0(pi_e, pi_e, rho_e, pi_ne, pi_ne, rho_ne)
    except DomainError as exc:
        return CompareRecord(pi_e, pi_ne, rho_e, rho_ne, math.nan, math.nan, math.nan, str(exc))
    return CompareRecord(pi_e, pi_ne, rho_e, rho_ne, rr, rr1, rr0)


def compare_grid(
    pi_e_axis=DEFAULT_PI_AXIS,
    pi_ne_axis=DEFAULT_PI_AXIS,
    rho_e_axis=DEFAULT_RHO_AXIS,
    rho_ne_axis=DEFAULT_RHO_AXIS,
) -> list:
    """Records over the Cartesian grid, lexicographic in the axis order."""
    for name, axis in (
        ("pi_E", pi_e_axis), ("pi_nonE", pi_ne_axis),
        ("rho_E", rho_e_axis), ("rho_nonE", rho_ne_axis),
    ):
        if len(axis) == 0:
            raise DomainError(f"axis {name} is empty")
    return [
        compare_point(pi_e, pi_ne, rho_e, rho_ne)
        for pi_e, pi_ne, rho_e, rho_ne in itertools.product(
            pi_e_axis, pi_ne_axis, rho_e_axis, rho_ne_axis
        )
    ]


def write_compare_csv(records, out) -> None:
    """Write comparison records as CSV (10 significant digits)."""
    write_table(out, COMPARE_CSV_HEADER, (
        [format(v, ".10g") for v in (r.pi_e, r.pi_ne, r.rho_e, r.rho_ne, r.rr, r.rr1, r.rr0)]
        for r in records
    ))
