"""Painleve V transcendents from SUSY/Darboux partners of the radial oscillator.

Build a seed chain u_i = (b^-)^(i-1) u_1 of radial-oscillator solutions,
form the k-th order Wronskian partner potential and its four extremal
states, and read off a Painleve V solution w(z) = 1 + sqrt(z)/g(sqrt(z))
together with its parameters (a, b, c, d). Every generated solution is
certified by direct numerical evaluation of the PV residual.
"""

from .oscillator import (
    NU_INF,
    RadialPotential,
    SchrodingerSolution,
    SeedSolution,
    SeedSpec,
    apply_b_minus,
    apply_b_plus,
    e0,
    make_seed,
    mixture_to_nu,
    nu_lower_bound,
    nu_to_mixture,
    physical_eigenfunction,
    seed_chain,
)
from .painleve import (
    CANONICAL_ORDERINGS,
    DegenerateOutputError,
    GridSample,
    PVParams,
    PVSolution,
    classify_degenerate,
    permute_quartet,
    pv_params,
    solution_from_quartet,
    solve,
)
from .susy import (
    ExtremalQuartet,
    PartnerPotential,
    WronskianStack,
    extremal_quartet,
    quartet_energies,
    radial_oscillator_quartet,
    transformed_state,
)
from .hierarchies import HierarchyTag, crosscheck, detect
from .specialfunctions import (
    bessel_i,
    gamma,
    hermite_h,
    kummer_1f1,
    laguerre_l,
    log_gamma,
)

__version__ = "0.1.0"
