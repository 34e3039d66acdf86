"""Radial-oscillator Schrodinger solutions and their ladder structure.

The base Hamiltonian is H = -1/2 d^2/dx^2 + x^2/8 + l(l+1)/(2 x^2) on
x > 0. Seeds are complex mixtures of the two confluent-hypergeometric
branches; every solution object hands out derivative jets of any order,
closed under its own Schrodinger equation (the potential derivatives are
analytic, so the closure is exact).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .jets import binom, taylor_from_jet
from .specialfunctions import (
    GammaPoleError,
    gamma,
    kummer_1f1,
    kummer_1f1_dx,
    laguerre_l,
    parameter_pole,
)

__all__ = [
    "DomainError",
    "BranchDegeneracyError",
    "ChainAnnihilationError",
    "SeedSpecError",
    "NU_INF",
    "e0",
    "RadialPotential",
    "SeedSpec",
    "SchrodingerSolution",
    "SeedSolution",
    "ClosedFormSolution",
    "make_seed",
    "nu_to_mixture",
    "mixture_to_nu",
    "nu_lower_bound",
    "apply_b_minus",
    "apply_b_plus",
    "seed_chain",
    "physical_eigenfunction",
]

NU_INF = math.inf
K_MAX, ELL_MAX, EPS1_MAX = 8, 50.0, 100.0  # bounds of the SeedSpec domain

_PROBE_XS = (0.6, 1.1, 1.9, 3.0, 4.4)


class DomainError(ValueError):
    """Evaluation outside x > 0."""


class SeedSpecError(ValueError):
    """Seed specification violates its mode's constraints."""


class BranchDegeneracyError(SeedSpecError):
    """Half-odd l with both hypergeometric branches mixed."""


class ChainAnnihilationError(SeedSpecError):
    """A seed-chain member is identically zero."""


def check_positive(x: float, name: str = "x") -> None:
    """Evaluations live on x > 0 (on z > 0 for w)."""
    if x <= 0:
        raise DomainError(f"evaluated at {name}={x} <= 0")


def check_ranges(ell: float, eps1: complex = 0.0) -> None:
    """-1/2 <= l <= ELL_MAX and |eps1| <= EPS1_MAX; NaN and inf fail both."""
    if not -0.5 <= ell <= ELL_MAX:
        raise SeedSpecError(f"require -1/2 <= ell <= {ELL_MAX:g}, got {ell}")
    e = complex(eps1)  # |e|^2 by hand: abs() raises OverflowError near the double range
    if not e.real * e.real + e.imag * e.imag <= EPS1_MAX * EPS1_MAX:
        raise SeedSpecError(f"require |eps1| <= {EPS1_MAX:g}, got {eps1}")


def check_ordering(label: str) -> None:
    if len(label) != 4 or set(label) != set("1234"):
        raise SeedSpecError(f"invalid ordering label {label!r}")


def _branch_parameters(ell: float, energy: complex) -> tuple:
    """(a1, b1, a2, b2) of the two 1F1 branches of a seed (see SeedSolution)."""
    return ((1.0 - 2.0 * ell - 4.0 * energy) / 4.0, (1.0 - 2.0 * ell) / 2.0,
            (3.0 + 2.0 * ell - 4.0 * energy) / 4.0, (3.0 + 2.0 * ell) / 2.0)


def check_seed(ell: float, energy: complex, mixture: tuple[complex, complex]) -> None:
    """The SeedSpec rules on (l, eps1, mixture)."""
    check_ranges(ell, energy)
    mu1, mu2 = (complex(m) for m in mixture)
    if not math.isfinite(sum(m.real * m.real + m.imag * m.imag for m in (mu1, mu2))):
        raise SeedSpecError("the mixture's squared norm |mu1|^2 + |mu2|^2 must be finite")
    if abs((ell - 0.5) - round(ell - 0.5)) < 1e-12 and mu1 != 0:  # half-odd l
        if mu2 != 0:
            raise BranchDegeneracyError(f"ell={ell} is half-odd: the 1F1 branches are degenerate")
        a1, b1, _, _ = _branch_parameters(ell, complex(energy))
        if parameter_pole(a1, b1):
            raise SeedSpecError(f"ell={ell} is half-odd: 1F1({a1}, {b1}) of branch 1 has a pole")


def e0(ell: float) -> float:
    """Ground-level energy E0 = l/2 + 3/4."""
    return 0.5 * ell + 0.75


class RadialPotential:
    """V0(x) = x^2/8 + l(l+1)/(2x^2) with analytic derivatives of any order."""

    def __init__(self, ell: float):
        self.ell = float(ell)
        self._c = self.ell * (self.ell + 1.0)

    def deriv_jet(self, x: float, order: int) -> np.ndarray:
        check_positive(x)
        out = np.zeros(order + 1, dtype=complex)
        c = self._c
        out[0] = x * x / 8.0 + 0.5 * c / (x * x)
        if order >= 1:
            out[1] = x / 4.0 - c / x**3
        if order >= 2:
            out[2] = 0.25 + 3.0 * c / x**4
        # d^j x^-2 = (-1)^j (j+1)! x^-(j+2)
        fac = 6.0  # (j+1)! at j = 2
        for j in range(3, order + 1):
            fac *= j + 1
            out[j] = 0.5 * c * ((-1) ** j) * fac / x ** (j + 2)
        return out

    def __call__(self, x: float) -> complex:
        return complex(self.deriv_jet(x, 0)[0])


@dataclass(frozen=True)
class SeedSpec:
    """Full recipe input for one SUSY transformation chain.

    mixture holds the coefficients (mu1, mu2) of the two 1F1 branches; use
    from_nu / from_lambda_kappa to build it from the paper-style knobs.

    Construction checks the supported domain; outside it, SeedSpecError (or
    GammaPoleError at a gamma pole of nu's mapping or bound). k is an
    integer in [1, 8], -1/2 <= l <= 50, |eps1| <= 100 and |mu1|^2 + |mu2|^2
    is a finite double. At half-odd l the branches are never mixed, and
    branch 1 (mu1 != 0) needs 1F1(a1, b1) defined. mode is real-physical
    (real eps1 < E0, real mixture, nu >= nu_lower_bound), complex-over-real
    or fully-complex; ordering is a permutation of 1234. Only evaluation
    finds an annihilated chain or a degenerate w.
    """

    ell: float
    eps1: complex
    mixture: tuple[complex, complex]
    k: int = 1
    mode: str = "real-physical"
    ordering: str = "1234"

    def __post_init__(self):
        if not (isinstance(self.k, numbers.Integral) and 1 <= self.k <= K_MAX):
            raise SeedSpecError(f"SUSY order k must be an integer in [1, {K_MAX}], got {self.k!r}")
        check_seed(self.ell, self.eps1, self.mixture)
        if self.mode not in ("real-physical", "complex-over-real", "fully-complex"):
            raise SeedSpecError(f"unknown mode {self.mode!r}")
        if self.mode == "real-physical":
            eps = complex(self.eps1)
            if (abs(eps.imag) > 1e-13 or eps.real >= e0(self.ell) + 1e-13
                    or any(abs(complex(m).imag) > 1e-13 for m in self.mixture)):
                raise SeedSpecError("real-physical needs a real eps1 < E0 and a real mixture")
            try:
                nu = mixture_to_nu(self.mixture, self.ell, self.eps1)
            except GammaPoleError:
                nu = NU_INF  # the bound is not expressible through nu at this eps1
            if nu != NU_INF:  # a gamma pole of the bound itself raises GammaPoleError
                bound = nu_lower_bound(self.ell, eps.real)
                if complex(nu).real < bound - 1e-10:
                    raise SeedSpecError(
                        f"nu={complex(nu).real:.6g} below the non-singularity bound {bound:.6g}")
        check_ordering(self.ordering)

    @staticmethod
    def from_nu(ell: float, eps1: complex, nu: complex, k: int = 1,
                mode: str | None = None, ordering: str = "1234") -> "SeedSpec":
        check_ranges(ell, eps1)  # outside them the gamma ratio of the nu mapping can overflow
        mixture = nu_to_mixture(nu, ell, eps1)
        if mode is None:
            if abs(complex(eps1).imag) > 1e-13:
                mode = "fully-complex"
            elif (any(abs(complex(m).imag) > 1e-13 for m in mixture)
                  or complex(eps1).real >= e0(ell) - 1e-13):
                mode = "complex-over-real"
            else:
                mode = "real-physical"
        return SeedSpec(float(ell), complex(eps1), mixture, k, mode, ordering)

    @staticmethod
    def from_lambda_kappa(ell: float, eps1: complex, lam: float, kappa: float,
                          k: int = 1, ordering: str = "1234") -> "SeedSpec":
        mix = (1.0 + 0.0j, lam + 1j * kappa)
        mode = "fully-complex" if abs(complex(eps1).imag) > 1e-13 else "complex-over-real"
        return SeedSpec(float(ell), complex(eps1), mix, k, mode, ordering)


class SchrodingerSolution:
    """A solution of -u''/2 + V0 u = eps u exposing jets of any order.

    Subclasses provide value_and_derivative(x); jet_values and taylor
    hand out everything above first order, from the ODE closure
        u^(n+2) = 2 sum_j C(n,j) V0^(j) u^(n-j) - 2 eps u^(n),
    which is exact because the potential derivatives are analytic.
    Instances are immutable after construction; the per-x jet cache only
    grows (safe under the GIL for concurrent reads): it keeps (u, u') from
    the first request, and a longer jet extends the cached one through
    the closure instead of evaluating the solution again.
    """

    def __init__(self, ell: float, energy: complex, potential: RadialPotential | None = None):
        self.ell = float(ell)
        self.energy = complex(energy)
        self.potential = potential if potential is not None else RadialPotential(ell)
        self._jet_cache: dict[float, np.ndarray] = {}
        self._zero: bool | None = None

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        raise NotImplementedError

    def jet_values(self, x: float, order: int) -> np.ndarray:
        x = float(x)  # x <= 0 raises DomainError where the jet is first evaluated
        cached = self._jet_cache.get(x)
        if cached is not None and len(cached) > order:
            return cached[: order + 1]
        u0, u1 = self.value_and_derivative(x) if cached is None else cached[:2]
        vals = self.closure_jet(x, u0, u1, max(order, 1))
        self._jet_cache[x] = vals
        return vals[: order + 1]

    def closure_jet(self, x: float, u0: complex, u1: complex, order: int) -> np.ndarray:
        """Jet at x of the solution with u(x) = u0, u'(x) = u1 (uncached)."""
        # Python scalars: the numpy-scalar operations, in order, at 1/3 the cost
        vals = [complex(u0), complex(u1)][: order + 1]
        if order >= 2:
            vjet = self.potential.deriv_jet(x, max(order - 2, 0)).tolist()
            for n in range(order - 1):
                c = binom(n).tolist()
                acc = 0.0 + 0.0j
                for j in range(n + 1):
                    acc += c[j] * vjet[j] * vals[n - j]
                vals.append(2.0 * acc - 2.0 * self.energy * vals[n])
        return np.array(vals, dtype=complex)

    def taylor(self, x: float, order: int) -> np.ndarray:
        """Taylor coefficients [u, u', u''/2, ..., u^(order)/order!] at x."""
        return taylor_from_jet(self.jet_values(x, order))

    def __call__(self, x: float) -> complex:
        return complex(self.jet_values(x, 0)[0])

    def is_zero(self) -> bool:
        """Identically-zero detection (ladder annihilation) on probe points."""
        if self._zero is None:
            mags = [abs(u) + abs(du)
                    for u, du in map(self.value_and_derivative, _PROBE_XS)]
            self._zero = max(mags) < 1e-200 or all(m < 1e-14 * (1.0 + max(mags)) for m in mags)
        return self._zero


class SeedSolution(SchrodingerSolution):
    """General seed u = mu1*branch1 + mu2*branch2 at factorization energy eps.

    branch1 = x^-l e^{-x^2/4} 1F1((1-2l-4e)/4, (1-2l)/2; x^2/2)
    branch2 = x^-l e^{-x^2/4} (x^2/2)^{l+1/2} 1F1((3+2l-4e)/4, (3+2l)/2; x^2/2)
    """

    def __init__(self, ell: float, energy: complex, mixture: tuple[complex, complex]):
        check_seed(ell, energy, mixture)
        super().__init__(ell, energy)
        self.mixture = (complex(mixture[0]), complex(mixture[1]))
        self._a1, self._b1, self._a2, self._b2 = _branch_parameters(ell, self.energy)

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        check_positive(x)
        mu1, mu2 = self.mixture
        y = 0.5 * x * x
        pref = x ** (-self.ell) * math.exp(-0.25 * x * x)
        dlog = -self.ell / x - 0.5 * x
        u = 0.0 + 0.0j
        du = 0.0 + 0.0j
        if mu1 != 0:
            m = kummer_1f1(self._a1, self._b1, y)
            dm = kummer_1f1_dx(self._a1, self._b1, y)
            b1 = pref * m
            u += mu1 * b1
            du += mu1 * (dlog * b1 + pref * dm * x)
        if mu2 != 0:
            m = kummer_1f1(self._a2, self._b2, y)
            dm = kummer_1f1_dx(self._a2, self._b2, y)
            p2 = pref * y ** (self.ell + 0.5)
            b2 = p2 * m
            u += mu2 * b2
            du += mu2 * ((dlog + (2.0 * self.ell + 1.0) / x) * b2 + p2 * dm * x)
        return u, du


class ClosedFormSolution(SchrodingerSolution):
    """Solution wrapping explicit (value, derivative) callables."""

    def __init__(self, ell: float, energy: complex, fn):
        super().__init__(ell, energy)
        self._fn = fn

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        check_positive(x)
        return self._fn(x)


class _LadderedSolution(SchrodingerSolution):
    """b^+/- applied to a parent solution; energy shifts by +/-1."""

    def __init__(self, parent: SchrodingerSolution, raise_energy: bool):
        super().__init__(parent.ell, parent.energy + (1.0 if raise_energy else -1.0),
                         parent.potential)
        self._parent = parent
        self._sign = -1.0 if raise_energy else 1.0  # the sign replacing -/+ in b^-/+

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        u = self._parent.jet_values(x, 3)
        c = self.ell * (self.ell + 1.0)
        s = self._sign
        p = x * x / 4.0 - c / (x * x) + 0.5 * s
        dp = 0.5 * x + 2.0 * c / x**3
        v = 0.5 * (u[2] + s * x * u[1] + p * u[0])
        dv = 0.5 * (u[3] + s * (u[1] + x * u[2]) + p * u[1] + dp * u[0])
        return v, dv

    def is_zero(self) -> bool:
        # Annihilation leaves only cancellation dust; compare to the parent's scale.
        if self._zero is None:
            ratios = []
            for x in _PROBE_XS:
                v, dv = self.value_and_derivative(x)
                pj = self._parent.jet_values(x, 2)
                scale = max(abs(pj[0]), abs(pj[1]), abs(pj[2]), 1e-300)
                ratios.append((abs(v) + abs(dv)) / scale)
            self._zero = max(ratios) < 1e-12
        return self._zero


def _nu_coefficient(ell: float, eps: complex) -> complex:
    """G((3+2l-4e)/4)/G((3+2l)/2), the factor between nu and mu2/mu1."""
    return gamma((3.0 + 2.0 * ell - 4.0 * complex(eps)) / 4.0) / gamma((3.0 + 2.0 * ell) / 2.0)


def nu_to_mixture(nu: complex, ell: float, eps: complex) -> tuple[complex, complex]:
    """Map the nu knob to branch coefficients (1, nu*G((3+2l-4e)/4)/G((3+2l)/2)).

    nu = math.inf is the dominant-branch token and maps to (0, 1).
    """
    if nu == NU_INF:
        return (0.0 + 0.0j, 1.0 + 0.0j)
    return (1.0 + 0.0j, complex(nu) * _nu_coefficient(ell, eps))


def mixture_to_nu(mixture: tuple[complex, complex], ell: float, eps: complex) -> complex:
    """Inverse of nu_to_mixture (returns NU_INF when mu1 == 0)."""
    mu1, mu2 = complex(mixture[0]), complex(mixture[1])
    if mu1 == 0:
        return NU_INF
    return (mu2 / mu1) / _nu_coefficient(ell, eps)


def nu_lower_bound(ell: float, eps: float) -> float:
    """Non-singularity bound: nu >= -G((1-2l)/2) / G((1-2l-4e)/4).

    A pole of the denominator gamma means the bound is 0 (reciprocal-gamma
    zero); a pole of the numerator gamma is an error.
    """
    num = gamma((1.0 - 2.0 * ell) / 2.0)  # may raise GammaPoleError
    arg = (1.0 - 2.0 * ell - 4.0 * float(eps)) / 4.0
    if abs(arg - round(arg)) < 1e-12 and round(arg) <= 0:
        return 0.0
    return float((-num / gamma(arg)).real)


def make_seed(spec: SeedSpec) -> SeedSolution:
    """Build the general seed solution u1 for a spec."""
    return SeedSolution(spec.ell, spec.eps1, spec.mixture)


def apply_b_minus(sol: SchrodingerSolution) -> SchrodingerSolution:
    """Annihilation-direction ladder: energy eps -> eps - 1."""
    return _LadderedSolution(sol, raise_energy=False)


def apply_b_plus(sol: SchrodingerSolution) -> SchrodingerSolution:
    """Creation-direction ladder: energy eps -> eps + 1."""
    return _LadderedSolution(sol, raise_energy=True)


def seed_chain(spec: SeedSpec) -> list[SchrodingerSolution]:
    """Connected chain u_i = (b^-)^(i-1) u_1 with energies eps1 - (i-1)."""
    chain: list[SchrodingerSolution] = [make_seed(spec)]
    for _ in range(spec.k - 1):
        nxt = apply_b_minus(chain[-1])
        if nxt.is_zero():
            raise ChainAnnihilationError(
                f"b^- annihilates chain member {len(chain)} (degenerate seed)")
        chain.append(nxt)
    if chain[0].is_zero():
        raise ChainAnnihilationError("seed solution is identically zero")
    return chain


def physical_eigenfunction(family: int, n: int, ell: float) -> ClosedFormSolution:
    """Laguerre-form solution ladders of the radial oscillator.

    family 1: x^{l+1} e^{-x^2/4} L_n^{l+1/2}(x^2/2),   E = E0 + n   (physical)
    family 2: x^{-l}  e^{-x^2/4} L_n^{-l-1/2}(x^2/2),  E = -E0+1+n
    family 3: x^{-l}  e^{+x^2/4} L_n^{-l-1/2}(-x^2/2), E = E0-1-n
    family 4: x^{l+1} e^{+x^2/4} L_n^{l+1/2}(-x^2/2),  E = -E0-n
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if family not in (1, 2, 3, 4):
        raise ValueError("family must be in 1..4")
    grow = family in (3, 4)
    up_power = family in (1, 4)
    alpha = ell + 0.5 if up_power else -ell - 0.5
    p = ell + 1.0 if up_power else -ell
    esign = 1.0 if grow else -1.0  # sign of x^2/4 in the exponent
    ysign = -1.0 if grow else 1.0  # sign of the Laguerre argument x^2/2
    energy = {
        1: e0(ell) + n,
        2: -e0(ell) + 1.0 + n,
        3: e0(ell) - 1.0 - n,
        4: -e0(ell) - n,
    }[family]

    def fn(x: float, n=n, alpha=alpha, p=p, esign=esign, ysign=ysign):
        pref = x**p * math.exp(esign * 0.25 * x * x)
        dlog = p / x + esign * 0.5 * x
        y = ysign * 0.5 * x * x
        lag = laguerre_l(n, alpha, y)
        dlag = -laguerre_l(n - 1, alpha + 1.0, y) * ysign * x if n >= 1 else 0.0
        return pref * lag, pref * (dlog * lag + dlag)

    return ClosedFormSolution(ell, energy, fn)
