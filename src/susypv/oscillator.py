"""Radial-oscillator Schrodinger solutions and their ladder structure.

The base Hamiltonian is H = -1/2 d^2/dx^2 + x^2/8 + l(l+1)/(2 x^2) on
x > 0. Seeds are complex mixtures of the two confluent-hypergeometric
branches; every solution object hands out derivative jets of any order on
a grid of points (a tuple of floats), closed under its own Schrodinger
equation (the potential derivatives are analytic, so the closure is
exact). A seed sums its 1F1 rows over the whole grid in one kummer_1f1
pass and assembles each point on Python scalars; every jet above (u, u')
is one closure_jet call per grid, with each point's scalar bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .jets import taylor_from_jet
from .specialfunctions import (
    _as_nonpositive_int,
    gamma,
    kummer_1f1,
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
REAL_TOL = 1e-13  # a value whose |imaginary part| is at most this counts as real
K_MAX, ELL_MAX, EPS1_MAX = 8, 50.0, 100.0  # bounds of the SeedSpec domain


class DomainError(ValueError):
    """Evaluation outside x > 0."""


class SeedSpecError(ValueError):
    """Seed specification violates its mode's constraints."""


class BranchDegeneracyError(SeedSpecError):
    """Half-odd l with both hypergeometric branches mixed."""


class ChainAnnihilationError(SeedSpecError):
    """A seed-chain member is identically zero."""


def check_positive(x: float, name: str = "x") -> None:
    """Evaluations live on finite x > 0 (on z > 0 for w); NaN and inf fail too."""
    if not 0 < x < math.inf:
        raise DomainError(f"evaluated at {name}={x}: not a finite {name} > 0")


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

    def deriv_jet(self, xs: tuple, order: int) -> np.ndarray:
        """[V0, V0', ..., V0^(order)] at each x of xs, one row per x."""
        out = np.zeros((len(xs), order + 1), dtype=complex)
        c = self._c
        for row, x in zip(out, xs):
            check_positive(x)
            row[0] = x * x / 8.0 + 0.5 * c / (x * x)
            if order >= 1:
                row[1] = x / 4.0 - c / x**3
            if order >= 2:
                row[2] = 0.25 + 3.0 * c / x**4
            # d^j x^-2 = (-1)^j (j+1)! x^-(j+2)
            fac = 6.0  # (j+1)! at j = 2
            for j in range(3, order + 1):
                fac *= j + 1
                row[j] = 0.5 * c * ((-1) ** j) * fac / x ** (j + 2)
        return out

    def singular_at(self, xs: tuple) -> np.ndarray:
        """V0 is regular on x > 0."""
        return np.zeros(len(xs), dtype=bool)


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
    or fully-complex; ordering is a permutation of 1234. No member of the
    seed chain u_1..u_k is identically zero (ChainAnnihilationError; the
    rule is exact). Only evaluation finds a degenerate w.
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
        a1, _, a2, _ = _branch_parameters(self.ell, complex(self.eps1))
        if self.mode == "real-physical":
            eps = complex(self.eps1)
            if (abs(eps.imag) > REAL_TOL or eps.real >= e0(self.ell) + 1e-13
                    or any(abs(complex(m).imag) > REAL_TOL for m in self.mixture)):
                raise SeedSpecError("real-physical needs a real eps1 < E0 and a real mixture")
            # nu exists unless mu1 = 0 or G(a2) has a pole; a gamma pole of the
            # bound itself raises GammaPoleError
            if complex(self.mixture[0]) != 0 and _as_nonpositive_int(a2) is None:
                nu = mixture_to_nu(self.mixture, self.ell, self.eps1)
                bound = nu_lower_bound(self.ell, eps.real)
                if complex(nu).real < bound - 1e-10:
                    raise SeedSpecError(
                        f"nu={complex(nu).real:.6g} below the non-singularity bound {bound:.6g}")
        check_ordering(self.ordering)
        # b^- maps branch j at E to a_j(E) branch j at E - 1 (DLMF 13.3) and
        # a_j(E - 1) = a_j(E) + 1, so u_{i+1} = mu1 (a1)_i branch1 + mu2 (a2)_i branch2
        # (rising factorials): branch j is in u_1..u_last, last = 0 if mu_j = 0,
        # n + 1 if a_j = -n, else inf
        last = max(0 if mu == 0 else math.inf if n is None else n + 1
                   for mu, n in zip(self.mixture, map(_as_nonpositive_int, (a1, a2))))
        if last < self.k:
            raise ChainAnnihilationError(
                f"seed chain member u_{last + 1} of k={self.k} is identically zero")

    @staticmethod
    def from_nu(ell: float, eps1: complex, nu: complex, k: int = 1,
                mode: str | None = None, ordering: str = "1234") -> "SeedSpec":
        check_ranges(ell, eps1)  # outside them the gamma ratio of the nu mapping can overflow
        mixture = nu_to_mixture(nu, ell, eps1)
        if mode is None:
            if abs(complex(eps1).imag) > REAL_TOL:
                mode = "fully-complex"
            elif (any(abs(complex(m).imag) > REAL_TOL for m in mixture)
                  or complex(eps1).real >= e0(ell) - 1e-13):
                mode = "complex-over-real"
            else:
                mode = "real-physical"
        return SeedSpec(float(ell), complex(eps1), mixture, k, mode, ordering)

    @staticmethod
    def from_lambda_kappa(ell: float, eps1: complex, lam: float, kappa: float,
                          k: int = 1, ordering: str = "1234") -> "SeedSpec":
        mix = (1.0 + 0.0j, lam + 1j * kappa)
        mode = "fully-complex" if abs(complex(eps1).imag) > REAL_TOL else "complex-over-real"
        return SeedSpec(float(ell), complex(eps1), mix, k, mode, ordering)


def closure_jet(vjet, start, energy: complex, order: int) -> np.ndarray:
    """[u, u', ..., u^(order)] of the solutions with (u, u') = start, one row per point.

    u^(n+2) = 2 sum_j C(n,j) V^(j) u^(n-j) - 2 energy u^(n), with vjet[i] =
    [V, ..., V^(order-2)] at point i. It runs on float64 (re, im) pairs with
    every complex product written out as CPython computes it (numpy's
    complex multiply fuses multiply-adds), the sum taken left to right onto
    +0, so each point gets the scalar loop's bits. Overflow is quiet, as in
    Python. Memory is O(order * points): step n forms only its own terms.
    """
    def parts(rows):  # the (re, im) pair of each column of complex rows, as a view
        return np.asarray(rows, complex)[..., None].view(np.float64).transpose(1, 2, 0)

    u = np.empty((order + 1, 2, len(start)))
    u[:2] = parts(start)[: order + 1]
    if order < 2:
        return np.ascontiguousarray(u.transpose(2, 0, 1)).view(complex)[..., 0]
    v, e2 = parts(np.asarray(vjet)[:, : order - 1]), 2.0 * complex(energy)
    zero, e_im = np.array([[-0.0], [0.0]]), np.array([[-e2.imag], [e2.imag]])
    sums = np.zeros((order, 2, len(start)))  # row 0 is the +0 each sum starts on
    with np.errstate(over="ignore", invalid="ignore"):
        zv = v[:, ::-1] * zero  # CPython's float * complex: c (vr, vi) = (c vr - 0 vi, c vi + 0 vr)
        for n in range(order - 1):
            c = [1.0] * (n + 1)  # Pascal's row, C(n,j) = C(n,j-1) (n-j+1)/j in floats
            for j in range(1, n):
                c[j] = c[j - 1] * (n - j + 1) / j
            cv = np.array(c)[:, None, None] * v[: n + 1] + zv[: n + 1]  # C(n,j) V^(j)
            p = cv[:, :, None] * u[n::-1, None]  # p[j, a, b] = cv_a u^(n-j)_b
            np.subtract(p[:, 0, 0], p[:, 1, 1], out=sums[1 : n + 2, 0])  # cr ur - ci ui
            np.add(p[:, 0, 1], p[:, 1, 0], out=sums[1 : n + 2, 1])  # cr ui + ci ur
            np.add.accumulate(sums[: n + 2], out=sums[: n + 2])
            acc, un = sums[n + 1], u[n]  # 2.0 * sum - (2.0 * energy) * u^(n)
            twice = 2.0 * acc + acc[::-1] * zero  # (2 ar - 0 ai, 2 ai + 0 ar)
            eu = e2.real * un + un[::-1] * e_im  # (er ur - ei ui, er ui + ei ur)
            np.subtract(twice, eu, out=u[n + 2])
    return np.ascontiguousarray(u.transpose(2, 0, 1)).view(complex)[..., 0]


class SchrodingerSolution:
    """A solution of -u''/2 + V0 u = eps u exposing jets of any order on a grid.

    A grid is a tuple of floats, the key of the per-grid jet cache.
    Subclasses provide value_and_derivative(xs); jet_values and taylor
    hand out everything above first order from one closure_jet call per
    grid, exact (the potential derivatives are analytic) and with each
    point's bits. Instances are immutable after construction; the jet cache
    only grows (safe under the GIL for concurrent reads): it keeps (u, u')
    from the first request on a grid, and a longer jet extends the cached
    one through the closure instead of evaluating the solution again.
    """

    def __init__(self, ell: float, energy: complex, potential: RadialPotential | None = None):
        self.ell = float(ell)
        self.energy = complex(energy)
        self.potential = potential if potential is not None else RadialPotential(ell)
        self._jet_cache: dict[tuple, np.ndarray] = {}

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        """(u, u') at each x of xs, one row per x."""
        raise NotImplementedError

    def jet_values(self, xs: tuple, order: int) -> np.ndarray:
        """[u, u', ..., u^(order)] at each x of xs, one row per x; DomainError off 0 < x < inf."""
        cached = self._jet_cache.get(xs)
        if cached is not None and cached.shape[1] > order:
            return cached[:, : order + 1]
        n = max(order, 1)
        start = self.value_and_derivative(xs) if cached is None else cached[:, :2]
        vjet = self.potential.deriv_jet(xs, n - 2) if n >= 2 else None
        vals = self._jet_cache[xs] = closure_jet(vjet, start, self.energy, n)
        return vals[:, : order + 1]

    def taylor(self, xs: tuple, order: int) -> np.ndarray:
        """Taylor coefficients [u, u', u''/2, ..., u^(order)/order!] at each x of xs."""
        return taylor_from_jet(self.jet_values(xs, order))


class SeedSolution(SchrodingerSolution):
    """General seed u = mu1*branch1 + mu2*branch2 at factorization energy eps.

    branch1 = x^-l e^{-x^2/4} 1F1((1-2l-4e)/4, (1-2l)/2; x^2/2)
    branch2 = x^-l e^{-x^2/4} (x^2/2)^{l+1/2} 1F1((3+2l-4e)/4, (3+2l)/2; x^2/2)
    """

    def __init__(self, ell: float, energy: complex, mixture: tuple[complex, complex]):
        check_seed(ell, energy, mixture)
        super().__init__(ell, energy)
        self.mixture = (complex(mixture[0]), complex(mixture[1]))
        a1, b1, a2, b2 = _branch_parameters(ell, self.energy)
        # the 1F1 rows of the branches in use: M = 1F1(a, b) and, unless a = 0
        # (M = 1, M' = 0), M' = (a/b) 1F1(a+1, b+1) by the contiguous relation
        self._rows = []
        self._branches = []  # per branch: (mu, row of M, a/b or None at a = 0)
        for mu, a, b in ((self.mixture[0], a1, b1), (self.mixture[1], a2, b2)):
            if mu == 0:
                self._branches.append(None)
                continue
            self._rows.append((a, b))
            a, b = complex(a), complex(b)
            if _as_nonpositive_int(a) == 0:
                self._branches.append((mu, len(self._rows) - 1, None))
            else:
                self._branches.append((mu, len(self._rows) - 1, a / b))
                self._rows.append((a + 1.0, b + 1.0))

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        """(u, u') at each x of xs: one kummer_1f1 call, then each point on Python scalars."""
        for x in xs:
            check_positive(x)
        ys = [0.5 * x * x for x in xs]
        m = (kummer_1f1([a for a, _ in self._rows], [b for _, b in self._rows], ys).T.tolist()
             if self._rows else [()] * len(xs))
        points = [self._point(x, y, mx) for x, y, mx in zip(xs, ys, m)]
        return np.array(points, dtype=complex).reshape(len(xs), 2)

    def _point(self, x: float, y: float, m: list) -> tuple[complex, complex]:
        """(u, u') at one x > 0 from the row values m of the 1F1 call at y = x^2/2."""
        pref = x ** (-self.ell) * math.exp(-0.25 * x * x)
        dlog = -self.ell / x - 0.5 * x
        u = 0.0 + 0.0j
        du = 0.0 + 0.0j
        branch1, branch2 = self._branches
        if branch1 is not None:
            mu1, r, ab = branch1
            dm = 0j if ab is None else ab * m[r + 1]
            b1 = pref * m[r]
            u += mu1 * b1
            du += mu1 * (dlog * b1 + pref * dm * x)
        if branch2 is not None:
            mu2, r, ab = branch2
            dm = 0j if ab is None else ab * m[r + 1]
            p2 = pref * y ** (self.ell + 0.5)
            b2 = p2 * m[r]
            u += mu2 * b2
            du += mu2 * ((dlog + (2.0 * self.ell + 1.0) / x) * b2 + p2 * dm * x)
        return u, du


class ClosedFormSolution(SchrodingerSolution):
    """Solution wrapping an explicit x -> (value, derivative) callable."""

    def __init__(self, ell: float, energy: complex, fn):
        super().__init__(ell, energy)
        self._fn = fn

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        for x in xs:
            check_positive(x)
        return np.array([self._fn(x) for x in xs], dtype=complex).reshape(len(xs), 2)


class _LadderedSolution(SchrodingerSolution):
    """b^+/- applied to a parent solution; energy shifts by +/-1."""

    def __init__(self, parent: SchrodingerSolution, raise_energy: bool):
        super().__init__(parent.ell, parent.energy + (1.0 if raise_energy else -1.0),
                         parent.potential)
        self._parent = parent
        self._sign = -1.0 if raise_energy else 1.0  # the sign replacing -/+ in b^-/+

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        out = np.empty((len(xs), 2), dtype=complex)
        c = self.ell * (self.ell + 1.0)
        s = self._sign
        for row, x, u in zip(out, xs, self._parent.jet_values(xs, 3)):
            p = x * x / 4.0 - c / (x * x) + 0.5 * s
            dp = 0.5 * x + 2.0 * c / x**3
            row[0] = 0.5 * (u[2] + s * x * u[1] + p * u[0])
            row[1] = 0.5 * (u[3] + s * (u[1] + x * u[2]) + p * u[1] + dp * u[0])
        return out


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
    if _as_nonpositive_int(arg) is not None:
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
    """Connected chain u_i = (b^-)^(i-1) u_1 with energies eps1 - (i-1).

    No member is identically zero: SeedSpec rules that out.
    """
    chain: list[SchrodingerSolution] = [make_seed(spec)]
    for _ in range(spec.k - 1):
        chain.append(apply_b_minus(chain[-1]))
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
