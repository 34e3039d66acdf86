"""Wronskian machinery, partner potentials and extremal quartets.

Solutions hand out Taylor series at a point (``taylor``); everything
built from them here is one too. A Wronskian is the series of the
determinant, by series LU in extended precision: series coefficients
track the function's own analytic scale, so cancellations stay benign
where the row multi-index (Leibniz) expansion of W^(n) would lose most of
its digits (the tests keep that expansion as the reference). Derivatives
come back out only in ``wronskian`` and ``PartnerPotential.deriv_jet``,
because a potential feeds the ODE closure.

States of a transformed Hamiltonian are Wronskian ratios
(``WronskianRatioState``), built by Darboux-Crum transformations (Crum,
Quart. J. Math. 6 (1955) 121): ``transformed_state`` is the B_k^+ image
of a solution of the base equation, and ``extremal_quartet`` builds the
four extremal states that give w.

The radial-oscillator quartet's second solution at E0 + 1 (PerpSolution)
is integrated by Taylor steps on the same ODE-closure jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import jet_from_taylor, series_diff, series_div, series_mul
from .oscillator import (
    RadialPotential,
    SchrodingerSolution,
    SeedSpec,
    apply_b_plus,
    check_positive,
    check_ranges,
    physical_eigenfunction,
    seed_chain,
)

__all__ = [
    "SingularEvaluationError",
    "WronskianStack",
    "wronskian",
    "PartnerPotential",
    "WronskianRatioState",
    "transformed_state",
    "ExtremalQuartet",
    "extremal_quartet",
    "radial_oscillator_quartet",
    "PerpSolution",
]


class SingularEvaluationError(ArithmeticError):
    """Wronskian underflow at a node (potential singularity of V_k)."""


class WronskianStack:
    """Ordered solutions sharing one ell, with Wronskian jets at any point.

    The empty stack has W = 1 by convention so k = 1 formulas degenerate
    gracefully.
    """

    def __init__(self, solutions: list[SchrodingerSolution]):
        self.solutions = list(solutions)
        if len({s.ell for s in self.solutions}) > 1:
            raise ValueError("stack members must share ell")
        self._jet_cache: dict[float, np.ndarray] = {}
        self._scale_cache: dict[float, float] = {}

    @property
    def size(self) -> int:
        return len(self.solutions)

    def jet(self, x: float, order: int) -> np.ndarray:
        """Taylor coefficients [W, W', W''/2, ..., W^(order)/order!] at x."""
        cached = self._jet_cache.get(x)
        if cached is not None and len(cached) > order:
            return np.asarray(cached[: order + 1], dtype=complex)
        out = self._taylor_det(x, order).astype(complex)
        self._jet_cache[x] = out
        return out

    def _taylor_det(self, x: float, order: int) -> np.ndarray:
        """Taylor series of W at x, through `order`, by series LU.

        Rows pivot on the magnitude of their leading coefficient. Where
        every leading coefficient of a column vanishes exactly (the
        functions share a node at x), the row of lowest valuation v
        pivots instead: each quotient divides t^v out of both series, so
        it stays a power series; its last v coefficients are unknown and
        left 0, which only touches the determinant beyond `order`, since
        the pivot carries t^v.
        """
        m = self.size
        tcols = []
        for s in self.solutions:
            tcols.append(s.taylor(x, m - 1 + order).astype(np.clongdouble))
        # a[r][c] = Taylor series of u_c^(r), truncated at `order`
        a = [[None] * m for _ in range(m)]
        for c in range(m):
            cur = tcols[c]
            for r in range(m):
                a[r][c] = cur[: order + 1].copy()
                if r + 1 < m:
                    cur = series_diff(cur)
        det = np.zeros(order + 1, dtype=np.clongdouble)
        det[0] = 1.0
        sign = 1.0
        for j in range(m):
            p = max(range(j, m), key=lambda i: abs(a[i][j][0]))
            v = 0
            if a[p][j][0] == 0:
                p = min(range(j, m), key=lambda i: _valuation(a[i][j]))
                v = _valuation(a[p][j])
                if v > order:
                    return np.zeros(order + 1, dtype=np.clongdouble)
            if p != j:
                a[j], a[p] = a[p], a[j]
                sign = -sign
            piv = a[j][j]
            det = series_mul(det, piv, order)
            for i in range(j + 1, m):
                if abs(a[i][j][0]) == 0.0 and not a[i][j].any():
                    continue
                factor = series_div(a[i][j][v:], piv[v:], order - v)
                if v:
                    factor = np.concatenate([factor, np.zeros(v, dtype=factor.dtype)])
                for c in range(j + 1, m):
                    a[i][c] = a[i][c] - series_mul(factor, a[j][c], order)
        return sign * det

    def row_scale(self, x: float) -> float:
        """Product of row norms of the base jet matrix (scale-aware zero test)."""
        m = self.size
        if m == 0:
            return 1.0
        scale = self._scale_cache.get(x)
        if scale is None:
            mat = np.column_stack([s.jet_values(x, m - 1) for s in self.solutions])
            scale = 1.0
            for r in range(m):
                scale *= float(np.linalg.norm(mat[r, :]))
            self._scale_cache[x] = scale
        return scale


def _valuation(series: np.ndarray) -> int:
    """Index of the first nonzero coefficient (len(series) if there is none)."""
    nonzero = np.flatnonzero(series)
    return int(nonzero[0]) if nonzero.size else len(series)


def wronskian(stack: WronskianStack, x: float, deriv_order: int = 0) -> complex:
    """W(u_1,...,u_m) or its first/second derivative at x, from the stack's series."""
    if deriv_order not in (0, 1, 2):
        raise ValueError("deriv_order must be 0, 1 or 2")
    return complex(stack.jet(x, deriv_order)[deriv_order]) * math.factorial(deriv_order)


class PartnerPotential:
    """V_k(x) = V0(x) - (ln W(u_1,...,u_k))'' and its derivatives.

    An empty chain needs an explicit ell and degenerates to V0 (the
    empty-stack Wronskian is 1).
    """

    def __init__(self, chain: list[SchrodingerSolution], ell: float | None = None):
        if not chain and ell is None:
            raise ValueError("an empty chain needs an explicit ell")
        self.ell = chain[0].ell if chain else float(ell)
        self.k = len(chain)
        self.stack = WronskianStack(chain)
        self.base = RadialPotential(self.ell)

    def deriv_jet(self, x: float, order: int) -> np.ndarray:
        if self.k == 0:
            return self.base.deriv_jet(x, order)
        tw = self.stack.jet(x, order + 2)
        if abs(tw[0]) < 1e-13 * self.stack.row_scale(x):
            raise SingularEvaluationError(f"W vanishes near x={x}: singular potential")
        logd = series_div(series_diff(tw), tw, order + 1)  # (ln W)' as a series
        lw2 = jet_from_taylor(series_diff(logd))           # (ln W)'' as derivatives
        return self.base.deriv_jet(x, order) - lw2

    def __call__(self, x: float) -> complex:
        return complex(self.deriv_jet(x, 0)[0])


class WronskianRatioState:
    """State of a transformed Hamiltonian: the ratio num/den of two Wronskians.

    Values come from the Taylor series of the ratio itself, so no
    intertwining relation is assumed; the tests check that each state
    solves the equation of den's chain at `energy`.
    """

    def __init__(self, num: WronskianStack, den: WronskianStack, energy: complex, ell: float):
        self.num = num
        self.den = den
        self.energy = complex(energy)
        self.ell = float(ell)

    def taylor(self, x: float, order: int) -> np.ndarray:
        """Taylor coefficients of num/den at x, through `order`."""
        f = self.num.jet(x, order)
        g = self.den.jet(x, order)
        if abs(g[0]) < 1e-13 * self.den.row_scale(x):
            raise SingularEvaluationError(f"denominator Wronskian vanishes near x={x}")
        return series_div(f, g, order)

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        r = self.taylor(x, 1)
        return complex(r[0]), complex(r[1])

    def is_zero(self) -> bool:
        """Identically zero: |num| below 1e-12 of its row scale at four probe points."""
        for x in (0.7, 1.3, 2.4, 3.6):
            f = self.num.jet(x, 0)
            if abs(f[0]) > 1e-12 * max(self.num.row_scale(x), 1e-300):
                return False
        return True


def transformed_state(potential: PartnerPotential,
                      target: SchrodingerSolution) -> WronskianRatioState:
    """B_k^+ image of a target: W(u_1,...,u_k,target)/W(u_1,...,u_k).

    u_1..u_k is the chain of `potential` (V_k); the image solves V_k's
    equation at the target's energy and shares V_k's denominator stack.
    An empty chain is the identity transformation.
    """
    if target.ell != potential.ell:
        raise ValueError("target must share ell with the chain")
    return WronskianRatioState(WronskianStack(potential.stack.solutions + [target]),
                               potential.stack, target.energy, potential.ell)


@dataclass
class ExtremalQuartet:
    """Four states in a chosen ordering, plus their potential.

    states expose value_and_derivative(x) and is_zero(); all four are
    formal eigenfunctions of the Hamiltonian with potential `potential`,
    and energies holds their energies in slot order.
    """

    states: tuple
    ordering_label: str
    potential: object
    energies: tuple = field(init=False)

    def __post_init__(self):
        # read once here, since _g_with_errors reads it at every point
        self.energies = tuple(s.energy for s in self.states)

    def pair_34(self):
        return self.states[2], self.states[3]


def extremal_quartet(spec: SeedSpec) -> ExtremalQuartet:
    """Canonical ("1234") extremal quartet of the k-th order partner.

    states: (B_k^+ b^+ u_1,  B_k^+ x^-l e^{-x^2/4},
             W(u_1..u_{k-1})/W(u_1..u_k),  B_k^+ x^{l+1} e^{-x^2/4})
    energies: (eps1 + 1, -E0 + 1, eps_k, E0). V_k and the four
    denominators share one chain stack, so one factorization per x.
    """
    chain = seed_chain(spec)
    vk = PartnerPotential(chain)
    psi3 = WronskianRatioState(WronskianStack(chain[:-1]), vk.stack,
                               spec.eps1 - (spec.k - 1), spec.ell)
    psi1, psi2, psi4 = (transformed_state(vk, target) for target in (
        apply_b_plus(chain[0]),
        physical_eigenfunction(2, 0, spec.ell),    # x^-l e^{-x^2/4}
        physical_eigenfunction(1, 0, spec.ell)))   # x^{l+1} e^{-x^2/4}
    return ExtremalQuartet((psi1, psi2, psi3, psi4), "1234", vk)


class PerpSolution(SchrodingerSolution):
    """Second solution at the base's energy, Wronskian-normalized to 1.

    Initial data at x = 1: perp = c psi, perp' = 1/psi + c psi', so that
    W(psi, perp) = 1 with an admixture c of psi. High-order Taylor steps on
    the closure jets (Jorba & Zou, Exp. Math. 14 (2005)) span at most
    min(0.25, x/4); the order is the least N whose remainder on the x^-l
    branch, C(l+N, N) 4^-N, is below 1e-17. Checkpoints on a fixed lattice
    are stepped once, so a value is one step from the nearest checkpoint
    whatever the order of requests, and nodes of psi need no care.
    """

    def __init__(self, base: SchrodingerSolution, admixture: complex = 0.0):
        SchrodingerSolution.__init__(self, base.ell, base.energy, base.potential)
        p = max(self.ell, 0.0)
        self._order = next(n for n in range(1, 1000)
                           if math.lgamma(p + n + 1.0) - math.lgamma(p + 1.0) - math.lgamma(n + 1.0)
                           - n * math.log(4.0) < math.log(1e-17))
        psi, dpsi = base.value_and_derivative(1.0)
        start = (admixture * psi, 1.0 / psi + admixture * dpsi)
        points = {1.0: start}
        for path in ([1.0 + 0.25 * j for j in range(1, 45)], [0.75**j for j in range(1, 17)]):
            x0, state = 1.0, start
            for x1 in path:
                points[x1] = state = self._advance(x0, state, x1)
                x0 = x1
        self._xs = np.array(sorted(points))
        self._states = [points[x] for x in self._xs]

    def _advance(self, x0: float, state: tuple, x1: float) -> tuple[complex, complex]:
        """Carry (u, u') from x0 to x1 by Taylor steps of at most min(0.25, x0/4)."""
        n = self._order
        u, du = state
        while x0 != x1:
            reach = min(0.25, 0.25 * x0) * (1.0 + 1e-12)
            nxt = x1 if abs(x1 - x0) <= reach else x0 + math.copysign(reach, x1 - x0)
            jet, h = self.closure_jet(x0, u, du, n), nxt - x0
            u = du = jet[n]
            for m in range(n - 1, 0, -1):
                u = jet[m] + u * h / (m + 1)
                du = jet[m] + du * h / m
            u, x0 = jet[0] + u * h, nxt
        return complex(u), complex(du)

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        check_positive(x)
        i = int(np.argmin(np.abs(self._xs - x)))
        return self._advance(float(self._xs[i]), self._states[i], float(x))


def radial_oscillator_quartet(ell: float, perp_admixture: complex = 0.0) -> ExtremalQuartet:
    """Extremal quartet of the plain radial oscillator.

    (x^{l+1}e^{-x^2/4}, x^{-l}e^{-x^2/4}, psi_1l, psi_1l_perp) with energies
    (E0, -E0+1, E1, E1); the perp state is Wronskian-normalized against
    psi_1l, W(psi_1l, perp) = 1, plus an explicit admixture of psi_1l.
    """
    check_ranges(ell)
    s3 = physical_eigenfunction(1, 1, ell)
    states = (physical_eigenfunction(1, 0, ell), physical_eigenfunction(2, 0, ell), s3,
              PerpSolution(s3, perp_admixture))
    return ExtremalQuartet(states, "1234", RadialPotential(ell))
