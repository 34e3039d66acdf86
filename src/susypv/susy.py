"""Wronskian machinery, partner potentials and extremal quartets.

Every solution, state and potential is evaluated on a grid, a tuple of
floats that keys every per-grid cache; a single point is a grid of one.
Solutions hand out Taylor series (``taylor(xs, order)``), and everything
built from them here is one too, on the whole grid at once. A Wronskian
is the series of the determinant, by series LU in extended precision:
series coefficients track the function's own analytic scale, so
cancellations stay benign where the row multi-index (Leibniz) expansion
of W^(n) would lose most of its digits (the tests keep that expansion as
the reference). The LU runs on one np.clongdouble
array over (point, row, column, coefficient), so each elimination step is
one array operation per series coefficient for the whole grid, and each
point keeps the pivots and bits it would have alone. Derivatives come
back out only in ``PartnerPotential.deriv_jet``, because a potential
feeds the ODE closure. Nothing here raises at a singular point: stacks
and potentials report it as a mask (``singular``, ``singular_at``), and
callers that must raise call ``raise_if_singular``.

States of a transformed Hamiltonian are Wronskian ratios
(``WronskianRatioState``), built by Darboux-Crum transformations (Crum,
Quart. J. Math. 6 (1955) 121): ``transformed_state`` is the B_k^+ image
of a solution of the base equation, and ``extremal_quartet`` builds the
four extremal states that give w.

The radial-oscillator quartet's second solution at E0 + 1 (PerpSolution)
is integrated by Taylor steps on the same ODE-closure jets, all points
of a grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .jets import jet_from_taylor, series_diff, series_div, series_mul, taylor_from_jet
from .oscillator import (
    RadialPotential,
    SchrodingerSolution,
    SeedSpec,
    apply_b_plus,
    check_positive,
    check_ranges,
    closure_jet,
    physical_eigenfunction,
    seed_chain,
)
from .specialfunctions import _CHUNK

__all__ = [
    "SingularEvaluationError",
    "raise_if_singular",
    "WronskianStack",
    "PartnerPotential",
    "WronskianRatioState",
    "transformed_state",
    "ExtremalQuartet",
    "quartet_energies",
    "extremal_quartet",
    "radial_oscillator_quartet",
    "PerpSolution",
]



class SingularEvaluationError(ArithmeticError):
    """Wronskian underflow at a node (potential singularity of V_k)."""


def raise_if_singular(xs: tuple, singular: np.ndarray) -> None:
    """SingularEvaluationError at the first x of xs where `singular` is set."""
    if np.count_nonzero(singular):  # ndarray.any costs 4x more on a grid of one
        x = xs[int(np.argmax(singular))]
        raise SingularEvaluationError(f"W vanishes near x={x}: singular potential")


class WronskianStack:
    """Ordered solutions sharing one ell, with Wronskian series on a grid.

    A grid is a tuple of floats: the key of the per-grid caches, so every
    caller that asks for the same points shares one factorization. The
    empty stack has W = 1 by convention so k = 1 formulas degenerate
    gracefully.
    """

    def __init__(self, solutions: list[SchrodingerSolution]):
        self.solutions = list(solutions)
        if len({s.ell for s in self.solutions}) > 1:
            raise ValueError("stack members must share ell")
        self._jet_cache: dict[tuple, np.ndarray] = {}
        # read off the cached jet of the same grid, so dropped when it is recomputed
        self._logd_cache: dict[tuple, np.ndarray] = {}
        self._singular_cache: dict[tuple, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.solutions)

    def jet(self, xs: tuple, order: int) -> np.ndarray:
        """Taylor coefficients [W, W', W''/2, ..., W^(order)/order!], one row per x of xs."""
        cached = self._jet_cache.get(xs)
        if cached is None or cached.shape[1] <= order:
            cached = self._jet_cache[xs] = self._taylor_det(xs, order).astype(complex)
            self._logd_cache.pop(xs, None)
            self._singular_cache.pop(xs, None)
        return cached[:, : order + 1]

    def singular(self, xs: tuple) -> np.ndarray:
        """|W| < 1e-13 row_scale at each x of xs: W vanishes, V_k is singular."""
        if not self.solutions:
            return np.zeros(len(xs), dtype=bool)
        mask = self._singular_cache.get(xs)
        if mask is None:
            w = self.jet(xs, 0)[:, 0]
            mask = self._singular_cache[xs] = np.hypot(w.real, w.imag) < 1e-13 * self.row_scale(xs)
        return mask

    def _taylor_det(self, xs: tuple, order: int) -> np.ndarray:
        """Taylor series of W at each x of xs through `order`, by one series LU.

        The matrix holds every point at once, (point, row, column,
        coefficient) in clongdouble, and each elimination step is one array
        operation per series coefficient. Each point pivots on its own row
        of largest leading magnitude (the first of equals). Where every
        leading coefficient of a column vanishes exactly (the functions
        share a node at x), the row of lowest valuation v pivots instead:
        each quotient divides t^v out of both series, so it stays a power
        series; its last v coefficients are unknown and left 0, which only
        touches the determinant beyond `order`, since the pivot carries t^v.
        Where v exceeds `order`, W is 0 through `order`.
        """
        m, npts, n = self.size, len(xs), order + 1
        # a[:, r, c] = Taylor series of u_c^(r), truncated at `order`
        a = np.empty((npts, m, m, n), dtype=np.clongdouble)
        if m:
            # (point, column, coefficient)
            jets = np.stack([s.jet_values(xs, m - 1 + order) for s in self.solutions], axis=1)
            cur = taylor_from_jet(jets).astype(np.clongdouble)
            for r in range(m):
                a[:, r] = cur[..., :n]
                if r + 1 < m:
                    cur = series_diff(cur)
        det = np.zeros((npts, n), dtype=np.clongdouble)
        det[:, 0] = 1
        sign = np.ones(npts)
        vanishes = np.zeros(npts, dtype=bool)
        pts = np.arange(npts)
        with np.errstate(all="ignore"):  # a point whose W vanishes divides by 0, then is zeroed
            for j in range(m):
                lead = np.abs(a[:, j:, j, 0])
                p = j + lead.argmax(axis=1)
                v = None  # the valuation pivot's shift, where some point needs one
                flat = ~lead.any(axis=1)
                if np.count_nonzero(flat):
                    val = _valuation(a[:, j:, j])
                    low = val.argmin(axis=1)
                    p = np.where(flat, j + low, p)
                    v = np.where(flat, val[pts, low], 0)
                    vanishes |= v > order
                swap = p != j
                if np.count_nonzero(swap):
                    sign[swap] = -sign[swap]
                    row = a[pts, p]
                    a[pts, p] = a[:, j]
                    a[:, j] = row
                piv = a[:, j, j]
                det = series_mul(det, piv, order)
                if j + 1 == m:
                    break
                col, rest = a[:, j + 1:, j], a[:, j + 1:, j + 1:]
                if v is not None:
                    keep = np.arange(n) <= order - v[:, None, None]
                    factor = np.where(keep, series_div(_shift(col, v), _shift(piv[:, None], v),
                                                       order), 0)
                else:
                    factor = series_div(col, piv[:, None], order)
                upd = rest - series_mul(factor[:, :, None], a[:, j, None, j + 1:], order)
                live = (col != 0).any(axis=-1)  # an all-zero entry leaves its row as it is
                if np.count_nonzero(live) < live.size:
                    upd = np.where(live[:, :, None, None], upd, rest)
                rest[...] = upd
        det = sign[:, None] * det
        det[vanishes] = 0
        return det

    def log_derivative(self, xs: tuple, order: int) -> np.ndarray:
        """Taylor series of (ln W)' = W'/W at each x of xs through `order`.

        Zero for the empty stack; rows where W vanishes (`singular`) carry
        no meaning.
        """
        if not self.solutions:
            return np.zeros((len(xs), order + 1), dtype=complex)
        cached = self._logd_cache.get(xs)
        if cached is None or cached.shape[1] <= order:
            tw = self.jet(xs, order + 1)
            with np.errstate(all="ignore"):
                cached = self._logd_cache[xs] = series_div(series_diff(tw), tw, order)
        return cached[:, : order + 1]

    def row_scale(self, xs: tuple) -> np.ndarray:
        """Product of the base jet matrix's row norms at each x of xs (scale-aware zero test)."""
        m = self.size
        if m == 0:
            return np.ones(len(xs))
        # (point, column, row)
        jets = np.stack([s.jet_values(xs, m - 1) for s in self.solutions], axis=1)
        return np.prod(np.linalg.norm(jets, axis=1), axis=1)


def _valuation(series: np.ndarray) -> np.ndarray:
    """Index of the first nonzero coefficient along the last axis (its length if none)."""
    nonzero = series != 0
    return np.where(nonzero.any(axis=-1), nonzero.argmax(axis=-1), series.shape[-1])


def _shift(series: np.ndarray, v: np.ndarray) -> np.ndarray:
    """series / t^v along the last axis, per point (axis 0), zero-filled at the end."""
    n = series.shape[-1]
    k = (np.arange(n) + v[:, None])[:, None, :]
    taken = np.take_along_axis(series, np.broadcast_to(np.minimum(k, n - 1), series.shape), -1)
    return np.where(k < n, taken, 0)


class PartnerPotential:
    """V_k(x) = V0(x) - (ln W(u_1,...,u_k))'' and its derivatives.

    An empty chain needs an explicit ell and degenerates to V0 (the
    empty-stack Wronskian is 1).
    """

    def __init__(self, chain: list[SchrodingerSolution], ell: float | None = None):
        if not chain and ell is None:
            raise ValueError("an empty chain needs an explicit ell")
        self.ell = chain[0].ell if chain else float(ell)
        self.stack = WronskianStack(chain)
        self.base = RadialPotential(self.ell)
        self._jet_cache: dict[tuple, np.ndarray] = {}

    def deriv_jet(self, xs: tuple, order: int) -> np.ndarray:
        """[V_k, V_k', ..., V_k^(order)] at each x of xs, cached per grid.

        Rows where V_k is singular (singular_at) carry no meaning.
        """
        cached = self._jet_cache.get(xs)
        if cached is None or cached.shape[1] <= order:
            cached = self._jet_cache[xs] = (self.base.deriv_jet(xs, order) - jet_from_taylor(
                series_diff(self.stack.log_derivative(xs, order + 1))))
        return cached[:, : order + 1]

    def singular_at(self, xs: tuple) -> np.ndarray:
        """Where W(u_1..u_k) vanishes on the grid xs: V_k is singular there."""
        return self.stack.singular(xs)


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

    def taylor(self, xs: tuple, order: int) -> np.ndarray:
        """Taylor coefficients of num/den at each x of xs, through `order`.

        Rows where den vanishes (den.singular) carry no meaning.
        """
        f = self.num.jet(xs, order)
        with np.errstate(all="ignore"):
            return series_div(f, self.den.jet(xs, order), order)

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        """(value, derivative) at each x of xs, one row per x."""
        return self.taylor(xs, 1)


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

    states expose value_and_derivative(xs) on a grid. All four are formal
    eigenfunctions of the Hamiltonian with potential `potential`
    (deriv_jet(xs, order) and singular_at(xs)), and energies holds their
    energies in slot order.
    """

    states: tuple
    ordering_label: str
    potential: object
    energies: tuple = field(init=False)

    def __post_init__(self):
        # the slot energies, read by pv_params and once per grid by _g_with_errors
        self.energies = tuple(s.energy for s in self.states)

    def pair_34(self):
        return self.states[2], self.states[3]


def quartet_energies(ell, eps1, k: int) -> tuple:
    """Slot energies (eps1 + 1, 1 - E0, eps_k, E0) of the canonical quartet.

    eps_k = eps1 - (k - 1) and E0 = l/2 + 3/4: exact on Fractions, and on
    floats the same bits as e0(l).
    """
    ez = ell / 2 + Fraction(3, 4)
    return (eps1 + 1, 1 - ez, eps1 - (k - 1), ez)


def extremal_quartet(spec: SeedSpec) -> ExtremalQuartet:
    """Canonical ("1234") extremal quartet of the k-th order partner.

    states: (B_k^+ b^+ u_1,  B_k^+ x^-l e^{-x^2/4},
             W(u_1..u_{k-1})/W(u_1..u_k),  B_k^+ x^{l+1} e^{-x^2/4})
    at the energies of quartet_energies. V_k and the four
    denominators share one chain stack, so one factorization per grid.
    """
    chain = seed_chain(spec)
    vk = PartnerPotential(chain)
    psi3 = WronskianRatioState(WronskianStack(chain[:-1]), vk.stack,
                               quartet_energies(spec.ell, spec.eps1, spec.k)[2], spec.ell)
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
    whatever the order of requests, and nodes of psi need no care. A grid's
    points step at once, _CHUNK at a time: one closure_jet call per step.
    """

    def __init__(self, base: SchrodingerSolution, admixture: complex = 0.0):
        SchrodingerSolution.__init__(self, base.ell, base.energy, base.potential)
        p = max(self.ell, 0.0)
        self._order = next(n for n in range(1, 1000)
                           if math.lgamma(p + n + 1.0) - math.lgamma(p + 1.0) - math.lgamma(n + 1.0)
                           - n * math.log(4.0) < math.log(1e-17))
        psi, dpsi = base.value_and_derivative((1.0,))[0].tolist()
        start = np.array([[admixture * psi, 1.0 / psi + admixture * dpsi]])
        # the two paths from x = 1, up by 0.25 and down by factors 0.75, stepped together
        lattice = np.array([[1.0 + 0.25 * j, 0.75 ** min(j, 16)] for j in range(45)])
        points, state = {1.0: start}, np.repeat(start, 2, axis=0)
        for x0, x1 in zip(lattice, lattice[1:]):
            state = self._advance(x0, state, x1)
            points.update(zip(x1.tolist(), state[:, None]))
        self._xs = np.array(sorted(points))
        self._states = np.concatenate([points[x] for x in self._xs])

    def _advance(self, x0: np.ndarray, state: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """Carry each row (u, u') from x0 to x1 by Taylor steps of at most min(0.25, x0/4)."""
        n, x0, state = self._order, x0.copy(), state.copy()
        live, div = np.flatnonzero(x0 != x1), np.arange(n, 0, -1.0)[:, None]
        while len(live):
            a, b = x0[live], x1[live]
            reach = np.minimum(0.25, 0.25 * a) * (1.0 + 1e-12)
            x0[live] = np.where(np.abs(b - a) <= reach, b, a + np.copysign(reach, b - a))
            vjet, h = self.potential.deriv_jet(tuple(a.tolist()), n - 2), x0[live] - a
            jet = closure_jet(vjet, state[live], self.energy, n).T
            acc = jet[[n, n]]  # u, u' by Horner: * real h and / m round as on scalars
            for m in range(n - 1, 0, -1):
                acc = jet[m] + acc * h / div[n - 1 - m : n + 1 - m]
            state[live] = np.stack([jet[0] + acc[0] * h, acc[1]], axis=1)
            live = live[x0[live] != b]
        return state

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        parts = np.split(check_positive(xs), range(_CHUNK, len(xs), _CHUNK))  # bounded memory
        near = [np.abs(self._xs - x[:, None]).argmin(axis=1) for x in parts]
        return np.concatenate([self._advance(self._xs[i], self._states[i], x) for i, x in zip(near, parts)])


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
