"""Numerical verification of the operator algebra behind the construction.

Differential operators are applied to Taylor series at the evaluation
points (exact differentiation), never finite differences, so the identity
checks run at near machine precision and a failure points at a formula,
not at discretization. Every operator is one ``Atom``, (c_0 + c_1 d/dx +
... + c_order d^order/dx^order) / div with coefficient series from a
callable; a^+/- and b^+/- have Laurent-polynomial coefficients, and the
first-order SUSY atoms read w_j off ``WronskianStack.log_derivative``, as
V_k does. A test function enters as its own series (``taylor``; a
Wronskian ratio state expands the ratio itself, so no intertwining fact
is assumed), and derivative values are converted only in the Hamiltonian
atom (its potential). Everything runs on a grid, one row per point: each
check evaluates its sample points ``_SAMPLE_XS`` as one grid, and reports
a singular V_j of its ladder there as a FAIL with the error text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import series_diff, series_mul, taylor_from_jet
from .oscillator import (
    RadialPotential,
    SchrodingerSolution,
    SeedSolution,
    SeedSpec,
    e0,
    physical_eigenfunction,
    seed_chain,
)
from .susy import (PartnerPotential, SingularEvaluationError, WronskianRatioState,
                   WronskianStack, quartet_energies, raise_if_singular, transformed_state)

__all__ = [
    "Atom",
    "atom_a",
    "atom_b",
    "atom_h",
    "atom_susy",
    "OperatorChain",
    "SusyLadder",
    "CheckReport",
    "default_test_seeds",
    "check_intertwining",
    "check_commutator",
    "check_factorization",
    "check_shift_identities",
    "check_ladder_polynomial",
    "check_number_operator",
    "check_new_level_annihilation",
    "run_all_checks",
]

_SAMPLE_XS = (0.8, 1.3, 2.1)
_N_TEST_SEEDS = 3
# worst defect each identity check accepts, relative to _rel_scale
_TOLS = {"intertwining": 1e-7, "commutator": 1e-7, "factorization": 1e-6, "shift": 1e-9,
         "ladder-polynomial": 1e-8, "number": 1e-6, "annihilation": 1e-6}
_SQRT2 = math.sqrt(2.0)


def _laurent(xs: tuple, n: int, terms: dict) -> np.ndarray:
    """Taylor series at each x of xs, through order n, of sum_p c_p x^p over integer powers p."""
    x = np.array(xs, dtype=float)
    out = np.zeros((len(xs), n + 1), dtype=complex)
    for p, c in terms.items():
        binom = 1  # C(p, j), an integer for any integer p
        for j in range(n + 1):
            out[:, j] += c * binom * x ** (p - j)
            binom = binom * (p - j) // (j + 1)
    return out


@dataclass(frozen=True)
class Atom:
    """(c_0 + c_1 d/dx + ... + c_order d^order/dx^order) / div on Taylor series.

    coeffs(xs, n) returns the series of c_0..c_order at each x of the grid
    xs through order n, one row per x; the division comes after the sum.
    """

    coeffs: Callable[[tuple, int], tuple]
    order: int
    div: float = 1.0

    def apply(self, series: np.ndarray, xs: tuple, n_out: int) -> np.ndarray:
        cs = self.coeffs(xs, n_out)
        out = series_mul(series, cs[0], n_out)
        for c in cs[1:]:
            series = series_diff(series)
            out = out + series_mul(series, c, n_out)
        return out / self.div


def atom_a(eta: float, sign: int) -> Atom:
    """a_eta^+/- = (1/sqrt2)(-/+ d/dx - eta/x + x/2); index eta may be any real."""
    return Atom(lambda xs, n: (_laurent(xs, n, {-1: -eta, 1: 0.5}), _laurent(xs, n, {0: -sign})),
                1, _SQRT2)


def atom_b(ell: float, sign: int) -> Atom:
    """b^+/- = (1/2)(d^2 -/+ x d + x^2/4 - l(l+1)/x^2 -/+ 1/2)."""
    return Atom(lambda xs, n: (_laurent(xs, n, {2: 0.25, -2: -ell * (ell + 1.0), 0: -0.5 * sign}),
                               _laurent(xs, n, {1: -sign}), _laurent(xs, n, {0: 1.0})), 2, 2.0)


def atom_h(potential, shift: complex = 0.0) -> Atom:
    """H - shift = -d^2/2 + V - shift for a stated potential."""
    return Atom(lambda xs, n: (taylor_from_jet(potential.deriv_jet(xs, n))
                               - _laurent(xs, n, {0: shift}),  # the constant term only
                               _laurent(xs, n, {}), _laurent(xs, n, {0: -0.5})), 2)


def superpotential(hi: WronskianStack, lo: WronskianStack, xs: tuple, n: int) -> np.ndarray:
    """w_j = (ln W_j)' - (ln W_{j-1})' as a series at each x of xs through order n."""
    return hi.log_derivative(xs, n) - lo.log_derivative(xs, n)


def atom_susy(hi: WronskianStack, lo: WronskianStack, sign: int) -> Atom:
    """A_j^+/- = (1/sqrt2)(-/+ d/dx + w_j) between the chain stacks of V_j and V_{j-1}."""
    return Atom(lambda xs, n: (superpotential(hi, lo, xs, n), _laurent(xs, n, {0: -sign})), 1,
                _SQRT2)


@dataclass
class OperatorChain:
    """Atoms in composition order (the last list entry acts first)."""

    atoms: list

    def apply_jet(self, provider, xs: tuple, n_out: int = 0) -> np.ndarray:
        """Taylor series of the chain's image of `provider` at each x of xs, through n_out."""
        need = sum(a.order for a in self.atoms) + n_out
        series = provider.taylor(xs, need)
        for atom in reversed(self.atoms):
            need -= atom.order
            series = atom.apply(series, xs, need)
        return series

    def __call__(self, provider, xs: tuple) -> np.ndarray:
        """The image's values at each x of xs."""
        return self.apply_jet(provider, xs, 0)[:, 0]


class AtomImage(SchrodingerSolution):
    """State produced by one atom, re-closed under its own equation.

    (value, derivative) come from the parent's series through the atom's
    exact product rule; higher derivatives close under the stated
    (potential, energy). Valid for ladder/intertwining images because the
    intertwining relations are certified separately at machine precision;
    keeping every intermediate at low jet order is what lets 4k+4-order
    operator products run without precision decay (a long raw-jet chain
    would feed on the poorly conditioned top entries of deep jets).
    """

    def __init__(self, parent, atom: Atom, potential, energy: complex):
        SchrodingerSolution.__init__(self, parent.ell, energy, potential)
        self._parent = parent
        self._atom = atom

    def value_and_derivative(self, xs: tuple) -> np.ndarray:
        return self._atom.apply(self._parent.taylor(xs, self._atom.order + 1), xs, 1)


class SusyLadder:
    """Potentials, chain stacks and intertwining atoms for one seed chain.

    potentials[j] is V_j; its stack holds the chain prefix u_1..u_j (empty
    for j = 0), so every atom and ratio state shares one factorization of
    each prefix per grid.
    """

    def __init__(self, spec: SeedSpec):
        self.spec = spec
        self.chain = seed_chain(spec)
        self.potentials = [PartnerPotential(self.chain[:j], ell=spec.ell)
                           for j in range(spec.k + 1)]

    def singular(self, xs: tuple) -> np.ndarray:
        """Where some V_j of the ladder is singular on the grid xs."""
        return np.logical_or.reduce([p.singular_at(xs) for p in self.potentials])

    def atom_susy(self, j: int, sign: int) -> Atom:
        return atom_susy(self.potentials[j].stack, self.potentials[j - 1].stack, sign)

    def ladder_image(self, state, energy: complex, up: bool):
        """L^+/- = B_k^+ b^+/- B_k^- as a state pipeline; returns (image, energy')."""
        cur = state
        e = complex(energy)
        for j in range(self.spec.k, 0, -1):
            cur = AtomImage(cur, self.atom_susy(j, -1), self.potentials[j - 1], e)
        e = e + (1.0 if up else -1.0)
        cur = AtomImage(cur, atom_b(self.spec.ell, +1 if up else -1), self.potentials[0], e)
        for j in range(1, self.spec.k + 1):
            cur = AtomImage(cur, self.atom_susy(j, +1), self.potentials[j], e)
        return cur, e

    def number_image(self, state, energy: complex) -> AtomImage:
        """L_k^+ L_k^- state: the lowering pipeline, then the raising one."""
        down, e_down = self.ladder_image(state, energy, up=False)
        return self.ladder_image(down, e_down, up=True)[0]

    def new_level_state(self, j: int) -> WronskianRatioState:
        """W(chain without u_j) / W(chain); without u_k the numerator is V_{k-1}'s prefix."""
        num = (self.potentials[j - 1].stack if j == self.spec.k else
               WronskianStack([u for i, u in enumerate(self.chain) if i != j - 1]))
        return WronskianRatioState(num, self.potentials[self.spec.k].stack,
                                   self.chain[j - 1].energy, self.spec.ell)


@dataclass
class CheckReport:
    name: str
    max_error: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        text = f"{flag} {self.name}: max_error={self.max_error:.3e} tol={self.tolerance:.0e}"
        return text + (f" ({self.details['error']})" if "error" in self.details else "")


@functools.lru_cache(maxsize=16)
def default_test_seeds(ell: float) -> tuple[SeedSolution, ...]:
    """Reproducible generic seeds (fixed rng) used by the identity checks.

    Memoized per l, so every check on one l shares the seeds and their
    per-grid jet caches.
    """
    rng = np.random.default_rng(174321)
    out = []
    for _ in range(_N_TEST_SEEDS):
        eps = complex(rng.uniform(-2.0, 0.4), 0.0)
        mix = (1.0 + 0.0j, complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)))
        out.append(SeedSolution(ell, eps, mix))
    return tuple(out)


def _rel_scale(provider, xs: tuple, applied: np.ndarray) -> np.ndarray:
    series = provider.taylor(xs, 2)
    return np.maximum(np.max(np.abs([series[:, 0], 2.0 * series[:, 2], applied]), axis=0), 1e-300)


def _report(name: str, worst: float, tolerance: float, ladder) -> CheckReport:
    """The check's report, or a FAIL with the error text where a V_j of the ladder is singular.

    Values at a singular sample point carry no meaning, so they never reach a PASS.
    """
    try:
        if ladder is not None:
            raise_if_singular(_SAMPLE_XS, ladder.singular(_SAMPLE_XS))
    except SingularEvaluationError as exc:
        return CheckReport(name, math.inf, tolerance, {"error": str(exc)})
    return CheckReport(name, worst, tolerance)


def _identity_check(name: str, tolerance: float, ell: float, pairs,
                    ladder: SusyLadder | None = None) -> CheckReport:
    """Worst |lhs f - rhs f| / _rel_scale over (lhs, rhs) pairs, seeds and sample points."""
    worst = 0.0
    seeds = default_test_seeds(ell)
    with np.errstate(all="ignore"):  # a singular point's values are dropped by _report
        for lhs, rhs in pairs:
            for f in seeds:
                lv = lhs(f, _SAMPLE_XS)
                err = np.abs(lv - rhs(f, _SAMPLE_XS)) / _rel_scale(f, _SAMPLE_XS, lv)
                worst = max(worst, *err.tolist())
    return _report(name, worst, tolerance, ladder)


def check_intertwining(ladder: SusyLadder) -> CheckReport:
    """H_j A_j^+ = A_j^+ H_{j-1} at every step of the ladder."""
    pairs = [(OperatorChain([atom_h(ladder.potentials[j]), ladder.atom_susy(j, +1)]),
              OperatorChain([ladder.atom_susy(j, +1), atom_h(ladder.potentials[j - 1])]))
             for j in range(1, ladder.spec.k + 1)]
    return _identity_check(f"intertwining k={ladder.spec.k}", _TOLS["intertwining"],
                           ladder.spec.ell, pairs, ladder)


def check_commutator(ell: float) -> CheckReport:
    """[H, b^+/-] = +/- b^+/-, as H b^+/- = b^+/- (H +/- 1), on generic seeds."""
    pot = RadialPotential(ell)
    pairs = [(OperatorChain([atom_h(pot), atom_b(ell, sign)]),
              OperatorChain([atom_b(ell, sign), atom_h(pot, shift=-sign)]))
             for sign in (+1, -1)]
    return _identity_check(f"commutator [H,b+/-] l={ell:g}", _TOLS["commutator"], ell, pairs)


def check_factorization(ladder: SusyLadder) -> CheckReport:
    """B_k^- B_k^+ f = prod_i (H_0 - eps_i) f pointwise."""
    spec = ladder.spec
    lhs = OperatorChain([ladder.atom_susy(j, -1) for j in range(1, spec.k + 1)]
                        + [ladder.atom_susy(j, +1) for j in range(spec.k, 0, -1)])
    rhs = OperatorChain([atom_h(ladder.potentials[0], spec.eps1 - i) for i in range(spec.k)])
    return _identity_check(f"factorization Bk-Bk+ k={spec.k}", _TOLS["factorization"],
                           spec.ell, [(lhs, rhs)], ladder)


def check_shift_identities(ell: float) -> CheckReport:
    """b^- = a^-_{-(l+1)} a^-_{l+1} = a^-_l a^-_{-l} pointwise."""
    b = OperatorChain([atom_b(ell, -1)])
    pairs = [(b, OperatorChain([atom_a(-(ell + 1.0), -1), atom_a(ell + 1.0, -1)])),
             (b, OperatorChain([atom_a(ell, -1), atom_a(-ell, -1)]))]
    return _identity_check(f"shift-operator factorizations l={ell:g}", _TOLS["shift"], ell, pairs)


def check_ladder_polynomial(ell: float) -> CheckReport:
    """b^+ b^- = (H - E0)(H + E0 - 1) on generic seeds."""
    pot = RadialPotential(ell)
    lhs = OperatorChain([atom_b(ell, +1), atom_b(ell, -1)])
    rhs = OperatorChain([atom_h(pot, shift=e0(ell)), atom_h(pot, shift=1.0 - e0(ell))])
    return _identity_check(f"number operator b+b- l={ell:g}", _TOLS["ladder-polynomial"], ell,
                           [(lhs, rhs)])


def natural_eigenvalue(spec: SeedSpec, n: int) -> complex:
    """L_k^+ L_k^- eigenvalue on the n-th physical level."""
    ez = e0(spec.ell)
    lam = n * (n + 2.0 * ez - 1.0)
    for i in range(spec.k):
        eps_i = spec.eps1 - i
        lam *= (n + ez - eps_i) * (n + ez - eps_i - 1.0)
    return lam


def reduced_quartic(spec: SeedSpec, n: int) -> complex:
    """Fourth-order-ladder eigenvalue: prod of E0 + n - e over the quartet energies e."""
    en = e0(spec.ell) + n
    return math.prod(en - e for e in quartet_energies(spec.ell, spec.eps1, spec.k))


def _eigen_check(name: str, tolerance: float, ladder: SusyLadder, cases):
    """Worst |L_k^+ L_k^- s - lam s| / max(_rel_scale, |lam s|) over (s, energy, lam) cases.

    Also returns the measured eigenvalues (L_k^+ L_k^- s)/s of the cases with lam != 0.
    """
    worst, measured, xs = 0.0, [], _SAMPLE_XS
    with np.errstate(all="ignore"):  # a singular point's values are dropped by _report
        for state, energy, lam in cases:
            applied = ladder.number_image(state, energy).value_and_derivative(xs)[:, 0]
            val = state.taylor(xs, 0)[:, 0]
            scale = np.maximum(_rel_scale(state, xs, applied), np.abs(lam * val))
            worst = max(worst, *(np.abs(applied - lam * val) / scale).tolist())
            if lam:
                measured.extend((applied / val).tolist())
    report = _report(name, worst, tolerance, ladder)
    return report, ([] if "error" in report.details else measured)


def check_number_operator(ladder: SusyLadder, n: int) -> CheckReport:
    """L_k^+ L_k^- on psi_n^(k), against the spectral polynomial.

    Also divides the measured eigenvalue by P_{k-1}(E_n)^2; the quotient
    must equal the reduced fourth-order quartic, which is the observable
    content of the ladder-reduction theorem.
    """
    spec = ladder.spec
    lam = natural_eigenvalue(spec, n)
    en = e0(spec.ell) + n
    state = transformed_state(ladder.potentials[spec.k], physical_eigenfunction(1, n, spec.ell))
    case = (state, en, lam if abs(lam) >= 1e-12 else 0.0)
    report, measured = _eigen_check(f"number operator L+L- k={spec.k} n={n}", _TOLS["number"],
                                    ladder, [case])
    report.details["eigenvalue"] = lam
    if measured:
        pk = math.prod(en - (spec.eps1 - i) for i in range(spec.k - 1))
        quartic = reduced_quartic(spec, n)
        err = max(abs(m / (pk * pk) - quartic) / max(1.0, abs(quartic)) for m in measured)
        report.details.update(quartic=quartic, quartic_error=err)
        report.max_error = max(report.max_error, err)
    return report


def check_new_level_annihilation(ladder: SusyLadder) -> CheckReport:
    """L_k^+ L_k^- annihilates the new-level states psi_eps_j^(k)."""
    cases = [(ladder.new_level_state(j), complex(ladder.chain[j - 1].energy), 0.0)
             for j in range(1, ladder.spec.k + 1)]
    return _eigen_check(f"new-level annihilation k={ladder.spec.k}", _TOLS["annihilation"],
                        ladder, cases)[0]


def run_all_checks(specs: list[SeedSpec] | None = None,
                   selected: str | None = None) -> list[CheckReport]:
    """The default identity suite (used by the CLI verify command); one ladder per spec."""
    if specs is None:
        specs = [
            SeedSpec.from_nu(0.0, -0.55, 1.0, k=1),
            SeedSpec.from_nu(1.0, -0.4, 0.8, k=2),
            SeedSpec.from_nu(2.0, 0.2, 1.5, k=3),
        ]
    reports: list[CheckReport] = []

    def want(name: str) -> bool:
        return selected is None or selected in name

    for spec in specs:
        ladder = SusyLadder(spec)
        if want("intertwining"):
            reports.append(check_intertwining(ladder))
        if want("factorization"):
            reports.append(check_factorization(ladder))
        if want("number"):
            for n in (0, 1, 2):
                reports.append(check_number_operator(ladder, n))
        if want("annihilation"):
            reports.append(check_new_level_annihilation(ladder))
    for ell in (0.0, 1.0, 3.0):
        if want("commutator"):
            reports.append(check_commutator(ell))
        if want("shift"):
            reports.append(check_shift_identities(ell))
        if want("ladder-polynomial"):
            reports.append(check_ladder_polynomial(ell))
    return reports
