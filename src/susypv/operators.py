"""Numerical verification of the operator algebra behind the construction.

Differential operators are applied to Taylor series at the evaluation
point (exact differentiation), never finite differences, so the identity
checks run at near machine precision and a failure points at a formula,
not at discretization. Each atom consumes `order` coefficients off the
incoming series and multiplies by its coefficient functions as series of
the remaining length; first-order SUSY atoms take their superpotentials
from Wronskian log-derivatives. A test function enters as its own series
(``taylor``; a Wronskian ratio state expands the ratio itself, so no
intertwining fact is assumed), and derivative values are converted only
in the Hamiltonian atom (its potential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import series_diff, series_div, series_mul, taylor_from_jet
from .oscillator import (
    RadialPotential,
    SchrodingerSolution,
    SeedSolution,
    SeedSpec,
    e0,
    physical_eigenfunction,
    seed_chain,
)
from .susy import PartnerPotential, WronskianRatioState, WronskianStack, transformed_state

__all__ = [
    "AtomA",
    "AtomB",
    "AtomFirstOrder",
    "AtomH",
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


class _Atom:
    order = 1

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        raise NotImplementedError


def _first_order(series: np.ndarray, w: np.ndarray, sign: int, n_out: int) -> np.ndarray:
    """(1/sqrt2)(-/+ d/dx + w) f on Taylor series; sign +1 takes -d/dx."""
    d = -1.0 if sign > 0 else 1.0
    return (d * series_diff(series)[: n_out + 1] + series_mul(series, w, n_out)) / _SQRT2


class AtomA(_Atom):
    """a_eta^+/- = (1/sqrt2)(-/+ d/dx - eta/x + x/2); index eta may be any real."""

    def __init__(self, eta: float, sign: int):
        self.eta = float(eta)
        self.sign = int(sign)  # +1 for a^+, -1 for a^-

    def _s_jet(self, x: float, n: int) -> np.ndarray:
        """Taylor series of -eta/x + x/2 at x: -eta (-1)^j / x^(j+1), plus x/2."""
        out = -self.eta * (-1.0 / x) ** np.arange(n + 1) / x + 0j
        out[0] += 0.5 * x
        if n >= 1:
            out[1] += 0.5
        return out

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        return _first_order(series, self._s_jet(x, n_out), self.sign, n_out)


class AtomB(_Atom):
    """b^+/- = (1/2)(d^2 -/+ x d + x^2/4 - l(l+1)/x^2 -/+ 1/2)."""

    order = 2

    def __init__(self, ell: float, sign: int):
        self.ell = float(ell)
        self.sign = int(sign)

    def _p_jet(self, x: float, n: int) -> np.ndarray:
        """Taylor series of x^2/4 - l(l+1)/x^2 -/+ 1/2 at x: -l(l+1)(j+1)(-1)^j/x^(j+2) + ..."""
        c = self.ell * (self.ell + 1.0)
        j = np.arange(n + 1)
        out = -c * (j + 1) * (-1.0 / x) ** j / (x * x) + 0j
        out[0] += 0.25 * x * x + (-0.5 if self.sign > 0 else 0.5)
        if n >= 1:
            out[1] += 0.5 * x
        if n >= 2:
            out[2] += 0.25
        return out

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        s = -1.0 if self.sign > 0 else 1.0
        d1 = series_diff(series)
        x_d1 = x * d1[: n_out + 1]
        x_d1[1:] += d1[:n_out]  # (x0 + t) f'
        p = self._p_jet(x, n_out)
        return 0.5 * (series_diff(d1)[: n_out + 1] + s * x_d1 + series_mul(series, p, n_out))


class AtomFirstOrder(_Atom):
    """A_j^+/- = (1/sqrt2)(-/+ d/dx + w_j), w_j = (ln W_j)' - (ln W_{j-1})'."""

    def __init__(self, stack_hi: WronskianStack, stack_lo: WronskianStack, sign: int):
        self.hi = stack_hi
        self.lo = stack_lo
        self.sign = int(sign)

    def _w_jet(self, x: float, n: int) -> np.ndarray:
        whi = self.hi.jet(x, n + 1)
        out = series_div(series_diff(whi), whi, n)
        if self.lo.size:
            wlo = self.lo.jet(x, n + 1)
            out = out - series_div(series_diff(wlo), wlo, n)
        return out

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        return _first_order(series, self._w_jet(x, n_out), self.sign, n_out)


class AtomH(_Atom):
    """(H - shift) f = -f''/2 + V f - shift f for a stated potential."""

    order = 2

    def __init__(self, potential, shift: complex = 0.0):
        self.potential = potential
        self.shift = complex(shift)

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        v = taylor_from_jet(self.potential.deriv_jet(x, n_out))
        return (-0.5 * series_diff(series_diff(series))[: n_out + 1]
                + series_mul(series, v, n_out) - self.shift * series[: n_out + 1])


@dataclass
class OperatorChain:
    """Atoms in composition order (the last list entry acts first)."""

    atoms: list

    def apply_jet(self, provider, x: float, n_out: int = 0) -> np.ndarray:
        """Taylor series of the chain's image of `provider` at x, through n_out."""
        need = sum(a.order for a in self.atoms) + n_out
        series = provider.taylor(x, need)
        for atom in reversed(self.atoms):
            need -= atom.order
            series = atom.apply(series, x, need)
        return series

    def __call__(self, provider, x: float) -> complex:
        return complex(self.apply_jet(provider, x, 0)[0])


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

    def __init__(self, parent, atom: _Atom, potential, energy: complex):
        SchrodingerSolution.__init__(self, parent.ell, energy, potential)
        self._parent = parent
        self._atom = atom

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        pj = self._parent.taylor(x, self._atom.order + 1)
        out = self._atom.apply(pj, x, 1)
        return complex(out[0]), complex(out[1])


class SusyLadder:
    """Potentials, chain stacks and intertwining atoms for one seed chain.

    potentials[j] is V_j; its stack holds the chain prefix u_1..u_j (empty
    for j = 0), so every atom and ratio state shares one factorization of
    each prefix per x.
    """

    def __init__(self, spec: SeedSpec):
        self.spec = spec
        self.chain = seed_chain(spec)
        self.potentials = [PartnerPotential(self.chain[:j], ell=spec.ell)
                           for j in range(spec.k + 1)]

    def atom_a_plus(self, j: int) -> AtomFirstOrder:
        return AtomFirstOrder(self.potentials[j].stack, self.potentials[j - 1].stack, +1)

    def atom_a_minus(self, j: int) -> AtomFirstOrder:
        return AtomFirstOrder(self.potentials[j].stack, self.potentials[j - 1].stack, -1)

    def hamiltonian(self, level: int, shift: complex = 0.0) -> AtomH:
        return AtomH(self.potentials[level], shift)

    def ladder_image(self, state, energy: complex, up: bool):
        """L^+/- = B_k^+ b^+/- B_k^- as a state pipeline; returns (image, energy')."""
        cur = state
        e = complex(energy)
        for j in range(self.spec.k, 0, -1):
            cur = AtomImage(cur, self.atom_a_minus(j), self.potentials[j - 1], e)
        e = e + (1.0 if up else -1.0)
        cur = AtomImage(cur, AtomB(self.spec.ell, +1 if up else -1), self.potentials[0], e)
        for j in range(1, self.spec.k + 1):
            cur = AtomImage(cur, self.atom_a_plus(j), self.potentials[j], e)
        return cur, e

    def number_image(self, state, energy: complex) -> AtomImage:
        """L_k^+ L_k^- state: the lowering pipeline, then the raising one."""
        down, e_down = self.ladder_image(state, energy, up=False)
        return self.ladder_image(down, e_down, up=True)[0]

    def transformed_eigenstate(self, n: int) -> WronskianRatioState:
        return transformed_state(self.potentials[self.spec.k],
                                 physical_eigenfunction(1, n, self.spec.ell))

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
        return f"{flag} {self.name}: max_error={self.max_error:.3e} tol={self.tolerance:.0e}"


def default_test_seeds(ell: float) -> list[SeedSolution]:
    """Reproducible generic seeds (fixed rng) used by the identity checks."""
    rng = np.random.default_rng(174321)
    out = []
    for _ in range(_N_TEST_SEEDS):
        eps = complex(rng.uniform(-2.0, 0.4), 0.0)
        mix = (1.0 + 0.0j, complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)))
        out.append(SeedSolution(ell, eps, mix))
    return out


def _rel_scale(provider, x: float, applied: complex) -> float:
    series = provider.taylor(x, 2)
    return max(abs(series[0]), abs(2.0 * series[2]), abs(applied), 1e-300)


def _worst(seeds, defect) -> float:
    """Largest defect over the seeds and sample points, relative to _rel_scale.

    defect(f, x) returns (left-hand value, |left-hand - right-hand|).
    """
    worst = 0.0
    for f in seeds:
        for x in _SAMPLE_XS:
            lv, err = defect(f, x)
            worst = max(worst, err / _rel_scale(f, x, lv))
    return worst


def _identity(lhs: OperatorChain, rhs: OperatorChain):
    """defect for _worst of the operator identity lhs = rhs."""
    def defect(f, x):
        lv = lhs(f, x)
        return lv, abs(lv - rhs(f, x))
    return defect


def check_intertwining(ladder: SusyLadder) -> CheckReport:
    """H_j A_j^+ = A_j^+ H_{j-1} at every step of the ladder."""
    seeds = default_test_seeds(ladder.spec.ell)
    worst = 0.0
    for j in range(1, ladder.spec.k + 1):
        left = OperatorChain([ladder.hamiltonian(j), ladder.atom_a_plus(j)])
        right = OperatorChain([ladder.atom_a_plus(j), ladder.hamiltonian(j - 1)])
        worst = max(worst, _worst(seeds, _identity(left, right)))
    return CheckReport(f"intertwining k={ladder.spec.k}", worst, _TOLS["intertwining"])


def check_commutator(ell: float) -> CheckReport:
    """[H, b^+/-] = +/- b^+/- on generic seeds."""
    h = AtomH(RadialPotential(ell))
    seeds = default_test_seeds(ell)
    worst = 0.0
    for sign in (+1, -1):
        b = AtomB(ell, sign)
        hb, bh, bb = OperatorChain([h, b]), OperatorChain([b, h]), OperatorChain([b])

        def defect(f, x):
            v = hb(f, x)
            return v, abs(v - bh(f, x) - sign * bb(f, x))

        worst = max(worst, _worst(seeds, defect))
    return CheckReport(f"commutator [H,b+/-] l={ell:g}", worst, _TOLS["commutator"])


def check_factorization(ladder: SusyLadder) -> CheckReport:
    """B_k^- B_k^+ f = prod_i (H_0 - eps_i) f pointwise."""
    spec = ladder.spec
    lhs = OperatorChain([ladder.atom_a_minus(j) for j in range(1, spec.k + 1)]
                        + [ladder.atom_a_plus(j) for j in range(spec.k, 0, -1)])
    rhs = OperatorChain([ladder.hamiltonian(0, shift=spec.eps1 - i) for i in range(spec.k)])
    worst = _worst(default_test_seeds(spec.ell), _identity(lhs, rhs))
    return CheckReport(f"factorization Bk-Bk+ k={spec.k}", worst, _TOLS["factorization"])


def check_shift_identities(ell: float) -> CheckReport:
    """b^- = a^-_{-(l+1)} a^-_{l+1} = a^-_l a^-_{-l} pointwise."""
    b = OperatorChain([AtomB(ell, -1)])
    alt1 = OperatorChain([AtomA(-(ell + 1.0), -1), AtomA(ell + 1.0, -1)])
    alt2 = OperatorChain([AtomA(ell, -1), AtomA(-ell, -1)])

    def defect(f, x):
        v = b(f, x)
        return v, max(abs(v - alt1(f, x)), abs(v - alt2(f, x)))

    worst = _worst(default_test_seeds(ell), defect)
    return CheckReport(f"shift-operator factorizations l={ell:g}", worst, _TOLS["shift"])


def check_ladder_polynomial(ell: float) -> CheckReport:
    """b^+ b^- = (H - E0)(H + E0 - 1) on generic seeds."""
    pot = RadialPotential(ell)
    lhs = OperatorChain([AtomB(ell, +1), AtomB(ell, -1)])
    rhs = OperatorChain([AtomH(pot, shift=e0(ell)), AtomH(pot, shift=1.0 - e0(ell))])
    worst = _worst(default_test_seeds(ell), _identity(lhs, rhs))
    return CheckReport(f"number operator b+b- l={ell:g}", worst, _TOLS["ladder-polynomial"])


def natural_eigenvalue(spec: SeedSpec, n: int) -> complex:
    """L_k^+ L_k^- eigenvalue on the n-th physical level."""
    ez = e0(spec.ell)
    lam = n * (n + 2.0 * ez - 1.0)
    for i in range(spec.k):
        eps_i = spec.eps1 - i
        lam *= (n + ez - eps_i) * (n + ez - eps_i - 1.0)
    return lam


def reduced_quartic(spec: SeedSpec, n: int) -> complex:
    """Fourth-order-ladder eigenvalue n(n+2E0-1)(n+E0-eps1-1)(n+E0-eps_k)."""
    ez = e0(spec.ell)
    eps_k = spec.eps1 - (spec.k - 1)
    return n * (n + 2.0 * ez - 1.0) * (n + ez - spec.eps1 - 1.0) * (n + ez - eps_k)


def check_number_operator(ladder: SusyLadder, n: int) -> CheckReport:
    """L_k^+ L_k^- on psi_n^(k), against the spectral polynomial.

    Also divides the measured eigenvalue by P_{k-1}(E_n)^2; the quotient
    must equal the reduced fourth-order quartic, which is the observable
    content of the ladder-reduction theorem.
    """
    spec = ladder.spec
    state = ladder.transformed_eigenstate(n)
    en = e0(spec.ell) + n
    result = ladder.number_image(state, en)
    lam = natural_eigenvalue(spec, n)
    worst = 0.0
    measured = []
    for x in _SAMPLE_XS:
        applied = complex(result.value_and_derivative(x)[0])
        val = complex(state.taylor(x, 0)[0])
        scale = _rel_scale(state, x, applied)
        if abs(lam) < 1e-12:
            worst = max(worst, abs(applied) / scale)
        else:
            measured.append(applied / val)
            worst = max(worst, abs(applied - lam * val) / max(scale, abs(lam * val)))
    details = {"eigenvalue": lam}
    if measured and abs(lam) >= 1e-12:
        pk = 1.0 + 0.0j
        for i in range(spec.k - 1):
            pk *= en - (spec.eps1 - i)
        quartic = reduced_quartic(spec, n)
        ratio_errs = [abs(m / (pk * pk) - quartic) / max(1.0, abs(quartic)) for m in measured]
        details["quartic"] = quartic
        details["quartic_error"] = max(ratio_errs)
        worst = max(worst, max(ratio_errs))
    return CheckReport(f"number operator L+L- k={spec.k} n={n}", worst, _TOLS["number"], details)


def check_new_level_annihilation(ladder: SusyLadder) -> CheckReport:
    """L_k^+ L_k^- annihilates the new-level states psi_eps_j^(k)."""
    worst = 0.0
    for j in range(1, ladder.spec.k + 1):
        state = ladder.new_level_state(j)
        result = ladder.number_image(state, complex(ladder.chain[j - 1].energy))
        for x in _SAMPLE_XS:
            applied = complex(result.value_and_derivative(x)[0])
            worst = max(worst, abs(applied) / _rel_scale(state, x, applied))
    return CheckReport(f"new-level annihilation k={ladder.spec.k}", worst, _TOLS["annihilation"])


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
