"""Numerical verification of the operator algebra behind the construction.

Differential operators are applied to Taylor series at the evaluation
point (exact differentiation), never finite differences, so the identity
checks run at near machine precision and a failure points at a formula,
not at discretization. Each atom consumes `order` coefficients off the
incoming series and multiplies by its coefficient functions as series of
the remaining length; first-order SUSY atoms take their superpotentials
from Wronskian log-derivatives. Derivative values are converted only on
entry (a solution's jet) and in the Hamiltonian atom (its potential).
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
from .susy import PartnerPotential, WronskianRatioState, WronskianStack

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
_SQRT2 = math.sqrt(2.0)


class _Atom:
    order = 1
    label = "?"

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
        self.label = f"a[{eta:g}]{'+' if sign > 0 else '-'}"

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
        self.label = f"b{'+' if sign > 0 else '-'}"

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
    """A_j^+/- = (1/sqrt2)(-/+ d/dx + w_j), w_j = (ln W_j)' - (ln W_{j-1})'.

    `corrupt` adds a constant to the superpotential; the verification
    harness uses it to prove the checks can fail.
    """

    def __init__(self, stack_hi: WronskianStack, stack_lo: WronskianStack,
                 sign: int, j: int, corrupt: float = 0.0):
        self.hi = stack_hi
        self.lo = stack_lo
        self.sign = int(sign)
        self.corrupt = corrupt
        self.label = f"A{j}{'+' if sign > 0 else '-'}"

    def _w_jet(self, x: float, n: int) -> np.ndarray:
        whi = self.hi.jet(x, n + 1)
        out = series_div(series_diff(whi), whi, n)
        if self.lo.size:
            wlo = self.lo.jet(x, n + 1)
            out = out - series_div(series_diff(wlo), wlo, n)
        if self.corrupt:
            out[0] += self.corrupt
        return out

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        return _first_order(series, self._w_jet(x, n_out), self.sign, n_out)


class AtomH(_Atom):
    """(H - shift) f = -f''/2 + V f - shift f for a stated potential."""

    order = 2

    def __init__(self, potential, shift: complex = 0.0, label: str = "H"):
        self.potential = potential
        self.shift = complex(shift)
        self.label = label if shift == 0 else f"({label}-{shift:g})"

    def apply(self, series: np.ndarray, x: float, n_out: int) -> np.ndarray:
        v = taylor_from_jet(self.potential.deriv_jet(x, n_out))
        return (-0.5 * series_diff(series_diff(series))[: n_out + 1]
                + series_mul(series, v, n_out) - self.shift * series[: n_out + 1])


@dataclass
class OperatorChain:
    """Atoms in composition order (the last list entry acts first)."""

    atoms: list

    @property
    def total_order(self) -> int:
        return sum(a.order for a in self.atoms)

    def apply_jet(self, provider, x: float, n_out: int = 0) -> np.ndarray:
        """Taylor series of the chain's image of `provider` at x, through n_out."""
        need = self.total_order + n_out
        series = _provider_jet(provider, x, need)
        for atom in reversed(self.atoms):
            need -= atom.order
            series = atom.apply(series, x, need)
        return series

    def __call__(self, provider, x: float) -> complex:
        return complex(self.apply_jet(provider, x, 0)[0])


def _provider_jet(provider: SchrodingerSolution, x: float, order: int) -> np.ndarray:
    """Taylor series of a test function; ratio states expand their Wronskian
    ratio directly so no intertwining fact is assumed by the checks."""
    if isinstance(provider, WronskianRatioState):
        return provider.ratio_jet(x, order)
    return taylor_from_jet(provider.jet_values(x, order))


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
        SchrodingerSolution.__init__(self, parent.ell, energy)
        self.potential = potential
        self._parent = parent
        self._atom = atom

    def value_and_derivative(self, x: float) -> tuple[complex, complex]:
        pj = _provider_jet(self._parent, x, self._atom.order + 1)
        out = self._atom.apply(pj, x, 1)
        return complex(out[0]), complex(out[1])


class SusyLadder:
    """Stacks, potentials and intertwining atoms for one seed chain."""

    def __init__(self, spec: SeedSpec, corrupt: float = 0.0):
        self.spec = spec
        self.chain = seed_chain(spec)
        self.k = spec.k
        self.ell = spec.ell
        self.stacks = [WronskianStack(self.chain[:j]) for j in range(self.k + 1)]
        self.potentials = [RadialPotential(spec.ell)]
        for j in range(1, self.k + 1):
            self.potentials.append(PartnerPotential(self.chain[:j]))
        self._corrupt = corrupt

    def atom_a_plus(self, j: int, corrupt: float | None = None) -> AtomFirstOrder:
        c = self._corrupt if corrupt is None else corrupt
        return AtomFirstOrder(self.stacks[j], self.stacks[j - 1], +1, j, c)

    def atom_a_minus(self, j: int, corrupt: float | None = None) -> AtomFirstOrder:
        c = self._corrupt if corrupt is None else corrupt
        return AtomFirstOrder(self.stacks[j], self.stacks[j - 1], -1, j, c)

    def b_plus(self) -> AtomB:
        return AtomB(self.ell, +1)

    def b_minus(self) -> AtomB:
        return AtomB(self.ell, -1)

    def hamiltonian(self, level: int, shift: complex = 0.0) -> AtomH:
        return AtomH(self.potentials[level], shift, label=f"H{level}")

    def big_b_plus(self) -> list:
        return [self.atom_a_plus(j) for j in range(self.k, 0, -1)]

    def big_b_minus(self) -> list:
        return [self.atom_a_minus(j) for j in range(1, self.k + 1)]

    def ladder_image(self, state, energy: complex, up: bool):
        """L^+/- = B_k^+ b^+/- B_k^- as a state pipeline; returns (image, energy')."""
        cur = state
        e = complex(energy)
        for j in range(self.k, 0, -1):
            cur = AtomImage(cur, self.atom_a_minus(j), self.potentials[j - 1], e)
        e = e + (1.0 if up else -1.0)
        cur = AtomImage(cur, self.b_plus() if up else self.b_minus(), self.potentials[0], e)
        for j in range(1, self.k + 1):
            cur = AtomImage(cur, self.atom_a_plus(j), self.potentials[j], e)
        return cur, e

    def transformed_eigenstate(self, n: int) -> WronskianRatioState:
        target = physical_eigenfunction(1, n, self.ell)
        return WronskianRatioState(WronskianStack(self.chain + [target]),
                                   self.stacks[self.k], target.energy,
                                   self.potentials[self.k], f"psi^{{({self.k})}}_{n}")

    def new_level_state(self, j: int) -> WronskianRatioState:
        omitted = [u for i, u in enumerate(self.chain) if i != j - 1]
        return WronskianRatioState(WronskianStack(omitted), self.stacks[self.k],
                                   self.chain[j - 1].energy, self.potentials[self.k],
                                   f"psi^{{({self.k})}}_eps{j}")


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: max_error={self.max_error:.3e} tol={self.tolerance:.0e}"


def default_test_seeds(ell: float, count: int = 3) -> list[SeedSolution]:
    """Reproducible generic seeds (fixed rng) used by the identity checks."""
    rng = np.random.default_rng(174321)
    out = []
    for _ in range(count):
        eps = complex(rng.uniform(-2.0, 0.4), 0.0)
        mix = (1.0 + 0.0j, complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)))
        out.append(SeedSolution(ell, eps, mix))
    return out


def _rel_scale(provider, x: float, applied: complex) -> float:
    series = _provider_jet(provider, x, 2)
    return max(abs(series[0]), abs(2.0 * series[2]), abs(applied), 1e-300)


def check_intertwining(spec: SeedSpec, xs=_SAMPLE_XS, tol: float = 1e-7,
                       corrupt: float = 0.0) -> CheckReport:
    """H_j A_j^+ = A_j^+ H_{j-1} at every step of the ladder."""
    ladder = SusyLadder(spec, corrupt=corrupt)
    tests = default_test_seeds(spec.ell)
    worst = 0.0
    for j in range(1, spec.k + 1):
        left = OperatorChain([ladder.hamiltonian(j), ladder.atom_a_plus(j)])
        right = OperatorChain([ladder.atom_a_plus(j), ladder.hamiltonian(j - 1)])
        for f in tests:
            for x in xs:
                lv = left(f, x)
                rv = right(f, x)
                worst = max(worst, abs(lv - rv) / _rel_scale(f, x, lv))
    return CheckReport(f"intertwining k={spec.k}", worst <= tol, worst, tol)


def check_commutator(ell: float, xs=_SAMPLE_XS, tol: float = 1e-7) -> CheckReport:
    """[H, b^+/-] = +/- b^+/- on generic seeds."""
    pot = RadialPotential(ell)
    h = AtomH(pot)
    worst = 0.0
    for sign in (+1, -1):
        b = AtomB(ell, sign)
        for f in default_test_seeds(ell):
            for x in xs:
                hb = OperatorChain([h, b])(f, x)
                bh = OperatorChain([b, h])(f, x)
                bb = OperatorChain([b])(f, x)
                err = abs(hb - bh - sign * bb) / _rel_scale(f, x, hb)
                worst = max(worst, err)
    return CheckReport(f"commutator [H,b+/-] l={ell:g}", worst <= tol, worst, tol)


def check_factorization(spec: SeedSpec, xs=_SAMPLE_XS, tol: float = 1e-6) -> CheckReport:
    """B_k^- B_k^+ f = prod_i (H_0 - eps_i) f pointwise."""
    ladder = SusyLadder(spec)
    lhs = OperatorChain(ladder.big_b_minus() + ladder.big_b_plus())
    rhs = OperatorChain([ladder.hamiltonian(0, shift=spec.eps1 - i) for i in range(spec.k)])
    worst = 0.0
    for f in default_test_seeds(spec.ell):
        for x in xs:
            lv = lhs(f, x)
            rv = rhs(f, x)
            worst = max(worst, abs(lv - rv) / _rel_scale(f, x, lv))
    return CheckReport(f"factorization Bk-Bk+ k={spec.k}", worst <= tol, worst, tol)


def check_shift_identities(ell: float, xs=_SAMPLE_XS, tol: float = 1e-9) -> CheckReport:
    """b^- = a^-_{-(l+1)} a^-_{l+1} = a^-_l a^-_{-l} pointwise."""
    b = OperatorChain([AtomB(ell, -1)])
    alt1 = OperatorChain([AtomA(-(ell + 1.0), -1), AtomA(ell + 1.0, -1)])
    alt2 = OperatorChain([AtomA(ell, -1), AtomA(-ell, -1)])
    worst = 0.0
    for f in default_test_seeds(ell):
        for x in xs:
            v = b(f, x)
            s = _rel_scale(f, x, v)
            worst = max(worst, abs(v - alt1(f, x)) / s, abs(v - alt2(f, x)) / s)
    return CheckReport(f"shift-operator factorizations l={ell:g}", worst <= tol, worst, tol)


def check_ladder_polynomial(ell: float, xs=_SAMPLE_XS, tol: float = 1e-8) -> CheckReport:
    """b^+ b^- = (H - E0)(H + E0 - 1) on generic seeds."""
    pot = RadialPotential(ell)
    lhs = OperatorChain([AtomB(ell, +1), AtomB(ell, -1)])
    rhs = OperatorChain([AtomH(pot, shift=e0(ell)), AtomH(pot, shift=1.0 - e0(ell))])
    worst = 0.0
    for f in default_test_seeds(ell):
        for x in xs:
            lv = lhs(f, x)
            worst = max(worst, abs(lv - rhs(f, x)) / _rel_scale(f, x, lv))
    return CheckReport(f"number operator b+b- l={ell:g}", worst <= tol, worst, tol)


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


def check_number_operator(spec: SeedSpec, n: int, xs=_SAMPLE_XS,
                          tol: float = 1e-6) -> CheckReport:
    """L_k^+ L_k^- on psi_n^(k), against the spectral polynomial.

    Also divides the measured eigenvalue by P_{k-1}(E_n)^2; the quotient
    must equal the reduced fourth-order quartic, which is the observable
    content of the ladder-reduction theorem.
    """
    ladder = SusyLadder(spec)
    state = ladder.transformed_eigenstate(n)
    en = e0(spec.ell) + n
    down, e_down = ladder.ladder_image(state, en, up=False)
    result, _ = ladder.ladder_image(down, e_down, up=True)
    lam = natural_eigenvalue(spec, n)
    worst = 0.0
    measured = []
    for x in xs:
        applied = complex(result.value_and_derivative(x)[0])
        val = complex(state.ratio_jet(x, 0)[0])
        scale = _rel_scale(state, x, applied)
        if abs(lam) < 1e-12:
            worst = max(worst, abs(applied) / scale)
        else:
            measured.append(applied / val)
            worst = max(worst, abs(applied - lam * val) / max(scale, abs(lam * val)))
    details = {"eigenvalue": lam}
    if measured and abs(lam) >= 1e-12:
        pk = 1.0 + 0.0j
        en = e0(spec.ell) + n
        for i in range(spec.k - 1):
            pk *= en - (spec.eps1 - i)
        quartic = reduced_quartic(spec, n)
        ratio_errs = [abs(m / (pk * pk) - quartic) / max(1.0, abs(quartic)) for m in measured]
        details["quartic"] = quartic
        details["quartic_error"] = max(ratio_errs)
        worst = max(worst, max(ratio_errs))
    return CheckReport(f"number operator L+L- k={spec.k} n={n}", worst <= tol, worst, tol,
                       details)


def check_new_level_annihilation(spec: SeedSpec, j: int | None = None,
                                 xs=_SAMPLE_XS, tol: float = 1e-6) -> CheckReport:
    """L_k^+ L_k^- annihilates the new-level states psi_eps_j^(k)."""
    ladder = SusyLadder(spec)
    js = range(1, spec.k + 1) if j is None else [j]
    worst = 0.0
    for jj in js:
        state = ladder.new_level_state(jj)
        e_j = complex(ladder.chain[jj - 1].energy)
        down, e_down = ladder.ladder_image(state, e_j, up=False)
        result, _ = ladder.ladder_image(down, e_down, up=True)
        for x in xs:
            applied = complex(result.value_and_derivative(x)[0])
            worst = max(worst, abs(applied) / _rel_scale(state, x, applied))
    return CheckReport(f"new-level annihilation k={spec.k}", worst <= tol, worst, tol)


def run_all_checks(specs: list[SeedSpec] | None = None, corrupt: float = 0.0,
                   selected: str | None = None) -> list[CheckReport]:
    """The default identity suite (used by the CLI verify command)."""
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
        if want("intertwining"):
            reports.append(check_intertwining(spec, corrupt=corrupt))
        if want("factorization"):
            reports.append(check_factorization(spec))
        if want("number"):
            for n in (0, 1, 2):
                reports.append(check_number_operator(spec, n))
        if want("annihilation"):
            reports.append(check_new_level_annihilation(spec))
    for ell in (0.0, 1.0, 3.0):
        if want("commutator"):
            reports.append(check_commutator(ell))
        if want("shift"):
            reports.append(check_shift_identities(ell))
        if want("ladder-polynomial"):
            reports.append(check_ladder_polynomial(ell))
    return reports
