"""Every evaluation takes a grid, and row i of a grid is the grid of one at xs[i].

A seed sums its 1F1 rows over the whole grid in one kummer_1f1 call: real
b rows at y = x^2/2 > 0, the one shape summed in one pass, batched above
the crossover and looped per point below it, with the same bits either
way; the seed's assembly and b+/- of the parent's jet are grid
expressions, the closed forms run a one-point kernel per x, and the perp
integrator steps the whole grid at once. The closure (closure_jet) and
RadialPotential's jet run on the whole grid with each point's bits, so
their rows match bit for bit. Ratio states, V_k and operator images come
from array arithmetic over the grid; the series LU keeps each point's
bits, but a numpy kernel may round a batch's body unlike its tail, so
those rows are held to REL_TOL of the largest entry of the row.
"""

import math

import numpy as np
import pytest

from susypv import oscillator, specialfunctions, susy
from susypv.operators import AtomImage, SusyLadder, atom_b, default_test_seeds, run_all_checks
from susypv.oscillator import (
    NU_INF,
    RadialPotential,
    SeedSolution,
    SeedSpec,
    apply_b_plus,
    e0,
    make_seed,
    physical_eigenfunction,
)
from susypv.painleve import default_z_grid, solve
from susypv.specialfunctions import BATCH_MIN_SIZE
from susypv.susy import extremal_quartet, radial_oscillator_quartet

XS = tuple(math.sqrt(z) for z in default_z_grid(24))
SPEC = SeedSpec.from_nu(2.0, 0.45, 3.0, k=3)
REL_TOL = 1e-13


def assert_rows_match(evaluate, rel_tol=None):
    """Row i of evaluate(XS) equals evaluate((XS[i],))[0]: bit for bit when rel_tol is None."""
    grid = evaluate(XS)
    assert grid.shape[0] == len(XS)
    for x, row in zip(XS, grid):
        one = evaluate((x,))
        assert one.shape == (1,) + row.shape
        if rel_tol is None:
            assert np.array_equal(one[0].view(np.uint64), row.view(np.uint64)), x
        else:
            assert np.all(np.abs(one[0] - row) <= rel_tol * np.max(np.abs(row))), x


def solutions():
    ladder = SusyLadder(SPEC)
    return {
        "SeedSolution": ladder.chain[0],
        # one branch, two 1F1 rows (M and M'): the fewest a seed sums
        "SeedSolution nu=inf": SeedSolution(2.0, 0.45, SeedSpec.from_nu(2.0, 0.45, NU_INF).mixture),
        # eps1 = (1-2l)/4 + 2 and nu = 0: branch 1 only, with a1 = -2 and a1 + 1 = -1
        "SeedSolution terminating": SeedSolution(2.0, 1.25, (1.0, 0.0)),
        "_LadderedSolution b-": ladder.chain[2],
        "_LadderedSolution b+": apply_b_plus(ladder.chain[0]),
        "ClosedFormSolution": physical_eigenfunction(1, 2, SPEC.ell),
        "PerpSolution": radial_oscillator_quartet(SPEC.ell).states[3],
    }


@pytest.mark.parametrize("name", list(solutions()))
def test_solution_rows_bit_for_bit(name):
    sol = solutions()[name]
    assert_rows_match(sol.value_and_derivative)
    assert_rows_match(lambda xs: sol.jet_values(xs, 6))
    assert_rows_match(lambda xs: sol.taylor(xs, 6))


def test_seed_grids_are_batched():
    # a seed with two 1F1 rows sums XS in one batched pass, and a grid of
    # one through the one-point loop, so the seed rows above compare the two
    assert 2 * len(XS) >= BATCH_MIN_SIZE > 4


def test_radial_potential_rows_bit_for_bit():
    assert_rows_match(lambda xs: RadialPotential(SPEC.ell).deriv_jet(xs, 6))


def test_partner_potential_rows():
    for potential in SusyLadder(SPEC).potentials:
        assert_rows_match(lambda xs: potential.deriv_jet(xs, 4), REL_TOL)


def test_ratio_state_rows():
    for state in extremal_quartet(SPEC).states:
        assert_rows_match(state.value_and_derivative, REL_TOL)
        assert_rows_match(lambda xs: state.taylor(xs, 4), REL_TOL)


def test_atom_image_rows():
    # images under A_1^+ (V_1's closure) and b^- (V_0's) of a generic seed
    ladder = SusyLadder(SPEC)
    f = default_test_seeds(SPEC.ell)[0]
    for image in (AtomImage(f, ladder.atom_susy(1, +1), ladder.potentials[1], f.energy),
                  AtomImage(f, atom_b(SPEC.ell, -1), ladder.potentials[0], f.energy - 1)):
        assert_rows_match(image.value_and_derivative, REL_TOL)
        assert_rows_match(lambda xs: image.jet_values(xs, 4), REL_TOL)


def test_closure_runs_once_per_grid(monkeypatch):
    # jet_values makes one closure_jet call per cache miss, and the perp
    # integrator steps every point of a grid at once; a per-point loop would
    # keep every bit and multiply the calls by the grid size
    calls = []

    def record(vjet, start, energy, order):
        calls.append(len(start))
        return closure(vjet, start, energy, order)

    closure = oscillator.closure_jet
    perp = radial_oscillator_quartet(SPEC.ell).states[3]  # built unpatched: checkpoints uncounted
    for module in (oscillator, susy):
        monkeypatch.setattr(module, "closure_jet", record)
    xs = tuple(np.geomspace(0.05, 16.0, 200).tolist())  # past the checkpoints at 12: 16 steps
    seed = make_seed(SPEC)
    for order in (2, 6, 4, 9, 9):
        seed.jet_values(xs, order)
    assert calls == [200] * 3  # the misses at orders 2, 6 and 9
    steps = []
    for grid in (xs[::10] + xs[-1:], xs):
        calls.clear()
        perp.value_and_derivative(grid)
        steps.append(len(calls))
    assert steps[0] == steps[1] == 16


def test_perp_passes_keep_the_bits(monkeypatch):
    # a long grid steps _CHUNK points at a time, so a step's jets stay
    # bounded; every point is stepped alone, so the passes change no bit
    perp = radial_oscillator_quartet(3.0).states[3]
    xs = tuple(np.geomspace(0.05, 16.0, 23).tolist())
    whole = perp.value_and_derivative(xs)
    monkeypatch.setattr(susy, "_CHUNK", 5)
    parts = perp.value_and_derivative(xs)
    assert parts.shape == whole.shape == (23, 2)
    assert parts.tobytes() == whole.tobytes()


def test_library_sends_only_the_batched_shape(monkeypatch):
    # every kummer_1f1 call of solve, its certificate and verify's shift checks
    # is a grid of real b rows at real points 0 < y < inf, the shape summed in
    # one pass: a change that sent the seed down the one-point loop would keep
    # every bit and lose only the time
    calls = []

    def record(a, b, x):
        calls.append((a, b, x))
        return kummer(a, b, x)

    kummer = specialfunctions.kummer_1f1
    for module in (specialfunctions, oscillator):  # every name the library calls it by
        monkeypatch.setattr(module, "kummer_1f1", record)
    ell = 2.0
    specs = [SeedSpec.from_nu(ell, 0.45 + 0.3j, 0.8 - 0.5j, k=2),
             SeedSpec.from_nu(ell, 0.45, NU_INF, k=3),
             # t1's seed: eps1 = E0 and nu = inf, branch 2 with a2 = 0 (one terminating row)
             SeedSpec.from_nu(ell, e0(ell), NU_INF, k=1, mode="complex-over-real")]
    for spec in specs:
        solve(spec, allow_degenerate=True).residual_certificate()
    default_test_seeds.cache_clear()  # seeds that evaluated earlier keep their jets
    run_all_checks(selected="shift")
    assert len(calls) >= 2 * len(specs) + 3
    for a, b, x in calls:
        y = np.asarray(x)
        assert np.ndim(a) == np.ndim(b) == y.ndim == 1
        assert all(complex(v).imag == 0 for v in np.ravel(b)), b
        assert np.isrealobj(y) and np.all((y > 0) & (y < math.inf)), x

    monkeypatch.setattr(oscillator, "kummer_1f1", kummer)

    def fail(*args):
        raise AssertionError("one-point kernel called")

    xs = tuple(math.sqrt(z) for z in default_z_grid())
    monkeypatch.setattr(specialfunctions, "_kummer_point", fail)
    for spec in specs:
        make_seed(spec).value_and_derivative(xs)
