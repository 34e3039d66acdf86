import math
from fractions import Fraction as F

import numpy as np
import pytest

from susypv.hierarchies import _ZS, HierarchyTag, closed_form_w, convention_sqrt, crosscheck, detect
from susypv.oscillator import NU_INF, SeedSpec, e0
from susypv.painleve import PVSolution, solve


def spec_nu(ell, eps, nu, k=1):
    return SeedSpec.from_nu(ell, eps, nu, k=k, mode="complex-over-real")


class TestDetect:
    def test_hermite(self):
        tag = detect(spec_nu(0.0, 1.25, 0.0))
        assert tag.family == "hermite"
        assert tag.condition["n"] == 1

    def test_exponential(self):
        tag = detect(spec_nu(0.5, 0.0, NU_INF))
        assert tag.family == "exponential"

    def test_transcendent(self):
        assert detect(spec_nu(1.0, 0.37, 1.0)).family == "transcendent"

    def test_polynomial_both_branches(self):
        assert detect(spec_nu(2.0, 0.75, 0.0)).family == "polynomial"
        assert detect(spec_nu(2.0, -0.5 * 2.0 - 0.75, NU_INF)).family == "polynomial"

    def test_laguerre(self):
        tag = detect(spec_nu(2.0, 1.0 - 1.0 + 0.25, 0.0))
        assert tag.family == "laguerre"

    def test_bessel(self):
        tag = detect(spec_nu(1.0, 0.0, 0.0))
        assert tag.family == "bessel"
        assert tag.condition["mus"] == (-0.75, -1.25)

    def test_weber(self):
        tag = detect(spec_nu(0.0, 0.37, 0.0))
        assert tag.family == "weber"
        assert abs(tag.condition["mu"] - (4 * 0.37 - 1) / 2) < 1e-12

    def test_k2_polynomial_member_is_rational(self):
        # the k = 2 member of the polynomial family: branch 1 with b1 - a1 = 0
        tag = detect(spec_nu(2.0, 0.75, 0.0, k=2))
        assert tag == HierarchyTag("rational", {"nu": "0", "n": 0, "reflected": True})

    def test_nu_at_a_gamma_pole_is_transcendent(self):
        # l = 0, eps1 = 3/4 is a pole of the nu mapping's gamma, but that plays
        # no part: both mu are nonzero, and every family has a single branch
        spec = SeedSpec.from_lambda_kappa(0.0, 0.75, 0.0, 1.0)
        assert detect(spec) == HierarchyTag("transcendent", {})

    def test_branch1_at_a_gamma_pole_has_its_family(self):
        # nu cannot express this seed (G(a2) has a pole), the mixture can
        spec = SeedSpec.from_lambda_kappa(0.0, 0.75, 0.0, 0.0)
        assert detect(spec).family == "weber"

    def test_near_zero_nu_is_not_nu_zero(self):
        assert detect(spec_nu(0.0, 1.25, 1e-13)).family == "transcendent"

    def test_realness_agrees_with_spec_mode(self):
        # one threshold (REAL_TOL): a spec inferred fully-complex is no real-eps1 family
        spec = SeedSpec.from_nu(0.0, 0.3 + 5e-13j, 0.0)
        assert spec.mode == "fully-complex"
        assert detect(spec).family == "transcendent"
        assert detect(spec_nu(0.0, 0.3 + 5e-14j, 0.0)).family == "weber"

    def test_published_families_need_no_gamma(self, monkeypatch):
        specs = {
            "exponential": spec_nu(0.5, 0.0, NU_INF),
            "polynomial": spec_nu(2.0, 0.75, 0.0),
            "hermite": spec_nu(0.0, 1.25, 0.0),
            "laguerre": spec_nu(2.0, 0.25, 0.0),
            "bessel": spec_nu(1.0, 0.0, 0.0),
            "weber": spec_nu(0.0, 0.37, 0.0),
        }

        def no_gamma(z):
            raise AssertionError("detect evaluated a gamma function")

        monkeypatch.setattr("susypv.oscillator.gamma", no_gamma)
        monkeypatch.setattr("susypv.specialfunctions.log_gamma", no_gamma)
        for family, spec in specs.items():
            assert detect(spec).family == family

    def test_stable_under_nu_mixture_mapping(self):
        a = detect(spec_nu(2.0, 0.75, 0.0))
        b = detect(SeedSpec(2.0, 0.75, (1.0, 0.0), 1, "real-physical"))
        assert a.family == b.family == "polynomial"


def _linear_oracle(ell: F, eps: F, nu_kind: str) -> tuple[str, int | None]:
    """(family, n) from linear conditions in eps, independent of the 1F1 parameters."""
    if nu_kind == "0":
        direct, reflected = eps + ell / 2 - F(1, 4), ell / 2 - F(1, 4) - eps
    else:
        direct, reflected = eps - ell / 2 - F(3, 4), -ell / 2 - F(3, 4) - eps
    if reflected == 0:
        return "polynomial", None
    if direct.denominator == 1 and direct >= 0:
        return ("hermite" if ell == 0 else "laguerre"), int(direct)
    if eps == 0:
        return "bessel", None
    if ell == 0 and nu_kind == "0":
        return "weber", None
    if reflected.denominator == 1 and reflected >= 0:
        return "rational", int(reflected)
    return "transcendent", None


def test_detect_agrees_with_linear_oracle():
    seen = set()
    for ell in map(F, (0, 1, 2, 3, 5)):
        for eps in (F(q, 4) for q in range(-24, 25)):
            for nu_kind, mixture in (("0", (1.0, 0.0)), ("inf", (0.0, 1.0))):
                spec = SeedSpec(float(ell), complex(eps), mixture, 1, "complex-over-real")
                family, n = _linear_oracle(ell, eps, nu_kind)
                tag = detect(spec)
                assert tag.family == family, (ell, eps, nu_kind)
                assert tag.condition.get("n") == n, (ell, eps, nu_kind)
                seen.add(family)
    assert seen == {"polynomial", "hermite", "laguerre", "bessel", "weber", "rational",
                    "transcendent"}


@pytest.mark.parametrize("ell, eps, nu, k, exact", [
    (1.0, -2.25, NU_INF, 1, lambda z: (z + 7.0) / 2.0),
    (1.0, -2.25, NU_INF, 2,
     lambda z: (z + 5.0) * (z * z + 14.0 * z + 63.0) / (2.0 * (z * z + 14.0 * z + 35.0))),
    (2.0, -1.25, 0.0, 1,
     lambda z: -(z**3 - 3.0 * z * z + 9.0 * z - 15.0) / (z * z - 6.0 * z + 15.0)),
], ids=["l1-nuinf-k1", "l1-nuinf-k2", "l2-nu0-k1"])
def test_rational_tag_and_exact_w(ell, eps, nu, k, exact):
    spec = SeedSpec.from_nu(ell, eps, nu, k=k)
    tag = detect(spec)
    assert tag.family == "rational" and tag.condition["reflected"]
    res, samples = solve(spec).residual_certificate()
    assert res <= 1e-8
    ok = [s for s in samples if s.flag == "ok"]
    assert ok
    for s in ok:
        assert abs(s.w - exact(s.z)) <= 1e-10 * max(1.0, abs(exact(s.z))), s.z


class TestClosedForms:
    def test_polynomial_at_z4(self):
        for ell in (1.0, 2.0, 4.0):
            tag = detect(spec_nu(ell, 0.5 * ell - 0.25, 0.0))
            assert abs(closed_form_w(tag, 4.0) - (1.0 - 8.0 / (2 * ell + 1))) < 1e-14

    def test_exponential_first_form_at_one(self):
        tag = detect(spec_nu(0.5, 0.0, NU_INF))
        assert abs(closed_form_w(tag, 1.0, form=0) - (1.0 + (math.e**0.5 - 1.0))) < 1e-14

    def test_hermite_a_n0(self):
        tag = detect(spec_nu(0.0, 0.25, 0.0))
        z = 2.7
        assert abs(closed_form_w(tag, z, form=0) - (1.0 - z**1.5 / (z * z + 1.0))) < 1e-14

    def test_weber_not_available(self):
        tag = detect(spec_nu(0.0, 0.37, 0.0))
        with pytest.raises(ValueError):
            closed_form_w(tag, 1.0)


class TestCrosscheck:
    def test_polynomial_matches(self):
        rep = crosscheck(spec_nu(2.0, 0.75, 0.0))
        assert rep.machinery_residual <= 1e-8
        matched = [f for f in rep.form_results if f.matched]
        assert matched, "polynomial form must match under a convention"
        best = matched[0]
        assert best.convention == "sqrt"
        assert best.error <= 1e-9

    def test_exponential_matches(self):
        rep = crosscheck(spec_nu(0.5, 0.0, NU_INF))
        assert rep.machinery_residual <= 1e-8
        matched = [f for f in rep.form_results if f.matched]
        assert any(f.form == 1 for f in matched)
        # the first printed form matches under neither convention; the
        # report must say so rather than stay silent
        unmatched = [f for f in rep.form_results if f.form == 0]
        assert unmatched and not unmatched[0].matched

    def test_bessel_matches_with_recorded_convention(self):
        rep = crosscheck(spec_nu(1.0, 0.0, 0.0))
        assert rep.machinery_residual <= 1e-8
        assert any(f.matched and f.convention == "sqrt" for f in rep.form_results)

    def test_hermite_n0_matches_n1_recorded(self):
        rep0 = crosscheck(spec_nu(0.0, 0.25, 0.0))
        assert any(f.matched for f in rep0.form_results)
        rep1 = crosscheck(spec_nu(0.0, 1.25, 0.0))
        assert rep1.machinery_residual <= 1e-8
        for f in rep1.form_results:
            assert f.error is not None  # recorded either way

    def test_weber_residual_only(self):
        rep = crosscheck(spec_nu(0.0, 0.37, 0.0))
        assert rep.tag.family == "weber"
        assert rep.form_results == []
        assert rep.machinery_residual <= 1e-8

    def test_w_evaluated_once_per_generic_ordering_and_point(self, monkeypatch):
        # four of the six orderings are generic (1423 is w==inf, 2314
        # w==0-shift): one batched w evaluation each, over the whole grid;
        # both printed forms, under both conventions, are graded on the
        # certificate's own samples
        calls = []
        w_grid = PVSolution.w_grid

        def counted(self, zs):
            calls.append((self.ordering, len(zs)))
            return w_grid(self, zs)

        monkeypatch.setattr(PVSolution, "w_grid", counted)
        rep = crosscheck(spec_nu(0.5, 0.0, NU_INF))
        assert len(rep.form_results) == 2
        assert [n for _, n in calls] == [len(_ZS)] * 4
        assert len({ordering for ordering, _ in calls}) == 4

    def test_convention_transform(self):
        form = lambda z: 1.0 - z**1.5 / 5.0
        conv = convention_sqrt(form)
        for z in (0.5, 2.0, 9.0):
            assert abs(conv(z) - (1.0 - z / 5.0)) < 1e-14
