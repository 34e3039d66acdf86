import math

import numpy as np
import pytest

from susypv.hierarchies import HierarchyTag, closed_form_w, convention_sqrt, crosscheck, detect
from susypv.oscillator import NU_INF, SeedSpec, e0


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

    def test_k_not_one_is_transcendent(self):
        assert detect(spec_nu(2.0, 0.75, 0.0, k=2)).family == "transcendent"

    def test_nu_at_a_gamma_pole_is_transcendent(self):
        # at l = 0, eps1 = 3/4 the nu mapping's gamma sits on its pole
        # (GammaPoleError), so no (eps1, nu) condition can fire
        spec = SeedSpec.from_lambda_kappa(0.0, 0.75, 0.0, 1.0)
        assert detect(spec) == HierarchyTag("transcendent", {})

    def test_stable_under_nu_mixture_mapping(self):
        a = detect(spec_nu(2.0, 0.75, 0.0))
        b = detect(SeedSpec(2.0, 0.75, (1.0, 0.0), 1, "real-physical"))
        assert a.family == b.family == "polynomial"


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

    def test_convention_transform(self):
        form = lambda z: 1.0 - z**1.5 / 5.0
        conv = convention_sqrt(form)
        for z in (0.5, 2.0, 9.0):
            assert abs(conv(z) - (1.0 - z / 5.0)) < 1e-14
