"""Weighted expectation operators, norm bounds and criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bergmanlab.carleson import FamilySpec, PsiGridSpec
from bergmanlab.condexp import BlaschkeProduct, Identity, Monomial, cond_expect_values
from bergmanlab.errors import ConfigurationError
from bergmanlab.measures import Polynomial, QuadConfig, as_fraction
from bergmanlab.operators import (
    WeightedCondExpOperator,
    apply,
    boundedness_criterion,
    multiplication_criterion,
    opnorm_estimate,
)

from conftest import sample_disk

SMALL = QuadConfig(64, 128)
UNIT_FAMILY = FamilySpec(kernel_radii=(0.0, 0.5, 0.75), n_dirs=4, random_count=6)


def _op(u_coeffs, phi, p=2.0, alpha=0.0, beta=0.0):
    return WeightedCondExpOperator(u=Polynomial.from_coeffs(u_coeffs), phi=phi,
                                   p=p, alpha=alpha, beta=beta)


class TestApply:
    def test_identity_symbol(self, rng):
        op = _op([1.0], Identity())
        f = Polynomial.from_coeffs([1, 2, 3])
        z = complex(sample_disk(rng, 1)[0])
        assert abs(apply(op, f, z) - f(z)) < 1e-15

    def test_reference_value(self):
        # u = z, phi = z^2, f = z^2 at z = 0.5: 0.5 * E(z^2)(0.5) = 0.5 * 0.25
        op = _op([0, 1], Monomial(2))
        got = apply(op, Polynomial.from_coeffs([0, 0, 1]), 0.5)
        assert abs(got - 0.125) < 1e-15

    def test_zero_symbol(self, rng):
        op = _op([0.0], Monomial(2))
        f = Polynomial.from_coeffs([1, 1])
        assert apply(op, f, 0.4) == 0.0

    def test_linear_in_f(self, rng):
        op = _op([1.0, 0.5], Monomial(3))
        f = Polynomial.from_coeffs(rng.standard_normal(4))
        g = Polynomial.from_coeffs(rng.standard_normal(4))
        fg = Polynomial.from_coeffs([a + 2 * b for a, b in
                                     zip(f.coeffs, g.coeffs)])
        z = 0.3 + 0.2j
        assert abs(apply(op, fg, z) - (apply(op, f, z) + 2 * apply(op, g, z))) < 1e-13

    @pytest.mark.parametrize("phi", [Identity(), Monomial(3),
                                     BlaschkeProduct((0.3 + 0.2j, -0.5j, 0.6))],
                             ids=["identity", "z^3", "blaschke3"])
    def test_matches_vectorised_expectation(self, phi, rng):
        # the scalar level set and the array sweep are two reads of one helper
        op = _op(rng.standard_normal(3) + 1j * rng.standard_normal(3), phi)
        f = Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        zs = sample_disk(rng, 40, rmax=0.9)
        want = op.u(zs) * cond_expect_values(phi, f, zs)
        got = np.array([apply(op, f, complex(z)) for z in zs])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestOpNorm:
    def test_identity_operator_is_isometry(self):
        op = _op([1.0], Identity())
        res = opnorm_estimate(op, UNIT_FAMILY, SMALL)
        assert abs(res.lower_bound - 1.0) < 1e-9

    def test_shift_on_monomials(self):
        # ||z * z^m||_{2,0} / ||z^m||_{2,0} = sqrt((m+1)/(m+2)); sup -> 1
        op = _op([0, 1], Identity())
        fam = FamilySpec(kernel_radii=(), random_count=0, monomial_degree=20)
        res = opnorm_estimate(op, fam, SMALL)
        for m in range(21):
            expected = np.sqrt((m + 1.0) / (m + 2.0))
            assert abs(res.ratios[f"monomial:z^{m}"] - expected) < 1e-9
        assert abs(res.lower_bound - np.sqrt(21.0 / 22.0)) < 1e-9
        assert res.worst_label == "monomial:z^20"

    def test_homogeneous_in_symbol(self):
        a = opnorm_estimate(_op([0, 1], Identity()), UNIT_FAMILY, SMALL).lower_bound
        b = opnorm_estimate(_op([0, 3], Identity()), UNIT_FAMILY, SMALL).lower_bound
        assert abs(b - 3.0 * a) < 1e-12

    def test_zero_symbol(self):
        res = opnorm_estimate(_op([0.0], Identity()), UNIT_FAMILY, SMALL)
        assert res.lower_bound == 0.0

    def test_blaschke_map_runs(self):
        op = _op([1.0], BlaschkeProduct((0.3, -0.2j)))
        assert not op.expectation_analytic
        res = opnorm_estimate(op, FamilySpec(kernel_radii=(0.0, 0.5), n_dirs=2,
                                             random_count=2), QuadConfig(32, 64))
        assert 0 < res.lower_bound <= 1.0 + 1e-6


class TestBoundednessCriterion:
    def test_unit_symbol_same_weight(self):
        res = boundedness_criterion(_op([1.0], Identity()), PsiGridSpec(4, 9, 4), SMALL)
        assert abs(res.sup - 1.0) < 1e-7
        assert res.verdict == "bounded"

    def test_heavier_target_weight_bounded(self):
        res = boundedness_criterion(_op([1.0], Identity(), alpha=0.0, beta=1.0),
                                    PsiGridSpec(4, 9, 4), SMALL)
        assert res.verdict == "bounded"
        assert res.sup <= 1.0 + 1e-9

    def test_lighter_target_weight_divergent(self):
        res = boundedness_criterion(_op([1.0], Identity(), alpha=0.0, beta=-0.5),
                                    PsiGridSpec(4, 10, 4), SMALL)
        assert res.verdict == "divergent"

    def test_non_finite_symbol_rejected(self):
        with pytest.raises(ConfigurationError, match="symbol"):
            boundedness_criterion(_op([1.0, float("nan")], Identity()), PsiGridSpec(4, 8, 4),
                                  SMALL)

    def test_scales_like_symbol_power(self):
        grid = PsiGridSpec(4, 8, 4)
        a = boundedness_criterion(_op([0, 1], Identity()), grid, SMALL)
        b = boundedness_criterion(_op([0, 2], Identity()), grid, SMALL)
        assert abs(b.sup - 4.0 * a.sup) < 1e-9 * max(1.0, b.sup)


class TestMultiplicationCriterion:
    def test_unit_symbol_equal_spaces(self):
        res = multiplication_criterion(Polynomial.from_coeffs([1.0]), 2.0, 2.0,
                                       0.0, 0.0, PsiGridSpec(4, 9, 4), SMALL)
        assert abs(res.sup - 1.0) < 1e-7
        assert res.verdict == "bounded"

    def test_zero_symbol(self):
        res = multiplication_criterion(Polynomial.from_coeffs([0.0]), 2.0, 4.0,
                                       0.0, 0.0, PsiGridSpec(4, 8, 4), SMALL)
        assert res.sup == 0.0 and res.verdict == "bounded"

    def test_unbounded_embedding(self):
        # L^2_a -> L^4_a via the identity symbol is unbounded: slope near -2
        res = multiplication_criterion(Polynomial.from_coeffs([1.0]), 2.0, 4.0,
                                       0.0, 0.0, PsiGridSpec(4, 10, 4), SMALL)
        assert res.verdict == "divergent"
        assert -2.3 < res.slope < -1.7

    def test_exponent_just_below_zero_is_divergent(self):
        # beta + 2 - t = -0.05 for t = (2 + 0.2) 2.1 / 1.5 = 3.08; the slope is near -0.05.
        res = multiplication_criterion(Polynomial.from_coeffs([1.0, 0.5]), 1.5, 2.1,
                                       0.2, 1.03, PsiGridSpec(4, 10, 4), SMALL)
        assert res.verdict == "divergent"
        assert res.exponent == pytest.approx(-0.05, abs=1e-12)
        assert -0.1 < res.slope < 0.0

    def test_equal_spaces_are_bounded(self):
        # t = (2 + alpha) q / p is exact, so p = q and beta = alpha give exponent 0;
        # in floats, (2 + 0.7) * 1.5 / 1.5 rounds above 2 + 0.7.
        assert (2.0 + 0.7) * 1.5 / 1.5 > 2.0 + 0.7
        res = multiplication_criterion(Polynomial.from_coeffs([1.0, 0.5]), 1.5, 1.5,
                                       0.7, 0.7, PsiGridSpec(4, 8, 4), SMALL)
        assert res.exponent == 0.0 and res.verdict == "bounded"

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.0, 2.0), ratio=st.floats(1.0, 1.6), alpha=st.floats(-0.4, 1.0),
           exponent=st.floats(-0.5, 0.5))
    def test_divergent_exactly_when_the_exponent_is_negative(self, p, ratio, alpha, exponent):
        q = p * ratio
        # The oracle reads each float as the decimal it prints as, as a config writes it.
        t = (2 + as_fraction(alpha)) * as_fraction(q) / as_fraction(p)
        beta = float(t) - 2.0 + exponent
        res = multiplication_criterion(Polynomial.from_coeffs([1.0, 0.5]), p, q, alpha, beta,
                                       PsiGridSpec(4, 8, 4), SMALL)
        assert res.verdict == ("divergent" if as_fraction(beta) + 2 - t < 0 else "bounded")
        if abs(exponent) > 1e-12:
            assert res.divergent == (exponent < 0)

    def test_exponent_order_validated(self):
        with pytest.raises(ConfigurationError):
            multiplication_criterion(Polynomial.from_coeffs([1.0]), 4.0, 2.0,
                                     0.0, 0.0, PsiGridSpec(4, 6, 4), SMALL)


class TestNormCriterionComparability:
    def test_suite_wide_factor_stable_under_refinement(self):
        # the certified norm bound to the p-th power and the transform sup
        # track each other within a modest suite-wide factor, and both sides
        # barely move when the quadrature grid is refined
        cases = [
            ([1.0], Identity(), 0.0),
            ([0, 1.0], Identity(), 0.0),
            ([1.0, 0.5], Monomial(2), 0.0),
            ([0, 0, 1.0], Monomial(3), 1.0),
        ]
        fam = FamilySpec(kernel_radii=(0.0, 0.5, 0.75, 0.875), n_dirs=4, random_count=6)
        grid = PsiGridSpec(4, 9, 4)
        for coarse, fine in [(QuadConfig(96, 192), QuadConfig(192, 384))]:
            for u, phi, alpha in cases:
                op = _op(u, phi, alpha=alpha, beta=alpha)
                ratios = {}
                for tag, quad in (("coarse", coarse), ("fine", fine)):
                    norm = opnorm_estimate(op, fam, quad).lower_bound
                    sup = boundedness_criterion(op, grid, quad).sup
                    ratios[tag] = norm**op.p / sup
                    assert 0.1 < ratios[tag] < 10.0
                assert abs(ratios["fine"] - ratios["coarse"]) < 0.05 * ratios["coarse"]


class TestOperatorType:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            _op([1.0], Identity(), p=-1.0)
        with pytest.raises(ValueError):
            _op([1.0], Identity(), beta=-2.0)

    def test_symbol_measure(self, small_quad):
        op = _op([0, 1], Identity(), p=2.0, beta=0.0)
        mu = op.symbol_measure()
        # total mass of |z|^2 dA is the first monomial moment
        expected = np.exp(gammaln(2) + gammaln(2) - gammaln(3))
        assert abs(mu.total_mass(small_quad) - expected) < 1e-12

    def test_analytic_flag(self):
        assert _op([1.0], Monomial(2)).expectation_analytic
        # A one-zero Blaschke product is an automorphism: E is the identity.
        assert _op([1.0], BlaschkeProduct((0.2,))).expectation_analytic
        assert not _op([1.0], BlaschkeProduct((0.2, -0.4j))).expectation_analytic


def test_criterion_sup_is_finite_where_c_minus_a_minus_b_is_nearly_an_integer():
    # beta + 2 - 2 (beta + 2 - t) is within rounding of 1 here, where scipy's
    # 2F1 alone is inf from 1 - |a| = 2^-10.
    res = boundedness_criterion(_op([1, 0.5], Identity(), alpha=0.05, beta=0.1),
                                PsiGridSpec(4, 12, 8))
    assert res.verdict == "bounded"
    assert np.isfinite(res.sup)
