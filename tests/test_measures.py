"""Quadrature rules, measure variants, norms, and the wire format."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln, roots_jacobi

from bergmanlab import geometry
from bergmanlab import measures as measures_module
from bergmanlab.errors import ConfigurationError, EvaluationError
from bergmanlab.geometry import SpaceParams
from bergmanlab.geometry import test_function as kernel_power
from bergmanlab.lattice import build_lattice
from bergmanlab.measures import (
    Atomic,
    GridDensity,
    Polynomial,
    PolyWeighted,
    QuadConfig,
    RadialDensity,
    SumMeasure,
    WeightedArea,
    as_fraction,
    bergman_norm,
    build_quadrature,
    integrate,
    measure_from_config,
    measure_of_disk,
    poly_power,
)

from conftest import BrokenPsi, sample_disk

ALPHAS = (-0.9, -0.5, 0.0, 1.0, 3.0)


def monomial_moment(m, alpha):
    """Closed form int |z|^(2m) dA_alpha = m! Gamma(alpha+2) / Gamma(m+alpha+2)."""
    return np.exp(gammaln(m + 1) + gammaln(alpha + 2) - gammaln(m + alpha + 2))


class TestQuadratureRule:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_total_mass_one(self, alpha):
        rule = build_quadrature(alpha, 64, 128)
        assert abs(rule.weights.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monomial_moments(self, alpha):
        rule = build_quadrature(alpha, 64, 128)
        # weights for alpha near -1 carry a little extra rounding
        tol = 5e-12 if alpha < -0.8 else 1e-12
        for m in (0, 1, 2, 5, 12, 20):
            got = rule.integrate(lambda z: np.abs(z) ** (2 * m))
            assert abs(got - monomial_moment(m, alpha)) < tol

    def test_mixed_monomials_vanish(self):
        rule = build_quadrature(0.5, 64, 128)
        for m, n in [(1, 0), (3, 1), (7, 2)]:
            got = rule.integrate(lambda z: z**m * np.conj(z) ** n)
            assert abs(got) < 1e-13

    def test_modulus_squared_reference(self):
        # int |z|^2 dA_0 = 2 int_0^1 rho^3 drho = 1/2
        rule = build_quadrature(0.0, 64, 128)
        assert abs(rule.integrate(lambda z: np.abs(z) ** 2) - 0.5) < 1e-13

    def test_refinement_convergence(self):
        g = lambda z: np.exp(z.real) * np.abs(z) ** 2
        coarse = WeightedArea(0.5).integrate(g, QuadConfig(64, 128))
        fine = WeightedArea(0.5).integrate(g, QuadConfig(128, 256))
        assert abs(coarse - fine) < 1e-8

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            build_quadrature(-1.0, 64, 128)
        with pytest.raises(ConfigurationError):
            build_quadrature(0.0, 2, 128)
        with pytest.raises(ConfigurationError):
            QuadConfig(3, 128)


BETA_EXPONENTS = (-0.95, -0.875, -0.5, 0.0, 1.0, 5.0)


def beta_moment_error(alpha, n):
    """Largest relative error of the radial rule's sums v_i t_i^k against B(k+1, alpha+1),
    k <= min(200, 2n - 1)."""
    rule = build_quadrature(alpha, n, 4)
    k = np.arange(min(200, 2 * n - 1) + 1)
    got = (rule.radial_sq[None, :] ** k[:, None]) @ rule.radial_weights
    return np.max(np.abs(got / np.exp(betaln(k + 1.0, alpha + 1.0)) - 1.0))


class TestJacobiRule:
    """The Gauss-Jacobi nodes and weights behind every rule (``measures._jacobi_rule``)."""

    @pytest.mark.parametrize("n", (16, 128, 256, 512))
    @pytest.mark.parametrize("alpha", BETA_EXPONENTS)
    def test_beta_moments(self, alpha, n):
        assert beta_moment_error(alpha, n) <= 2e-12

    def test_doubling_does_not_lose_digits(self):
        # Worst over the exponents: 6.1e-13 at 256 nodes and 1.0e-12 at 512.
        worst = {n: max(beta_moment_error(alpha, n) for alpha in BETA_EXPONENTS)
                 for n in (256, 512)}
        assert worst[512] <= 2.0 * worst[256]

    @pytest.mark.parametrize("n", (4, 16, 128, 512))
    @pytest.mark.parametrize("a, b", ((-0.875, 0.0), (0.0, 0.0), (5.0, 0.0), (0.0, 0.37),
                                      (0.0, -0.95), (0.3, -0.9)))
    def test_nodes_match_scipy(self, a, b, n):
        x, _ = measures_module._jacobi_rule(n, a, b)
        assert np.max(np.abs(x - roots_jacobi(n, a, b)[0])) <= 4e-15

    @pytest.mark.parametrize("exponent", (-0.875, 0.37, 3.2))
    def test_panel_rule_matches_mpmath(self, exponent):
        x, w = measures_module._gauss_jacobi(16, exponent)
        with mpmath.workdps(40):
            nodes, weights = mpmath.gauss_quadrature(16, "jacobi", 0, exponent)
            exact = sorted(zip(nodes, weights))
        assert np.max(np.abs(x - [float(node) for node, _ in exact])) <= 1e-15
        assert np.max(np.abs(w / [float(weight) for _, weight in exact] - 1.0)) <= 1e-14


class TestIntegrate:
    def test_atomic_point_evaluation(self):
        mu = Atomic.from_atoms([(0.3, 1.0)])
        assert abs(integrate(mu, lambda z: np.abs(z) ** 2) - 0.09) < 1e-15

    def test_atomic_is_exact_sum(self):
        mu = Atomic.from_atoms([(0.2, 0.5), (0.1j, 1.5)])
        got = integrate(mu, lambda z: z)
        assert abs(got - (0.5 * 0.2 + 1.5 * 0.1j)) < 1e-15

    def test_unit_kernel_power_norm(self, small_quad):
        mu = WeightedArea(0.0)
        params = SpaceParams(p=2.0, alpha=0.0)
        for aa in (0.0, 0.4, 0.8):
            a = aa * np.exp(1.3j)
            got = integrate(mu, lambda z: np.abs(kernel_power(a, z, params)) ** 2, small_quad)
            assert abs(got - 1.0) < 1e-10

    @pytest.mark.parametrize("gamma", (-0.5, 0.0, 1.0, 2.5))
    def test_radial_total_mass(self, gamma, small_quad):
        # int (1-rho^2)^gamma 2 rho drho = 1/(gamma+1)
        mu = RadialDensity(gamma)
        assert abs(mu.total_mass(small_quad) - 1.0 / (gamma + 1.0)) < 1e-12

    def test_radial_scale(self, small_quad):
        assert abs(RadialDensity(1.0, scale=3.0).total_mass(small_quad) - 1.5) < 1e-12

    def test_linearity(self, small_quad, rng):
        mu = RadialDensity(0.5)
        f = lambda z: z.real**2
        g = lambda z: np.abs(z)
        lhs = mu.integrate(lambda z: 2.0 * f(z) + g(z), small_quad)
        rhs = 2.0 * mu.integrate(f, small_quad) + mu.integrate(g, small_quad)
        assert abs(lhs - rhs) < 1e-13

    def test_sum_measure_additive(self, small_quad):
        parts = (WeightedArea(0.0), Atomic.from_atoms([(0.5, 2.0)]))
        mu = SumMeasure(parts)
        g = lambda z: np.abs(z) ** 2
        expected = sum(p.integrate(g, small_quad) for p in parts)
        assert integrate(mu, g, small_quad) == expected

    def test_polyweighted(self, small_quad):
        # |z|^2 dA_0 has total mass 1/2
        mu = PolyWeighted(Polynomial.from_coeffs([0, 1]), 2.0, 0.0)
        assert abs(mu.total_mass(small_quad) - 0.5) < 1e-13

    def test_non_finite_integrand_names_node(self, small_quad):
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        z0 = rule.nodes[3, 7]

        def bad(z):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(z - z0)

        with pytest.raises(EvaluationError) as err:
            WeightedArea(0.0).integrate(bad, small_quad)
        assert f"node z = {z0}" in str(err.value) and "(index (3, 7))" in str(err.value)

    def test_grid_density(self, small_quad):
        rule = build_quadrature(0.0, 32, 64)
        gd = GridDensity.from_function(rule, lambda z: 1.0 + 0.0 * z.real)
        assert abs(gd.total_mass() - 1.0) < 1e-12
        gd2 = GridDensity.from_function(rule, lambda z: np.abs(z) ** 2)
        assert abs(gd2.total_mass() - 0.5) < 1e-12

    def test_grid_density_is_atomic_on_rule_nodes(self):
        from bergmanlab.carleson import psi_transform

        rule = build_quadrature(0.5, 16, 32)
        gd = GridDensity.from_function(rule, lambda z: 1.0 + np.abs(z) ** 2)
        again = measure_from_config(gd.spec())
        assert again.spec() == gd.spec()
        assert np.array_equal(again.values, gd.values)
        masses = rule.weights * gd.values
        atoms = Atomic.from_atoms(list(zip(rule.nodes.ravel(), masses.ravel())))
        g = lambda z: np.abs(1.0 + z) ** 3
        assert abs(gd.integrate(g) - atoms.integrate(g)) < 1e-14
        for a, r in [(0.0, 0.5), (0.6j, 1.0), (-0.7 + 0.2j, 0.8)]:
            assert abs(gd.disk_measure(a, r) - atoms.disk_measure(a, r)) < 1e-14
            assert abs(psi_transform(gd, a, 0.5) - psi_transform(atoms, a, 0.5)) < 1e-13

    def test_integrand_not_shaped_like_the_nodes_raises(self, small_quad):
        # A stack of integrands is refused rather than summed into one number.
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        g = lambda z: np.abs(1.0 + z) ** 3
        for mu in (WeightedArea(0.5), RadialDensity(0.5, 2.0),
                   PolyWeighted(Polynomial.from_coeffs([1, 0.5j]), 3.0, 1.0),
                   Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25)]),
                   GridDensity.from_function(rule, lambda z: np.abs(1.0 + z / 2) ** 2),
                   SumMeasure((RadialDensity(1.0), Atomic.from_atoms([(0.5, 0.3)])))):
            for bad in (lambda z: np.stack([g(z), g(z)]), lambda z: g(z)[..., None]):
                with pytest.raises(ConfigurationError, match="shaped like the nodes"):
                    mu.integrate(bad, small_quad)
            assert mu.integrate(2.5, small_quad) == pytest.approx(2.5 * mu.total_mass(small_quad))

    def test_grid_density_rejects_negative(self):
        rule = build_quadrature(0.0, 16, 32)
        with pytest.raises(ConfigurationError):
            GridDensity.from_values(rule, -np.ones(rule.nodes.shape))

    def test_atom_masses_must_be_finite(self):
        for mass in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                Atomic.from_atoms([(0.5, mass)])
            with pytest.raises(ConfigurationError, match="finite"):
                Atomic(points=np.array([0.5 + 0j]), masses=np.array([mass]))

    def test_grid_density_values_must_be_finite(self):
        rule = build_quadrature(0.0, 16, 32)
        for value in (float("nan"), float("inf")):
            values = np.ones(rule.nodes.shape)
            values[3, 7] = value
            with pytest.raises(ConfigurationError):
                GridDensity.from_values(rule, values)

    @pytest.mark.parametrize("scale", (float("nan"), float("inf")))
    def test_radial_scale_must_be_finite(self, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            RadialDensity(0.0, scale)

    @pytest.mark.parametrize("coeff", (float("nan"), complex(0.0, float("inf"))))
    def test_polyweighted_symbol_must_be_finite(self, coeff):
        with pytest.raises(ConfigurationError, match="symbol"):
            PolyWeighted(Polynomial.from_coeffs([1.0, coeff]), 2.0, 0.0)

    @pytest.mark.parametrize("points, masses, match", (
        ([0.5, 1.0], [1.0, 1.0], "interior point"),
        ([0.5, -1j], [1.0, 1.0], "interior point"),
        ([0.5, 0.2j], [1.0, -0.5], "nonnegative"),
        ([0.5, 0.2j], [1.0], "one mass per atom"),
        ([[0.5, 0.2j]], [1.0, 2.0], "one mass per atom"),
    ), ids=("on-circle", "on-circle-imaginary", "negative-mass", "fewer-masses", "shapes"))
    def test_atomic_constructor_validates(self, points, masses, match):
        with pytest.raises(ConfigurationError, match=match):
            Atomic(points=np.array(points, dtype=complex), masses=np.array(masses))

    def test_atomic_keeps_zero_masses_and_from_atoms_refuses_them(self, small_quad):
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        grid = GridDensity.from_values(rule, np.where(np.abs(rule.nodes) < 0.5, 1.0, 0.0))
        assert np.any(grid.masses == 0)
        assert Atomic(points=np.array([0.5 + 0j]), masses=np.zeros(1)).total_mass() == 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            Atomic.from_atoms([(0.5, 0.0)])
        with pytest.raises(ConfigurationError, match="interior point"):
            Atomic.from_atoms([(0.5, 1.0), (1.0, 1.0)])

    def test_atomic_scales_by_nonnegative_factors_only(self):
        mu = Atomic.from_atoms([(0.5, 1.0)])
        with pytest.raises(ConfigurationError, match="nonnegative"):
            mu.scaled(-1.0)
        assert mu.scaled(2.0).total_mass() == 2.0

    def test_atomic_needs_an_atom(self):
        with pytest.raises(ConfigurationError, match="at least one atom"):
            Atomic.from_atoms([])
        with pytest.raises(ConfigurationError, match="at least one atom"):
            Atomic(points=np.zeros(0, dtype=complex), masses=np.zeros(0))
        with pytest.raises(ConfigurationError):
            measure_from_config({"type": "atomic", "atoms": []})


class TestBoundaryExponent:
    def test_each_measure_type(self):
        t = 2.5
        atoms = Atomic.from_atoms([(0.9, 1.0)])
        assert RadialDensity(-0.25).boundary_exponent(t) == -0.75
        assert RadialDensity(-0.25, scale=0.0).boundary_exponent(t) == np.inf
        assert WeightedArea(0.5).boundary_exponent(t) == 0.0
        assert PolyWeighted(Polynomial.from_coeffs([0, 1]), 3.0, 1.0).boundary_exponent(t) == 0.5
        assert PolyWeighted(Polynomial.from_coeffs([0]), 3.0, -0.75).boundary_exponent(t) == np.inf
        assert atoms.boundary_exponent(t) == np.inf
        grid = GridDensity.from_values(build_quadrature(0.0, 8, 8), np.ones(64))
        assert grid.boundary_exponent(t) == np.inf
        assert SumMeasure((WeightedArea(0.5), RadialDensity(-0.25), atoms)).boundary_exponent(t) \
            == -0.75
        assert SumMeasure((atoms, WeightedArea(1.0))).boundary_exponent(t) == 0.5

    def test_sign_is_exact(self):
        # In floats, gamma + 2 rounds back onto 2 + alpha for the gamma just below alpha.
        alpha = 0.5
        gamma = np.nextafter(alpha, 0.0)
        assert (gamma + 2.0) - (2.0 + alpha) == 0.0
        assert RadialDensity(gamma).boundary_exponent(2 + as_fraction(alpha)) < 0
        # Floats are read as the decimals they print as: the float 2.1 exceeds
        # 2 + the float 0.1, but t = 2.1 at alpha = 0.1 means 2 + alpha.
        assert Fraction(2.1) > 2 + Fraction(0.1)
        assert WeightedArea(0.1).boundary_exponent(2 + as_fraction(0.1)) == 0.0
        assert WeightedArea(0.1).boundary_exponent(2.1) == 0.0
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


class TestPsiGate:
    MEASURES = (WeightedArea(0.0), Atomic.from_atoms([(0.3, 1.0)]),
                PolyWeighted(Polynomial.from_coeffs([1, 0.5]), 3.0, 0.0))

    @pytest.mark.parametrize("mu", MEASURES, ids=("area", "atomic", "pullback"))
    @pytest.mark.parametrize("a", (1.0, -1j, 1.5, complex("nan")))
    def test_centre_outside_the_disk_rejected(self, mu, a):
        with pytest.raises(ConfigurationError, match="open unit disk"):
            mu.psi(np.array([0.5, a]), 2.0)

    @pytest.mark.parametrize("mu", MEASURES, ids=("area", "atomic", "pullback"))
    @pytest.mark.parametrize("y, match", (
        (np.full(3, 0.75), "shape"),
        (np.array([0.75, np.nan]), "finite"),
        (np.array([0.75, 0.75 + 8 * 2.0**-52]), "within"),
        (np.array([0.75, 0.75 - 8 * 2.0**-52]), "within")),
        ids=("shape", "nan", "8-eps-above", "8-eps-below"))
    def test_a_y_that_is_not_one_minus_modulus_sq_rejected(self, mu, y, match):
        # 1 - |a|^2 = 0.75 exactly at both centres.
        with pytest.raises(ConfigurationError, match=match):
            mu.psi(np.array([0.5, 0.5j]), 2.0, y)

    @pytest.mark.parametrize("mu", MEASURES, ids=("area", "atomic", "pullback"))
    def test_a_y_one_unit_off_accepted(self, mu):
        a = np.array([0.5, 0.5j])
        got = mu.psi(a, 2.0, np.array([0.75 + 2.0**-52, 0.75 - 2.0**-52]))
        assert np.all(np.abs(got - mu.psi(a, 2.0)) <= 1e-14 * got)

    @pytest.mark.parametrize("alpha", (-0.5, 1e-14, 0.05, 1.0, 2.0 - 1e-13))
    def test_reference_transform_is_exactly_one(self, alpha):
        centers = np.concatenate([[0.0, 0.3 - 0.4j],
                                  (1.0 - 2.0 ** -np.arange(1, 41)) * np.exp(0.3j)])
        assert np.all(WeightedArea(alpha).psi(centers, 2.0 + alpha) == 1.0)


class TestPsiBreakdown:
    @pytest.mark.parametrize("value", (np.inf, np.nan, -np.inf))
    @pytest.mark.parametrize("exponent", (0.0, 0.5))
    def test_non_finite_value_of_a_bounded_transform_raises(self, value, exponent):
        # Psi is bounded where the exponent is >= 0, so inf cannot be its value
        with pytest.raises(EvaluationError, match=r"at a = \(0\.5\+0\.25j\)"):
            BrokenPsi(value, exponent).psi(np.array([0.1, 0.5 + 0.25j]), 2.0)

    def test_nan_raises_where_the_transform_diverges(self):
        with pytest.raises(EvaluationError, match="nan"):
            BrokenPsi(np.nan, -0.5).psi(np.array([0.1, 0.5]), 2.0)

    def test_inf_passes_where_the_transform_diverges(self):
        assert BrokenPsi(np.inf, -0.5).psi(np.array([0.1, 0.5]), 2.0)[-1] == np.inf


class TestAtomicPsi:
    @pytest.mark.parametrize("k", (10, 20, 30, 40))
    def test_one_atom_matches_mpmath_to_the_validated_depth(self, k):
        # 1 - |a|^2 rounded from |a| would be off by 1.6e-4 relative at k = 40.
        a = (1.0 - 2.0**-k) * np.exp(0.3j)
        with mpmath.workdps(40):
            ma = mpmath.mpc(a.real, a.imag)
            want = ((1 - abs(ma) ** 2) / abs(1 - mpmath.conj(ma) * mpmath.mpf(0.5)) ** 2) ** 2
        got = Atomic.from_atoms([(0.5, 1.0)]).psi(a, 2.0)
        assert abs(got - float(want)) <= 1e-13 * float(want)


class TestHyp2f1NearOne:
    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(1.0, 16.0), b=st.floats(-0.9, 10.0, exclude_min=True),
           k=st.integers(-6, 6),
           offset=st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                                   st.sampled_from((-1.0, 1.0)),
                                                   st.floats(-16.0, np.log10(5e-4)))),
           depth=st.integers(8, 40))
    # c - a - b = 1 + 1e-14: scipy's 2F1 is inf
    @example(c=3.1, b=1.05, k=1, offset=1e-14, depth=20)
    def test_matches_mpmath_where_c_minus_a_minus_b_is_near_an_integer(
            self, c, b, k, offset, depth):
        # Near a negative integer c - a - b, a or b near 0 is refused (below),
        # and off the integer, so is a b whose interpolation nodes come near 0.
        # On the real axis at 1 - |a| = 2^-depth, |a|^2 rounds off 1 - y by
        # 2^(-2 depth), so what is compared is 2F1 itself, not the rounding of x.
        a = c - b - (k + offset)
        assume(a > -0.9)
        assume(k >= 0 or min(abs(a), abs(b)) >= (1e-4 if c - a - b == k else 1.2e-3))
        r = 1.0 - 2.0**-depth
        y = geometry.one_minus_modulus_sq(r)
        got = measures_module._hyp2f1_near_one(a, b, c, r * r, y)
        with mpmath.workdps(40):
            want = mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(float(y)))
        assert abs(got / want - 1) < 1e-10, (a, b, c, c - a - b, depth, got, want)


    @pytest.mark.parametrize("b", (1e-20, -1e-5, 1e-6))
    def test_refuses_a_small_parameter_near_a_negative_integer(self, b):
        # scipy gives 1.0 where 2F1(3, 1e-20; 1; 1 - 2^-36) is 6.90.
        with pytest.raises(EvaluationError, match="negative integer -2"):
            measures_module._hyp2f1(3.0, b, 1.0, 1.0 - 2.0**-36)
        with pytest.raises(EvaluationError, match="negative integer -2"):
            measures_module._hyp2f1(b, 3.0, 1.0 + 3e-5, 0.5)


def kernel_mode_oracle(t, zeta, m):
    """kappa_m at 1 - w^2 = zeta: w^m (t)_m/m! 2F1(t, t+m; m+1; w^2), to 40 digits."""
    with mpmath.workdps(40):
        x, t = 1 - mpmath.mpf(zeta), mpmath.mpf(t)
        return float(mpmath.sqrt(x) ** m * mpmath.rf(t, m) / mpmath.factorial(m)
                     * mpmath.hyp2f1(t, t + m, m + 1, x))


class TestKernelModes:
    # 2t = 4 and 5 exactly, and 5 +- 1e-6, go through the interpolation in t; so
    # do -1.5 and -1.5 +- 5e-7 and -2.5 + 1e-9. At t < 0 these are the modes of
    # |1 - w e^(i phi)|^(-2t), the factors of |u|^p on a circle.
    @pytest.mark.parametrize("t", (0.3, 1.0, 1.77, 2.0, 2.5, 2.5 - 5e-7, 2.5 + 5e-7, 4.6, 5.12,
                                   -0.01, -0.3, -0.5, -0.75, -1.5, -1.5 - 5e-7, -1.5 + 5e-7,
                                   -2.5 + 1e-9))
    def test_match_mpmath_from_the_circle_to_half_way(self, t):
        # Each of the three routines (series, FFT, connection) takes some of these zeta.
        gaps = 2.0 ** -np.array([1, 3, 6, 9, 20, 40])
        zeta = gaps * (2.0 - gaps)                  # 1 - w^2 for 1 - w = gap, exactly
        modes = (measures_module._kernel_modes(t, zeta, 256)
                 * zeta[:, None] ** (1 - 2 * t))
        for row, z in zip(modes, zeta):
            scale = kernel_mode_oracle(t, z, 0)
            for m in (0, 1, 7, 64, 256):
                assert abs(row[m] - kernel_mode_oracle(t, z, m)) <= 1e-12 * scale, (z, m)

    def test_modes_are_positive_and_below_the_mean(self):
        zeta = 2.0 ** -np.arange(0.5, 45.0, 1.5)
        modes = measures_module._kernel_modes(3.3, zeta, 1024)
        assert np.all(modes[:, 1:] <= modes[:, :1] * (1 + 1e-12))
        assert np.all(modes >= -1e-15 * modes[:, :1])

    def test_table_values_do_not_depend_on_who_asked_first(self):
        # The series and connection tables are cached; a value must not depend
        # on their state. The connection takes 2^-12 at 40 and at 3000 modes,
        # so its tables grow by rebuilding, which must leave the earlier rows as
        # they were.
        zeta = np.array([0.1, 0.03, 0.3, 2.0**-12])
        measures_module._CONNECTION_TABLES.pop(2.7, None)
        first = measures_module._kernel_modes(2.7, zeta, 40)
        measures_module._kernel_modes(2.7, zeta, 3000)
        measures_module._kernel_modes(2.7, zeta, 300)
        assert np.array_equal(measures_module._kernel_modes(2.7, zeta, 40), first)


def fourier_psi(u, p, beta, centers, t):
    return measures_module._psi_fourier(tuple(complex(c) for c in u), p, beta, centers,
                                        geometry.one_minus_modulus_sq(centers), t)


def refined(*args, tighter=100.0):
    """``fourier_psi`` with twice the panel nodes and a mode cut ``tighter`` times tighter."""
    nodes, cut = measures_module.PSI_PANEL_NODES, measures_module.PSI_MODE_CUT
    measures_module.PSI_PANEL_NODES, measures_module.PSI_MODE_CUT = 2 * nodes, cut / tighter
    try:
        return fourier_psi(*args)
    finally:
        measures_module.PSI_PANEL_NODES, measures_module.PSI_MODE_CUT = nodes, cut


DEPTHS = 2.0 ** -np.array([1, 4, 12, 20, 30, 40])
DIRECTIONS = np.exp(1j * np.array([0.0, 0.3, 2.0, -2.5]))


class TestFourierPsi:
    # (u, p, beta, t): at even p, m |v|^2 = |u|^p is exact by _psi_squared.
    # beta = -0.875 is where scipy's Gauss-Jacobi rule is least accurate, and
    # u(0) = 0 puts the Gauss-Jacobi rule for s^(kp/2) on the panel at s = 0.
    EVEN = (((1.0, 0.5), 2.0, -0.875, 1.125),
            ((0.0, 1.0), 2.0, 1.0, 2.0),
            ((0.0, 0.0, 1.0), 2.0, 0.5, 3.7),
            ((1.0, 0.5j, -0.3), 4.0, 0.25, 2.5),
            ((1.0, -1.0), 4.0, 0.5, 2.5))

    @pytest.mark.parametrize("u, p, beta, t", EVEN)
    def test_even_p_matches_the_finite_sum(self, u, p, beta, t):
        centers = ((1.0 - DEPTHS)[:, None] * DIRECTIONS[:3]).ravel()
        mu = PolyWeighted(Polynomial.from_coeffs(u), p, beta)
        v, mass = mu._as_square()
        exact = mass * measures_module._psi_squared(v, beta, centers,
                                                    geometry.one_minus_modulus_sq(centers), t)
        got = fourier_psi(u, p, beta, centers, t)
        # Relative to the largest value on each circle: u = 1 - z vanishes toward 1.
        scale = np.repeat(exact.reshape(len(DEPTHS), -1).max(axis=1), 3)
        assert np.all(np.abs(got - exact) <= 1e-12 * scale)

    @settings(max_examples=4, deadline=None)
    @given(u=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False), min_size=2,
                      max_size=3).filter(lambda c: abs(c[-1]) > 0.1),
           p=st.one_of(st.sampled_from((1.0, 3.0)), st.floats(0.6, 3.4)).filter(
               lambda p: p % 2 != 0),
           beta=st.floats(-0.5, 2.0), t=st.floats(1.2, 4.5), depth=st.integers(1, 20))
    def test_odd_and_non_integer_p_agree_with_a_refinement(self, u, p, beta, t, depth):
        # Within 1e-10 of the largest value on the circle, or refused, with or
        # without the refinement.
        centers = (1.0 - 2.0**-depth) * DIRECTIONS[:3]
        try:
            got = fourier_psi(u, p, beta, centers, t)
            want = refined(u, p, beta, centers, t)
        except EvaluationError:
            return
        assert np.all(np.abs(got - want) <= 1e-10 * np.max(want)), (got, want)

    @pytest.mark.parametrize("zero", (2.0**-9, 2.0**-20))
    def test_a_zero_near_the_origin_is_resolved(self, zero):
        # |z + zero| grows like |z| past the zero: the panels are graded toward s = 0.
        centers = 0.5 * DIRECTIONS[:2]
        got = fourier_psi((zero, 1.0), 1.0, 0.0, centers, 2.0)
        assert np.all(np.abs(got - refined((zero, 1.0), 1.0, 0.0, centers, 2.0)) <= 1e-10 * got)

    def test_zero_on_the_circle_is_accurate_or_refused(self):
        # u = 1 - z at p = 3: the kink of |u|^3 at z = 1 sits on the circle.
        centers = ((1.0 - DEPTHS[:3])[:, None] * DIRECTIONS).ravel()
        for center in np.split(centers, 3):
            try:
                got = fourier_psi((1.0, -1.0), 3.0, 0.5, center, 2.5)
            except EvaluationError as err:
                assert "angular modes" in str(err)
                continue
            # A cut 10 times tighter: at 1 - |a| = 2^-12 one 100 times tighter
            # needs 17868 modes, more than PSI_MAX_MODES.
            want = refined((1.0, -1.0), 3.0, 0.5, center, 2.5, tighter=10.0)
            assert np.all(np.abs(got - want) <= 1e-9 * np.max(want))

    def test_a_zero_just_inside_the_circle_is_refused_near_it(self):
        # |u| = |z - (1 - 1e-4)| at p = 1: near its kink, where the kernel power
        # falls slowly too, a circle needs more than PSI_MAX_MODES modes.
        with pytest.raises(EvaluationError,
                           match=r"needs \d+ angular modes .* more than PSI_MAX_MODES = 16384"):
            fourier_psi((-(1.0 - 1e-4), 1.0), 1.0, 0.5, np.array([1.0 - 2.0**-18]), 2.5)

    def test_a_refusal_names_the_zero_nearest_the_circle(self, monkeypatch):
        # With a cap of 64 modes the deep centre beside the zero is refused;
        # the zero at -2 is further from the circle.
        monkeypatch.setattr(measures_module, "PSI_MAX_MODES", 64)
        z0 = (1.0 - 2.0**-8) * np.exp(0.3j)
        u = np.convolve((-z0, 1.0), (2.0, 1.0))
        with pytest.raises(EvaluationError, match="nearest the circle is z0 = ") as refusal:
            fourier_psi(u, 1.0, 0.5, np.array([(1.0 - 2.0**-10) * np.exp(0.3j)]), 2.5)
        assert "with |z0| = 0.996094 and 1 - |z0| = 0.00391" in str(refusal.value)

    @pytest.mark.parametrize("u, p, depth, refused", (((0.5, 1.0), 3.0, 2.0**-20, False),
                                                     ((-(1.0 - 1e-4), 1.0), 1.0, 2.0**-18, True)),
                             ids=("returns", "refused"))
    def test_connection_tables_are_freed_after_each_call(self, u, p, depth, refused,
                                                         monkeypatch):
        # The kernel's t and the factors' -p/2 build tables for one call alone;
        # at an interpolated t such as 2.5 they hold 68 MB at 16384 modes.
        built = []
        original = measures_module._build_connection_tables
        monkeypatch.setattr(measures_module, "_build_connection_tables",
                            lambda t, width: built.append(t) or original(t, width))
        monkeypatch.setattr(measures_module, "_CONNECTION_TABLES", {})
        centers = np.array([1.0 - depth])
        if refused:
            with pytest.raises(EvaluationError, match="PSI_MAX_MODES"):
                fourier_psi(u, p, 0.5, centers, 2.5)
        else:
            assert np.isfinite(fourier_psi(u, p, 0.5, centers, 2.5)).all()
            assert -p / 2.0 in built
        assert 2.5 in built
        assert measures_module._CONNECTION_TABLES == {}

    def test_cold_mix_seed_12_multiplication_criterion(self):
        # cold-mix seed 12, request 16-multiplication: u has a zero at |z0| = 0.99861,
        # 0.00139 inside the circle. Oracle: the Fourier path this replaced, which
        # sampled |u|^p on each circle and refused here past 8192 angles, gives
        # 0.6410036333209141 with its angle cap raised to 32768.
        u = Polynomial.from_pairs([[1.3982823366445174, -1.1151864402924954],
                                   [-0.7248525994851387, -0.7888097502307713],
                                   [0.7288885549034524, -0.19481757200512054]])
        p, q, alpha, beta = 1.4451764282392636, 1.691862268538109, -0.17141844444360005, \
            0.47336289127778225
        t = float((2 + as_fraction(alpha)) * as_fraction(q) / as_fraction(p))
        got = PolyWeighted(u, q, beta).psi(1.0 - 2.0**-10, t)
        assert abs(got - 0.6410036333209141) <= 1e-12 * 0.6410036333209141

    @settings(max_examples=40, deadline=None)
    @given(zeros=st.lists(st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 2.0),
                                    st.floats(-np.pi, np.pi)), min_size=1, max_size=3),
           lead=st.builds(complex, st.floats(0.2, 2.0), st.floats(-2.0, 2.0)),
           p=st.floats(0.1, 4.0), rho=st.floats(0.05, 0.99))
    # A zero at 1e-10, or at -1e9, is a factor with x^2 below rounding of 1 - x^2.
    @example(zeros=[1e-10], lead=1 + 0j, p=1.0, rho=0.5)
    @example(zeros=[-1e9, 0.3j], lead=1e-9 + 0j, p=1.5, rho=0.9)
    def test_circle_modes_match_an_fft_of_the_weight(self, zeros, lead, p, rho):
        # The closed form takes no value of u. With every zero at least 0.05
        # from the circle the modes of |u|^p fall geometrically, so 2^16 values
        # of |u|^p on it alias nothing above rounding.
        assume(all(abs(abs(z) - rho) >= 0.05 for z in zeros))
        coeffs = tuple(complex(c) for c in lead * np.poly(zeros)[::-1])
        _, _, roots, gaps = measures_module._weight_zeros(coeffs)
        order = next(i for i, c in enumerate(coeffs) if c != 0)
        circles = np.ones(measures_module.PSI_PANEL_NODES)      # one panel of that circle
        layout, = measures_module._circle_layout(roots, gaps, coeffs[-1], order, p,
                                                 (1.0 - rho) * (1.0 + rho) * circles,
                                                 rho * rho * circles)
        got = measures_module._circle_modes(p, layout, 8192, 4095)[0]
        size = 2**16
        ring = rho * np.exp(2j * np.pi * np.arange(size) / size)
        want = np.fft.rfft(np.abs(Polynomial(coeffs)(ring)) ** p)[:4096] / size
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0].real

    def test_a_centre_takes_the_same_value_alone_and_in_any_batch(self):
        u, p, beta, t = (1.0, 0.5j, -0.3), 3.0, 0.25, 2.5
        centers = np.concatenate([(1.0 - DEPTHS[:4])[:, None] * DIRECTIONS,
                                  [[0.0, 0.5, -0.5, 0.5j]]]).ravel()
        together = fourier_psi(u, p, beta, centers, t)
        alone = [fourier_psi(u, p, beta, centers[i:i + 1], t)[0] for i in range(len(centers))]
        assert np.array_equal(together, alone)
        assert np.array_equal(fourier_psi(u, p, beta, centers[::-1], t), together[::-1])

    def test_a_large_kernel_exponent_raises_no_numerical_warning(self):
        # t = 20 > beta + 2: Psi grows like (1-|a|^2)^(beta+2-t), and the
        # kernel-mode bound near the circle overflows unless it is rescaled.
        mu = PolyWeighted(Polynomial.from_coeffs([2.0, 0.3, 0.1]), 1.5, 5.0)
        values = mu.psi(np.array([0.3, -0.99, (1.0 - 2.0**-30) * np.exp(1j)]), 20.0)
        assert np.all(np.isfinite(values)) and values[0] < values[1] < values[2]


class TestBergmanNorm:
    def test_constant(self):
        for p, alpha in [(1.0, -0.5), (2.0, 0.0), (4.0, 1.0)]:
            f = Polynomial.from_coeffs([1.0])
            assert abs(bergman_norm(f, SpaceParams(p, alpha)) - 1.0) < 1e-12

    def test_monomial_reference(self, small_quad):
        # ||z||_{2,0} = (int |z|^2 dA)^(1/2) = sqrt(1/2)
        f = Polynomial.from_coeffs([0, 1])
        got = bergman_norm(f, SpaceParams(2.0, 0.0), small_quad)
        assert abs(got - np.sqrt(0.5)) < 1e-13

    def test_homogeneity(self, rng, small_quad):
        params = SpaceParams(p=1.5, alpha=0.5)
        f = Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        c = 2.7 - 1.1j
        assert abs(bergman_norm(c * f, params, small_quad)
                   - abs(c) * bergman_norm(f, params, small_quad)) < 1e-10

    def test_kernel_power_family_unit_norm(self, small_quad):
        for p, alpha in [(1.0, -0.5), (2.0, 0.0), (4.0, 1.0)]:
            params = SpaceParams(p, alpha)
            for aa in (0.0, 0.3, 0.7):
                a = aa * np.exp(0.9j)
                f = lambda z: kernel_power(a, z, params)
                assert abs(bergman_norm(f, params, small_quad) - 1.0) < 1e-8


class TestMeasureOfDisk:
    def test_area_measure_matches_closed_form(self):
        from bergmanlab.geometry import disk_area

        for a, r in [(0.0, 0.5), (0.5, 1.0), (0.3 - 0.4j, 0.8)]:
            got = measure_of_disk(WeightedArea(0.0), a, r)
            assert abs(got - disk_area(a, r)) < 1e-6

    def test_atom_at_center(self):
        mu = Atomic.from_atoms([(0.3, 1.0)])
        for r in (0.1, 1.0):
            assert measure_of_disk(mu, 0.3, r) == 1.0

    def test_atom_outside(self):
        mu = Atomic.from_atoms([(0.9, 1.0)])
        assert measure_of_disk(mu, 0.0, 0.5) == 0.0

    def test_radial_closed_form(self):
        # scale*(1-|z|^2)^1 dA over D(0, r): int_0^s 2 rho (1-rho^2) drho = s^2 - s^4/2
        for r in (0.4, 1.0):
            s = np.tanh(r)
            got = measure_of_disk(RadialDensity(1.0), 0.0, r)
            assert abs(got - (s**2 - s**4 / 2.0)) < 1e-9

    def test_monotone_in_radius(self):
        mu = RadialDensity(0.5)
        vals = [measure_of_disk(mu, 0.4, r) for r in (0.2, 0.5, 0.9, 1.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_sum(self):
        mu = SumMeasure((WeightedArea(0.0), Atomic.from_atoms([(0.0, 1.0)])))
        got = measure_of_disk(mu, 0.0, 1.0)
        from bergmanlab.geometry import disk_area

        assert abs(got - (disk_area(0.0, 1.0) + 1.0)) < 1e-6


def disk_measures(quad):
    rule = build_quadrature(0.0, quad.n_radial, quad.n_angular)
    atoms = Atomic.from_atoms([(0.0, 1.0), (0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.985, 2.0)])
    return {
        "area": WeightedArea(0.5),
        "radial": RadialDensity(-0.5, 2.0),
        "polyweighted": PolyWeighted(Polynomial.from_coeffs([1, 0.5j, -0.3]), 3.0, 0.25),
        "atomic": atoms,
        "grid": GridDensity.from_function(rule, lambda z: np.abs(1.0 + 0.5j * z) ** 2),
        "sum": SumMeasure((RadialDensity(1.0), atoms)),
    }


DISK_MEASURES = ("area", "radial", "polyweighted", "atomic", "grid", "sum")


class TestBatchedDiskMeasure:
    @pytest.mark.parametrize("name", DISK_MEASURES)
    def test_array_matches_scalar_calls(self, name, rng, small_quad):
        mu = disk_measures(small_quad)[name]
        # the origin, the deepest |a|, a ring of one radius, and area-uniform points
        centers = np.concatenate([[0.0, 0.99, -0.99j, 0.99 * np.exp(2.0j)],
                                  0.7 * np.exp(2j * np.pi * np.arange(12) / 12),
                                  sample_disk(rng, 300)])
        for r in (0.5, 1.0):
            got = mu.disk_measure(centers, r)
            want = np.array([mu.disk_measure(a, r) for a in centers])
            assert got.shape == centers.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name

    @pytest.mark.parametrize("name", DISK_MEASURES)
    def test_output_shape_follows_input(self, name, rng, small_quad):
        mu = disk_measures(small_quad)[name]
        centers = sample_disk(rng, 12).reshape(3, 4)
        got = measure_of_disk(mu, centers, 1.0)
        assert got.shape == (3, 4)
        assert got[1, 2] == pytest.approx(measure_of_disk(mu, centers[1, 2], 1.0), rel=1e-13)
        assert measure_of_disk(mu, np.empty(0, dtype=complex), 1.0).shape == (0,)

    @pytest.mark.parametrize("name", DISK_MEASURES)
    def test_scalar_centre_gives_float(self, name, small_quad):
        mu = disk_measures(small_quad)[name]
        for a in (0.3 - 0.2j, 0.5, np.complex128(0.1j), np.array(0.2)):
            assert type(measure_of_disk(mu, a, 1.0)) is float
            assert type(mu.disk_measure(a, 1.0)) is float


    def test_y_is_checked_as_psi_checks_it(self):
        mu = RadialDensity(-0.5, 2.0)
        a = np.array([0.3, 0.9j])
        y = geometry.one_minus_modulus_sq(a)
        assert np.array_equal(mu.disk_measure(a, 1.0, y), mu.disk_measure(a, 1.0))
        for bad, match in ((y[:1], "shape"), (y + 1e-12, "within"), (np.array([np.nan, y[1]]),
                                                                      "finite")):
            with pytest.raises(ConfigurationError, match=match):
                mu.disk_measure(a, 1.0, bad)
            with pytest.raises(ConfigurationError, match=match):
                mu.psi(a, 2.0, bad)


def _pulled_back_oracle(v, a):
    """Coefficients of sum_k v_k (a - w)^k (1 - conj(a) w)^(d-k), expanded in mpmath."""
    d = len(v) - 1
    out = [mpmath.mpc(0)] * (d + 1)
    for k, vk in enumerate(v):
        poly = [mpmath.mpc(1)]
        for factor in [(a, -1)] * k + [(1, -mpmath.conj(a))] * (d - k):
            poly = [(poly[i] * factor[0] if i < len(poly) else 0)
                    + (poly[i - 1] * factor[1] if i else 0) for i in range(len(poly) + 1)]
        out = [o + mpmath.mpc(vk) * c for o, c in zip(out, poly)]
    return out


@functools.lru_cache(maxsize=None)
def _gauss_legendre_40_digits(nodes):
    with mpmath.workdps(40):
        return tuple(zip(*mpmath.gauss_quadrature(nodes, "legendre")))


def disk_series_oracle(v, weight, a, r, nodes=24):
    """(m |v|^2 (1-|z|^2)^weight dA)(D(a, r)) / (m y^(weight+2)) in 40 digits, y = 1-|a|^2.

    Pulled back by z = phi_a(w), the disk is |w| < s and the integrand is
    |Q(w)|^2 |1 - conj(a) w|^(-2 lam) (1-|w|^2)^weight. Its circle means are
    sums of Q_j conj(Q_k) times the modes xi^m (lam)_m/m! 2F1(lam, lam+m; m+1; xi^2),
    and t = |w|^2 is integrated on [0, s^2] by Gauss-Legendre: at r <= 1 the
    integrand is analytic inside a Bernstein ellipse of parameter 4.6 around
    it, so n nodes are off by about 4.6^(-2n) times its size there, which
    grows like 0.42^(1 - 2 lam): weight 40 takes 40 nodes.
    """
    with mpmath.workdps(40):
        a = mpmath.mpc(a.real, a.imag)
        modulus, phase = abs(a), mpmath.arg(a)
        q = _pulled_back_oracle(v, a)
        d, w = len(v) - 1, mpmath.mpf(weight)
        lam = w + 2 + d
        s2 = mpmath.tanh(mpmath.mpf(r)) ** 2
        total = 0
        for node, gauss_weight in _gauss_legendre_40_digits(nodes):
            t = s2 * (node + 1) / 2
            xi2 = modulus**2 * t
            mean = 0
            for j in range(d + 1):
                for k in range(j, d + 1):
                    m = k - j
                    mode = (mpmath.sqrt(xi2) ** m * mpmath.rf(lam, m) / mpmath.factorial(m)
                            * mpmath.hyp2f1(lam, lam + m, m + 1, xi2))
                    pair = mpmath.re(q[j] * mpmath.conj(q[k]) * mpmath.expj((j - k) * phase))
                    mean += (1 if m == 0 else 2) * pair * mpmath.sqrt(t) ** (j + k) * mode
            total += gauss_weight * (1 - t) ** w * mean
        return total * s2 / 2


QUADRATIC = [0.3 - 0.2j, -0.7 + 0.4j, 0.45 + 0.1j]


# Polynomials whose zeros lie outside the closed disk (at -2, and near 5.40 and
# 1.85), so that no disk holds a kink of |u|^p.
ZEROS_OFF_THE_DISK = ([1, 0.5], [1.0, 0.3 - 0.2j, 0.1j])


def refined_disk_oracle(u, p, beta, a, r, n_radial=256, n_angular=512):
    """mu(D(a, r)) of |u|^p dA_beta, pulled back onto |w| < tanh(r), on a product
    Gauss-Legendre x trapezoid rule with 4 times the nodes each way by default.

    Independent of ``_disk_rule`` but for the change of variables: the
    coefficients of u(phi_a(w)) (1 - conj(a) w)^e and y = 1 - |a|^2 come from
    40-digit mpmath, the nodes from numpy, and the disk is not turned.
    """
    with mpmath.workdps(40):
        ma = mpmath.mpc(a.real, a.imag)
        rows = np.array([complex(c) for c in _pulled_back_oracle([mpmath.mpc(c) for c in u], ma)])
        y = 1 - abs(ma) ** 2
    x, w = np.polynomial.legendre.leggauss(n_radial)
    s2 = np.tanh(r) ** 2
    t = s2 * (x + 1) / 2
    nodes = np.sqrt(t)[:, None] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    weights = (s2 * w / 2 * (1 - t) ** beta)[:, None] / n_angular
    vals = np.abs(np.polynomial.polynomial.polyval(nodes, rows)) ** p
    vals *= np.abs(1 - np.conj(a) * nodes) ** -((len(u) - 1) * p + 2 * beta + 4)
    return float((beta + 1) * y ** (beta + 2) * mpmath.mpf(np.sum(weights * vals)))


class TestDiskRule:
    """Disk masses of |u|^p dA_beta without a square, on the shared pulled-back rule."""

    @pytest.mark.parametrize("p", (2.0, 4.0))
    @pytest.mark.parametrize("u", ([1, 0.5], QUADRATIC), ids=("1+z/2", "quadratic"))
    def test_matches_the_series_at_even_p(self, u, p):
        beta = 0.37
        mu = PolyWeighted(Polynomial.from_coeffs(u), p, beta)
        for r in (0.5, 1.0):
            for theta in (0.0, 0.3):
                a = (1.0 - 2.0 ** -np.arange(1, 41)) * np.exp(1j * theta)
                y = geometry.one_minus_modulus_sq(a)
                rule = measures_module._disk_rule(np.array(u, dtype=complex), p, beta, a, y, r)
                got = (beta + 1) * y ** (beta + 2) * rule
                assert np.max(np.abs(got / mu.disk_measure(a, r) - 1)) < 1e-13, (r, theta)

    @pytest.mark.parametrize("p", (3.0, 1.5))
    @pytest.mark.parametrize("u", ZEROS_OFF_THE_DISK, ids=("1+z/2", "quadratic"))
    def test_matches_a_finer_rule_to_the_validated_depth(self, u, p):
        # The per-disk Euclidean rule this replaced was off by 1.1e-4 at 2^-40.
        mu = PolyWeighted(Polynomial.from_coeffs(u), p, 0.37)
        for r in (0.5, 1.0):
            for k in (1, 2, 3, 5, 8, 12, 16, 20, 24, 28, 32, 36, 40):
                a = (1.0 - 2.0**-k) * np.exp(0.3j)
                want = refined_disk_oracle(u, p, 0.37, a, r)
                assert mu.disk_measure(a, r) == pytest.approx(want, rel=1e-13, abs=0), (r, k)

    @pytest.mark.parametrize("p, bound", ((3.0, 5.4e-7), (1.5, 1.7e-5)))
    def test_a_zero_in_the_disk_costs_the_stated_digits(self, p, bound):
        # The zero of QUADRATIC at 0.506+0.111i lies in D(a, 1) for k <= 3 and
        # just outside it at k = 4, where |u|^p has a kink or branch point.
        mu = PolyWeighted(Polynomial.from_coeffs(QUADRATIC), p, 0.37)
        for k in range(1, 7):
            a = (1.0 - 2.0**-k) * np.exp(0.3j)
            want = refined_disk_oracle(QUADRATIC, p, 0.37, a, 1.0, 512, 1024)
            assert mu.disk_measure(a, 1.0) == pytest.approx(want, rel=bound, abs=0), k

    def test_angles_follow_the_kernel_exponent(self):
        # The kernel factor |1 - |a| w|^(-2 beta - 4) peaks more with beta and r.
        angles = {(beta, r): measures_module._kernel_rule(beta, r)[0].size // 64
                  for beta, r in ((0.37, 0.5), (0.37, 1.0), (5.0, 1.0), (50.0, 1.0), (0.37, 1.5))}
        assert angles == {(0.37, 0.5): 128, (0.37, 1.0): 128, (5.0, 1.0): 256,
                          (50.0, 1.0): 512, (0.37, 1.5): 512}
        with pytest.raises(EvaluationError, match="disk rule needs more than"):
            measures_module._kernel_rule(0.37, 3.0)


class TestDiskSeries:
    """Disk masses of m |v|^2 (1-|z|^2)^w dA by the pulled-back Beta series."""

    @pytest.mark.parametrize("gamma", (-0.95, -0.5, 0.0, 0.3, 2.0, 40.0))
    def test_radial_matches_mpmath_to_the_validated_depth(self, gamma):
        # The series alone, since at gamma = 40 the mass y^42 (...) underflows
        # from 1 - |a| = 2^-20 on; the mass itself where it does not.
        mu = RadialDensity(gamma, 3.0)
        for r in (0.1, 0.5, 1.0):
            for k in (1, 6, 12, 20, 30, 40):
                for theta in (0.0, 0.3):
                    a = (1.0 - 2.0**-k) * np.exp(1j * theta)
                    y = geometry.one_minus_modulus_sq(np.array([a]))
                    want = disk_series_oracle([1.0], gamma, a, r, nodes=40)
                    got = measures_module._disk_series(np.ones((1, 1)), gamma, y, r)[0]
                    assert got == pytest.approx(float(want), rel=1e-13, abs=0), (r, k, theta)
                    mass = 3.0 * float(y[0] ** mpmath.mpf(gamma + 2.0) * want)
                    if mass > 1e-290:
                        assert mu.disk_measure(a, r) == pytest.approx(mass, rel=1e-13, abs=0)

    @pytest.mark.parametrize("p", (2, 4))
    @pytest.mark.parametrize("u", ([0, 1], [1, 0.5], [1, -1], QUADRATIC),
                             ids=("z", "1+z/2", "1-z", "quadratic"))
    def test_polynomial_weight_matches_mpmath_to_the_validated_depth(self, u, p):
        # 1 - z at p = 4 vanishes to fourth order at the boundary point 1 that
        # the on-axis centres approach: |v(a)| = 2^-80 at 2^-40.
        beta = 0.37
        mu = PolyWeighted(Polynomial.from_coeffs(u), float(p), beta)
        v = poly_power(np.array(u, dtype=complex), p // 2)
        for r in (0.1, 0.5, 1.0):
            for k in (1, 12, 30, 40):
                for theta in (0.0, 0.3):
                    a = (1.0 - 2.0**-k) * np.exp(1j * theta)
                    with mpmath.workdps(40):
                        y = 1 - abs(mpmath.mpc(a.real, a.imag)) ** 2
                        series = disk_series_oracle(v, beta, a, r)
                        want = float((beta + 1) * y ** (beta + 2) * series)
                    got = mu.disk_measure(a, r)
                    assert got == pytest.approx(want, rel=1e-13, abs=0), (r, k, theta)

    @pytest.mark.parametrize("lattice", ((0.5, 0.02), (1.0, 0.01)))
    def test_matches_the_rule_where_it_is_validated(self, lattice):
        # Every lattice point has 1 - |a| >= 0.01 > 2^-12, where a 64 x 128
        # polar Gauss rule on each Euclidean disk D(a, r) holds. The weights
        # without a square have no zero of u in the closed disk, so no kink.
        lat = build_lattice(*lattice)
        u, off = Polynomial.from_coeffs(QUADRATIC), Polynomial.from_coeffs(ZEROS_OFF_THE_DISK[1])
        for mu in (RadialDensity(-0.5, 2.0), WeightedArea(1.0), PolyWeighted(u, 2.0, 0.37),
                   PolyWeighted(u, 4.0, -0.3), PolyWeighted(Polynomial.from_coeffs([2.0]), 3.0, 0.5),
                   PolyWeighted(off, 3.0, 0.37), PolyWeighted(off, 1.5, -0.3)):
            got = mu.disk_measure(lat.points, lat.r)
            want = np.empty(lat.size)
            for i, disk in enumerate(map(geometry.bergman_disk, lat.points, [lat.r] * lat.size)):
                nodes, weights = measures_module.euclid_disk_rule(disk.center, disk.radius)
                want[i] = np.sum(weights * mu.density(nodes))
            assert np.max(np.abs(got / want - 1)) < 1e-12, mu

    @pytest.mark.parametrize("mu", (RadialDensity(0.3), PolyWeighted(
        Polynomial.from_coeffs([1, -1]), 4.0, 0.37)), ids=("radial", "polyweighted"))
    def test_a_centre_does_not_depend_on_its_batch(self, mu):
        lat = build_lattice(0.5, 0.02)
        deep = (1.0 - 2.0 ** -np.arange(1, 41)) * np.exp(0.3j)
        centers = np.concatenate([lat.points, deep, [0.0]])
        together = mu.disk_measure(centers, 0.5)
        order = np.random.default_rng(5).permutation(centers.size)
        assert np.array_equal(mu.disk_measure(centers[order], 0.5), together[order])
        alone = np.array([mu.disk_measure(a, 0.5) for a in centers[::97]])
        assert np.array_equal(alone, together[::97])

    def test_terms_per_distinct_y_are_the_per_centre_terms(self):
        # The lattice's 1394 centres lie on 10 values of y, and the terms are
        # formed once per y of a batch: every mass is bitwise the one its
        # centre gets alone.
        lat = build_lattice(0.5, 0.02)
        assert (lat.size, np.unique(lat.y).size) == (1394, 10)
        rows = poly_power(measures_module._pulled_back(np.array(QUADRATIC, dtype=complex),
                                                       lat.points, lat.y), 2)
        together = measures_module._disk_series(rows, 0.37, lat.y, 0.5)
        alone = [measures_module._disk_series(rows[i:i + 1], 0.37, lat.y[i:i + 1], 0.5)[0]
                 for i in range(lat.size)]
        assert together.tobytes() == np.array(alone).tobytes()

    def test_term_count_follows_the_tail_bound(self):
        # No fixed count: more terms where x s^2 nears 1 and where lam is large.
        counts = measures_module._series_counts
        s2 = np.tanh(np.array([0.1, 1.0])) ** 2
        x = 1.0 - 2.0 ** -np.array([1.0, 40.0])
        assert counts(2.0, 0.0, s2[0], x, 0)[1] < counts(2.0, 0.0, s2[1], x, 0)[1]
        assert counts(2.0, 0.0, s2[1], x, 0)[0] < counts(2.0, 0.0, s2[1], x, 0)[1]
        assert counts(2.0, 0.0, s2[1], x, 0)[1] < counts(42.0, 40.0, s2[1], x, 0)[1]
        assert counts(2.0, 0.0, s2[1], np.zeros(1), 0)[0] == measures_module.DISK_SERIES_STEP

    def test_radius_far_past_one_refused(self):
        # tanh(20) rounds to 1, so at 1 - |a| = 2^-40 the terms fall like |a|^(2n).
        with pytest.raises(EvaluationError, match="disk series needs more than"):
            RadialDensity(0.0).disk_measure(1.0 - 2.0**-40, 20.0)
        assert RadialDensity(0.0).disk_measure(1.0 - 2.0**-10, 5.0) > 0

    def test_centre_outside_the_disk_refused(self):
        with pytest.raises(ConfigurationError, match="open unit disk"):
            RadialDensity(0.5).disk_measure(np.array([0.5, 1.0]), 1.0)


class TestAtomBand:
    """``Atomic._disk_masses`` hands each batch of centres only the atoms of its band."""

    @pytest.mark.parametrize("batch", (1, measures_module.DISK_BATCH_NODES))
    @pytest.mark.parametrize("r", (0.5, 1.0, 2.0))
    def test_masses_are_the_sum_over_every_atom(self, r, batch, rng, monkeypatch):
        # Grid nodes, and atoms placed on the disks' boundary circles, where the
        # test rounds either way; the masses against the exact sum over all
        # atoms that pass the same test, unpruned. A batch budget of 1 gives
        # each centre its own band, as every centre has on a 256 x 512 grid.
        monkeypatch.setattr(measures_module, "DISK_BATCH_NODES", batch)
        s = np.tanh(r)
        rule = build_quadrature(0.0, 32, 64)
        centers = np.concatenate([build_lattice(0.5, 0.02).points[::37],
                                  (1.0 - 2.0 ** -np.arange(1, 31, 3)) * np.exp(0.3j), [0.0]])
        edge = geometry.mobius(centers[::3, None], s * np.exp(2j * np.pi * rng.random((1, 16))))
        points = np.concatenate([rule.nodes.ravel(), edge.ravel()])
        masses = np.concatenate([rule.weights.ravel(), rng.uniform(0.5, 1.0, edge.size) / 1e3])
        mu = Atomic(points=points, masses=masses)
        got = mu.disk_measure(centers, r)
        for a, mass in zip(centers, got):
            want = math.fsum(masses[geometry.pseudo_distance(a, points) < s])
            assert abs(mass - want) <= 1e-15 * want, a


class TestSubMeanValue:
    """Pointwise |f|^p is controlled by the disk average of |f|^p around z."""

    @staticmethod
    def _ratio(f, z, p, alpha, r):
        from bergmanlab.geometry import bergman_disk
        from bergmanlab.measures import euclid_disk_rule

        disk = bergman_disk(z, r)
        nodes, weights = euclid_disk_rule(disk.center, disk.radius)
        local = np.sum(weights * np.abs(f(nodes)) ** p
                       * (alpha + 1.0) * (1.0 - np.abs(nodes) ** 2) ** alpha)
        return abs(f(z)) ** p * (1.0 - abs(z) ** 2) ** (alpha + 2.0) / local

    def test_uniform_constant_over_samples(self, rng):
        p, alpha, r = 2.0, 0.5, 1.0
        ratios = []
        for _ in range(40):
            f = Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            z = complex(0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
            ratios.append(self._ratio(f, z, p, alpha, r))
        c_emp = max(ratios)
        assert np.isfinite(c_emp)
        # the empirical constant is modest and does not move much with more draws
        more = []
        for _ in range(80):
            f = Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            z = complex(0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
            more.append(self._ratio(f, z, p, alpha, r))
        assert max(more) < 3.0 * c_emp


class TestPolynomial:
    def test_roundtrip_and_trim(self):
        f = Polynomial.from_pairs([[1, 0], [0, 2], [0, 0]])
        assert f.coeffs == (1 + 0j, 2j)
        assert f.degree == 1
        assert f.to_pairs() == [[1.0, 0.0], [2.0, 0.0 + 2.0]] or f.to_pairs() == [[1.0, 0.0], [0.0, 2.0]]

    def test_evaluation_matches_horner(self, rng):
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        f = Polynomial.from_coeffs(coeffs)
        z = sample_disk(rng, 50)
        horner = np.zeros_like(z)
        for c in coeffs[::-1]:
            horner = horner * z + c
        assert np.abs(f(z) - horner).max() < 1e-12

    def test_evaluation_equals_numpy_polyval(self, rng):
        # the in-place Horner loop does numpy's operations in numpy's order
        for degree in range(8):
            f = Polynomial.from_coeffs(rng.standard_normal(degree + 1)
                                       + 1j * rng.standard_normal(degree + 1))
            z = sample_disk(rng, 60).reshape(6, 10)
            reference = np.polynomial.polynomial.polyval(z, np.asarray(f.coeffs))
            assert np.array_equal(f(z), reference)
            scalar = f(0.3 - 0.2j)
            assert isinstance(scalar, np.complex128)
            assert abs(scalar - f(np.array([0.3 - 0.2j]))[0]) <= 1e-15 * abs(scalar)

    def test_zero(self):
        assert Polynomial.from_coeffs([0, 0]).is_zero
        assert not Polynomial.from_coeffs([0, 1]).is_zero


class TestPolyPower:
    def test_matches_repeated_convolution(self, rng):
        rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for k in range(4):
            got = poly_power(rows, k)
            for row, out in zip(rows, got):
                want = np.ones(1)
                for _ in range(k):
                    want = np.convolve(want, row)
                np.testing.assert_allclose(out, want, rtol=1e-14, atol=1e-14)

    def test_single_polynomial(self):
        np.testing.assert_array_equal(poly_power((1.0, 2.0), 2), [1.0, 4.0, 4.0])

    def test_first_power_is_a_bitwise_copy(self, rng):
        rows = rng.standard_normal((3, 200)) + 1j * rng.standard_normal((3, 200))
        rows[0, 5] = complex(-0.0, -0.0)
        got = poly_power(rows, 1)
        assert got is not rows and got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("k", (2, 3))
    def test_wide_rows_match_repeated_convolution(self, rng, k):
        rows = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        for row, out in zip(rows, poly_power(rows, k)):
            want = np.ones(1)
            for _ in range(k):
                want = np.convolve(want, row)
            assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()

    def test_wide_powers_keep_exact_zeros(self, rng):
        # (z^2)^2 = z^4 and the powers of rows with only every third power
        # nonzero, as E leaves them under z^3, are exactly zero off the support.
        square = np.zeros(100)
        square[2] = 1.0
        out = poly_power(square, 2)
        assert np.flatnonzero(out).tolist() == [4]
        assert abs(out[4] - 1.0) <= 4 * np.finfo(float).eps
        np.testing.assert_array_equal(poly_power([0.0, 0.0, 1.0], 2), [0, 0, 0, 0, 1])
        rows = rng.standard_normal((3, 300)) + 0j
        rows[:, np.arange(300) % 3 != 0] = 0.0
        rows[2, 1:] = 0.0
        for k in (2, 3):
            out = poly_power(rows, k)
            assert np.all(out[:2, np.arange(out.shape[1]) % 3 != 0] == 0)
            assert np.flatnonzero(out[2]).tolist() == [0]


def quadrature_square_integrals(mu, coeffs, quad):
    """int |f|^2 dmu for each row of ``coeffs``, integrated on the measure's nodes."""
    return np.array([mu.integrate(lambda z, row=row: np.abs(np.polynomial.polynomial.polyval(
        z, row)) ** 2, quad) for row in coeffs])


# Coefficients on a grid of tenths: no underflow, and zero rows stay possible.
tenths = st.integers(-20, 20).map(lambda k: k / 10.0)
complex_tenths = st.builds(complex, tenths, tenths)
polynomial_stacks = st.integers(1, 7).flatmap(lambda width: st.lists(
    st.lists(complex_tenths, min_size=width, max_size=width), min_size=1, max_size=4))
exponents = st.floats(-0.5, 2.0)


def square_integral_measures(gamma, beta, u, p):
    atoms = Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.95, 1.0)])
    return {
        "radial": RadialDensity(gamma, 1.5),
        "polyweighted": PolyWeighted(Polynomial.from_coeffs(u), p, beta),
        "atomic": atoms,
        "sum": SumMeasure((RadialDensity(gamma), PolyWeighted(Polynomial.from_coeffs(u), p, beta),
                           atoms)),
    }


class TestSquareIntegrals:
    @pytest.mark.parametrize("alpha", (-0.5, 0.0, 0.37, 1.0))
    def test_monomial_norms_match_mpmath(self, alpha):
        # ||z^n||^2 in A^2_alpha is n! Gamma(alpha+2) / Gamma(n+alpha+2).
        got = WeightedArea(alpha).square_integrals(np.eye(13))
        with mpmath.workdps(40):
            want = [float(mpmath.factorial(n) * mpmath.gamma(alpha + 2)
                          / mpmath.gamma(n + alpha + 2)) for n in range(13)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=polynomial_stacks, gamma=exponents, beta=exponents,
           u=st.lists(complex_tenths, min_size=1, max_size=3), p=st.sampled_from((2.0, 4.0)))
    def test_equals_the_rule_quadrature(self, coeffs, gamma, beta, u, p):
        # The rule integrates these polynomial integrands exactly.
        quad = QuadConfig(32, 64)
        coeffs = np.array(coeffs)
        for name, mu in square_integral_measures(gamma, beta, u, p).items():
            got = mu.square_integrals(coeffs, quad)
            want = quadrature_square_integrals(mu, coeffs, quad)
            assert got.shape == (len(coeffs),)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (name, got, want)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=polynomial_stacks, gamma=exponents, beta=exponents,
           u=st.lists(complex_tenths, min_size=1, max_size=4), p=st.sampled_from((2.0, 4.0)),
           stride=st.sampled_from((1, 2, 3, 4)))
    @example(coeffs=[[1, 0.5j, -0.3], [0.2, 0, 1.5]], gamma=0.0, beta=0.5,
             u=[0, 1, 0.5j, -0.7], p=2.0, stride=3)
    @example(coeffs=[[1, 0.5j, -0.3]], gamma=0.0, beta=0.5, u=[0, 0, 1.2], p=4.0, stride=2)
    def test_a_stride_is_the_zero_filled_rows(self, coeffs, gamma, beta, u, p, stride):
        # Rows g at stride n integrate g(z^n): the same as their zero-filled
        # expansion at stride 1, on every measure type and on weights whose
        # v pairs coefficients n apart (u of degree up to 3, u(0) = 0 included).
        coeffs = np.array(coeffs, dtype=complex)
        spread = np.zeros((len(coeffs), stride * (coeffs.shape[1] - 1) + 1), dtype=complex)
        spread[:, ::stride] = coeffs
        for name, mu in square_integral_measures(gamma, beta, u, p).items():
            got = mu.square_integrals(coeffs, stride=stride)
            want = mu.square_integrals(spread)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (name, got, want)

    def test_stride_must_be_a_positive_integer(self):
        for stride in (0, 1.5, -2):
            with pytest.raises(ConfigurationError, match="stride"):
                WeightedArea(0.0).square_integrals(np.eye(3), stride=stride)

    def test_default_grid_density_is_the_direct_sum(self, rng):
        rule = build_quadrature(0.0, 256, 512)
        mu = GridDensity.from_function(rule, lambda z: np.abs(1.0 + 0.5j * z) ** 2)
        coeffs = rng.standard_normal((24, 7)) + 1j * rng.standard_normal((24, 7))
        got = mu.square_integrals(coeffs)
        want = [np.sum(mu.masses * np.abs(np.polynomial.polynomial.polyval(rule.nodes, row)) ** 2)
                for row in coeffs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_odd_p_weight_integrates_the_stack(self, rng, small_quad):
        mu = PolyWeighted(Polynomial.from_coeffs([1, 0.5j, 0.25]), 3.0, 0.5)
        coeffs = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        got = mu.square_integrals(coeffs, small_quad)
        rows = [mu.integrate(lambda z, f=Polynomial.from_coeffs(row): np.abs(f(z)) ** 2,
                             small_quad) for row in coeffs]
        np.testing.assert_allclose(got, rows, rtol=1e-14, atol=0)

    def test_rejects_a_flat_array(self):
        with pytest.raises(ConfigurationError):
            WeightedArea(0.0).square_integrals([1.0, 2.0])
        assert WeightedArea(0.0).square_integrals(np.zeros((0, 3))).shape == (0,)


class TestWireFormat:
    @pytest.mark.parametrize("spec", [
        {"type": "area", "alpha": 0.5},
        {"type": "radial", "gamma": -0.25, "scale": 2.0},
        {"type": "polyweighted", "u": [[1.0, 0.0], [0.5, 0.0]], "p": 2.0, "beta": 0.0},
        {"type": "atomic", "atoms": [{"re": 0.9, "im": 0.0, "mass": 1.0}]},
        {"type": "sum", "parts": [{"type": "area", "alpha": 0.0},
                                  {"type": "radial", "gamma": 1.0, "scale": 1.0}]},
    ])
    def test_roundtrip(self, spec):
        mu = measure_from_config(spec)
        spec2 = mu.spec()
        assert measure_from_config(spec2).spec() == spec2

    def test_unknown_field_rejected_with_pointer(self):
        with pytest.raises(ConfigurationError) as err:
            measure_from_config({"type": "area", "alpha": 0.0, "alhpa": 1.0})
        assert "/measure" in str(err.value) and "alhpa" in str(err.value)

    def test_missing_field_pointer(self):
        with pytest.raises(ConfigurationError) as err:
            measure_from_config({"type": "radial"})
        assert "/measure/gamma" in str(err.value)

    def test_nested_pointer(self):
        with pytest.raises(ConfigurationError) as err:
            measure_from_config({"type": "sum", "parts": [{"type": "area"}]})
        assert "/measure/parts/0" in str(err.value)

    def test_atom_outside_disk_rejected(self):
        with pytest.raises((ConfigurationError, ValueError)):
            measure_from_config({"type": "atomic",
                                 "atoms": [{"re": 1.0, "im": 0.0, "mass": 1.0}]})

    def test_unknown_type(self):
        with pytest.raises(ConfigurationError) as err:
            measure_from_config({"type": "fractal"})
        assert "fractal" in str(err.value)

    def test_grid_roundtrip(self):
        spec = {"type": "grid", "alpha": 0.0, "n_radial": 8, "n_angular": 8,
                "values": [1.0] * 64}
        mu = measure_from_config(spec)
        assert abs(mu.total_mass() - 1.0) < 1e-12
