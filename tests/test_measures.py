"""Quadrature rules, measure variants, norms, and the wire format."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bergmanlab import measures as measures_module
from bergmanlab.errors import ConfigurationError, EvaluationError
from bergmanlab.geometry import SpaceParams
from bergmanlab.geometry import test_function as kernel_power
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
    ring_shifts,
    rotations,
)

from conftest import sample_disk

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
        assert "node" in str(err.value)

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

    def test_stacked_integrand_gives_one_value_per_member(self, small_quad):
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        measures = (
            RadialDensity(0.5, 2.0),
            PolyWeighted(Polynomial.from_coeffs([1, 0.5]), 2.0, 0.0),
            Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25)]),
            GridDensity.from_function(rule, lambda z: np.abs(1.0 + z / 2) ** 2),
            SumMeasure((RadialDensity(1.0), Atomic.from_atoms([(0.5, 0.3)]))),
        )
        members = (lambda z: np.abs(1.0 + z) ** 3, lambda z: np.abs(z) ** 2 + z.real,
                   lambda z: 1.0 + 0.0 * z.real)
        for mu in measures:
            got = mu.integrate(lambda z: np.stack([g(z) for g in members]), small_quad)
            assert got.shape == (len(members),)
            for value, g in zip(got, members):
                assert abs(value - mu.integrate(g, small_quad)) <= 1e-14 * abs(value)

    def test_row_sums_equal_whole_stack_sums(self, monkeypatch, small_quad):
        # A stack is summed one member row at a time; each sum must be bitwise
        # the one of the whole weighted stack, for every measure type's weights
        # (and the polynomial weight's density).
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        original = measures_module._weighted_sum
        kinds = []

        def compared(weights, vals, nodes, density=None):
            got = original(weights, vals, nodes, density)
            if density is not None:
                vals = density * vals
            members = np.shape(vals)[: np.ndim(vals) - np.ndim(weights)]
            whole = np.sum((weights * vals).reshape(members + (-1,)), axis=-1)
            np.testing.assert_array_equal(got, whole if np.iscomplexobj(got) else whole.real)
            kinds.append(np.ndim(weights))
            return got
        monkeypatch.setattr(measures_module, "_weighted_sum", compared)
        for mu in (WeightedArea(0.5), RadialDensity(0.5, 2.0),
                   PolyWeighted(Polynomial.from_coeffs([1, 0.5j]), 3.0, 1.0),
                   Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.9, 1.0)]),
                   GridDensity.from_function(rule, lambda z: np.abs(1.0 + z / 2) ** 2),
                   SumMeasure((RadialDensity(1.0), Atomic.from_atoms([(0.5, 0.3)])))):
            mu.integrate(lambda z: np.stack([np.abs(1.0 + z) ** 3, np.abs(z) ** 2]), small_quad)
            mu.integrate(lambda z: np.stack([[z**k for k in range(3)]] * 2), small_quad)
            mu.integrate(2.5, small_quad)
        assert sorted(set(kinds)) == [1, 2]

    def test_stacked_non_finite_integrand_names_node(self, small_quad):
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        z0 = rule.nodes[3, 7]
        bad = lambda z: np.stack([np.ones(z.shape), 1.0 / np.abs(z - z0)])
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError) as err:
            WeightedArea(0.0).integrate(bad, small_quad)
        assert f"z = {z0}" in str(err.value) and "(1, 3, 7)" in str(err.value)

    def test_grid_density_rejects_negative(self):
        rule = build_quadrature(0.0, 16, 32)
        with pytest.raises(ConfigurationError):
            GridDensity.from_values(rule, -np.ones(rule.nodes.shape))

    def test_atomic_needs_an_atom(self):
        with pytest.raises(ConfigurationError, match="at least one atom"):
            Atomic.from_atoms([])
        with pytest.raises(ConfigurationError, match="at least one atom"):
            Atomic(points=np.zeros(0, dtype=complex), masses=np.zeros(0))
        with pytest.raises(ConfigurationError):
            measure_from_config({"type": "atomic", "atoms": []})


class TestRingRotation:
    def test_rolls_are_rotations_of_the_rule(self):
        rule = build_quadrature(0.5, 16, 32)
        g = lambda z: np.abs(1.0 + z / 2) ** 3 + z.imag
        shifts = ring_shifts(rule.nodes, 8)
        assert shifts == [4 * k for k in range(8)]
        stack = rotations(g(rule.nodes), shifts)
        for k in range(8):
            w = np.exp(2j * np.pi * k / 8)
            assert np.abs(stack[k] - g(np.conj(w) * rule.nodes)).max() < 1e-14

    def test_only_rule_layouts_divided_by_the_directions(self):
        rule = build_quadrature(0.0, 16, 30)
        assert ring_shifts(rule.nodes, 8) is None
        assert ring_shifts(rule.nodes, 6) == [5 * k for k in range(6)]
        assert ring_shifts(rule.nodes[:, ::-1], 6) is None
        assert ring_shifts(rule.nodes * np.exp(0.1j), 6) is None
        assert ring_shifts(rule.nodes.ravel(), 6) is None
        assert ring_shifts(rule.nodes.copy(), 6) is None

    def test_known_rules_are_not_pinned(self):
        rule = build_quadrature(0.123, 8, 12)
        key = id(rule.nodes)
        assert measures_module._RULE_NODES[key] is rule.nodes
        del rule
        build_quadrature.cache_clear()
        assert key not in measures_module._RULE_NODES


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
    def test_area_measure_matches_closed_form(self, small_quad):
        from bergmanlab.geometry import disk_area

        for a, r in [(0.0, 0.5), (0.5, 1.0), (0.3 - 0.4j, 0.8)]:
            got = measure_of_disk(WeightedArea(0.0), a, r, small_quad)
            assert abs(got - disk_area(a, r)) < 1e-6

    def test_atom_at_center(self):
        mu = Atomic.from_atoms([(0.3, 1.0)])
        for r in (0.1, 1.0):
            assert measure_of_disk(mu, 0.3, r) == 1.0

    def test_atom_outside(self):
        mu = Atomic.from_atoms([(0.9, 1.0)])
        assert measure_of_disk(mu, 0.0, 0.5) == 0.0

    def test_radial_closed_form(self, small_quad):
        # scale*(1-|z|^2)^1 dA over D(0, r): int_0^s 2 rho (1-rho^2) drho = s^2 - s^4/2
        for r in (0.4, 1.0):
            s = np.tanh(r)
            got = measure_of_disk(RadialDensity(1.0), 0.0, r, small_quad)
            assert abs(got - (s**2 - s**4 / 2.0)) < 1e-9

    def test_monotone_in_radius(self, small_quad):
        mu = RadialDensity(0.5)
        vals = [measure_of_disk(mu, 0.4, r, small_quad) for r in (0.2, 0.5, 0.9, 1.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_sum(self, small_quad):
        mu = SumMeasure((WeightedArea(0.0), Atomic.from_atoms([(0.0, 1.0)])))
        got = measure_of_disk(mu, 0.0, 1.0, small_quad)
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
            got = mu.disk_measure(centers, r, small_quad)
            want = np.array([mu.disk_measure(a, r, small_quad) for a in centers])
            assert got.shape == centers.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name

    @pytest.mark.parametrize("name", DISK_MEASURES)
    def test_output_shape_follows_input(self, name, rng, small_quad):
        mu = disk_measures(small_quad)[name]
        centers = sample_disk(rng, 12).reshape(3, 4)
        got = measure_of_disk(mu, centers, 1.0, small_quad)
        assert got.shape == (3, 4)
        assert got[1, 2] == pytest.approx(measure_of_disk(mu, centers[1, 2], 1.0, small_quad),
                                          rel=1e-13)
        assert measure_of_disk(mu, np.empty(0, dtype=complex), 1.0, small_quad).shape == (0,)

    @pytest.mark.parametrize("name", DISK_MEASURES)
    def test_scalar_centre_gives_float(self, name, small_quad):
        mu = disk_measures(small_quad)[name]
        for a in (0.3 - 0.2j, 0.5, np.complex128(0.1j), np.array(0.2)):
            assert type(measure_of_disk(mu, a, 1.0, small_quad)) is float
            assert type(mu.disk_measure(a, 1.0, small_quad)) is float


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
        stack = mu.integrate(lambda z: np.stack([
            np.abs(Polynomial.from_coeffs(row)(z)) ** 2 for row in coeffs]), small_quad)
        np.testing.assert_allclose(got, stack, rtol=1e-14, atol=0)

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
