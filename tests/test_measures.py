"""Quadrature rules, measure variants, norms, and the wire format."""

import logging

import numpy as np
import pytest
from scipy.special import gammaln

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
    bergman_norm,
    build_quadrature,
    holder_embedding_probe,
    integrate,
    measure_from_config,
    measure_of_disk,
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
        bad = lambda z: 1.0 / np.abs(z - z0)
        with pytest.raises(EvaluationError) as err:
            WeightedArea(0.0).integrate(bad, small_quad)
        assert "node" in str(err.value)

    def test_grid_density(self, small_quad):
        rule = build_quadrature(0.0, 32, 64)
        gd = GridDensity.from_function(rule, lambda z: 1.0 + 0.0 * z.real)
        assert abs(gd.total_mass() - 1.0) < 1e-12
        gd2 = GridDensity.from_function(rule, lambda z: np.abs(z) ** 2)
        assert abs(gd2.total_mass() - 0.5) < 1e-12

    def test_grid_density_resample_logged(self, caplog):
        rule = build_quadrature(0.0, 16, 32)
        fine = build_quadrature(0.0, 32, 64)
        gd = GridDensity.from_function(rule, lambda z: 1.0 + 0.0 * z.real)
        with caplog.at_level(logging.INFO, logger="bergmanlab.measures"):
            re = gd.resample(fine)
        assert "resampling" in caplog.text
        assert abs(re.total_mass() - 1.0) < 1e-12

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


class TestHolderProbe:
    def test_equal_exponents_bound_holds(self, small_quad):
        f = Polynomial.from_coeffs([1.0, 0.5])
        out = holder_embedding_probe(f, WeightedArea(0.0), 2.0, 2.0, 0.0, small_quad)
        assert out["satisfied"]
        assert abs(out["lhs"] - out["rhs"]) < 1e-10  # mu(D) = 1 makes it an identity

    def test_recorded_not_asserted(self, small_quad, rng):
        # the inequality's exponent bookkeeping is shaky for p < q; record only
        f = Polynomial.from_coeffs(rng.standard_normal(4))
        out = holder_embedding_probe(f, RadialDensity(0.5), 1.0, 3.0, 0.0, small_quad)
        assert set(out) == {"lhs", "rhs", "ratio", "satisfied"}
        assert np.isfinite(out["ratio"])


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
