"""Closed-form geometry: fixed values, identities, and sampled cross-checks."""

import mpmath
import numpy as np
import pytest

from bergmanlab.geometry import (
    BergmanDisk,
    EuclideanDisk,
    SpaceParams,
    as_disk_point,
    bergman_disk,
    bergman_distance,
    SERIES_TAIL,
    disk_area,
    kernel_extrema_on_disk,
    kernel_series,
    mobius,
    mobius_derivative,
    normalized_kernel,
    pseudo_distance,
    series_degree,
    weighted_kernel,
)
from bergmanlab.geometry import test_function as kernel_power
from bergmanlab.measures import Polynomial, WeightedArea, bergman_norm, build_quadrature, \
    measure_of_disk

from conftest import sample_disk

GEOM_TOL = 1e-12


class TestMobius:
    def test_fixed_points_and_values(self):
        assert abs(mobius(0.3 + 0.1j, 0.3 + 0.1j)) < GEOM_TOL
        assert abs(mobius(0.5, 0.0) - 0.5) < GEOM_TOL
        # (0.5 - 0.2) / (1 - 0.1) = 1/3 by rational arithmetic
        assert abs(mobius(0.5, 0.2) - 1.0 / 3.0) < GEOM_TOL

    def test_involution(self, rng):
        a = sample_disk(rng, 2000)
        z = sample_disk(rng, 2000)
        err = np.abs(mobius(a, mobius(a, z)) - z)
        assert err.max() < GEOM_TOL

    def test_swaps_origin_and_center(self, rng):
        a = sample_disk(rng, 100)
        assert np.abs(mobius(a, 0.0) - a).max() < GEOM_TOL
        assert np.abs(mobius(a, a)).max() < GEOM_TOL

    def test_stays_in_disk(self, rng):
        a = sample_disk(rng, 1000)
        z = sample_disk(rng, 1000)
        assert np.abs(mobius(a, z)).max() < 1.0


class TestMobiusDerivative:
    def test_fixed_values(self):
        assert abs(mobius_derivative(0.0, 0.3 + 0.2j) - (-1.0)) < GEOM_TOL
        assert abs(mobius_derivative(0.5, 0.0) - (-0.75)) < GEOM_TOL

    def test_modulus_equals_normalized_kernel(self, rng):
        assert abs(abs(mobius_derivative(0.6, 0.3j)) - abs(normalized_kernel(0.6, 0.3j))) < GEOM_TOL
        a = sample_disk(rng, 2000)
        z = sample_disk(rng, 2000)
        err = np.abs(np.abs(mobius_derivative(a, z)) - np.abs(normalized_kernel(a, z)))
        assert err.max() < GEOM_TOL


class TestDistances:
    def test_pseudo_fixed_values(self, rng):
        z = sample_disk(rng, 50)
        assert np.abs(pseudo_distance(z, z)).max() < GEOM_TOL
        assert np.abs(pseudo_distance(0.0, z) - np.abs(z)).max() < GEOM_TOL
        # |0.5 - (-0.5)| / |1 + 0.25| = 0.8
        assert abs(pseudo_distance(0.5, -0.5) - 0.8) < GEOM_TOL

    def test_pseudo_symmetry_and_invariance(self, rng):
        a, w, z = (sample_disk(rng, 1000) for _ in range(3))
        assert np.abs(pseudo_distance(w, z) - pseudo_distance(z, w)).max() < GEOM_TOL
        moved = pseudo_distance(mobius(a, w), mobius(a, z))
        assert np.abs(pseudo_distance(w, z) - moved).max() < GEOM_TOL

    def test_bergman_fixed_values(self):
        assert bergman_distance(0.0, 0.0) == 0.0
        # (1/2) log 3
        assert abs(bergman_distance(0.0, 0.5) - 0.5 * np.log(3.0)) < GEOM_TOL

    def test_bergman_is_artanh_of_pseudo(self, rng):
        a = sample_disk(rng, 500)
        z = sample_disk(rng, 500)
        assert np.abs(bergman_distance(a, z) - np.arctanh(pseudo_distance(a, z))).max() < GEOM_TOL
        zz = sample_disk(rng, 500)
        expected = 0.5 * np.log((1 + np.abs(zz)) / (1 - np.abs(zz)))
        assert np.abs(bergman_distance(0.0, zz) - expected).max() < GEOM_TOL

    def test_bergman_invariance(self, rng):
        a, w, z = (sample_disk(rng, 1000) for _ in range(3))
        moved = bergman_distance(mobius(a, w), mobius(a, z))
        assert np.abs(bergman_distance(w, z) - moved).max() < GEOM_TOL


class TestBergmanDisk:
    def test_centered_disk(self):
        d = bergman_disk(0.0, 1.0)
        assert abs(d.center) < GEOM_TOL
        assert abs(d.radius - np.tanh(1.0)) < GEOM_TOL

    def test_reference_values(self):
        # s = tanh 1: C = (1-s^2)a/(1-s^2/4), R = 0.75 s/(1-s^2/4)
        d = bergman_disk(0.5, 1.0)
        assert abs(d.center - 0.2456008727924099) < 1e-12
        assert abs(d.radius - 0.6680700612475976) < 1e-12

    def test_membership_matches_metric(self, rng):
        for a in (0.0, 0.5, 0.3 - 0.6j, 0.85j):
            for r in (0.3, 1.0):
                disk = bergman_disk(a, r)
                z = sample_disk(rng, 10000)
                inside_metric = bergman_distance(a, z) < r
                inside_euclid = disk.contains(z)
                margin = np.abs(bergman_distance(a, z) - r) > 1e-9
                assert np.all(inside_metric[margin] == inside_euclid[margin])

    def test_disk_inside_unit_disk(self, rng):
        a = sample_disk(rng, 200, rmax=0.95)
        for ai in a[:50]:
            d = bergman_disk(ai, 1.0)
            assert abs(d.center) + d.radius < 1.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            bergman_disk(0.5, 0.0)

    @pytest.mark.parametrize("r", (-1.0, float("nan"), float("inf")))
    def test_radius_must_be_positive_and_finite(self, r):
        for guarded in (bergman_disk, disk_area, kernel_extrema_on_disk,
                        lambda a, r: measure_of_disk(WeightedArea(0.0), a, r),
                        EuclideanDisk, BergmanDisk):
            with pytest.raises(ValueError, match="positive and finite"):
                guarded(0.5, r)

    def test_metric_disk_type(self):
        d = BergmanDisk(center=0.5, radius=1.0)
        assert abs(d.s - np.tanh(1.0)) < 1e-15
        assert d.euclidean() == bergman_disk(0.5, 1.0)
        with pytest.raises(ValueError):
            BergmanDisk(center=0.5, radius=-1.0)


class TestDiskArea:
    def test_centered(self):
        for r in (0.2, 0.7, 1.0):
            assert abs(disk_area(0.0, r) - np.tanh(r) ** 2) < GEOM_TOL

    def test_reference_value(self):
        assert abs(disk_area(0.5, 1.0) - 0.4463176067353688) < 1e-12

    def test_matches_euclidean_disk_quadrature(self):
        from bergmanlab.measures import euclid_disk_rule

        for a, r in [(0.0, 0.5), (0.5, 1.0), (0.3 + 0.4j, 0.8)]:
            disk = bergman_disk(a, r)
            _, weights = euclid_disk_rule(disk.center, disk.radius)
            assert abs(weights.sum() - disk_area(a, r)) < 1e-6

    def test_matches_sampled_indicator(self, rng):
        # coarse quasi-independent check: area-uniform sampling of the indicator
        a, r = 0.4 - 0.2j, 0.9
        z = sample_disk(rng, 200000, rmax=1.0)
        frac = np.mean(bergman_distance(a, z) < r)
        assert abs(frac - disk_area(a, r)) < 5e-3

    def test_warns_outside_validated_range(self):
        with pytest.warns(UserWarning):
            disk_area(0.5, 2.0)


class TestKernels:
    def test_weighted_kernel_values(self):
        assert abs(weighted_kernel(0.0, 0.7j, 0.5) - 1.0) < GEOM_TOL
        assert abs(weighted_kernel(0.5, 0.5, 0.0) - 1.0 / 0.75**2) < GEOM_TOL

    def test_reproducing_identity(self):
        # int f(z) K(w, z) dA(z) = f(w) for analytic f; f = z^2, w = 0.3
        rule = build_quadrature(0.0, 64, 128)
        f = Polynomial.from_coeffs([0, 0, 1])
        val = np.sum(rule.weights * f(rule.nodes) * weighted_kernel(0.3, rule.nodes, 0.0))
        assert abs(val - 0.09) < 1e-10

    def test_normalized_kernel_values(self):
        assert abs(normalized_kernel(0.0, 0.2 + 0.5j) - 1.0) < GEOM_TOL
        assert abs(normalized_kernel(0.5, 0.0) - 0.75) < GEOM_TOL

    def test_normalized_kernel_unit_norm(self):
        rule = build_quadrature(0.0)
        for aa in (0.0, 0.3, 0.6, 0.9):
            a = aa * np.exp(0.4j)
            val = np.sum(rule.weights * np.abs(normalized_kernel(a, rule.nodes)) ** 2)
            assert abs(val - 1.0) < 1e-6

    def test_kernel_extrema_reference(self):
        inf_k, sup_k = kernel_extrema_on_disk(0.0, 0.7)
        assert abs(inf_k - 1.0) < GEOM_TOL and abs(sup_k - 1.0) < GEOM_TOL
        inf_k, sup_k = kernel_extrema_on_disk(0.5, 1.0)
        assert abs(inf_k - 0.2613421512461955) < 1e-12
        assert abs(sup_k - 6.4624457522314616) < 1e-11

    def test_kernel_extrema_bound_sampling(self, rng):
        a, r = 0.5, 1.0
        disk = bergman_disk(a, r)
        inf_k, sup_k = kernel_extrema_on_disk(a, r)
        t = np.sqrt(rng.random(40000))
        th = 2 * np.pi * rng.random(40000)
        z = disk.center + disk.radius * t * np.exp(1j * th)
        vals = np.abs(normalized_kernel(a, z)) ** 2
        assert inf_k <= vals.min() + 1e-12
        assert sup_k >= vals.max() - 1e-12
        assert vals.min() < inf_k * 1.01
        assert vals.max() > sup_k * 0.99


class TestTestFunction:
    def test_fixed_values(self, rng):
        z = sample_disk(rng, 20)
        params = SpaceParams(p=3.0, alpha=0.5)
        assert np.abs(kernel_power(0.0, z, params) - 1.0).max() < GEOM_TOL
        # (0.75)^((2+0)/2) = 0.75
        assert abs(kernel_power(0.5, 0.0, SpaceParams(p=2, alpha=0)) - 0.75) < GEOM_TOL

    def test_modulus_identity(self, rng):
        # |f_a(z)|^p = ((1-|a|^2)/|1-conj(a) z|^2)^(2+alpha) exactly
        a = sample_disk(rng, 300, rmax=0.95)
        z = sample_disk(rng, 300)
        for p, alpha in [(1.0, -0.5), (2.0, 0.0), (4.0, 1.0), (0.7, 0.3)]:
            params = SpaceParams(p=p, alpha=alpha)
            lhs = np.abs(kernel_power(a, z, params)) ** p
            rhs = ((1 - np.abs(a) ** 2) / np.abs(1 - np.conj(a) * z) ** 2) ** (2 + alpha)
            assert np.abs(lhs - rhs).max() < 1e-11 * rhs.max()


class TestComparabilityOnDisks:
    """Empirical constant for the two ratio families on metric disks."""

    @staticmethod
    def _estimate(rng, n, r=1.0):
        a = sample_disk(rng, 4 * n, rmax=0.98)
        z = sample_disk(rng, 4 * n, rmax=0.98)
        keep = bergman_distance(a, z) < r
        a, z = a[keep][:n], z[keep][:n]
        r1 = (1 - np.abs(a) ** 2) / (1 - np.abs(z) ** 2)
        r2 = (1 - np.abs(a) ** 2) / np.abs(1 - np.conj(a) * z)
        vals = np.concatenate([r1, 1 / r1, r2, 1 / r2])
        return float(vals.max())

    def test_single_finite_constant_stable(self):
        c1 = self._estimate(np.random.default_rng(7), 4000)
        c2 = self._estimate(np.random.default_rng(8), 8000)
        assert np.isfinite(c1) and np.isfinite(c2)
        # doubling the sample should not move the estimate much
        assert abs(c1 - c2) / c1 < 0.25


class TestPointwiseBound:
    def test_random_polynomials(self, rng, small_quad):
        params = SpaceParams(p=2.0, alpha=0.0)
        for _ in range(10):
            coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f = Polynomial.from_coeffs(coeffs)
            norm = bergman_norm(f, params, small_quad)
            z = sample_disk(rng, 200, rmax=0.95)
            bound = norm / (1 - np.abs(z) ** 2) ** params.kernel_exponent
            assert np.all(np.abs(f(z)) <= bound + 1e-9)

    def test_equality_approached_by_kernel_power(self, rng):
        # |f_z(z)| (1-|z|^2)^((2+alpha)/p) = 1 with ||f_z|| = 1: the sup is attained
        params = SpaceParams(p=2.0, alpha=0.5)
        z = sample_disk(rng, 50, rmax=0.9)
        vals = np.abs(kernel_power(z, z, params)) * (1 - np.abs(z) ** 2) ** params.kernel_exponent
        assert np.abs(vals - 1.0).max() < GEOM_TOL


class TestValidation:
    def test_boundary_rejection(self):
        with pytest.raises(ValueError):
            as_disk_point(1.0)
        with pytest.raises(ValueError):
            as_disk_point(1.0 - 1e-15)
        assert as_disk_point(0.5 + 0.5j) == 0.5 + 0.5j

    @pytest.mark.parametrize("z", (float("nan"), complex(0.0, float("nan")), float("inf"),
                                   np.array([0.1, float("nan")])), ids=repr)
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError):
            as_disk_point(z)

    def test_space_params(self):
        with pytest.raises(ValueError):
            SpaceParams(p=0.0, alpha=0.0)
        with pytest.raises(ValueError):
            SpaceParams(p=2.0, alpha=-1.0)

    @pytest.mark.parametrize("p, alpha", ((float("inf"), 0.0), (2.0, float("inf"))))
    def test_space_params_must_be_finite(self, p, alpha):
        with pytest.raises(ValueError, match="finite"):
            SpaceParams(p, alpha)

    def test_euclidean_disk_containment(self):
        with pytest.raises(ValueError):
            EuclideanDisk(center=0.8, radius=0.5)
        EuclideanDisk(center=0.5, radius=0.5)

    def test_weighted_kernel_alpha(self):
        with pytest.raises(ValueError):
            weighted_kernel(0.3, 0.2, -1.5)


def tail_bound(r, e, d):
    """b_{d+1} / (1 - q) of ``series_degree`` in mpmath, or inf where q >= 1."""
    with mpmath.workdps(30):
        r, e = mpmath.mpf(r), mpmath.mpf(e)
        q = r * max(1, (e + d + 1) / (d + 2))
        if q >= 1:
            return mpmath.inf
        return mpmath.rf(e, d + 1) / mpmath.factorial(d + 1) * r ** (d + 1) / (1 - q)


class TestKernelSeries:
    @pytest.mark.parametrize("alpha", (-0.9, 0.0, 5.0))
    def test_within_the_tail_bound_of_the_kernel_power(self, alpha, rng):
        # |S_D - f_a| <= SERIES_TAIL (1-|a|^2)^s, plus the rounding of Horner's
        # rule over D terms and of the kernel's own exp and log, both at most
        # a few ulps of the majorant sum |c_k| |z|^k per term.
        params = SpaceParams(2.0, alpha)
        a = 0.97 * np.exp(0.7j)
        row = kernel_series(a, params)[0]
        z = np.concatenate([sample_disk(rng, 300, 0.999),
                            a / abs(a) * np.array([0.5, 0.9, 0.97, 0.99, 0.999])])
        got = np.polynomial.polynomial.polyval(z, row)
        majorant = np.polynomial.polynomial.polyval(np.abs(z), np.abs(row))
        eps = np.finfo(float).eps
        bound = SERIES_TAIL * (1.0 - abs(a) ** 2) ** params.kernel_exponent \
            + (4 * len(row) + 100) * eps * majorant
        assert np.all(np.abs(got - kernel_power(a, z, params)) <= bound)

    @pytest.mark.parametrize("r", (0.5, 0.9375, 0.97))
    @pytest.mark.parametrize("e", (0.2, 1.0, 2.5, 7.0))
    def test_degree_is_the_least_with_the_tail_bound(self, r, e):
        d = series_degree(r, e)
        assert tail_bound(r, e, d) <= SERIES_TAIL < tail_bound(r, e, d - 1)

    def test_degree_at_the_default_radii(self):
        # about 650 to 900 at |a| <= 0.9375 for alpha in [-0.5, 1] at p = 2
        assert 650 <= series_degree(0.9375, 1.5) < series_degree(0.9375, 3.0) <= 900

    def test_rows_share_the_degree_of_the_largest_radius(self):
        params = SpaceParams(2.0, 0.5)
        rows = kernel_series(np.array([0.5j, -0.9375, 0.0]), params)
        assert rows.shape == (3, series_degree(0.9375, 2.5) + 1)
        np.testing.assert_array_equal(rows[2], np.eye(1, rows.shape[1])[0])

    def test_origin_and_no_centres(self):
        params = SpaceParams(4.0, 1.0)
        np.testing.assert_array_equal(kernel_series(0j, params), [[1.0]])
        assert kernel_series(np.empty(0), params).shape == (0, 1)

    def test_power_raises_the_degree(self):
        # The series of f_a for the (p/2)-th power takes the bound of exponent 2s p/2.
        params = SpaceParams(6.0, 0.0)
        assert kernel_series(0.9, params, 3).shape[1] == series_degree(0.9, 2.0) + 1
        assert kernel_series(0.9, params).shape[1] == series_degree(0.9, 2.0 / 3.0) + 1

    @pytest.mark.parametrize("power", (1, 2))
    @pytest.mark.parametrize("stride", (1, 2, 3, 4))
    def test_a_stride_keeps_every_nth_column_bitwise(self, stride, power):
        # The rings of the default family, a repeated centre and two off-grid
        # ones: the compact rows of E S_D under z^n, with the same D.
        rings = [rho * np.exp(2j * np.pi * np.arange(8) / 8) for rho in (0.5, 0.75, 0.9375)]
        a = np.concatenate([[0.0], *rings, [0.3 - 0.2j, 0.3 - 0.2j, -0.61j]])
        params = SpaceParams(2.0 * power, 0.5)
        full = kernel_series(a, params, power)
        got = kernel_series(a, params, power, stride)
        assert got.tobytes() == np.ascontiguousarray(full[:, ::stride]).tobytes()

    @pytest.mark.parametrize("r", (1.0, -0.5, float("nan")))
    def test_degree_outside_the_disk_rejected(self, r):
        with pytest.raises(ValueError):
            series_degree(r, 2.0)

    def test_large_alpha_does_not_overflow(self):
        row = kernel_series(0.97, SpaceParams(2.0, 200.0))[0]
        assert np.all(np.isfinite(row)) and abs(row[0]) > 0
