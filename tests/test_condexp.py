"""Level sets and conditional expectation for the supported map families."""

import numpy as np
import pytest

from bergmanlab import condexp
from bergmanlab.condexp import (
    BlaschkeProduct,
    Identity,
    Monomial,
    cond_expect,
    cond_expect_poly,
    cond_expect_values,
    expect_polynomial,
    level_set,
)
from bergmanlab.errors import CriticalPointError
from bergmanlab.geometry import SpaceParams, weighted_kernel
from bergmanlab.geometry import test_function as kernel_power
from bergmanlab.measures import Polynomial, bergman_norm, build_quadrature

from conftest import sample_disk


class TestLevelSet:
    def test_identity(self):
        ls = level_set(Identity(), 0.3 + 0.1j)
        assert np.allclose(ls.points, [0.3 + 0.1j])
        assert np.allclose(ls.weights, [1.0])

    def test_square_map(self):
        ls = level_set(Monomial(2), 0.5)
        got = sorted(ls.points, key=lambda z: z.real)
        assert abs(got[0] - (-0.5)) < 1e-15 and abs(got[1] - 0.5) < 1e-15
        assert np.allclose(ls.weights, [0.5, 0.5])

    def test_cube_map(self):
        ls = level_set(Monomial(3), 0.4)
        expected = 0.4 * np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.allclose(sorted(ls.points, key=np.angle), sorted(expected, key=np.angle))
        assert np.allclose(ls.weights, [1 / 3] * 3)

    def test_monomial_weights_exactly_uniform(self, rng):
        for n in (2, 4, 7):
            for z in sample_disk(rng, 10, rmax=0.9):
                ls = level_set(Monomial(n), z)
                assert np.allclose(ls.weights, 1.0 / n, atol=0, rtol=0)

    def test_critical_point_rejected(self):
        with pytest.raises(CriticalPointError):
            level_set(Monomial(2), 0.0)

    def test_blaschke_level_sets_verified(self, rng):
        zeros = tuple(sample_disk(rng, 3, rmax=0.7))
        phi = BlaschkeProduct(zeros)
        for z in sample_disk(rng, 20, rmax=0.9):
            ls = level_set(phi, complex(z))
            assert len(ls.points) <= phi.multiplicity
            assert abs(ls.weights.sum() - 1.0) < 1e-12
            # the level set maps to the same value and contains the base point
            assert np.abs(phi(ls.points) - phi(z)).max() < 1e-10
            assert np.abs(ls.points - z).min() < 1e-8

    def test_blaschke_weight_formula(self, rng):
        zeros = (0.3 + 0.2j, -0.5j)
        phi = BlaschkeProduct(zeros)
        z = 0.4 + 0.1j
        ls = level_set(phi, z)
        inv = 1.0 / np.abs(phi.derivative(ls.points)) ** 2
        assert np.allclose(ls.weights, inv / inv.sum())


class TestCondExpect:
    def test_fixes_constants(self, rng):
        f = Polynomial.from_coeffs([1.0])
        for z in sample_disk(rng, 10, rmax=0.9):
            if abs(z) < 1e-3:
                continue
            assert abs(cond_expect(Monomial(2), f, z) - 1.0) < 1e-15

    def test_square_map_values(self):
        assert abs(cond_expect(Monomial(2), Polynomial.from_coeffs([0, 1]), 0.5)) < 1e-15
        got = cond_expect(Monomial(2), Polynomial.from_coeffs([0, 0, 1]), 0.3)
        assert abs(got - 0.09) < 1e-15

    def test_identity_map(self, rng):
        f = Polynomial.from_coeffs([1, 2, 3])
        z = complex(sample_disk(rng, 1)[0])
        assert abs(cond_expect(Identity(), f, z) - f(z)) < 1e-15


class TestCondExpectPoly:
    def test_coefficient_filter(self):
        f = Polynomial.from_coeffs([1, 1, 1])
        out = cond_expect_poly(2, f)
        assert out.coeffs == (1 + 0j, 0j, 1 + 0j)

    def test_identity_algebra(self, rng):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = Polynomial.from_coeffs(coeffs)
        assert cond_expect_poly(1, f).coeffs == f.coeffs

    def test_annihilates_non_multiples(self):
        assert cond_expect_poly(3, Polynomial.from_coeffs([0] * 5 + [1])).is_zero

    def test_projection_idempotent(self, rng):
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        f = Polynomial.from_coeffs(coeffs)
        once = cond_expect_poly(3, f)
        twice = cond_expect_poly(3, once)
        assert once.coeffs == twice.coeffs

    def test_agrees_with_level_set_average(self, rng):
        for n in (2, 3, 5):
            coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            f = Polynomial.from_coeffs(coeffs)
            ef = cond_expect_poly(n, f)
            for z in sample_disk(rng, 100, rmax=0.9):
                z = complex(z)
                if abs(z) < 1e-3:
                    continue
                assert abs(cond_expect(Monomial(n), f, z) - ef(z)) < 1e-12

    def test_result_is_polynomial_in_nth_power(self, rng):
        f = Polynomial.from_coeffs(rng.standard_normal(9))
        out = cond_expect_poly(4, f)
        for m, c in enumerate(out.coeffs):
            if m % 4 != 0:
                assert c == 0


class TestAveragingProperties:
    def test_contractive_on_data(self, rng):
        phi = Monomial(3)
        f = Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        for z in sample_disk(rng, 50, rmax=0.9):
            z = complex(z)
            if abs(z) < 1e-3:
                continue
            ls = level_set(phi, z)
            assert abs(cond_expect(phi, f, z)) <= np.sum(ls.weights * np.abs(f(ls.points))) + 1e-14

    def test_convex_combination_bounds(self, rng):
        phi = Monomial(2)
        f = Polynomial.from_coeffs(rng.standard_normal(4))
        for z in sample_disk(rng, 50, rmax=0.9):
            z = complex(z)
            if abs(z) < 1e-3:
                continue
            ls = level_set(phi, z)
            re_vals = np.real(f(ls.points))
            ev = cond_expect(phi, f, z).real
            assert re_vals.min() - 1e-14 <= ev <= re_vals.max() + 1e-14

    def test_norm_nonexpansive_monomial(self, rng, small_quad):
        params = SpaceParams(p=2.0, alpha=0.0)
        for _ in range(5):
            f = Polynomial.from_coeffs(rng.standard_normal(7) + 1j * rng.standard_normal(7))
            ef = cond_expect_poly(2, f)
            assert bergman_norm(ef, params, small_quad) <= bergman_norm(f, params, small_quad) + 1e-12

    def test_blaschke_fixes_own_symbol(self, rng):
        # phi is measurable for its own level sets: E(phi * g) = phi * E(g)
        zeros = (0.4, -0.2 + 0.3j)
        phi = BlaschkeProduct(zeros)
        g = Polynomial.from_coeffs([1.0, 0.5])
        for z in sample_disk(rng, 10, rmax=0.8):
            z = complex(z)
            lhs = cond_expect(phi, lambda w: phi(w) * g(w), z)
            rhs = complex(phi(z)) * cond_expect(phi, g, z)
            assert abs(lhs - rhs) < 1e-10


class TestExpectPolynomial:
    def test_each_map_family(self, rng):
        f = Polynomial.from_coeffs([1, 2, 3j, 4, 5])
        assert expect_polynomial(Identity(), f) == f
        ef = expect_polynomial(Monomial(2), f)
        assert ef == Polynomial.from_coeffs([1, 0, 3j, 0, 5])
        zs = sample_disk(rng, 20, rmax=0.9)
        assert np.abs(ef(zs) - cond_expect_values(Monomial(2), f, zs)).max() < 1e-13
        assert expect_polynomial(BlaschkeProduct((0.2, -0.4j)), f) is None


class TestBatchEvaluation:
    def test_monomial_matches_scalar(self, rng):
        phi = Monomial(3)
        f = Polynomial.from_coeffs(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        zs = sample_disk(rng, 40, rmax=0.9)
        batch = cond_expect_values(phi, f, zs)
        scalar = np.array([cond_expect(phi, f, complex(z)) for z in zs])
        assert np.abs(batch - scalar).max() < 1e-13

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_monomial_on_rule_nodes_matches_orbit(self, n):
        # 2 and 4 divide the 64 angles, so their orbit values are rolls; 3 does not
        nodes = build_quadrature(0.0, 12, 64).nodes
        f = lambda z: kernel_power(0.6 - 0.3j, z, SpaceParams(2.0, 0.5))
        orbit = np.exp(2j * np.pi * np.arange(n) / n)
        direct = np.mean([f(nodes * w) for w in orbit], axis=0)
        got = cond_expect_values(Monomial(n), f, nodes)
        assert np.abs(got - direct).max() < 1e-13 * np.abs(direct).max()

    def test_blaschke_matches_scalar(self, rng):
        phi = BlaschkeProduct((0.3, -0.4j))
        f = Polynomial.from_coeffs(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        zs = sample_disk(rng, 25, rmax=0.85)
        batch = cond_expect_values(phi, f, zs)
        scalar = np.array([cond_expect(phi, f, complex(z)) for z in zs])
        assert np.abs(batch - scalar).max() < 1e-9

    @pytest.mark.parametrize("phi", (Monomial(3), BlaschkeProduct((0.3, -0.4j, 0.5 + 0.1j))),
                             ids=("z^3", "blaschke3"))
    def test_values_do_not_depend_on_the_batch(self, phi, monkeypatch):
        # A 12 x 64 rule's nodes in batches of 7 points, against one batch:
        # batches end mid-row, and the last one is short.
        nodes = build_quadrature(0.0, 12, 64).nodes
        f = lambda z: kernel_power(0.6 - 0.3j, z, SpaceParams(2.0, 0.5))
        whole = cond_expect_values(phi, f, nodes)
        monkeypatch.setattr(condexp, "LEVEL_SET_BATCH", 7 * phi.multiplicity)
        batched = cond_expect_values(phi, f, nodes)
        assert batched.shape == nodes.shape
        assert np.array_equal(batched, whole)

    def test_blaschke_values_do_not_depend_on_the_array_size(self, monkeypatch):
        # 32768 nodes: the default batches, one batch and batches of 7 points
        # straddle the size above which numpy reuses temporaries in place.
        phi = BlaschkeProduct((0.1, 0.4j, -0.5 + 0.1j))
        nodes = build_quadrature(0.7, 128, 256).nodes
        f = lambda z: kernel_power(0.6 - 0.3j, z, SpaceParams(2.0, 0.5))
        default = cond_expect_values(phi, f, nodes)
        for batch in (nodes.size * phi.multiplicity, 7 * phi.multiplicity):
            monkeypatch.setattr(condexp, "LEVEL_SET_BATCH", batch)
            assert np.array_equal(cond_expect_values(phi, f, nodes), default), batch

    def test_weighted_kernel_does_not_depend_on_the_array_size(self):
        # The same 32768 nodes in one call and in 1000-point slices.
        nodes = build_quadrature(0.7, 128, 256).nodes.ravel()
        whole = weighted_kernel(0.3 + 0.4j, nodes, 0.5)
        sliced = np.concatenate([weighted_kernel(0.3 + 0.4j, nodes[lo:lo + 1000], 0.5)
                                 for lo in range(0, nodes.size, 1000)])
        assert np.array_equal(whole, sliced)

    def test_identity_passthrough(self, rng):
        f = Polynomial.from_coeffs([1, 1])
        zs = sample_disk(rng, 10)
        assert np.abs(cond_expect_values(Identity(), f, zs) - f(zs)).max() < 1e-15

    @pytest.mark.parametrize("phi", (Monomial(1), BlaschkeProduct((0.3 + 0.1j,))),
                             ids=("z", "blaschke1"))
    def test_multiplicity_one_passthrough(self, phi, monkeypatch, rng):
        # Each level set is one point, so E(f) = f without a root solve.
        monkeypatch.setattr(condexp, "_level_sets", None)
        f = Polynomial.from_coeffs([1, 2j, 0.5])
        zs = sample_disk(rng, 10)
        assert expect_polynomial(phi, f) == f
        assert np.array_equal(cond_expect_values(phi, f, zs), f(zs))
