"""Level sets and conditional expectation for the supported map families."""

import cmath
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bergmanlab import condexp
from bergmanlab.carleson import CertifyConfig, FamilySpec, certify
from bergmanlab.condexp import (
    RESIDUAL_TOL,
    BlaschkeProduct,
    Identity,
    Monomial,
    cond_expect,
    cond_expect_poly,
    cond_expect_values,
    expect_polynomial,
    level_set,
    rotation_orbit,
)
from bergmanlab.errors import ConfigurationError, CriticalPointError
from bergmanlab.geometry import SpaceParams, weighted_kernel
from bergmanlab.geometry import test_function as kernel_power
from bergmanlab.measures import Atomic, Polynomial, bergman_norm, build_quadrature

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

    def test_uniform_orbit_at_the_critical_point_is_f_there(self):
        # The orbit of z^2 through 0 is 0 twice and needs no weights: its mean is f(0).
        got = cond_expect_values(Monomial(2), lambda w: w**2 + 1, np.array([0j]))
        assert got.tolist() == [1.0]

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


def critical_points(phi):
    """The critical points of a Blaschke product in the disk: the roots there of num' den - num den'.

    Coefficients below 2^-52 of the largest are trimmed first: a zero of
    subnormal modulus leaves a subnormal leading coefficient, which would
    overflow ``polyroots`` and only stands for roots far outside the disk.
    """
    num, den = phi.numerator_coeffs()
    slope = npoly.polysub(npoly.polymul(npoly.polyder(num), den),
                          npoly.polymul(num, npoly.polyder(den)))
    slope = npoly.polytrim(slope, tol=2**-52 * np.abs(slope).max())
    return [c for c in npoly.polyroots(slope) if abs(c) < 1.0]


@st.composite
def blaschke_and_base_point(draw):
    """2 to 5 zeros with |a| <= 0.9, and a point |z| <= 0.95, half the time 1e-6 from a critical point."""
    angle = st.floats(0.0, 2.0 * np.pi)
    n = draw(st.integers(2, 5))
    phi = BlaschkeProduct(tuple(cmath.rect(draw(st.floats(0.0, 0.9)), draw(angle))
                                for _ in range(n)))
    if draw(st.booleans()):
        critical = critical_points(phi)
        z = critical[draw(st.integers(0, len(critical) - 1))] + cmath.rect(1e-6, draw(angle))
    else:
        z = cmath.rect(draw(st.floats(0.0, 0.95)), draw(angle))
    return phi, complex(z)


def mpmath_level_set(phi, z):
    """The n roots of num - phi(z) den, from the double inputs at 40 digits."""
    with mpmath.workdps(40):
        zeros = [mpmath.mpc(a.real, a.imag) for a in map(complex, phi.zeros)]
        base = mpmath.mpc(z.real, z.imag)
        w = mpmath.fprod((a - base) / (1 - mpmath.conj(a) * base) for a in zeros)
        poly = [mpmath.mpc(1)]    # ascending coefficients of num - w den
        den = [mpmath.mpc(1)]
        for a in zeros:
            poly = [a * c - d for c, d in zip(poly + [0], [0] + poly)]
            den = [c - mpmath.conj(a) * d for c, d in zip(den + [0], [0] + den)]
        poly = [c - w * d for c, d in zip(poly, den)]
        roots = mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=60)
        return np.array([complex(r) for r in roots])


# A subnormal zero beside one at the origin: its slope polynomial leads with a
# subnormal coefficient, which overflowed polyroots before the trim.
SUBNORMAL = BlaschkeProduct((1e-314, 0.0, 0.5))


# Zeros whose critical points in the disk, near -0.199+0.104i and 0.271+0.080i,
# have |phi'| below 2e-15 in double precision.
CRITICAL_ZEROS = (0.5, -0.4, 0.3j)


# Level sets through a multiple zero, at z = 0: phi(0) = 0 is the critical value
# phi(0.5) of a triple zero and phi(0.875) of a double one. Rounding splits the
# multiple root into a cluster whose |phi'| (1.7e-10, 1.2e-6) no test on the
# roots alone would call critical, and the mean over it is not E.
MULTIPLE_ZEROS = (BlaschkeProduct((0.5, 0.0, 0.5, 0.5)), BlaschkeProduct((0.65625, 0.0, 0.875, 0.875)))


class TestBlaschkeLevelSets:
    @pytest.mark.parametrize("phi", MULTIPLE_ZEROS, ids=("triple", "double"))
    def test_level_set_through_a_multiple_zero_is_refused(self, phi):
        with pytest.raises(CriticalPointError):
            level_set(phi, 0j)
        with pytest.raises(CriticalPointError):
            cond_expect_values(phi, lambda w: w, np.array([0.3, 0j]))
        assert level_set(phi, 0.3).weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("zeros", (CRITICAL_ZEROS, (0.5, 0.0, 0.5, 0.5), (0.3 + 0.2j,)))
    def test_critical_values_are_phi_at_the_critical_points(self, zeros):
        phi = BlaschkeProduct(zeros)
        want = [complex(phi(c)) for c in critical_points(phi)]
        got = phi.critical_values
        assert len(got) == len(want) == len(zeros) - 1
        assert all(np.abs(got - w).min() <= 1e-15 for w in want)
        assert not got.flags.writeable


    @settings(max_examples=60, deadline=None)
    @given(blaschke_and_base_point())
    @example((SUBNORMAL, complex(critical_points(SUBNORMAL)[0] + 1e-6)))
    @example((MULTIPLE_ZEROS[0], 0j))
    @example((MULTIPLE_ZEROS[1], 0j))
    def test_roots_match_mpmath(self, case):
        phi, z = case
        assume(abs(z) <= 0.95 and abs(complex(phi.derivative(z))) > 1e-9)
        try:
            ls = level_set(phi, z)
        except CriticalPointError:
            # Refused only where another root is critical (z = 0.5 under zeros
            # (0, 0, 0.5)), that is where phi(z) is a critical value.
            assert min(abs(complex(phi(c) - phi(z))) for c in critical_points(phi)) <= 1e-9
            reject()
        want = mpmath_level_set(phi, z)
        # n-to-1: every root is in the disk and none is critical, so all n are kept.
        assert len(ls.points) == phi.multiplicity
        gaps = np.abs(ls.points[:, None] - want[None, :])
        assert gaps.min(axis=1).max() <= 1e-9
        assert gaps.min(axis=0).max() <= 1e-9
        assert z in ls.points
        assert np.abs(phi(ls.points) - phi(z)).max() <= RESIDUAL_TOL

    @pytest.mark.parametrize("k", (2, 3))
    def test_zeros_at_the_origin_are_the_monomial(self, k, rng):
        # (0 - z)^k is (-z)^k: its level sets are those of z^k.
        nodes = build_quadrature(0.0, 32, 64).nodes
        f = Polynomial.from_coeffs(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        got = cond_expect_values(BlaschkeProduct((0.0,) * k), f, nodes)
        want = cond_expect_values(Monomial(k), f, nodes)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_zero_is_its_base_point(self):
        z = 0.2 - 0.4j
        ls = level_set(BlaschkeProduct((0.3 + 0.1j,)), z)
        assert ls.points.tolist() == [z]
        assert ls.weights.tolist() == [1.0]

    @pytest.mark.parametrize("zeros", ((0.3 + 0.2j, -0.5j), (0.1, 0.4j, -0.5 + 0.1j)),
                             ids=("2 zeros", "3 zeros"))
    def test_expectation_of_unweighted_area(self, zeros, rng):
        # The 1/|phi'|^2 weights make E the conditional expectation of dA:
        # int E(f) conj(g o phi) dA = int f conj(g o phi) dA. Weights of dA_alpha
        # miss it by 2e-2 at alpha = 0.1, uniform ones by 0.5; at 3 zeros the
        # rule errs by 1.3e-7 at the kinks E has where level-set roots merge.
        phi = BlaschkeProduct(zeros)
        rule = build_quadrature(0.0, 128, 256)
        for _ in range(3):
            f, g = (Polynomial.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
                    for _ in range(2))
            g_phi = np.conj(g(phi(rule.nodes)))
            lhs = np.sum(rule.weights * cond_expect_values(phi, f, rule.nodes) * g_phi)
            rhs = np.sum(rule.weights * f(rule.nodes) * g_phi)
            assert abs(lhs - rhs) <= 1e-6 * np.sum(rule.weights * np.abs(f(rule.nodes) * g_phi))

    @pytest.mark.parametrize("zeros", ((0.3 + 0.1j, -0.2), (0.1, 0.4j, -0.5 + 0.1j)),
                             ids=("2 zeros", "3 zeros"))
    def test_closed_form_below_four_zeros(self, zeros, monkeypatch):
        # The critical values are solved once per map (``polyroots``, an
        # eigen-solve), before the patch; the level sets of the nodes are not.
        nodes = build_quadrature(0.0, 16, 32).nodes
        phi = BlaschkeProduct(zeros)
        want = cond_expect_values(BlaschkeProduct(zeros), np.exp, nodes)
        assert len(phi.critical_values) == len(zeros) - 1

        def refuse(a):
            raise AssertionError("eigvals called")
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert np.array_equal(cond_expect_values(phi, np.exp, nodes), want)

    def test_four_zeros_reach_eigvals(self, monkeypatch):
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or original(a))
        nodes = build_quadrature(0.0, 16, 32).nodes
        cond_expect_values(BlaschkeProduct((0.1, 0.4j, -0.5 + 0.1j, 0.2 - 0.3j)), np.exp, nodes)
        # One solve for the nodes, then one, once per map, for its 6 critical points.
        assert calls == [(nodes.size, 3, 3), (6, 6)]

    def test_critical_level_set_refused(self):
        phi = BlaschkeProduct(CRITICAL_ZEROS)
        for c in critical_points(phi):
            with pytest.raises(CriticalPointError, match=re.escape(str(c))):
                cond_expect_values(phi, lambda w: w**2 + 1, np.array([c]))
        # A base point that is not critical, whose level set holds the double zero 0.
        with pytest.raises(CriticalPointError):
            cond_expect_values(BlaschkeProduct((0.0, 0.0, 0.5)), np.exp, np.array([0.5 + 0j]))

    def test_near_a_critical_point_is_f_there(self):
        # The level set through c + 1e-7 holds two roots 1e-7 apart, both near c.
        phi = BlaschkeProduct(CRITICAL_ZEROS)
        c = critical_points(phi)[0]
        got = cond_expect_values(phi, lambda w: w**2 + 1, np.array([c + 1e-7]))
        assert abs(got[0] - (c**2 + 1)) <= 1e-6

    def test_certify_refuses_an_atom_at_a_critical_point(self):
        phi = BlaschkeProduct(CRITICAL_ZEROS)
        config = CertifyConfig(family=FamilySpec(kernel_radii=(0.0, 0.5, 0.75), n_dirs=4,
                                                 random_count=4))
        for c in critical_points(phi):
            rep = certify(Atomic(np.array([c]), np.array([1.0])), SpaceParams(2.0, 0.0), 1.0,
                          phi, config)
            assert rep.verdict == "error"
            assert rep.failure["stage"] == "test_constant"
            assert rep.failure["error"] == "CriticalPointError"

    def test_derivative_taken_once_per_solve(self, monkeypatch):
        calls = []
        original = BlaschkeProduct.derivative
        monkeypatch.setattr(BlaschkeProduct, "derivative",
                            lambda phi, z: calls.append(np.shape(z)) or original(phi, z))
        nodes = build_quadrature(0.0, 16, 32).nodes
        cond_expect_values(BlaschkeProduct((0.1, 0.4j, -0.5 + 0.1j)), np.exp, nodes)
        assert calls == [(nodes.size, 3)]


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


class TestRotationOrbit:
    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_roots_of_unity(self, n, rng):
        orbit = rotation_orbit(Monomial(n))
        assert orbit.shape == (n,) and orbit[0] == 1.0
        assert np.abs(orbit**n - 1.0).max() < 1e-14
        assert len(np.unique(np.round(np.angle(orbit), 12))) == n
        zs = sample_disk(rng, 10, rmax=0.9)
        assert np.abs(Monomial(n)(orbit[:, None] * zs) - Monomial(n)(zs)).max() < 1e-14

    @pytest.mark.parametrize("phi", (Identity(), BlaschkeProduct((0.3 + 0.1j, -0.2))),
                             ids=("identity", "blaschke"))
    def test_other_maps_have_none(self, phi):
        with pytest.raises(ConfigurationError, match="monomial self-map"):
            rotation_orbit(phi)


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
