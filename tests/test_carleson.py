"""Transform identities, sup diagnostics, and the three-constant certification."""

import functools
import json
import tracemalloc
from dataclasses import replace
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bergmanlab import carleson, condexp, geometry, lattice, measures
from bergmanlab.carleson import (
    CertifyConfig,
    FamilySpec,
    PsiGridSpec,
    build_family,
    certify,
    disk_bound,
    disk_constant,
    cached_lattice,
    psi_heatmap,
    psi_sup,
    psi_transform,
    reference_disk_constant,
)
from bergmanlab.carleson import test_constant as family_constant
from bergmanlab.condexp import BlaschkeProduct, Identity, Monomial, cond_expect_values
from bergmanlab.errors import ConfigurationError, EvaluationError
from bergmanlab.geometry import SpaceParams
from bergmanlab.geometry import test_function as kernel_power
from bergmanlab.measures import (
    Atomic,
    GridDensity,
    Measure,
    Polynomial,
    PolyWeighted,
    QuadConfig,
    RadialDensity,
    SumMeasure,
    WeightedArea,
    bergman_norm,
    build_quadrature,
    integrate,
    measure_of_disk,
)

from conftest import BrokenPsi, sample_disk

# reduced sizes for unit tests: the kernel grid is capped to what the reduced
# angular resolution integrates to full accuracy
CHEAP = CertifyConfig(
    quad=QuadConfig(96, 192),
    psi_grid=PsiGridSpec(4, 9, 8),
    family=FamilySpec(kernel_radii=(0.0, 0.5, 0.75, 0.875), n_dirs=4, random_count=8),
    lattice_epsilon=0.01,
)


class TestPsiTransform:
    def test_at_origin_gives_total_mass(self, small_quad):
        for mu in (WeightedArea(0.5), RadialDensity(1.0), Atomic.from_atoms([(0.3, 2.0)]),
                   PolyWeighted(Polynomial.from_coeffs([1, 0.5]), 2.0, 0.0)):
            got = psi_transform(mu, 0.0, 0.7)
            assert abs(got - mu.total_mass(small_quad)) < 1e-10

    @pytest.mark.parametrize("alpha", (-0.5, 0.0, 1.0))
    def test_reference_measure_is_flat(self, alpha, rng):
        deep = [rho * u for rho in 1.0 - 2.0 ** -np.arange(1, 31) for u in (1, -1j)]
        for a in list(sample_disk(rng, 12, rmax=0.97)) + deep:
            assert abs(psi_transform(WeightedArea(alpha), a, alpha) - 1.0) < 1e-12

    def test_atomic_closed_form(self):
        mu = Atomic.from_atoms([(0.9, 1.0)])
        # ((1 - 0.81)/(1 - 0.81)^2)^2 = (1/0.19)^2
        got = psi_transform(mu, 0.9, 0.0)
        assert abs(got - 1.0 / 0.19**2) < 1e-12

    def test_two_code_paths_agree(self, rng):
        # closed-form / pullback path vs direct integration of the test function
        quad = QuadConfig(128, 256)
        measures = [
            WeightedArea(0.5),
            RadialDensity(0.25, 1.3),
            PolyWeighted(Polynomial.from_coeffs([1.0, 0.5]), 2.0, 0.0),
            PolyWeighted(Polynomial.from_coeffs([1.0, -1.0]), 4.0, 0.5),
            PolyWeighted(Polynomial.from_coeffs([1.0, 0.5j, -0.3]), 3.0, 0.25),
            Atomic.from_atoms([(0.4, 1.0), (-0.2j, 0.5)]),
            SumMeasure((WeightedArea(0.0), Atomic.from_atoms([(0.1, 1.0)]))),
        ]
        params = SpaceParams(p=2.0, alpha=0.5)
        for mu in measures:
            for a in sample_disk(rng, 6, rmax=0.8):
                a = complex(a)
                smart = psi_transform(mu, a, params.alpha)
                direct = integrate(
                    mu, lambda z: np.abs(kernel_power(a, z, params)) ** params.p, quad)
                assert abs(smart - direct) < 1e-9

    def test_general_exponent(self):
        # t = 1: int (1-|a|^2)/|1-conj(a) z|^2 dA(z) has closed form
        # (1-|a|^2) * sum_k |a|^(2k)/(k+1) = ((1-x)/x) * (-log(1-x)), x = |a|^2
        a = 0.6
        x = a * a
        expected = (1 - x) / x * (-np.log1p(-x))
        got = psi_transform(WeightedArea(0.0), a, 0.0, t=1.0)
        assert abs(got - expected) < 1e-12

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            psi_transform(WeightedArea(0.0), 0.1, 0.0, t=-1.0)

    @pytest.mark.parametrize("a", (1.5, 1.0, -1j, complex("nan")))
    def test_point_outside_disk_rejected(self, a):
        with pytest.raises(ConfigurationError, match="open unit disk"):
            psi_transform(WeightedArea(0.0), a, 0.0)

    def test_depth_past_point_margin_accepted(self):
        # 1 - 2^-50 lies inside the disk but past as_disk_point's 1e-14 margin
        assert abs(psi_transform(WeightedArea(0.0), 1.0 - 2.0**-50, 0.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("gamma, t", [
        (0.0, 2.0), (-0.5, 2.0), (1.0, 2.5), (0.3, 1.2), (-0.5, 3.0),
        (1.0, 1.0), (0.0, 0.5), (-0.75, 0.3), (0.0, 1.0),
        # gamma + 2 - 2 (gamma + 2 - t) is within rounding of 1 without being 1
        (1.1, 2.05), (1.4, 2.2), (1.9, 2.45),
    ])
    def test_radial_matches_hypergeometric_oracle(self, gamma, t):
        # Euler's integral of the angular average 2F1(t, t; 1; x rho^2) against
        # (1 - rho^2)^gamma, evaluated by mpmath at 40 digits. Off the real axis
        # |a|^2 is not a double, and its rounding is what 1 - |a|^2 must not see.
        scale = 1.3
        mu = RadialDensity(gamma, scale)
        c = gamma + 2
        # c - 2 min(t, c - t) < 1: 2F1 has an unbounded derivative at 1, and the
        # second-order remainder of the rounding of x is left
        tol = 1e-12 if c - 2 * min(t, c - t) >= 1 else 1e-10
        with mpmath.workdps(40):
            for k in range(1, 41):
                r = 1.0 - 2.0**-k
                for a in (r, r * np.exp(0.3j), r * np.exp(2.1j)):
                    a = complex(a)
                    x = mpmath.mpf(a.real) ** 2 + mpmath.mpf(a.imag) ** 2
                    want = scale / (gamma + 1) * (1 - x) ** t * mpmath.hyp2f1(t, t, c, x)
                    got = psi_transform(mu, a, 0.0, t=t)
                    assert abs(got / want - 1) < tol, (k, a, got, want)

    def test_measure_without_psi_raises(self):
        class DirectOnly(Measure):
            def integrate(self, g, quad=None):
                return WeightedArea(0.0).integrate(g)

        with pytest.raises(NotImplementedError):
            psi_transform(DirectOnly(), 0.5, 0.0)


@functools.cache
def _hyp3f2_term(t, d, j, beta, re, im):
    """3F2(t, t+d, j+1; d+1, j+beta+2; |a|^2) at 40 digits, |a|^2 exact for a = re + i im."""
    with mpmath.workdps(40):
        x = mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2
        return mpmath.hyp3f2(t, t + d, j + 1, d + 1, j + beta + 2, x)


def hyp3f2_psi(u_coeffs, p, beta, t, a):
    """Psi_a(|u|^p dA_beta) at even p from the 3F2 of each pair of monomials of u^(p/2).

    |u^(p/2)|^2 = sum c_j conj(c_k) z^j conj(z)^k, and for d = j - k >= 0 the pair
    contributes (1-x)^t w Re[c_j conj(c_k) a^d] (t)_d/d! (beta+1) B(j+1, beta+1)
    3F2(t, t+d, j+1; d+1, j+beta+2; x) with w = 1 on the diagonal and 2 off it.
    """
    coeffs = np.ones(1, dtype=complex)
    for _ in range(p // 2):
        coeffs = np.convolve(coeffs, u_coeffs)
    with mpmath.workdps(40):
        centre = mpmath.mpc(a.real, a.imag)
        x = mpmath.mpf(a.real) ** 2 + mpmath.mpf(a.imag) ** 2
        total = mpmath.mpf(0)
        for j, cj in enumerate(coeffs):
            for k in range(j + 1):
                pair = mpmath.mpc(cj) * mpmath.conj(mpmath.mpc(coeffs[k]))
                if pair == 0:
                    continue
                d = j - k
                total += ((1 if d == 0 else 2) * mpmath.re(pair * centre**d)
                          * mpmath.rf(t, d) / mpmath.factorial(d)
                          * (beta + 1) * mpmath.beta(j + 1, beta + 1)
                          * _hyp3f2_term(t, d, j, beta, a.real, a.imag))
        return (1 - x) ** t * total


ORACLE_SYMBOLS = {"z": [0, 1], "z^2": [0, 0, 1], "1+z/2": [1, 0.5], "1-z": [1, -1]}


class TestPolyWeightedClosedForm:
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0)])
    def test_matches_hyp3f2_oracle(self, alpha, beta):
        t = 2.0 + alpha
        for name, coeffs in ORACLE_SYMBOLS.items():
            for p in (2, 4):
                mu = PolyWeighted(Polynomial.from_coeffs(coeffs), float(p), beta)
                for k in (1, 3, 7, 40):
                    a = complex((1.0 - 2.0**-k) * np.exp(0.3j))
                    want = hyp3f2_psi(np.array(coeffs, dtype=complex), p, beta, t, a)
                    got = psi_transform(mu, a, alpha)
                    assert abs(got / want - 1) < 1e-12, (name, p, k, got, want)

    @pytest.mark.parametrize("alpha, beta", [(0.05, 0.1), (0.2, 0.4), (0.35, 0.7)])
    def test_matches_hyp3f2_oracle_where_c_minus_a_minus_b_is_nearly_an_integer(
            self, alpha, beta):
        # c - a - b of the Euler-transformed 2F1 is 2t + d + i - c, within
        # rounding of an integer at these pairs, where scipy's 2F1 alone is inf.
        t = 2.0 + alpha
        for name, coeffs in ORACLE_SYMBOLS.items():
            for p in (2, 4):
                mu = PolyWeighted(Polynomial.from_coeffs(coeffs), float(p), beta)
                for k in (1, 3, 7, 12, 40):
                    a = complex((1.0 - 2.0**-k) * np.exp(0.3j))
                    want = hyp3f2_psi(np.array(coeffs, dtype=complex), p, beta, t, a)
                    got = psi_transform(mu, a, alpha)
                    assert abs(got / want - 1) < 1e-11, (name, p, k, got, want)

    @pytest.mark.parametrize("alpha", (0.0, 1.0))
    def test_radial_identity(self, alpha):
        # |z|^2 dA_1 = 2 (1-|z|^2) dA - 2 (1-|z|^2)^2 dA
        mu = PolyWeighted(Polynomial.from_coeffs([0, 1]), 2.0, 1.0)
        for k in range(1, 41):
            for a in ((1.0 - 2.0**-k) * np.exp(0.3j), 1.0 - 2.0**-k):
                want = (psi_transform(RadialDensity(1.0, 2.0), a, alpha)
                        - psi_transform(RadialDensity(2.0, 2.0), a, alpha))
                assert psi_transform(mu, a, alpha) == pytest.approx(want, rel=1e-12), k

    @pytest.mark.parametrize("p", (2.0, 4.0, 3.0))
    def test_constant_symbol_is_radial(self, p, rng):
        c = 0.7 - 0.2j
        mu = PolyWeighted(Polynomial.from_coeffs([c]), p, 0.5)
        radial = RadialDensity(0.5, abs(c) ** p * 1.5)
        deep = (1.0 - 2.0 ** -np.arange(1, 41)) * np.exp(0.3j)
        centers = np.concatenate([sample_disk(rng, 20), deep])
        for t in (2.5, 1.0):
            got, want = mu.psi(centers, t), radial.psi(centers, t)
            assert np.all(np.abs(got - want) <= 1e-13 * want)


def array_psi_measures(quad):
    rule = build_quadrature(0.0, quad.n_radial, quad.n_angular)
    atoms = Atomic.from_atoms([(0.0, 1.0), (0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.985, 2.0)])
    return {
        "area": WeightedArea(0.5),
        "radial": RadialDensity(-0.5, 2.0),
        "polyweighted": PolyWeighted(Polynomial.from_coeffs([1, 0.5j, -0.3]), 2.0, 0.25),
        "pullback": PolyWeighted(Polynomial.from_coeffs([1, 0.5j, -0.3]), 3.0, 0.25),
        "atomic": atoms,
        "grid": GridDensity.from_function(rule, lambda z: np.abs(1.0 + 0.5j * z) ** 2),
        "sum": SumMeasure((RadialDensity(1.0), atoms,
                           PolyWeighted(Polynomial.from_coeffs([0, 1]), 4.0, 0.0))),
    }


ARRAY_PSI_MEASURES = ("area", "radial", "polyweighted", "pullback", "atomic", "grid", "sum")


class TestArrayPsi:
    @pytest.mark.parametrize("name", ARRAY_PSI_MEASURES)
    def test_array_matches_scalar_calls(self, name, rng, small_quad):
        mu = array_psi_measures(small_quad)[name]
        centers = np.concatenate([[0.0, 1.0 - 2.0**-30, -0.99j, 0.99 * np.exp(2.0j)],
                                  0.7 * np.exp(2j * np.pi * np.arange(12) / 12),
                                  sample_disk(rng, 40)])
        for t in (2.0, 2.5):
            got = mu.psi(centers, t)
            want = np.array([psi_transform(mu, a, t - 2.0) for a in centers])
            assert got.shape == centers.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name
            # Each odd-p value depends on its own centre alone.
            assert name != "pullback" or np.array_equal(got, want)

    @pytest.mark.parametrize("name", ARRAY_PSI_MEASURES)
    def test_shape_follows_input(self, name, rng, small_quad):
        mu = array_psi_measures(small_quad)[name]
        centers = sample_disk(rng, 6).reshape(2, 3)
        got = mu.psi(centers, 2.0)
        assert got.shape == (2, 3)
        assert got[1, 2] == pytest.approx(mu.psi(centers[1, 2], 2.0), rel=1e-13)
        assert type(mu.psi(0.3 - 0.2j, 2.0)) is float
        assert mu.psi(np.empty(0, dtype=complex), 2.0).shape == (0,)

    def test_one_call_per_sup_and_heatmap(self, monkeypatch, small_quad):
        mu = array_psi_measures(small_quad)["pullback"]
        calls = []
        original = PolyWeighted.psi

        def counting(self, a, t, y=None):
            values = original(self, a, t, y)
            calls.append((a, y, values))
            return values
        monkeypatch.setattr(PolyWeighted, "psi", counting)
        grid = PsiGridSpec(4, 6, 4)
        psi_sup(mu, 0.0, grid=grid)
        assert [np.size(a) for a, _, _ in calls] == [1 + 6 * 4]
        rows = psi_heatmap(mu, 0.0, n_radial=3, n_angular=5)
        assert [np.size(a) for a, _, _ in calls] == [1 + 6 * 4, 1 + 2 * 5]
        assert [psi for _, _, psi in rows] == list(calls[1][2])
        # Each value is that of its centre alone, with its ring's y.
        rings = (np.repeat(grid.radii(), [1] + [4] * 6),
                 np.repeat(np.linspace(0.0, 0.96, 3), [1, 5, 5]))
        for (a, y, values), rho in zip(calls, rings):
            assert np.array_equal(y, (1.0 - rho) * (1.0 + rho))
            assert np.array_equal(values, [original(mu, c, 2.0, y_c) for c, y_c in zip(a, y)])

    def test_one_fourier_group_per_ring(self, monkeypatch, small_quad):
        # Each ring's centres share one exact 1 - |a|^2, and so one set of mode sums.
        mu = array_psi_measures(small_quad)["pullback"]
        calls = []
        original = measures._mode_sums

        def counting(*args):
            calls.append(args[4])
            return original(*args)
        monkeypatch.setattr(measures, "_mode_sums", counting)
        grid = PsiGridSpec(n_dirs=16)
        psi_sup(mu, 0.0, grid=grid)
        assert len(calls) == len(grid.radii()) == 11
        calls.clear()
        psi_heatmap(mu, 0.0, n_radial=4, n_angular=16)
        assert len(calls) == 4

    def test_sup_rejects_grid_on_the_circle(self):
        with pytest.raises(ConfigurationError, match="open unit disk"):
            psi_sup(WeightedArea(0.0), 0.0, grid=PsiGridSpec(4, 54, 4))

    def test_sup_reaches_the_last_level_below_the_circle(self):
        grid = PsiGridSpec(4, 53, 4)
        for mu in (WeightedArea(0.0), RadialDensity(-0.25), Atomic.from_atoms([(0.5, 1.0)]),
                   PolyWeighted(Polynomial.from_coeffs([1, 0.5j]), 3.0, 0.0)):
            res = psi_sup(mu, 0.0, grid=grid)
            assert np.isfinite(res.sup) and res.level_maxima[-1][0] == 53, mu


class TestPsiSup:
    def test_flat_reference(self):
        res = psi_sup(WeightedArea(0.0), 0.0, grid=PsiGridSpec(4, 9, 8))
        assert abs(res.sup - 1.0) < 1e-7
        assert abs(res.slope) < 0.01
        assert res.verdict == "bounded"

    def test_divergent_radial(self):
        res = psi_sup(RadialDensity(-0.5), 0.0, grid=PsiGridSpec(4, 10, 8))
        assert res.verdict == "divergent"
        assert -0.7 < res.slope < -0.3

    def test_atomic_sup_near_atom(self):
        mu = Atomic.from_atoms([(0.9, 1.0)])
        res = psi_sup(mu, 0.0, grid=PsiGridSpec(4, 10, 12))
        # the grid does not contain the atom exactly; the sup lands nearby
        assert 25.0 < res.sup < 1.0 / 0.19**2 + 1e-9
        assert abs(res.argmax - 0.9) < 0.05
        assert res.verdict == "bounded"

    def test_level_maxima_monotone(self):
        res = psi_sup(RadialDensity(-0.25), 0.0, grid=PsiGridSpec(4, 9, 4))
        vals = [v for _, v in res.level_maxima]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma, alpha", [(-0.5, 0.0), (-0.2, 0.0), (0.8, 1.0), (-0.7, -0.5)])
    def test_more_levels_keep_divergence(self, gamma, alpha):
        # gamma - alpha <= -0.2: deeper grids must never move the verdict to bounded
        for j_max in range(10, 31):
            res = psi_sup(RadialDensity(gamma), alpha, grid=PsiGridSpec(4, j_max, 4))
            assert res.verdict == "divergent", j_max
            assert res.slope < -0.15, j_max

    def test_zero_measure(self):
        res = psi_sup(RadialDensity(0.0, scale=0.0), 0.0, grid=PsiGridSpec(4, 6, 4))
        assert res.sup == 0.0
        assert res.verdict == "bounded"

    def test_heatmap_rows(self):
        rows = psi_heatmap(WeightedArea(0.0), 0.0, n_radial=5, n_angular=8)
        assert len(rows) == 1 + 4 * 8
        assert all(abs(psi - 1.0) < 1e-8 for _, _, psi in rows)


class TestCaches:
    def test_bounded(self):
        for cached in (build_quadrature, cached_lattice, carleson._reference_disk_constant,
                       carleson._poly_norms, measures._kernel_rule):
            assert cached.cache_info().maxsize is not None

    def test_warm_up_and_certify_share_the_reference_disk_constant(self):
        # The benchmark's warm-up passes a QuadConfig, certify none; disk masses read no rule.
        lat = cached_lattice(1.0, 0.03)
        carleson._reference_disk_constant.cache_clear()
        warmed = reference_disk_constant(0.25, 1.0, lat, QuadConfig(64, 128))
        assert reference_disk_constant(0.25, 1.0, lat) == warmed
        info = carleson._reference_disk_constant.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_polyweighted_weights_once_per_key_and_bounded(self, monkeypatch, small_quad):
        # |u|^p on the default 256 x 512 rule is 1 MB: the cache holds a few
        cache = measures._weight_on_rule
        assert cache.cache_info().maxsize * 256 * 512 * 8 <= 4 * 2**20
        cache.cache_clear()
        u = Polynomial.from_coeffs([1.0, 0.25 - 0.5j])
        evaluations = []
        original = Polynomial.__call__

        def counting(self, z):
            evaluations.append(np.size(z))
            return original(self, z)
        monkeypatch.setattr(Polynomial, "__call__", counting)
        mu = PolyWeighted(u, 3.0, 0.5)
        first = mu.integrate(lambda z: np.abs(z) ** 2, small_quad)
        for _ in range(3):
            assert mu.integrate(lambda z: np.abs(z) ** 2, small_quad) == first
        assert len(evaluations) == 1
        for key in range(2 * cache.cache_info().maxsize):
            PolyWeighted(u, 2.0 + key, 0.5).integrate(1.0, small_quad)
        assert cache.cache_info().currsize == cache.cache_info().maxsize


class TestDiskConstant:
    def test_reference_measure_value(self):
        # ratio at the origin is exactly tanh(r)^2 and is the maximum
        lat = cached_lattice(1.0, 0.03)
        res = disk_constant(WeightedArea(0.0), 0.0, 1.0, lat)
        assert abs(res.c2 - np.tanh(1.0) ** 2) < 1e-9
        assert res.argmax_index == 0

    def test_linear_in_measure(self):
        lat = cached_lattice(1.0, 0.03)
        mu = RadialDensity(0.5)
        a = disk_constant(mu, 0.0, 1.0, lat).c2
        b = disk_constant(mu.scaled(2.0), 0.0, 1.0, lat).c2
        assert b == 2.0 * a

    def test_atom_outside_every_disk(self):
        lat = cached_lattice(1.0, 0.03)
        mu = Atomic.from_atoms([(0.9999, 1.0)])
        res = disk_constant(mu, 0.0, 1.0, lat)
        assert res.c2 == 0.0

    def test_mismatched_radius_rejected(self):
        lat = cached_lattice(1.0, 0.03)
        with pytest.raises(ConfigurationError):
            disk_constant(WeightedArea(0.0), 0.0, 0.5, lat)

    def test_equal_ring_ties_go_to_the_lowest_index(self):
        # The atom lies in six disks of the ring |a| = 0.96402758..., points 88
        # to 90 and 249 to 251. With one y per ring their ratios tie exactly;
        # with each point's own 1 - |a|^2 they differed in the last bit, and the
        # argmax was 250.
        lat = cached_lattice(1.0, 0.01)
        res = disk_constant(Atomic.from_atoms([(0.9, 1.0)]), 0.0, 1.0, lat)
        assert res.argmax_index == 88
        ring = lat.y[[88, 89, 90, 249, 250, 251]]
        assert np.all(ring == ring[0])
        assert len(np.unique(lat.y)) == 6 < len(np.unique(geometry.one_minus_modulus_sq(lat.points)))

    def test_bound_matches_mpmath_to_the_validated_depth(self):
        # With 1 - |a|^2 formed from the rounded |a|, it was off by 1.0e-4 at 2^-40.
        for k in range(1, 41):
            a = (1.0 - 2.0**-k) * np.exp(0.3j)
            with mpmath.workdps(40):
                ma = mpmath.mpc(a.real, a.imag)
                s = mpmath.mpf(np.tanh(1.0))
                want = float(((1 - abs(ma) ** 2) / (1 - s * abs(ma)) ** 2) ** mpmath.mpf(2.5))
            assert disk_bound(a, 1.0, 0.5) == pytest.approx(want, rel=1e-13, abs=0), k

    def test_bound_formula(self):
        assert abs(disk_bound(0.0, 1.0, 0.0) - 1.0) < 1e-15
        s = np.tanh(1.0)
        expected = ((1 - 0.25) / (1 - 0.5 * s) ** 2) ** 2
        assert abs(disk_bound(0.5, 1.0, 0.0) - expected) < 1e-12


class InflatedDisks(RadialDensity):
    """A radial density whose disk masses are ten times too large."""

    def _disk_masses(self, centers, y, r):
        return 10.0 * super()._disk_masses(centers, y, r)


def disk_ratio_over_psi(mu, a, r, alpha):
    """mu(D(a, r)) / disk_bound(a, r, alpha) over Psi_a(2 + alpha), asserted <= 1.

    On D(a, r), 1 - conj(a) z = y / (1 - conj(a) w) with |w| < tanh(r), so
    |1 - conj(a) z| <= y / (1 - tanh(r)|a|) and the kernel power
    (y / |1 - conj(a) z|^2)^(2+alpha) is at least 1 / disk_bound(a, r, alpha)
    there: Psi_a(2 + alpha) >= mu(D(a, r)) / disk_bound(a, r, alpha), with
    constant 1, for every measure.
    """
    ratio = measure_of_disk(mu, a, r) / disk_bound(a, r, alpha)
    psi = mu.psi(a, 2.0 + alpha)
    assert ratio <= psi * (1.0 + 1e-12), (mu, a, r, alpha, ratio, psi)
    return ratio / psi if psi > 0 else 0.0


@st.composite
def disk_test_measures(draw, atoms_allowed=True):
    kind = draw(st.sampled_from(("radial", "area", "poly", "atoms", "sum")
                                if atoms_allowed else ("radial", "area", "poly")))
    if kind == "radial":
        return RadialDensity(draw(st.floats(-0.9, 3.0)), draw(st.floats(0.1, 5.0)))
    if kind == "area":
        return WeightedArea(draw(st.floats(-0.9, 3.0)))
    if kind == "poly":
        coeffs = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False),
                               min_size=1, max_size=3))
        assume(any(c != 0 for c in coeffs))
        return PolyWeighted(Polynomial.from_coeffs(coeffs), draw(st.sampled_from((2.0, 4.0, 3.0))),
                            draw(st.floats(-0.5, 2.0)))
    if kind == "atoms":
        points = draw(st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 2 * np.pi),
                                         st.floats(0.01, 3.0)), min_size=1, max_size=6))
        return Atomic.from_atoms([(rho * np.exp(1j * th), m) for rho, th, m in points])
    return SumMeasure((draw(disk_test_measures(atoms_allowed=False)),
                       draw(disk_test_measures())))


class TestDiskRatioBelowPsi:
    """C2's disk ratio never exceeds Psi at the same centre: an oracle that
    needs neither the series nor a rule."""

    @settings(max_examples=60, deadline=None)
    @given(mu=disk_test_measures(), r=st.floats(0.05, 1.0, exclude_min=True),
           depth=st.floats(1.0, 20.0), theta=st.floats(0.0, 2 * np.pi),
           alpha=st.floats(-0.5, 1.0))
    def test_disk_ratio_at_most_psi(self, mu, r, depth, theta, alpha):
        a = (1.0 - 2.0**-depth) * np.exp(1j * theta)
        try:
            disk_ratio_over_psi(mu, a, r, alpha)
        except EvaluationError:  # the Fourier path's refusal near a zero of u on the circle
            assume(False)

    def test_inflated_disk_masses_are_caught(self):
        honest, inflated = RadialDensity(0.0), InflatedDisks(0.0)
        worst = max(disk_ratio_over_psi(honest, a, 1.0, 0.0) for a in (0.0, 0.5, 0.9j))
        assert 0.5 < worst < 1.0
        with pytest.raises(AssertionError):
            disk_ratio_over_psi(inflated, 0.0, 1.0, 0.0)


class TestTestConstant:
    def test_reference_measure_gives_one(self, small_quad):
        params = SpaceParams(2.0, 0.0)
        res = family_constant(WeightedArea(0.0), params, Identity(),
                            FamilySpec(kernel_radii=(0.0, 0.5, 0.75), n_dirs=4,
                                       random_count=6), small_quad)
        assert abs(res.c1 - 1.0) < 1e-9

    def test_zero_measure(self, small_quad):
        params = SpaceParams(2.0, 0.0)
        res = family_constant(RadialDensity(0.0, scale=0.0), params, Identity(),
                            FamilySpec(n_dirs=4, random_count=4), small_quad)
        assert res.c1 == 0.0

    def test_expectation_annihilates_odd_monomials(self, small_quad):
        params = SpaceParams(2.0, 0.0)
        res = family_constant(WeightedArea(0.0), params, Monomial(2),
                            FamilySpec(kernel_radii=(), random_count=0,
                                       monomial_degree=5), small_quad)
        for m in (1, 3, 5):
            assert res.ratios[f"monomial:z^{m}"] < 1e-20
        for m in (0, 2, 4):
            assert res.ratios[f"monomial:z^{m}"] > 0.1

    def test_empty_family_rejected(self, small_quad):
        with pytest.raises(ConfigurationError):
            build_family(FamilySpec(kernel_radii=(), random_count=0), SpaceParams(2.0, 0.0))

    def test_kernel_family_matches_psi(self, small_quad):
        # for the identity map the kernel-member ratios are transform values
        params = SpaceParams(2.0, 0.0)
        mu = RadialDensity(0.5)
        fam = FamilySpec(kernel_radii=(0.0, 0.5, 0.75), n_dirs=4, random_count=0)
        res = family_constant(mu, params, Identity(), fam, small_quad)
        centers = [m.kernel_center for m in build_family(fam, params)]
        sup_psi = max(psi_transform(mu, a, params.alpha) for a in centers)
        assert abs(res.c1 - sup_psi) < 1e-6


def reference_test_constant(mu, params, phi, family, quad, norm=bergman_norm):
    """The per-member loop the sweep replaced: one integral and one norm per member.

    Under a map of multiplicity 1, E is the identity and a kernel member's
    ratio is the exact Psi_a(mu) at t = 2 + alpha, one ``psi_transform`` call
    per centre. Each polynomial member's norm is ``norm(f, params, quad)``,
    by default its quadrature on the rule, which is exact for polynomials.
    """
    ratios = {}
    for member in build_family(family, params):
        if member.kernel_center is not None and phi.multiplicity == 1:
            ratios[member.label] = psi_transform(mu, member.kernel_center, params.alpha)
            continue
        if isinstance(phi, Identity):
            ef = member.func
        elif isinstance(phi, Monomial):
            orbit = np.exp(2j * np.pi * np.arange(phi.n) / phi.n)
            ef = lambda z, f=member.func: np.mean([f(z * w) for w in orbit], axis=0)
        else:
            ef = lambda z, f=member.func: cond_expect_values(phi, f, z)
        num = float(mu.integrate(lambda z: np.abs(ef(z)) ** params.p, quad))
        size = 1.0 if member.kernel_center is not None else norm(member.func, params, quad)
        ratios[member.label] = num / size ** params.p
    return ratios


SWEEP_FAMILY = FamilySpec(kernel_radii=(0.0, 0.5, 0.875), n_dirs=8, random_count=4,
                          random_degree=4)


def sweep_norms(family, params, quad):
    """The sweep's own polynomial norms, as a ``norm`` for ``reference_test_constant``."""
    polys = [poly for _, poly in carleson._family_polys(family)]
    norms = dict(zip(polys, carleson._poly_norms(family, params.p, params.alpha, quad)))
    return lambda f, params, quad: norms[f]


def sweep_measures(quad):
    rule = build_quadrature(0.0, quad.n_radial, quad.n_angular)
    return {
        "radial": RadialDensity(0.5),
        # Neither radial nor symmetric under z -> conj(z), which maps direction
        # k onto n_dirs - k, so a roll in the wrong direction changes the ratios.
        "polyweighted": PolyWeighted(Polynomial.from_coeffs([1, 0.5j]), 2.0, 0.0),
        "grid": GridDensity.from_function(rule, lambda z: np.abs(1.0 + 0.5j * z) ** 2),
        "radial+atoms": SumMeasure((RadialDensity(1.0),
                                    Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25)]))),
    }


class TestFamilySweep:
    # 8 directions divide 128 angles but not 100; z^2 divides both, z^3 neither
    @pytest.mark.parametrize("quad", (QuadConfig(64, 128), QuadConfig(64, 100)),
                             ids=("divides", "does-not-divide"))
    @pytest.mark.parametrize("phi", (Identity(), Monomial(2), Monomial(3),
                                     BlaschkeProduct((0.3 + 0.1j, -0.2))),
                             ids=("identity", "z^2", "z^3", "blaschke"))
    def test_matches_per_member_reference(self, phi, quad):
        # Under z^n at even p the kernel members of the radial and polynomial
        # weights are exact series sums, not quadratures on ``quad``; the
        # coarse rules are off from those by up to 8e-6, and the default rule
        # is not, so those members are compared with the reference on it.
        params = SpaceParams(2.0, 0.5)
        for name, mu in sweep_measures(quad).items():
            got = family_constant(mu, params, phi, SWEEP_FAMILY, quad).ratios
            want = reference_test_constant(mu, params, phi, SWEEP_FAMILY, quad)
            if isinstance(phi, Monomial) and name in ("radial", "polyweighted"):
                fine = reference_test_constant(mu, params, phi, SWEEP_FAMILY, measures.DEFAULT_QUAD)
                want.update((label, fine[label]) for label in want if label.startswith("kernel"))
            assert list(got) == list(want)
            for label, value in want.items():
                assert abs(got[label] - value) <= 1e-12 * abs(value), (name, label)

    @pytest.mark.parametrize("name, solves", (("polyweighted", 1), ("atomic", 1), ("grid", 1),
                                              ("radial+atoms", 2)))
    def test_blaschke_level_sets_solved_once_per_node_array(self, name, solves, monkeypatch):
        # Every member averages over one solve per node array: the rule's
        # nodes, the atoms, or each part's of a sum.
        quad = QuadConfig(64, 128)
        atomic = Atomic.from_atoms([(0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.8, 1.0)])
        mu = {**sweep_measures(quad), "atomic": atomic}[name]
        phi = BlaschkeProduct((0.3 + 0.1j, -0.2))
        params = SpaceParams(2.0, 0.5)
        # With the sweep's exact norms the ratios compare the numerators bit for bit.
        want = reference_test_constant(mu, params, phi, SWEEP_FAMILY, quad,
                                       sweep_norms(SWEEP_FAMILY, params, quad))
        calls = []
        original = condexp._level_sets
        monkeypatch.setattr(condexp, "_level_sets",
                            lambda phi, zs: calls.append(zs) or original(phi, zs))
        got = family_constant(mu, params, phi, SWEEP_FAMILY, quad).ratios
        assert len(calls) == solves
        assert got == want

    def test_blaschke_members_go_through_cond_expect_values(self, monkeypatch):
        # One call per member, kernel or polynomial, all with the sweep's one dict.
        quad = QuadConfig(64, 128)
        calls = []
        original = condexp.cond_expect_values

        def counted(phi, f, zs, solved=None):
            calls.append(solved)
            return original(phi, f, zs, solved)
        monkeypatch.setattr(condexp, "cond_expect_values", counted)
        res = family_constant(RadialDensity(0.5), SpaceParams(2.0, 0.5),
                              BlaschkeProduct((0.3 + 0.1j, -0.2)), SWEEP_FAMILY, quad)
        assert len(calls) == len(res.ratios) == 21
        assert isinstance(calls[0], dict) and all(s is calls[0] for s in calls)

    def test_one_kernel_evaluation_per_ring(self, monkeypatch, small_quad):
        # Under the identity the kernel members are Psi values and under z^2
        # at p = 2 a radial density's are series sums: no kernel is evaluated
        # on the rule. Under z^2 at p = 3, and on a grid density's atoms at
        # p = 2, each of the 33 members is one evaluation on the nodes' orbits.
        calls = {}

        def counted(name):
            original = getattr(geometry, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("kernel_power_modulus", "test_function"):
            monkeypatch.setattr(geometry, name, counted(name))
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        grid = GridDensity.from_function(rule, lambda z: np.abs(1.0 + 0.5j * z) ** 2)
        for mu, phi, p, evaluations in ((RadialDensity(0.5), Identity(), 2.0, 0),
                                        (RadialDensity(0.5), Monomial(2), 2.0, 0),
                                        (RadialDensity(0.5), Monomial(2), 3.0, 33),
                                        (grid, Monomial(2), 2.0, 33)):
            calls.update(kernel_power_modulus=0, test_function=0)
            res = family_constant(mu, SpaceParams(p, 0.0), phi, FamilySpec(), small_quad)
            assert len([label for label in res.ratios if label.startswith("kernel")]) == 33
            assert calls == {"kernel_power_modulus": 0, "test_function": evaluations}, (phi, p)

    def test_kernel_quadrature_matches_psi_at_the_default_radii(self):
        # Kernel members rest on this quadrature of |f_a|^p under Blaschke
        # products, on atoms, and at odd or non-integer p; under z^n at even p
        # the members of radial and polynomial weights are series sums instead.
        params = SpaceParams(2.0, 0.5)
        centers = np.array([m.kernel_center for m in build_family(FamilySpec(), params)
                            if m.kernel_center is not None])
        for name, mu in sweep_measures(measures.DEFAULT_QUAD).items():
            want = mu.psi(centers, 2.0 + params.alpha)
            for a, value in zip(centers, want):
                got = mu.integrate(lambda z: np.abs(kernel_power(a, z, params)) ** params.p)
                assert abs(got - value) <= 1e-10 * value, (name, a)

    @pytest.mark.parametrize("phi", (Monomial(1), BlaschkeProduct((0.3 + 0.1j,))),
                             ids=("z", "blaschke1"))
    def test_multiplicity_one_maps_give_the_identity_ratios(self, phi, small_quad):
        mu = SumMeasure((RadialDensity(0.5), Atomic.from_atoms([(0.3 + 0.2j, 0.5)])))
        params = SpaceParams(2.0, 0.5)
        want = family_constant(mu, params, Identity(), SWEEP_FAMILY, small_quad).ratios
        got = family_constant(mu, params, phi, SWEEP_FAMILY, small_quad).ratios
        assert list(got) == list(want)
        for label, value in want.items():
            assert abs(got[label] - value) <= 1e-14 * value, label

    @pytest.mark.parametrize("phi", (Identity(), Monomial(2), BlaschkeProduct((0.3 + 0.1j,))),
                             ids=("identity", "z^2", "blaschke1"))
    def test_even_p_polynomial_members_are_moment_sums(self, phi, monkeypatch):
        # At p = 2 no polynomial is evaluated on a rule, no norm is taken on
        # one, and under a map of multiplicity 1 nothing is integrated at all.
        quad = QuadConfig(64, 128)
        params = SpaceParams(2.0, 0.5)
        want = {name: family_constant(mu, params, phi, SWEEP_FAMILY, quad).ratios
                for name, mu in sweep_measures(quad).items()}
        calls = {"Polynomial.__call__": 0, "WeightedArea.integrate": 0, "integrate": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(Polynomial, "__call__",
                            counted("Polynomial.__call__", Polynomial.__call__))
        # sweep_measures holds no WeightedArea, so these are norms on the rule
        monkeypatch.setattr(WeightedArea, "integrate",
                            counted("WeightedArea.integrate", WeightedArea.integrate))
        monkeypatch.setattr(measures, "_weighted_sum",
                            counted("integrate", measures._weighted_sum))
        carleson._poly_norms.cache_clear()
        for name, mu in sweep_measures(quad).items():
            assert family_constant(mu, params, phi, SWEEP_FAMILY, quad).ratios == want[name]
        assert calls["Polynomial.__call__"] == calls["WeightedArea.integrate"] == 0
        if phi.multiplicity == 1:
            assert calls["integrate"] == 0

    def test_member_norms_computed_once_per_key(self, monkeypatch, small_quad):
        # At odd p the norms are quadratures against dA_alpha, taken once per
        # (family, p, alpha, rule).
        params = SpaceParams(3.0, 0.25)
        calls = []
        original = WeightedArea.integrate
        monkeypatch.setattr(WeightedArea, "integrate",
                            lambda self, *args: calls.append(args) or original(self, *args))
        carleson._poly_norms.cache_clear()
        first = family_constant(RadialDensity(0.5), params, Identity(), SWEEP_FAMILY, small_quad)
        assert len(calls) == SWEEP_FAMILY.random_count
        again = family_constant(RadialDensity(0.5), params, Identity(), SWEEP_FAMILY, small_quad)
        assert len(calls) == SWEEP_FAMILY.random_count
        assert again.ratios == first.ratios

    @pytest.mark.parametrize("p", (1.5, 3.0))
    def test_norms_off_even_p_are_bergman_norms(self, p, small_quad):
        # At odd and non-integer p a norm is the identity's numerator against
        # dA_alpha, which is bergman_norm's sum on the same rule.
        family = replace(SWEEP_FAMILY, monomial_degree=3)
        params = SpaceParams(p, 0.25)
        carleson._poly_norms.cache_clear()
        got = carleson._poly_norms(family, p, 0.25, small_quad)
        want = tuple(bergman_norm(poly, params, small_quad)
                     for _, poly in carleson._family_polys(family))
        assert len(got) == family.random_count + 4
        assert got == want


class TestRotationEquivariance:
    # E under z^n commutes with rotations, and f_{rho w}(z) = f_rho(conj(w) z):
    # the kernel ratio at rho w on |u|^p dA_beta is the one at rho on
    # |u(w .)|^p dA_beta, and on a rotation-invariant measure every member of
    # a ring has one ratio. Each member is integrated on the nodes directly.

    def test_ratio_at_rho_w_is_the_ratio_at_rho_of_the_turned_weight(self, small_quad):
        # 1 + iz/2 is not symmetric under z -> conj(z), which maps direction k
        # onto n_dirs - k, so a turn in the wrong direction shows.
        params, phi, rho = SpaceParams(3.0, 0.5), Monomial(3), 0.75
        u = Polynomial.from_coeffs([1, 0.5j])
        family = FamilySpec(kernel_radii=(rho,), n_dirs=8, random_count=0)
        got = family_constant(PolyWeighted(u, 3.0, 1.0), params, phi, family, small_quad).ratios
        assert len(got) == 8
        for member in build_family(family, params):
            w = member.kernel_center / rho
            turned = PolyWeighted(Polynomial.from_coeffs([1, 0.5j * w]), 3.0, 1.0)
            want = family_constant(turned, params, phi, replace(family, n_dirs=1),
                                   small_quad).ratios
            assert got[member.label] == pytest.approx(want["kernel:a=+0.750000+0.000000j"],
                                                      rel=1e-12, abs=0), member.label

    @pytest.mark.parametrize("phi", (Monomial(2), Monomial(3)), ids=("z^2", "z^3"))
    def test_rotation_invariant_measures_give_each_ring_one_ratio(self, phi, small_quad):
        # The grid's rule has 128 angles, which the 8 directions divide, so
        # its atoms and masses are invariant under the ring's rotations.
        rule = build_quadrature(0.25, small_quad.n_radial, small_quad.n_angular)
        params = SpaceParams(3.0, 0.25)
        family = FamilySpec(n_dirs=8, random_count=0)
        grid = GridDensity.from_function(rule, lambda z: 1 + np.abs(z) ** 2)
        for mu in (RadialDensity(0.5), grid):
            ratios = family_constant(mu, params, phi, family, small_quad).ratios
            rings = {}
            for member in build_family(family, params):
                rings.setdefault(round(abs(member.kernel_center), 12), []).append(
                    ratios[member.label])
            assert sorted(len(ring) for ring in rings.values()) == [1, 8, 8, 8, 8]
            for values in rings.values():
                assert max(values) - min(values) <= 1e-12 * min(values), (mu, values)


tenths = st.integers(-10, 10).map(lambda k: k / 10.0)


class RingsOnly(Measure):
    """The measure ``mu`` with ``moment_sums`` off: its kernel members take the ring integrals."""

    def __init__(self, mu):
        self.mu = mu

    def integrate(self, g, quad=measures.DEFAULT_QUAD):
        return self.mu.integrate(g, quad)

    def _square_integrals(self, coeffs, quad):
        return self.mu._square_integrals(coeffs, quad)


def radial_orbit_ratio(gamma, alpha, n, a):
    """int |E f_a|^2 (1-|z|^2)^gamma dA under z^n at p = 2, in mpmath.

    E f_a is the mean of f_b over the orbit b = a conj(w), w^n = 1, and with
    s = (2+alpha)/2 each pair of the orbit integrates in closed form:
    int f_b conj(f_c) (1-|z|^2)^gamma dA
        = (1-|b|^2)^s (1-|c|^2)^s 2F1(2s, 2s; gamma+2; conj(b) c) / (gamma+1).
    """
    with mpmath.workdps(30):
        s = (2 + mpmath.mpf(alpha)) / 2
        orbit = [mpmath.mpc(a) * mpmath.expjpi(mpmath.mpf(-2 * j) / n) for j in range(n)]
        total = mpmath.fsum(
            ((1 - abs(b) ** 2) * (1 - abs(c) ** 2)) ** s
            * mpmath.hyp2f1(2 * s, 2 * s, gamma + 2, mpmath.conj(b) * c)
            for b in orbit for c in orbit)
        return float(mpmath.re(total) / (n * n * (gamma + 1)))


class TestKernelSeriesPath:
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("alpha", (-0.5, 0.0, 1.0))
    @pytest.mark.parametrize("offset", (0.5, None), ids=("gamma=alpha+0.5", "gamma=-0.875"))
    def test_radial_ratios_match_the_orbit_pair_sum(self, alpha, n, offset):
        gamma = -0.875 if offset is None else alpha + offset
        family = FamilySpec(kernel_radii=(0.5, 0.9375, 0.97), n_dirs=4, random_count=0)
        res = family_constant(RadialDensity(gamma), SpaceParams(2.0, alpha), Monomial(n), family)
        members = build_family(family, SpaceParams(2.0, alpha))
        assert len(res.ratios) == len(members) == 12
        for member in members:
            want = radial_orbit_ratio(gamma, alpha, n, member.kernel_center)
            assert abs(res.ratios[member.label] - want) <= 1e-12 * want, member.label

    # The weight exponents stop at -0.5: below it the default rule's own
    # Gauss-Jacobi moments are off by up to 4e-10, and the rings with them;
    # the oracle test above covers the series at gamma = -0.875.
    @settings(max_examples=25, deadline=None)
    @given(mu=st.one_of(
               st.builds(RadialDensity, st.floats(-0.5, 2.0), st.floats(0.1, 2.0)),
               st.builds(lambda u, beta: PolyWeighted(Polynomial.from_coeffs(u), 2.0, beta),
                         st.lists(st.builds(complex, tenths, tenths), min_size=1, max_size=4),
                         st.floats(-0.5, 2.0))),
           alpha=st.floats(-0.9, 2.0), n=st.sampled_from((2, 3)))
    def test_series_agree_with_the_rings_at_the_default_rule(self, mu, alpha, n):
        # Both paths take the same members, the rings by quadrature on the
        # default rule: agreement within 1e-10 relative.
        family = FamilySpec(kernel_radii=(0.0, 0.5, 0.9375), n_dirs=4, random_count=2)
        params = SpaceParams(2.0, alpha)
        got = family_constant(mu, params, Monomial(n), family).ratios
        want = family_constant(RingsOnly(mu), params, Monomial(n), family).ratios
        assert list(got) == list(want)
        for label, value in want.items():
            assert abs(got[label] - value) <= 1e-10 * abs(value), label

    def test_no_kernel_radii(self, small_quad):
        family = FamilySpec(kernel_radii=(), random_count=3, monomial_degree=2)
        res = family_constant(RadialDensity(0.5), SpaceParams(2.0, 0.0), Monomial(2), family,
                              small_quad)
        assert list(res.ratios) == [label for label, _ in carleson._family_polys(family)]
        assert res.ratios["monomial:z^1"] == 0.0

    @pytest.mark.parametrize("phi", (Monomial(2), Monomial(3)), ids=("z^2", "z^3"))
    def test_origin_only_family(self, phi, small_quad):
        # The family of the symmetrized mode: f_0 = 1, a series of degree 0,
        # whose ratio is the total mass.
        family = FamilySpec(kernel_radii=(0.0,), random_count=2)
        mu = RadialDensity(0.5, 3.0)
        res = family_constant(mu, SpaceParams(2.0, 0.25), phi, family, small_quad)
        assert res.ratios["kernel:a=+0.000000+0.000000j"] == pytest.approx(2.0, rel=1e-15)
        rep = certify(mu, SpaceParams(2.0, 0.25), 1.0, phi, replace(CHEAP, mode="symmetrized"))
        assert rep.verdict == "carleson"
        assert rep.c1 == max(family_constant(mu, SpaceParams(2.0, 0.25), phi,
                                             replace(CHEAP.family, kernel_radii=(0.0,)),
                                             CHEAP.quad).ratios.values())

    def test_moment_sums_by_measure_type(self, small_quad):
        rule = build_quadrature(0.0, small_quad.n_radial, small_quad.n_angular)
        u = Polynomial.from_coeffs([1, 0.5j])
        atoms = Atomic.from_atoms([(0.3, 1.0)])
        assert RadialDensity(0.5).moment_sums and WeightedArea(0.0).moment_sums
        assert PolyWeighted(u, 2.0, 0.0).moment_sums and PolyWeighted(u, 4.0, 0.0).moment_sums
        assert not PolyWeighted(u, 3.0, 0.0).moment_sums
        assert PolyWeighted(Polynomial.from_coeffs([2.0]), 3.0, 0.0).moment_sums
        assert not atoms.moment_sums
        assert not GridDensity.from_function(rule, lambda z: np.ones(z.shape)).moment_sums
        assert SumMeasure((RadialDensity(0.5), PolyWeighted(u, 2.0, 0.0))).moment_sums
        assert not SumMeasure((RadialDensity(0.5), atoms)).moment_sums


def per_point_disk_constant(mu, alpha, r, lat, phi):
    """The per-point loop the batched C2 replaced: one disk rule centred at each orbit point.

    Densities take the Euclidean-disk rule of D(a, r) at a itself, not the
    real-axis disk of the same |a|; atoms take a sum over the atoms inside.
    """
    def mass(mu, a):
        if isinstance(mu, SumMeasure):
            return sum(mass(part, a) for part in mu.parts)
        if isinstance(mu, Atomic):
            return float(np.sum(mu.masses[geometry.pseudo_distance(a, mu.points) < np.tanh(r)]))
        disk = geometry.bergman_disk(a, r)
        nodes, weights = measures.euclid_disk_rule(disk.center, disk.radius, 64, 128)
        return float(np.sum(weights * mu.density(nodes)))

    n = phi.n if isinstance(phi, Monomial) else 1
    orbit = np.exp(2j * np.pi * np.arange(n) / n)
    ratios = np.array([sum(mass(mu, w * a) for w in orbit) / n / disk_bound(a, r, alpha)
                       for a in lat.points])
    return float(ratios.max()), int(np.argmax(ratios))


class TestBatchedDiskConstant:
    @pytest.mark.parametrize("phi", (Identity(), Monomial(2), Monomial(3)),
                             ids=("unconditional", "z^2", "z^3"))
    def test_matches_per_point_loop(self, phi, small_quad):
        # At the default sizes the disk rule's angular trapezoid is converged,
        # so turning a radial density's disk onto the real axis moves no digit
        # that the tolerance sees (at 32 angles it moves the 12th).
        lat = cached_lattice(1.0, 0.03)
        orbit = None if isinstance(phi, Identity) else condexp.rotation_orbit(phi)
        for name, mu in {"area": WeightedArea(0.5), **sweep_measures(small_quad)}.items():
            got = disk_constant(mu, 0.5, 1.0, lat, orbit)
            c2, argmax = per_point_disk_constant(mu, 0.5, 1.0, lat, phi)
            assert abs(got.c2 - c2) <= 1e-13 * c2, name
            assert got.argmax_index == argmax, name

    def test_symmetrized_atoms_are_rotated_atoms_at_half_mass(self):
        # The orbit mean of mu(D(w a, r)) over w = +-1 is the mass of D(a, r)
        # under the atoms and their reflections through 0, each at half mass.
        atoms = [(0.3 + 0.2j, 0.5), (-0.6j, 0.25), (0.8, 1.0), (-0.55 + 0.7j, 2.0)]
        config = replace(CHEAP, mode="symmetrized")
        rep = certify(Atomic.from_atoms(atoms), SpaceParams(2.0, 0.0), 1.0, Monomial(2), config)
        rotated = Atomic.from_atoms([(w * z, m / 2) for z, m in atoms for w in (1, -1)])
        lat = cached_lattice(1.0, config.lattice_epsilon)
        want = disk_constant(rotated, 0.0, 1.0, lat)
        assert rep.c2 > 0
        assert abs(rep.c2 - want.c2) <= 1e-15 * want.c2
        assert rep.c2_argmax_index == want.argmax_index

    @pytest.mark.parametrize("phi", (Monomial(2), Monomial(3)), ids=("z^2", "z^3"))
    def test_symmetrized_radial_density_is_unconditional(self, phi):
        # A radial density's disk masses depend on |a| alone, and rotations keep it.
        config = replace(CHEAP, mode="symmetrized")
        mu = RadialDensity(0.5)
        sym = certify(mu, SpaceParams(2.0, 0.0), 1.0, phi, config)
        plain = certify(mu, SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert abs(sym.c2 - plain.c2) <= 1e-15 * plain.c2

    def test_radial_density_one_series_per_exact_y(self, monkeypatch):
        lat = cached_lattice(1.0, 0.01)
        calls, levels = [], []
        original_series = measures._disk_series
        original_measure_of_disk = carleson.measure_of_disk
        monkeypatch.setattr(RadialDensity, "density", lambda self, z: pytest.fail("density read"))
        monkeypatch.setattr(measures, "_disk_series",
                            lambda c, w, y, r: levels.append(len(y)) or original_series(c, w, y, r))
        monkeypatch.setattr(carleson, "measure_of_disk",
                            lambda *args: calls.append(args) or original_measure_of_disk(*args))
        disk_constant(RadialDensity(0.5), 0.0, 1.0, lat)
        assert len(calls) == 1
        assert sum(levels) == len(np.unique(lat.y)) < lat.size

    @pytest.mark.parametrize("case", ("grid-256x512", "polyweighted-p3", "polyweighted-p2"))
    def test_peak_memory_bounded(self, case):
        # The batches hold about 2**16 nodes or terms; whole-lattice or 64-disk
        # batches would pin tens to hundreds of MB here. At p = 3 the disks go
        # on the shared pulled-back rule, at p = 2 through the series.
        lat = cached_lattice(1.0, 0.01)
        if case == "grid-256x512":
            mu = GridDensity.from_function(build_quadrature(0.0, 256, 512),
                                           lambda z: np.abs(1.0 + 0.5j * z) ** 2)
        else:
            p = 3.0 if case == "polyweighted-p3" else 2.0
            mu = PolyWeighted(Polynomial.from_coeffs([1, 0.5j, -0.3]), p, 0.3)
        tracemalloc.start()
        try:
            disk_constant(mu, 0.0, 1.0, lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestFamilySpec:
    def test_n_dirs_at_least_one(self):
        FamilySpec(n_dirs=1)
        with pytest.raises(ConfigurationError, match="n_dirs"):
            FamilySpec(n_dirs=0)

    @pytest.mark.parametrize("radius", (-0.1, 0.971, 1.5, float("nan")))
    def test_kernel_radii_in_range(self, radius):
        FamilySpec(kernel_radii=(0.0, 0.97))
        with pytest.raises(ConfigurationError, match="kernel radii"):
            FamilySpec(kernel_radii=(0.5, radius))

    def test_random_count_nonnegative(self):
        FamilySpec(random_count=0)
        with pytest.raises(ConfigurationError, match="random_count"):
            FamilySpec(random_count=-3)

    def test_random_degree_nonnegative(self):
        FamilySpec(random_degree=0)
        with pytest.raises(ConfigurationError, match="random_degree"):
            FamilySpec(random_degree=-1)

    def test_monomial_degree_at_least_minus_one(self):
        FamilySpec(monomial_degree=-1)
        with pytest.raises(ConfigurationError, match="monomial_degree"):
            FamilySpec(monomial_degree=-2)

    def test_bounds_equal_the_schema(self):
        path = resources.files("bergmanlab").joinpath("data", "config.schema.json")
        schema = json.loads(path.read_text())["definitions"]["family"]["properties"]
        radii = schema["kernel_radii"]["items"]
        FamilySpec(kernel_radii=(radii["minimum"], radii["maximum"]))
        for bad in (np.nextafter(radii["minimum"], -1.0), np.nextafter(radii["maximum"], 2.0)):
            with pytest.raises(ConfigurationError):
                FamilySpec(kernel_radii=(bad,))
        bounded = {name: spec["minimum"] for name, spec in schema.items()
                   if spec.get("type") == "integer" and "minimum" in spec}
        assert set(bounded) == {"n_dirs", "random_count", "random_degree", "seed",
                                "monomial_degree"}
        for name, low in bounded.items():
            FamilySpec(**{name: low})
            with pytest.raises(ConfigurationError):
                FamilySpec(**{name: low - 1})

    def test_list_radii_are_hashable(self):
        spec = FamilySpec(kernel_radii=[0.0, 0.5])
        assert spec.kernel_radii == (0.0, 0.5)
        assert hash(spec) == hash(FamilySpec(kernel_radii=(0.0, 0.5)))


class TestCertify:
    def test_reference_measure(self):
        rep = certify(WeightedArea(0.0), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert rep.verdict == "carleson"
        assert rep.failure is None
        for key, val in rep.ratios.items():
            assert abs(val - 1.0) < 1e-6, key
        assert abs(rep.c2_normalized - 1.0) < 1e-9

    def test_growth_side_bounded(self):
        rep = certify(RadialDensity(1.0), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert rep.verdict == "carleson"
        assert np.isfinite(rep.c1) and np.isfinite(rep.c3)

    def test_divergent_radial(self):
        rep = certify(RadialDensity(-0.5), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert rep.verdict == "not-carleson"
        assert rep.psi_verdict == "divergent"
        assert rep.boundary_exponent == -0.5

    def test_scaling_by_two_is_exact(self):
        mu = RadialDensity(0.5)
        a = certify(mu, SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        b = certify(mu.scaled(2.0), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert b.c1 == 2.0 * a.c1
        assert b.c2 == 2.0 * a.c2
        assert b.c3 == 2.0 * a.c3
        for key in a.ratios:
            assert b.ratios[key] == pytest.approx(a.ratios[key], rel=1e-12)

    def test_monotone_in_measure(self):
        mu = RadialDensity(0.5)
        nu = SumMeasure((mu, Atomic.from_atoms([(0.5, 0.3)])))
        a = certify(mu, SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        b = certify(nu, SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert b.c1 >= a.c1 and b.c2 >= a.c2 and b.c3 >= a.c3

    def test_deterministic(self):
        a = certify(WeightedArea(1.0), SpaceParams(2.0, 1.0), 1.0, Identity(), CHEAP)
        b = certify(WeightedArea(1.0), SpaceParams(2.0, 1.0), 1.0, Identity(), CHEAP)
        assert a.to_dict() == b.to_dict()

    def test_symmetrized_mode(self):
        from dataclasses import replace

        config = replace(CHEAP, mode="symmetrized")
        rep = certify(WeightedArea(0.0), SpaceParams(2.0, 0.0), 1.0, Monomial(2), config)
        assert rep.mode == "symmetrized"
        assert rep.verdict == "carleson"
        assert rep.config["mode"] == "symmetrized"

    def test_overlap_bound_not_sampled(self, monkeypatch):
        from dataclasses import replace

        # C2 reads the lattice's points, never its overlap bound N.
        calls = []
        monkeypatch.setattr(lattice, "overlap_bound", lambda *args: calls.append(args))
        config = replace(CHEAP, lattice_epsilon=0.0371)
        rep = certify(WeightedArea(0.0), SpaceParams(2.0, 0.0), 0.93, Identity(), config)
        assert rep.failure is None
        assert calls == []

    def test_partial_report_on_failure(self):
        from dataclasses import replace

        # an impossible lattice radius surfaces as a failure record, not a crash
        config = replace(CHEAP, mode="symmetrized")
        rep = certify(WeightedArea(0.0), SpaceParams(2.0, 0.0), 1.0, Identity(), config)
        assert rep.verdict == "error"
        assert rep.failure["stage"] == "disk_constant"

    def test_report_dict_structure(self):
        rep = certify(WeightedArea(0.0), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        d = rep.to_dict()
        assert set(d) >= {"constants", "ratios", "divergence", "verdict", "config", "mode"}
        assert d["config"]["measure"] == {"type": "area", "alpha": 0.0}


def _deeper(config, levels):
    return replace(config, psi_grid=replace(config.psi_grid, j_max=config.psi_grid.j_max + levels))


sum_parts = st.one_of(
    st.builds(RadialDensity, st.floats(-0.9, 1.5), st.floats(0.1, 2.0)),
    st.builds(lambda u, p, beta: PolyWeighted(Polynomial.from_coeffs(u), p, beta),
              st.lists(st.builds(complex, tenths, tenths), min_size=1, max_size=3),
              st.sampled_from((2.0, 4.0, 3.0, 1.5)), st.floats(-0.9, 1.5)),
    st.builds(Atomic.from_atoms, st.lists(st.tuples(
        st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)), st.floats(0.1, 2.0)),
        min_size=1, max_size=4)),
)


def refused_near_the_circle(report):
    """Whether ``report`` failed at C3 by the Fourier path's refusal, whose angular
    tail does not converge where a zero of u lies on or near the circle."""
    failure = report.failure or {}
    return (failure.get("stage") == "psi_sup" and failure.get("error") == "EvaluationError"
            and "angular tail" in failure.get("message", ""))


class TestBoundaryExponentVerdict:
    @pytest.mark.parametrize("gamma", (-0.0875, -0.05, -0.01))
    def test_band_below_zero_is_not_carleson(self, gamma):
        # The fitted slope of these weights stays above -0.1 at these depths.
        rep = certify(RadialDensity(gamma), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert rep.verdict == "not-carleson"
        assert rep.psi_verdict == "divergent"
        assert rep.boundary_exponent == gamma
        assert -0.1 < rep.psi_slope < 0.0

    def test_zero_exponent_is_carleson(self):
        rep = certify(RadialDensity(0.1), SpaceParams(2.0, 0.1), 1.0, Identity(), CHEAP)
        assert rep.verdict == "carleson"
        assert rep.boundary_exponent == 0.0
        assert rep.to_dict()["divergence"]["boundary_exponent"] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.4, 1.0), difference=st.floats(-0.5, 0.5))
    def test_carleson_exactly_when_gamma_reaches_alpha(self, alpha, difference):
        gamma = alpha + difference
        for config in (CHEAP, _deeper(CHEAP, 18 - CHEAP.psi_grid.j_max)):
            rep = certify(RadialDensity(gamma), SpaceParams(2.0, alpha), 1.0, Identity(), config)
            assert rep.verdict == ("carleson" if gamma >= alpha else "not-carleson")

    @settings(max_examples=25, deadline=None)
    @given(parts=st.lists(sum_parts, min_size=1, max_size=3), alpha=st.floats(-0.4, 1.0))
    @example(parts=[PolyWeighted(Polynomial.from_coeffs([0, 0.1j, 0.1j]), 2.0, 0.0)],
             alpha=1e-14)
    def test_refinement_never_moves_toward_carleson(self, parts, alpha):
        # At odd and non-integer p the weights take the Fourier path of Psi,
        # which refuses loudly where a zero of u sits on or near the circle
        # (such as u = 0.1i (1 + z) at p = 1.5); a refusal is no verdict.
        mu = SumMeasure(tuple(parts))
        params = SpaceParams(2.0, alpha)
        weights = [part.gamma for part in parts if isinstance(part, RadialDensity)] + [
            part.beta for part in parts if isinstance(part, PolyWeighted) and not part.u.is_zero]
        base = certify(mu, params, 1.0, Identity(), CHEAP)
        assume(not refused_near_the_circle(base))
        assert base.verdict == ("carleson" if all(w >= alpha for w in weights) else "not-carleson")
        for config in (CHEAP.doubled(), _deeper(CHEAP, 8)):
            refined = certify(mu, params, 1.0, Identity(), config)
            if refused_near_the_circle(refined):
                continue
            assert refined.verdict != "error", refined.failure
            if base.verdict == "not-carleson":
                assert refined.verdict == "not-carleson"

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(-0.4, 1.0), exponent=st.floats(-0.5, 0.0))
    def test_slope_at_depth_30_is_the_exponent(self, alpha, exponent):
        gamma = alpha + exponent
        res = psi_sup(RadialDensity(gamma), alpha, grid=PsiGridSpec(4, 30, 4))
        assert abs(res.slope - (gamma - alpha)) <= 0.02
        assert abs(res.exponent - (gamma - alpha)) < 1e-12


class TestNearIntegerParameters:
    # At these weights c - a - b of a 2F1 in the exact Psi is within rounding of
    # an integer without being one; scipy's 2F1 alone is inf from 1 - |a| = 2^-10.
    @pytest.mark.parametrize("gamma, alpha", [(1.1, 0.05), (1.4, 0.2), (1.6, 0.3), (1.9, 0.45)])
    def test_radial_weight_is_carleson(self, gamma, alpha):
        rep = certify(RadialDensity(gamma), SpaceParams(2.0, alpha), 1.0, Identity(),
                      _deeper(CHEAP, 1))
        assert rep.verdict == "carleson"
        assert rep.psi_verdict == "bounded"
        # gamma > alpha: the sup is at the origin, the total mass
        assert rep.c3 == pytest.approx(1.0 / (gamma + 1.0), rel=1e-12)

    def test_polynomial_weight_is_carleson(self):
        mu = PolyWeighted(Polynomial.from_coeffs([1, 0.5]), 2.0, 0.1)
        rep = certify(mu, SpaceParams(2.0, 0.05), 1.0, Identity(), _deeper(CHEAP, 1))
        assert rep.verdict == "carleson"
        assert np.isfinite(rep.c3)


class TestPsiBreakdown:
    @pytest.mark.parametrize("value, exponent", [(np.inf, 0.0), (np.nan, -1.0)])
    def test_certify_fails_at_psi_sup(self, value, exponent):
        rep = certify(BrokenPsi(value, exponent), SpaceParams(2.0, 0.0), 1.0, Identity(), CHEAP)
        assert rep.verdict == "error"
        assert rep.failure["stage"] == "psi_sup"
        assert rep.failure["error"] == "EvaluationError"

    def test_overflow_of_a_divergent_transform_stays_divergent(self):
        # (1 - |a|^2)^(gamma + 2 - t) overflows at 1 - |a| = 2^-30 for t = 42
        with pytest.warns(RuntimeWarning):
            res = psi_sup(RadialDensity(0.0), 40.0, grid=PsiGridSpec(4, 30, 4))
        assert res.sup == np.inf
        assert res.verdict == "divergent"
