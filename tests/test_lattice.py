"""Covering lattice construction, verification, and overlap statistics."""

import numpy as np
import pytest

from bergmanlab import lattice
from bergmanlab.errors import ConfigurationError
from bergmanlab.geometry import bergman_disk, bergman_distance, one_minus_modulus_sq
from bergmanlab.measures import PSI_Y_TOL
from bergmanlab.lattice import (
    DEFAULT_OVERLAP_SAMPLES,
    HyperbolicLattice,
    build_lattice,
    halton_disk_samples,
    overlap_bound,
    overlap_count,
    verify_cover,
)


@pytest.fixture(scope="module")
def lat_coarse():
    return build_lattice(1.0, 0.1)


@pytest.fixture(scope="module")
def lat_mid():
    return build_lattice(1.0, 0.03)


def searched_ring_count(rho, target):
    """Largest n with adjacent points on |z| = rho at pseudo-chord >= target,
    by doubling and bisection on the chord itself: the oracle of the closed form."""
    def chord(n):
        e = np.exp(2j * np.pi / n)
        return abs(rho * (1.0 - e) / (1.0 - rho**2 * e))

    if chord(2) < target:
        return 1
    n = 2
    while chord(n) >= target:
        n *= 2
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if chord(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


class TestRingCount:
    def test_closed_form_matches_the_search(self):
        # Every ring of build_lattice(r, 1e-4), at the radii of the suites and 200 more.
        rings = 0
        for r in np.concatenate([[0.5, 0.75, 1.0], np.linspace(0.05, 1.0, 200)]):
            target = np.tanh(r / 2.0)
            m, rho = 1, target
            while 1.0 - rho >= 1e-4:
                assert lattice._ring_count(rho, target) == searched_ring_count(rho, target), (r, m)
                rings += 1
                m += 1
                rho = np.tanh(m * r / 2.0)
        assert rings == 6260


class TestConstruction:
    def test_includes_origin(self, lat_coarse):
        assert lat_coarse.points[0] == 0.0

    def test_truncation_respected(self, lat_mid):
        assert np.all(1.0 - np.abs(lat_mid.points) >= lat_mid.epsilon)

    def test_separation(self, lat_mid):
        assert lat_mid.min_separation() >= lat_mid.r / 2.0 - 1e-12

    @pytest.mark.parametrize("r, epsilon", ((1.0, 0.01), (0.5, 0.02), (0.25, 0.05), (1.0, 1e-3)))
    def test_one_y_per_ring_within_the_gate(self, r, epsilon):
        # Each ring's (1 - rho)(1 + rho) is within 1.16 units of 2^-52 of its
        # rounded points' own 1 - |a|^2 on these lattices, inside the PSI_Y_TOL
        # of 4 units that Psi and disk masses allow.
        lat = build_lattice(r, epsilon)
        rings = np.round(np.abs(lat.points), 12)
        assert len(np.unique(lat.y)) == len(np.unique(rings))
        assert np.max(np.abs(lat.y - one_minus_modulus_sq(lat.points))) <= 1.25 * 2.0**-52
        assert 1.25 * 2.0**-52 < PSI_Y_TOL
        assert not lat.y.flags.writeable

    def test_one_point_lattice_is_infinitely_separated(self):
        # Past 1 - tanh(1/2) = 0.538 the first ring is truncated away: only the origin.
        lat = build_lattice(1.0, 0.6)
        assert lat.size == 1
        assert lat.min_separation() == float("inf")

    def test_deterministic(self):
        a = build_lattice(1.0, 0.2)
        b = build_lattice(1.0, 0.2)
        assert np.array_equal(a.points, b.points)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            build_lattice(1.5, 0.1)
        with pytest.raises(ConfigurationError):
            build_lattice(0.0, 0.1)
        with pytest.raises(ConfigurationError):
            build_lattice(1.0, 0.0)

    def test_cardinality_grows_like_inverse_epsilon(self):
        # ring truncation quantizes the count, so compare across a decade
        sizes = [build_lattice(1.0, eps).size for eps in (0.2, 0.05, 0.01)]
        assert sizes[0] < sizes[1] < sizes[2]
        assert 5.0 < sizes[2] / sizes[0] < 60.0

    def test_quarter_disks_disjoint(self, lat_coarse):
        # beta-separation r/2 forces the r/4 Euclidean realizations apart
        disks = [bergman_disk(a, lat_coarse.r / 4.0) for a in lat_coarse.points]
        for i in range(len(disks)):
            for j in range(i + 1, len(disks)):
                gap = abs(disks[i].center - disks[j].center) - disks[i].radius - disks[j].radius
                # separation exactly r/2 makes neighboring disks tangent;
                # the open disks stay disjoint
                assert gap > -1e-12

    def test_close_points_give_intersecting_quarter_disks(self):
        # the contrapositive direction of the separation argument
        a, b = 0.2, 0.2 + 0.05j
        assert bergman_distance(a, b) < 0.5
        da, db = bergman_disk(a, 0.25), bergman_disk(b, 0.25)
        assert abs(da.center - db.center) < da.radius + db.radius


class TestCover:
    def test_full_cover(self, lat_mid):
        report = verify_cover(lat_mid, 20000)
        assert report.covered
        assert report.max_min_distance < lat_mid.r

    def test_hole_detected(self, lat_mid):
        # removing every point near a location opens a genuine hole
        target = lat_mid.points[len(lat_mid.points) // 2]
        keep = bergman_distance(target, lat_mid.points) >= lat_mid.r
        holed = HyperbolicLattice(
            r=lat_mid.r, epsilon=lat_mid.epsilon,
            points=lat_mid.points[keep], y=lat_mid.y[keep],
        )
        report = verify_cover(holed, 20000)
        assert not report.covered

    def test_single_deletion_weakens_cover(self, lat_mid):
        # one deleted point need not uncover anything (disks overlap), but the
        # worst covering distance cannot improve
        reduced = HyperbolicLattice(
            r=lat_mid.r, epsilon=lat_mid.epsilon,
            points=lat_mid.points[1:], y=lat_mid.y[1:],
        )
        full = verify_cover(lat_mid, 10000)
        less = verify_cover(reduced, 10000)
        assert less.max_min_distance >= full.max_min_distance

    def test_shrunk_region_always_covered(self, lat_coarse):
        zs = halton_disk_samples(20000, 2.0 * lat_coarse.epsilon)
        dmin = np.array([bergman_distance(z, lat_coarse.points).min() for z in zs[:2000]])
        assert np.all(dmin < lat_coarse.r)

    def test_sample_count_validation(self, lat_coarse):
        with pytest.raises(ConfigurationError):
            verify_cover(lat_coarse, 0)

    @pytest.mark.parametrize("count", (0, -1))
    def test_sampling_needs_one_sample(self, lat_coarse, count):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            overlap_bound(lat_coarse, count)
        with pytest.raises(ConfigurationError, match="at least one sample"):
            halton_disk_samples(count)


class TestOverlap:
    def test_origin_is_covered(self, lat_coarse):
        assert overlap_count(lat_coarse, 0.0, 1.0) >= 1

    def test_doubling_factor_monotone(self, lat_coarse, rng):
        zs = 0.85 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        for z in zs:
            assert overlap_count(lat_coarse, z, 2.0) >= overlap_count(lat_coarse, z, 1.0)

    def test_invalid_factor(self, lat_coarse):
        with pytest.raises(ConfigurationError):
            overlap_count(lat_coarse, 0.0, 3.0)

    def test_bound_measured_at_build(self, lat_coarse):
        assert lat_coarse.N >= 1
        assert lat_coarse.N <= lat_coarse.size

    def test_bound_measured_once_on_first_read(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return overlap_bound(*args, **kwargs)
        monkeypatch.setattr(lattice, "overlap_bound", counted)
        lat = build_lattice(1.0, 0.15)
        assert calls == []
        first = lat.N
        assert lat.N == first == overlap_bound(lat, DEFAULT_OVERLAP_SAMPLES)
        assert calls == [(lat, DEFAULT_OVERLAP_SAMPLES)]

    def test_bound_stable_under_sampling_truncation(self, lat_mid):
        # nested sample streams: the measured bound is the same once the
        # maximizing region (near the origin here) is included
        n_wide = overlap_bound(lat_mid, 20000, sample_epsilon=0.1)
        n_own = overlap_bound(lat_mid, 20000, sample_epsilon=lat_mid.epsilon)
        assert n_wide == n_own


class TestDiagnostics:
    def test_kernel_sum_positive_and_growing(self):
        s1 = build_lattice(1.0, 0.1).kernel_sum()
        s2 = build_lattice(1.0, 0.05).kernel_sum()
        assert 0 < s1 < s2

    def test_export_shape(self, lat_coarse):
        out = lat_coarse.to_json()
        assert len(out) == lat_coarse.size
        assert all(len(pair) == 2 for pair in out)
