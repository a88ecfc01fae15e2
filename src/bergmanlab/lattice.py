"""Covering lattices for the hyperbolic metric on the disk.

A radius-r lattice is a point set {a_k} whose metric disks D(a_k, r) cover
the disk, whose pairwise metric distances stay above r/2 (so the r/4-disks
are disjoint), and for which any point lies in a bounded number N of the
doubled disks D(a_k, 2r).

Construction: concentric circles at hyperbolic radii m*(r/2) carry points
equally spaced in angle, with the count per circle chosen as the largest
for which the adjacent-point metric chord still reaches r/2, in closed form
(``_ring_count``). That keeps the pairwise separation at exactly r/2 in the
worst case while the cover radius stays below r. The infinite lattice is
truncated at 1 - |a| >= epsilon, which every exported point satisfies.

Verification is sampled: cover and overlap statistics are measured on a
deterministic low-discrepancy (Halton) stream of disk points, filtered to
the requested truncation so that sample sets for coarser truncations are
subsets of finer ones. The overlap bound N of a lattice is measured on first
read, not at build: certification reads the points only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .geometry import pseudo_distance

DEFAULT_OVERLAP_SAMPLES = 20000
# Samples per block of the sample-to-lattice distance matrix.
SAMPLE_CHUNK = 4096


def _ring_count(rho, target):
    """Largest n so that adjacent points on |z| = rho keep pseudo-chord >= target.

    The chord 2 rho sin(pi/n) / sqrt((1-rho^2)^2 + 4 rho^2 sin^2(pi/n)) falls as
    n grows and reaches target where sin(pi/n) = x. Every ring has rho >= target,
    so x <= sqrt(1 - target^2) / 2 < 1/2 and n >= 6.
    """
    x = target * (1.0 - rho**2) / (2.0 * rho * np.sqrt(1.0 - target**2))
    return int(np.pi // np.arcsin(x))


def halton_disk_samples(count, epsilon=0.0):
    """First ``count`` Halton points, area-uniform over {z : 1 - |z| >= epsilon}.

    Points are drawn from a fixed unscrambled stream over the whole disk and
    filtered, so the sample set for a larger epsilon is a subset of the one
    for a smaller epsilon.
    """
    if count < 1:
        raise ConfigurationError(f"need at least one sample, got {count}")
    # Imported here, not at load: scipy.stats is most of the package's import
    # time and memory, and only the cover and overlap checks sample.
    from scipy.stats import qmc

    sampler = qmc.Halton(d=2, scramble=False)
    kept = []
    total = 0
    while total < count:
        u = sampler.random(max(1024, count))
        z = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        z = z[1.0 - np.abs(z) >= epsilon]
        kept.append(z)
        total += len(z)
    return np.concatenate(kept)[:count]


@dataclass(frozen=True, eq=False)
class HyperbolicLattice:
    r: float
    epsilon: float
    points: np.ndarray          # complex, origin first, then rings outward

    @cached_property
    def N(self):
        """Measured overlap bound for the doubled disks, sampled on first read."""
        return overlap_bound(self, DEFAULT_OVERLAP_SAMPLES)

    @property
    def size(self):
        return len(self.points)

    def pairwise_pseudo(self):
        return pseudo_distance(self.points[:, None], self.points[None, :])

    def min_separation(self):
        """Minimum pairwise hyperbolic distance."""
        if self.size < 2:
            return float("inf")
        p = self.pairwise_pseudo()
        np.fill_diagonal(p, 1.0)
        return float(np.arctanh(p.min()))

    def kernel_sum(self):
        """Truncated sum_k 1/(1 - tanh(r) |a_k|)^2.

        Summability of the full series is hypothesized by the certification
        theorem but fails for a genuine lattice as epsilon -> 0; the value is
        surfaced as a diagnostic so reports can show the tension.
        """
        s = np.tanh(self.r)
        return float(np.sum(1.0 / (1.0 - s * np.abs(self.points)) ** 2))

    def to_json(self):
        return [[p.real, p.imag] for p in self.points]


def build_lattice(r, epsilon) -> HyperbolicLattice:
    """Deterministic radius-r lattice truncated at 1 - |a| >= epsilon."""
    if not 0 < r <= 1:
        raise ConfigurationError(f"lattice radius must satisfy 0 < r <= 1, got {r}")
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
    sep_target = np.tanh(r / 2.0)
    pts = [0.0 + 0.0j]
    m = 1
    while True:
        rho = np.tanh(m * r / 2.0)
        if 1.0 - rho < epsilon:
            break
        n = _ring_count(rho, sep_target)
        offset = np.pi / n if m % 2 == 0 else 0.0
        angles = 2.0 * np.pi * np.arange(n) / n + offset
        pts.extend(rho * np.exp(1j * angles))
        m += 1
    points = np.array(pts, dtype=complex)
    points.setflags(write=False)
    return HyperbolicLattice(r=float(r), epsilon=float(epsilon), points=points)


@dataclass
class CoverReport:
    samples: int
    uncovered: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))
    max_min_distance: float = 0.0

    @property
    def covered(self):
        return len(self.uncovered) == 0


def _min_distances(points, zs):
    """Min hyperbolic distance from each sample to the point set."""
    out = np.empty(len(zs))
    for lo in range(0, len(zs), SAMPLE_CHUNK):
        p = pseudo_distance(points[None, :], zs[lo:lo + SAMPLE_CHUNK, None])
        out[lo:lo + SAMPLE_CHUNK] = np.arctanh(np.minimum(p.min(axis=1), 1.0 - 1e-15))
    return out


def verify_cover(lat: HyperbolicLattice, samples) -> CoverReport:
    """Check that every sampled z with 1 - |z| >= epsilon lies in some D(a_k, r)."""
    zs = halton_disk_samples(samples, lat.epsilon)
    dmin = _min_distances(lat.points, zs)
    uncovered = zs[dmin >= lat.r]
    return CoverReport(samples=samples, uncovered=uncovered,
                       max_min_distance=float(dmin.max()))


def overlap_count(lat: HyperbolicLattice, z, factor=2.0) -> int:
    """Number of lattice disks D(a_k, factor*r) containing z."""
    if factor not in (1, 2, 1.0, 2.0):
        raise ConfigurationError(f"overlap factor must be 1 or 2, got {factor}")
    p = pseudo_distance(lat.points, complex(z))
    return int(np.sum(p < np.tanh(factor * lat.r)))


def overlap_bound(lat: HyperbolicLattice, samples=DEFAULT_OVERLAP_SAMPLES,
                  sample_epsilon=None) -> int:
    """Measured overlap bound of the doubled disks: max over sampled z of overlap_count.

    ``sample_epsilon`` restricts the sampled region to 1 - |z| >= sample_epsilon
    (default: the lattice's own truncation). Because sample streams are nested
    across truncations, the measured bound is stable under refining the
    sampled region once the maximizer is interior.
    """
    eps = lat.epsilon if sample_epsilon is None else sample_epsilon
    zs = halton_disk_samples(samples, eps)
    thr = np.tanh(2.0 * lat.r)
    best = 0
    for lo in range(0, len(zs), SAMPLE_CHUNK):
        p = pseudo_distance(lat.points[None, :], zs[lo:lo + SAMPLE_CHUNK, None])
        best = max(best, int((p < thr).sum(axis=1).max()))
    return best
