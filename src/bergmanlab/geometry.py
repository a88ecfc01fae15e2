"""Closed-form geometry of the unit disk.

Implements the standard automorphism and kernel toolkit:

    phi_a(z)   = (a - z) / (1 - conj(a) z)        involutive Mobius map
    rho(a, z)  = |phi_a(z)|                        pseudo-hyperbolic distance
    beta(a, z) = (1/2) log((1 + rho)/(1 - rho))    hyperbolic (Bergman) metric
    K_alpha(w, z) = (1 - w conj(z))^(-(2+alpha))   weighted kernels
    k_a(z)     = (1 - |a|^2) / (1 - conj(a) z)^2   normalized kernel
    f_a(z)     = k_a(z)^((2+alpha)/p)              unit-norm kernel power

The metric ball D(a, r) = {z : beta(a, z) < r} is a Euclidean disk whose
center, radius, normalized area, and kernel extrema all have closed forms
in s = tanh(r); those are evaluated here exactly.

All functions accept complex scalars or numpy arrays and are pure.
Non-integer powers of (1 - conj(a) z) use the principal branch, which is
single-valued here because Re(1 - conj(a) z) > 0 whenever |a|, |z| < 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Points this close to the unit circle are rejected at construction so that
# powers of (1 - |z|^2) cannot overflow downstream.
BOUNDARY_MARGIN = 1e-14

# tanh is essentially 1 beyond this, so metric-disk formulas for larger radii
# sit outside the numerically validated range.
VALIDATED_MAX_RADIUS = 1.0


def as_disk_point(z):
    """Validate that ``z`` lies in the open unit disk and return it as complex.

    Accepts scalars or arrays. Raises ValueError for points with
    |z| >= 1 - BOUNDARY_MARGIN.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0 - BOUNDARY_MARGIN):
        bad = np.asarray(z)[np.abs(z) >= 1.0 - BOUNDARY_MARGIN]
        first = bad.flat[0]
        raise ValueError(
            f"point {first} with |z| = {abs(first):.17g} is not an interior "
            f"point of the unit disk (margin {BOUNDARY_MARGIN:g})"
        )
    if z.ndim == 0:
        return complex(z)
    return z


@dataclass(frozen=True)
class SpaceParams:
    """Exponent pair (p, alpha) of a weighted Bergman space.

    ``q`` and ``beta`` are optional second-space exponents for two-space
    settings (embeddings, operators between different weights).
    """

    p: float
    alpha: float
    q: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not self.alpha > -1:
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        if self.q is not None and not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.beta is not None and not self.beta > -1:
            raise ValueError(f"beta must exceed -1, got {self.beta}")

    @property
    def kernel_exponent(self):
        """(2 + alpha) / p, the power of k_a defining the unit test function."""
        return (2.0 + self.alpha) / self.p


@dataclass(frozen=True)
class EuclideanDisk:
    """Euclidean disk with closure contained in the closed unit disk."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if abs(self.center) + self.radius > 1.0 + 1e-12:
            raise ValueError(
                f"disk |z - {self.center}| < {self.radius} is not contained "
                "in the closed unit disk"
            )

    def contains(self, z):
        return np.abs(np.asarray(z) - self.center) < self.radius


@dataclass(frozen=True)
class BergmanDisk:
    """Hyperbolic-metric disk D(center, radius) = {z : beta(center, z) < radius}."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def s(self):
        """tanh of the metric radius; the Euclidean data are rational in s."""
        return float(np.tanh(self.radius))

    def euclidean(self):
        return bergman_disk(self.center, self.radius)


def mobius(a, z):
    """Involutive disk automorphism phi_a(z) = (a - z)/(1 - conj(a) z)."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = (a - z) / (1.0 - np.conj(a) * z)
    return complex(out) if out.ndim == 0 else out


def mobius_derivative(a, z):
    """phi_a'(z) = -(1 - |a|^2)/(1 - conj(a) z)^2; |phi_a'| = |k_a| pointwise."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = -(1.0 - np.abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2
    return complex(out) if out.ndim == 0 else out


def modulus(z):
    """|z| elementwise, rounded as Python's abs(complex) rounds it; np.abs can differ by an ulp."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


_DEKKER_SPLIT = 2.0**27 + 1.0


def _exact_square(x):
    """(s, e) with s + e = x * x exactly: Dekker's product of the split halves of x."""
    c = _DEKKER_SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    s = x * x
    return s, ((hi * hi - s) + 2.0 * hi * lo) + lo * lo


def _two_sum(x, y):
    """(s, e) with s + e = x + y exactly and s = fl(x + y) (Knuth's TwoSum)."""
    s = x + y
    y_part = s - x
    return s, (x - (s - y_part)) + (y - y_part)


def one_minus_modulus_sq(a):
    """1 - |a|^2 elementwise, correct to about an ulp of the result at every depth.

    Near the circle 1 - fl(|a|^2) keeps only the rounding of |a|^2, an absolute
    error of about 1e-16, so at 1 - |a| = 2^-40 it is off by 6e-5 relative. Here
    each of re^2 and im^2 is split exactly into two doubles, and 1 - re^2 - im^2
    is summed with a TwoSum cascade that carries the rounding errors (Ogita,
    Rump and Oishi's Sum2), which is as if the sum were done in twice the
    working precision.
    """
    a = np.asarray(a, dtype=complex)
    re_sq, re_err = _exact_square(a.real)
    im_sq, im_err = _exact_square(a.imag)
    total, carried = np.ones(a.shape), np.zeros(a.shape)
    for term in (re_sq, im_sq, re_err, im_err):
        total, err = _two_sum(total, -term)
        carried += err
    return total + carried


def pseudo_distance(a, z):
    """Pseudo-hyperbolic distance rho(a, z) = |phi_a(z)|, valued in [0, 1)."""
    out = np.abs(mobius(a, z))
    return float(out) if np.ndim(out) == 0 else out


def bergman_distance(a, z):
    """Hyperbolic metric beta(a, z) = (1/2) log((1 + rho)/(1 - rho)) = artanh(rho)."""
    out = np.arctanh(pseudo_distance(a, z))
    return float(out) if np.ndim(out) == 0 else out


def bergman_disk(a, r):
    """Euclidean realization of the metric disk D(a, r).

    With s = tanh(r) and center a:

        center = (1 - s^2) a / (1 - s^2 |a|^2)
        radius = (1 - |a|^2) s / (1 - s^2 |a|^2)
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    center, radius = disk_realization(complex(a), r)
    return EuclideanDisk(center=center, radius=radius)


def disk_realization(a, r):
    """Center and radius of ``bergman_disk(a, r)``, elementwise on an array of centers."""
    s = np.tanh(r)
    abs_sq = modulus(a) ** 2
    d = 1.0 - s**2 * abs_sq
    return (1.0 - s**2) * a / d, (1.0 - abs_sq) * s / d


def _warn_outside_validated_range(r, what):
    if r > VALIDATED_MAX_RADIUS:
        warnings.warn(
            f"{what} evaluated at metric radius r = {r} > {VALIDATED_MAX_RADIUS}; "
            "the closed form extends but lies outside the validated range",
            stacklevel=3,
        )


def disk_area(a, r):
    """Normalized area |D(a, r)| = (1 - |a|^2)^2 s^2 / (1 - |a|^2 s^2)^2, s = tanh(r)."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    _warn_outside_validated_range(r, "disk_area")
    aa = abs(complex(a))
    s = np.tanh(r)
    return float((1.0 - aa**2) ** 2 * s**2 / (1.0 - aa**2 * s**2) ** 2)


def weighted_kernel(w, z, alpha):
    """Weighted kernel K_alpha(w, z) = (1 - w conj(z))^(-(2+alpha)).

    Analytic in w. The principal branch applies; Re(1 - w conj(z)) > 0 on
    the bidisk so the power is unambiguous.
    """
    if not alpha > -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = (1.0 - w * np.conj(z)) ** (-(2.0 + alpha))
    return complex(out) if out.ndim == 0 else out


def normalized_kernel(a, z):
    """Normalized reproducing kernel k_a(z) = (1 - |a|^2)/(1 - conj(a) z)^2."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = (1.0 - np.abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2
    return complex(out) if out.ndim == 0 else out


def test_function(a, z, params: SpaceParams):
    """Unit-norm kernel power f_a(z) = k_a(z)^((2+alpha)/p).

    Satisfies |f_a(z)|^p = ((1 - |a|^2)/|1 - conj(a) z|^2)^(2+alpha) exactly
    and has unit norm in the (p, alpha) space.
    """
    t = params.kernel_exponent
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = 1.0 - np.conj(a) * z
    re, im = w.real, w.imag
    # k_a^t = exp(t log k_a) split into modulus and phase in real arithmetic,
    # a few times faster than the complex log and exp. arctan2 is the
    # principal argument, the branch np.log takes.
    modulus = np.exp(t * (np.log1p(-np.abs(a) ** 2) - np.log(re * re + im * im)))
    phase = (-2.0 * t) * np.arctan2(im, re)
    out = np.empty(np.broadcast(modulus, phase).shape, dtype=complex)
    np.multiply(modulus, np.cos(phase), out=out.real)
    np.multiply(modulus, np.sin(phase), out=out.imag)
    return complex(out) if out.ndim == 0 else out


def kernel_power_modulus(a, z, t):
    """((1 - |a|^2)/|1 - conj(a) z|^2)^t, the modulus |f_a|^p for t = 2 + alpha."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    base = (1.0 - np.abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
    out = base**t
    return float(out) if out.ndim == 0 else out


def kernel_extrema_on_disk(a, r):
    """Extrema of |k_a|^2 over the metric disk D(a, r), with s = tanh(r):

        inf = (1 - s|a|)^4 / (1 - |a|^2)^2
        sup = (1 + s|a|)^4 / (1 - |a|^2)^2

    Returns (inf, sup).
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    _warn_outside_validated_range(r, "kernel_extrema_on_disk")
    aa = abs(complex(a))
    s = np.tanh(r)
    denom = (1.0 - aa**2) ** 2
    return float((1.0 - s * aa) ** 4 / denom), float((1.0 + s * aa) ** 4 / denom)
