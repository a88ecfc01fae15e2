"""Closed-form geometry of the unit disk.

Implements the standard automorphism and kernel toolkit:

    phi_a(z)   = (a - z) / (1 - conj(a) z)        involutive Mobius map
    rho(a, z)  = |phi_a(z)|                        pseudo-hyperbolic distance
    beta(a, z) = (1/2) log((1 + rho)/(1 - rho))    hyperbolic (Bergman) metric
    K_alpha(w, z) = (1 - w conj(z))^(-(2+alpha))   weighted kernels
    k_a(z)     = (1 - |a|^2) / (1 - conj(a) z)^2   normalized kernel
    f_a(z)     = k_a(z)^((2+alpha)/p)              unit-norm kernel power

``kernel_series`` gives the Taylor coefficients of f_a, truncated at a degree
chosen from an explicit tail bound (``series_degree``), or only those at the
degrees that are multiples of n, which E f_a keeps under z^n.

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
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

# Points this close to the unit circle are rejected at construction so that
# powers of (1 - |z|^2) cannot overflow downstream.
BOUNDARY_MARGIN = 1e-14

# tanh is essentially 1 beyond this, so metric-disk formulas for larger radii
# sit outside the numerically validated range.
VALIDATED_MAX_RADIUS = 1.0


def as_disk_point(z):
    """Validate that ``z`` lies in the open unit disk and return it as complex.

    Accepts scalars or arrays. Raises ValueError for points with
    |z| >= 1 - BOUNDARY_MARGIN and for non-finite ones.
    """
    z = np.asarray(z, dtype=complex)
    outside = ~(np.abs(z) < 1.0 - BOUNDARY_MARGIN)
    if np.any(outside):
        first = z[outside].flat[0]
        raise ValueError(
            f"point {first} with |z| = {abs(first):.17g} is not an interior "
            f"point of the unit disk (margin {BOUNDARY_MARGIN:g})"
        )
    if z.ndim == 0:
        return complex(z)
    return z


@dataclass(frozen=True)
class SpaceParams:
    """Exponent pair (p, alpha) of a weighted Bergman space."""

    p: float
    alpha: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not self.alpha > -1:
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")

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
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    s, abs_sq = np.tanh(r), modulus(complex(a)) ** 2
    d = 1.0 - s**2 * abs_sq
    return EuclideanDisk(center=(1.0 - s**2) * complex(a) / d, radius=(1.0 - abs_sq) * s / d)


def _warn_outside_validated_range(r, what):
    if r > VALIDATED_MAX_RADIUS:
        warnings.warn(
            f"{what} evaluated at metric radius r = {r} > {VALIDATED_MAX_RADIUS}; "
            "the closed form extends but lies outside the validated range",
            stacklevel=3,
        )


def disk_area(a, r):
    """Normalized area |D(a, r)| = (1 - |a|^2)^2 s^2 / (1 - |a|^2 s^2)^2, s = tanh(r)."""
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
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
    # Temporary on the left: numpy reuses a large right-hand one with the operands swapped.
    out = (1.0 - np.conj(z) * w) ** (-(2.0 + alpha))
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


# Bound on sup_z |f_a - S_D| / (1 - |a|^2)^s of the truncated series (``kernel_series``).
SERIES_TAIL = 2.0**-60


# One entry is an int per (radius, exponent); a family sweep asks for one or two.
@lru_cache(maxsize=256)
def series_degree(r, e):
    """The least D whose tail bound b_{D+1} / (1 - q) is at most SERIES_TAIL.

    Here b_k = (e)_k / k! r^k and q = r max(1, (e + D + 1)/(D + 2)), which
    bounds b_{k+1} / b_k for every k > D, so that sum_{k > D} b_k <=
    b_{D+1} / (1 - q) once q < 1. The terms are formed in logs, so a large e
    does not overflow. D is 0 at r = 0 and grows linearly in e; r must lie
    in [0, 1), where the series converges.
    """
    if not 0 <= r < 1:
        raise ValueError(f"the kernel series needs 0 <= r < 1, got {r}")
    if r == 0:
        return 0
    log_tail = np.log(SERIES_TAIL)
    size = 64
    while True:
        d = np.arange(size)
        log_b = gammaln(e + d + 1) - gammaln(e) - gammaln(d + 2) + (d + 1) * np.log(r)
        q = r * np.maximum(1.0, (e + d + 1) / (d + 2))
        with np.errstate(divide="ignore"):
            ok = (q < 1) & (log_b - np.log1p(-np.minimum(q, 1.0)) <= log_tail)
        if ok.any():
            return int(np.argmax(ok))
        size *= 2


def kernel_series(a, params: SpaceParams, power=1, stride=1):
    """Ascending coefficients of the series S_D of f_a, one row per centre of ``a``.

    With s = (2+alpha)/p,

        f_a(z) = (1 - |a|^2)^s sum_k (2s)_k / k! (conj(a) z)^k,

    and every row stops at D = ``series_degree(max |a|, 2 s power)``, so that
    sup_{|z|<1} |f_a - S_D| <= SERIES_TAIL (1 - |a|^2)^s. The coefficients of
    S_D, and of E(S_D) under a conditional expectation that keeps or drops
    each power, are bounded by those of g = (1 - |a|^2)^s (1 - |a| z)^(-2s);
    so for an integer ``power`` m the coefficients of (E S_D)^m up to degree D
    are those of (E f_a)^m, and those above D are bounded by the tail of g^m,
    which gives sup |(E f_a)^m - (E S_D)^m| <= 2 SERIES_TAIL (1 - |a|^2)^(s m).
    The coefficients are formed in logs (``gammaln``), so a large alpha does
    not overflow. No centres give a (0, 1) array.

    A ``stride`` n keeps only the degrees 0, n, 2n, ... <= D, with the same D:
    the coefficients of g where E S_D = g(z^n) under z^n, bitwise every n-th
    column of the rows at stride 1. The moduli are formed once per distinct
    (|a|, 1 - |a|^2) and the phases once per distinct direction, so a ring of
    centres costs one row of each and one product per centre.
    """
    a = np.asarray(a, dtype=complex).ravel()
    if a.size == 0:
        return np.zeros((0, 1), dtype=complex)
    s = params.kernel_exponent
    radii = modulus(a)
    k = np.arange(0, series_degree(float(radii.max()), 2.0 * s * power) + 1, stride)
    rings = {}  # a dict, as in ``measures._psi_squared``: np.unique of pairs raises peak RSS
    ring = [rings.setdefault(key, len(rings))
            for key in zip(radii.tolist(), one_minus_modulus_sq(a).tolist())]
    radii, y = np.array(list(rings)).T
    log_mod = s * np.log(y)[:, None] + (gammaln(2.0 * s + k) - gammaln(2.0 * s) - gammaln(k + 1.0))
    with np.errstate(divide="ignore"):
        log_mod[:, 1:] += k[1:] * np.log(radii)[:, None]
    angles, direction = np.unique(np.angle(a), return_inverse=True)
    return np.exp(log_mod)[ring] * np.exp(-1j * np.outer(angles, k))[direction]


def kernel_power_modulus(a, z, t, y):
    """(y/|1 - conj(a) z|^2)^t, the modulus |f_a|^p for t = 2 + alpha, with
    y = 1 - |a|^2 from the caller in the shape of ``a``: rounding y here would
    cost about 1e-16/(1 - |a|^2) relative."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    base = y / np.abs(1.0 - np.conj(a) * z) ** 2
    out = base**t
    return float(out) if out.ndim == 0 else out


def kernel_extrema_on_disk(a, r):
    """Extrema of |k_a|^2 over the metric disk D(a, r), with s = tanh(r):

        inf = (1 - s|a|)^4 / (1 - |a|^2)^2
        sup = (1 + s|a|)^4 / (1 - |a|^2)^2

    Returns (inf, sup).
    """
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    _warn_outside_validated_range(r, "kernel_extrema_on_disk")
    aa = abs(complex(a))
    s = np.tanh(r)
    denom = (1.0 - aa**2) ** 2
    return float((1.0 - s * aa) ** 4 / denom), float((1.0 + s * aa) ** 4 / denom)
